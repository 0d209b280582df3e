// Shared argv parsing for the JSON-emitting benches (fig17_end_to_end,
// fleet_scaling, scenario_sweep, vgpu_isolation, batching_sweep,
// memory_pressure, dag_parallelism):
//
//   ./bench [--json PATH] [--seed N]
//   ./fleet_scaling [--quick] [--json PATH] [--seed N]
//
// --json emits the BENCH_*.json artifact the CI bench gate compares
// against bench/baselines/, --seed overrides the bench's default RNG
// seed (0 keeps the default so baselines stay reproducible). Each bench
// has one length, except fleet_scaling: its full run (up to 1024
// devices) is too long for CI, so it alone accepts --quick.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace sgdrc::bench {

struct BenchCli {
  bool quick = false;
  std::string json_path;
  uint64_t seed = 0;  // 0 = keep the bench default

  uint64_t seed_or(uint64_t fallback) const { return seed ? seed : fallback; }

  /// Parse argv; prints usage and exits(2) on unknown flags. --quick is
  /// unknown unless `accepts_quick`.
  static BenchCli parse(int argc, char** argv, bool accepts_quick = false) {
    BenchCli cli;
    for (int i = 1; i < argc; ++i) {
      if (accepts_quick && std::strcmp(argv[i], "--quick") == 0) {
        cli.quick = true;
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        cli.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        cli.seed = std::strtoull(argv[++i], nullptr, 0);
      } else {
        std::fprintf(stderr, "usage: %s %s[--json PATH] [--seed N]\n",
                     argv[0], accepts_quick ? "[--quick] " : "");
        std::exit(2);
      }
    }
    return cli;
  }
};

}  // namespace sgdrc::bench
