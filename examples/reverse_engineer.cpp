// Reverse-engineer a black-box GPU's VRAM channel mapping end to end
// (§5 of the paper), through timing probes only:
//   1. calibrate hit/miss/bank-conflict thresholds (Mei&Chu-style),
//   2. discover the channels and their L2 fill sets (Algorithms 1-3),
//   3. collect majority-denoised samples and train the DNN,
//   4. build a lookup table and score it against the silicon oracle,
//   5. run the structure census (groups, region size → Tab. 4 rules).
//
//   ./reverse_engineer
#include <cstdio>

#include "gpusim/device.h"
#include "reveng/lut.h"
#include "reveng/permutation.h"
#include "reveng/pipeline.h"

using namespace sgdrc;
using namespace sgdrc::gpusim;
using namespace sgdrc::reveng;

int main() {
  // A small Ampere-like part keeps this example fast; swap in
  // tesla_p40() / rtx_a2000() for the full-size campaign (see
  // bench/sec53_hash_learning for those).
  GpuDevice dev(test_gpu(), /*process_seed=*/0x5eed);
  std::printf("GPU: %s — %u channels, %.1f GiB VRAM, noise %.0f%%\n",
              dev.spec().name.c_str(), dev.spec().num_channels,
              static_cast<double>(dev.spec().vram_bytes) / (1u << 30),
              100.0 * dev.spec().cache_noise_rate);

  PipelineOptions opt;
  opt.samples = 8000;
  opt.hidden = {64, 32};
  opt.epochs = 50;
  HashCracker cracker(dev, opt);
  const auto report = cracker.run();

  std::printf("\n-- campaign --\n");
  std::printf("thresholds: L2 miss > %s, bank conflict > %s\n",
              format_time(report.calibration.l2_miss_threshold).c_str(),
              format_time(report.calibration.bank_conflict_threshold).c_str());
  std::printf("channels discovered: %u\n", report.channels);
  std::printf("samples: %zu labelled, %zu unlabeled, %.1f%% raw probe noise\n",
              report.samples_collected, report.samples_unlabeled,
              100.0 * report.single_trial_noise);
  std::printf("timing probes issued: %llu\n",
              static_cast<unsigned long long>(report.probes));
  std::printf("DNN holdout accuracy (unseen addresses): %.2f%%\n",
              100.0 * report.holdout_accuracy);

  // Lookup table over the first 64 MiB, scored against the ground truth
  // the probes never saw.
  const auto lut = cracker.build_lut(0, 64ull << 20);
  std::printf("LUT accuracy vs silicon oracle: %.2f%%\n",
              100.0 * lut_oracle_accuracy(lut, dev.oracle(), 10000, 3));

  // Structure census — what Fig. 8/9 visualise.
  std::vector<int> labels;
  for (uint64_t p = 0; p < lut.partitions(); ++p) {
    labels.push_back(lut.channel_of(lut.start_pa() + p * kPartitionBytes));
  }
  const auto census = analyze_channel_labels(labels, report.channels);
  std::printf("\n-- structure --\n");
  std::printf("channel groups of %u, region size %u KiB "
              "(= max coloring granularity, Tab. 4)\n",
              census.region_size, census.region_size);
  std::printf("%zu permutation patterns, uniformity deviation %.1f%%\n",
              census.pattern_counts.size(),
              100.0 * census.pattern_uniform_deviation);
  return 0;
}
