// §5.3 / Fig. 11 — cracking the VRAM channel hash mapping:
//  * SGDRC: timing-probe marking (majority-denoised) → 15 K samples →
//    train the DNN → lookup table; report accuracy vs the silicon oracle.
//  * FGPU baseline: XOR equation system — works on the GTX 1080 (linear
//    hash), turns inconsistent on P40/A2000 (non-linear) and is polluted
//    by even one noisy sample.
#include <cstdio>

#include "common/table.h"
#include "gpusim/device.h"
#include "reveng/fgpu_xor.h"
#include "reveng/lut.h"
#include "reveng/pipeline.h"
#include "reveng/marker.h"
#include "reveng/probe_arena.h"

using namespace sgdrc;
using namespace sgdrc::gpusim;
using namespace sgdrc::reveng;

int main() {
  std::printf("§5.3 — DNN-based hash learning vs FGPU's XOR solver\n\n");

  // The paper runs its DNN campaign on the two non-linear parts; the
  // GTX 1080's linear hash is FGPU's home turf and needs no DNN.
  TextTable t({"GPU", "samples", "probe noise", "holdout acc.",
               "LUT vs oracle"});
  for (const GpuSpec& spec : {tesla_p40(), rtx_a2000()}) {
    GpuDevice dev(spec, /*process_seed=*/0x5eed1);
    PipelineOptions opt;
    opt.samples = 15000;  // the paper's campaign size
    opt.hidden = {96, 48};
    opt.epochs = 60;
    HashCracker cracker(dev, opt);
    const auto report = cracker.run();

    // Score a lookup table over a 256 MiB window against the oracle.
    const auto lut = cracker.build_lut(0, 256ull << 20);
    const double lut_acc = lut_oracle_accuracy(lut, dev.oracle(), 20000, 7);

    t.add_row({spec.name, std::to_string(report.samples_collected),
               TextTable::pct(report.single_trial_noise),
               TextTable::pct(report.holdout_accuracy),
               TextTable::pct(lut_acc)});
  }
  t.print();

  std::printf(
      "\nFGPU's XOR equation solver on measured (majority-denoised) "
      "samples:\n");
  {
    TextTable f({"GPU", "system", "result"});
    for (const GpuSpec& spec : {gtx1080(), tesla_p40(), rtx_a2000()}) {
      GpuDevice dev(spec, 0x7a11);
      ProbeArena arena(dev, 0.9);
      ConflictProber prober(arena);
      prober.calibrate();
      ChannelMarker marker(arena, prober);
      marker.build(spec.num_channels);
      // FGPU needs only ~dozens of equations; heavy majority voting gets
      // this small set nearly noise-free (repeats=9).
      std::vector<std::pair<PhysAddr, unsigned>> samples;
      Rng rng(11);
      const uint64_t parts = arena.bytes() >> kPartitionBits;
      while (samples.size() < 120) {
        const PhysAddr pa = dev.pa_of(
            arena.base() + rng.uniform_u64(parts) * kPartitionBytes);
        if (const auto l = marker.label(pa, 9)) {
          samples.emplace_back(pa, *l);
        }
      }
      const auto fgpu = fgpu_solve(samples, spec.num_channels);
      std::string result;
      if (fgpu.success) {
        const auto flut = ChannelLut::from_function(
            [&](PhysAddr pa) {
              return static_cast<int>(fgpu_predict(fgpu, pa));
            },
            0, 256ull << 20, spec.num_channels);
        result = "solved; oracle acc " +
                 TextTable::pct(
                     lut_oracle_accuracy(flut, dev.oracle(), 20000, 9));
      } else {
        result = "FAILED: " + fgpu.failure.substr(0, 44);
      }
      f.add_row({spec.name, std::string("FGPU [23]"), result});
    }
    f.print();
  }

  std::printf(
      "\nFig. 11's noise claim — one flipped sample breaks FGPU's system\n"
      "even on the linear GTX 1080:\n");
  {
    GpuDevice dev(gtx1080(), 0xbad);
    Rng rng(3);
    std::vector<std::pair<PhysAddr, unsigned>> samples;
    for (int i = 0; i < 400; ++i) {
      const PhysAddr pa =
          rng.uniform_u64(dev.spec().partitions()) * kPartitionBytes;
      samples.emplace_back(pa, dev.oracle().channel_of(pa));
    }
    const auto clean = fgpu_solve(samples, dev.spec().num_channels);
    samples[100].second = (samples[100].second + 1) % 8;
    const auto noisy = fgpu_solve(samples, dev.spec().num_channels);
    std::printf("  clean samples: %s | one false positive: %s\n",
                clean.success ? "solved" : "failed",
                noisy.success ? "solved" : "failed");
  }

  std::printf(
      "\nPaper: the DNN labels >99.9%% of unseen addresses correctly;\n"
      "FGPU's assumption holds only on the GTX 1080 and collapses under\n"
      "the ~1%%/~5%% cache noise of Pascal/Ampere parts.\n");
  return 0;
}
