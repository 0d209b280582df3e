// End-to-end §5 pipeline: calibrate timing thresholds → discover channels
// and fill sets → collect labelled samples (with majority denoising) →
// train the DNN → emit lookup tables.
//
// On real hardware this campaign took the authors a month per GPU; the
// simulator serves probes immediately, but the sample budget (15 K) and
// every algorithmic step match the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/device.h"
#include "reveng/conflict.h"
#include "reveng/lut.h"
#include "reveng/mlp.h"

namespace sgdrc::reveng {

struct PipelineOptions {
  size_t samples = 15000;                      // paper's §5.3 sample budget
  std::vector<size_t> hidden = {128, 64};      // DNN hidden-layer widths
  size_t epochs = Mlp::TrainOptions{}.epochs;  // DNN training epochs
};

struct PipelineReport {
  CalibrationResult calibration;
  unsigned channels = 0;
  size_t samples_collected = 0;   // labelled (majority reached)
  size_t samples_unlabeled = 0;   // majority failed (noise)
  double single_trial_noise = 0;  // single-probe disagreement vs majority
  double holdout_accuracy = 0;    // DNN vs marker labels, unseen addresses
  uint64_t probes = 0;
};

class HashCracker {
 public:
  /// Share of the labelled samples held out to score the DNN.
  static constexpr double kHoldoutFraction = 0.1;
  /// Seeds every random draw of run(), in a fixed order.
  static constexpr uint64_t kSeed = 0x5a1e;

  HashCracker(gpusim::GpuDevice& dev, PipelineOptions opt = {});
  ~HashCracker();

  /// Run the full campaign. A rerun frees the previous run's arena, maps
  /// a fresh one and retrains from scratch.
  PipelineReport run();

  /// Batch-infer a lookup table over [start_pa, end_pa).
  ChannelLut build_lut(gpusim::PhysAddr start_pa,
                       gpusim::PhysAddr end_pa) const;

 private:
  gpusim::GpuDevice& dev_;
  PipelineOptions opt_;
  /// Held until the next run() or destruction: the arena's VRAM stays
  /// allocated, and later allocations on the device see it.
  std::unique_ptr<ProbeArena> arena_;
  std::unique_ptr<Mlp> model_;
};

}  // namespace sgdrc::reveng
