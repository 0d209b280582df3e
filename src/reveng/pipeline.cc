#include "reveng/pipeline.h"

#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "reveng/marker.h"

namespace sgdrc::reveng {

using gpusim::kPartitionBytes;
using gpusim::PhysAddr;

HashCracker::HashCracker(gpusim::GpuDevice& dev, PipelineOptions opt)
    : dev_(dev), opt_(std::move(opt)) {}

HashCracker::~HashCracker() = default;

PipelineReport HashCracker::run() {
  PipelineReport report;
  Rng rng(kSeed);

  // --- Stage 1: arena + calibration (§5.1, [30]-style micro-benchmarks).
  // A rerun frees the previous arena first: two of them do not fit.
  arena_.reset();
  arena_ = std::make_unique<ProbeArena>(dev_);
  ConflictProber prober(*arena_);
  report.calibration = prober.calibrate(rng.next_u64());

  // --- Stage 2: channel discovery. The channel count is public data
  // (Tab. 1: bus width / per-GDDR width, cross-validated by PCB photos).
  const unsigned channels =
      dev_.spec().vram_bus_width_bits / gpusim::GpuSpec::kBusWidthPerGddrBits;
  ChannelMarker marker(*arena_, prober, rng.next_u64());
  marker.build(channels);
  report.channels = channels;

  // --- Stage 3: sample campaign with majority denoising. Labels are
  // discovered channel ids.
  std::vector<std::pair<PhysAddr, unsigned>> samples;
  samples.reserve(opt_.samples);
  const uint64_t arena_parts = arena_->bytes() >> gpusim::kPartitionBits;
  size_t single_disagree = 0, single_total = 0;
  while (samples.size() < opt_.samples) {
    const gpusim::VirtAddr va =
        arena_->base() + rng.uniform_u64(arena_parts) * kPartitionBytes;
    const PhysAddr pa = dev_.pa_of(va);
    const auto majority = marker.label(pa);
    if (!majority) {
      ++report.samples_unlabeled;
      continue;
    }
    samples.emplace_back(pa, *majority);
    // Estimate raw single-probe noise on a subsample.
    if (samples.size() % 16 == 0) {
      ++single_total;
      const auto single = marker.label_single_trial(pa);
      single_disagree += !single || *single != *majority;
    }
  }
  report.samples_collected = samples.size();
  report.single_trial_noise =
      single_total ? static_cast<double>(single_disagree) /
                         static_cast<double>(single_total)
                   : 0.0;

  // --- Stage 4: train the DNN on bits 10..34 → discovered channel id.
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  const size_t holdout = static_cast<size_t>(
      static_cast<double>(samples.size()) * kHoldoutFraction);
  const size_t train_n = samples.size() - holdout;

  std::vector<float> train_x(train_n * Mlp::kAddressFeatures);
  std::vector<int> train_y(train_n);
  std::vector<float> hold_x(holdout * Mlp::kAddressFeatures);
  std::vector<int> hold_y(holdout);
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto& [pa, label] = samples[order[i]];
    if (i < train_n) {
      Mlp::encode_pa(pa, &train_x[i * Mlp::kAddressFeatures]);
      train_y[i] = static_cast<int>(label);
    } else {
      const size_t j = i - train_n;
      Mlp::encode_pa(pa, &hold_x[j * Mlp::kAddressFeatures]);
      hold_y[j] = static_cast<int>(label);
    }
  }

  std::vector<size_t> arch{Mlp::kAddressFeatures};
  arch.insert(arch.end(), opt_.hidden.begin(), opt_.hidden.end());
  arch.push_back(channels);
  model_ = std::make_unique<Mlp>(arch, rng.next_u64());
  Mlp::TrainOptions topt;
  topt.epochs = opt_.epochs;
  topt.seed = rng.next_u64();
  model_->train(train_x, train_y, topt);
  report.holdout_accuracy =
      holdout ? model_->accuracy(hold_x, hold_y) : 1.0;
  report.probes = prober.probe_count();
  return report;
}

ChannelLut HashCracker::build_lut(PhysAddr start_pa, PhysAddr end_pa) const {
  SGDRC_REQUIRE(model_ != nullptr, "run() the pipeline first");
  return ChannelLut::from_mlp(*model_, start_pa, end_pa,
                              dev_.spec().num_channels);
}

}  // namespace sgdrc::reveng
