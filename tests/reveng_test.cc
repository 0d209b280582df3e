// Tests for the reverse-engineering pipeline: probes (Algos 1–3), channel
// marking, permutation census, the DNN hash learner, and FGPU's baseline.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "gpusim/device.h"
#include "gpusim/gpu_spec.h"
#include "reveng/conflict.h"
#include "reveng/fgpu_xor.h"
#include "reveng/lut.h"
#include "reveng/marker.h"
#include "reveng/mlp.h"
#include "reveng/permutation.h"
#include "reveng/pipeline.h"
#include "reveng/probe_arena.h"

namespace sgdrc::reveng {
namespace {

using gpusim::GpuDevice;
using gpusim::GpuSpec;
using gpusim::kPartitionBytes;
using gpusim::PhysAddr;

GpuSpec noisy_test_gpu(double noise = 0.05) {
  GpuSpec s = gpusim::test_gpu();
  s.cache_noise_rate = noise;
  return s;
}

// --------------------------------------------------------- ProbeArena ----

TEST(ProbeArena, CoversRequestedFraction) {
  GpuDevice dev(gpusim::test_gpu(), 7);
  ProbeArena arena(dev, 0.5);
  EXPECT_NEAR(static_cast<double>(arena.bytes()) /
                  static_cast<double>(dev.spec().vram_bytes),
              0.5, 0.01);
}

TEST(ProbeArena, PaVaRoundTrip) {
  GpuDevice dev(gpusim::test_gpu(), 7);
  ProbeArena arena(dev, 0.25);
  for (uint64_t off = 0; off < arena.bytes(); off += 37 * kPartitionBytes) {
    const PhysAddr pa = dev.pa_of(arena.base() + off);
    ASSERT_TRUE(arena.owns_pa(pa));
    ASSERT_EQ(dev.pa_of(arena.va_of(pa)), pa);
  }
}

TEST(ProbeArena, RejectsForeignPa) {
  GpuDevice dev(gpusim::test_gpu(), 7);
  ProbeArena arena(dev, 0.25);
  // Find an unowned physical partition (75% of VRAM is outside).
  for (uint64_t p = 0;; ++p) {
    const PhysAddr pa = p * kPartitionBytes;
    if (!arena.owns_pa(pa)) {
      EXPECT_THROW(arena.va_of(pa), ConfigError);
      break;
    }
  }
}

// ----------------------------------------------------- ConflictProber ----

class ProberTest : public ::testing::Test {
 protected:
  ProberTest() : dev_(gpusim::test_gpu(), 11), arena_(dev_, 0.9),
                 prober_(arena_) {
    cal_ = prober_.calibrate(5);
  }
  GpuDevice dev_;
  ProbeArena arena_;
  ConflictProber prober_;
  CalibrationResult cal_;
};

TEST_F(ProberTest, CalibrationSeparatesHitAndMiss) {
  EXPECT_GT(cal_.l2_miss_ns, cal_.l2_hit_ns);
  EXPECT_GT(cal_.l2_miss_threshold, cal_.l2_hit_ns);
  EXPECT_LT(cal_.l2_miss_threshold, cal_.l2_miss_ns);
  EXPECT_GT(cal_.bank_conflict_threshold, cal_.pair_baseline_ns);
}

TEST_F(ProberTest, BankConflictProbeMatchesOracle) {
  const auto& oracle = dev_.oracle();
  // Evaluate precision/recall of Algorithm 1 on candidate pairs.
  int tp = 0, fp = 0, fn = 0, tn = 0;
  const PhysAddr base = dev_.pa_of(arena_.base());
  arena_.for_each_partition(0, [&](PhysAddr pa) {
    if (pa == base) return true;
    if (tp + fp + fn + tn >= 3000) return false;
    const bool truth = oracle.channel_of(pa) == oracle.channel_of(base) &&
                       oracle.bank_of(pa) == oracle.bank_of(base) &&
                       oracle.row_of(pa) != oracle.row_of(base);
    const bool measured = prober_.is_dram_bank_conflicted(base, pa);
    tp += truth && measured;
    fp += !truth && measured;
    fn += truth && !measured;
    tn += !truth && !measured;
    return true;
  });
  EXPECT_EQ(fp, 0);
  EXPECT_EQ(fn, 0);
  EXPECT_GT(tp, 5);  // conflicts exist in a 3000-partition scan
}

TEST_F(ProberTest, DramConflictAddrsShareChannel) {
  const PhysAddr base = dev_.pa_of(arena_.base());
  const auto conflicts = prober_.find_dram_conflict_addrs(base, 16);
  ASSERT_GE(conflicts.size(), 8u);
  const auto& oracle = dev_.oracle();
  for (const PhysAddr pa : conflicts) {
    EXPECT_EQ(oracle.channel_of(pa), oracle.channel_of(base));
  }
}

TEST_F(ProberTest, FillEvictsOwnChannelOnly) {
  // Build a fill set for base's channel from DRAM conflicts, then verify
  // Algorithm 3's core claim: it evicts same-channel addresses and leaves
  // other channels' lines alone (Fig. 11 right).
  const PhysAddr base = dev_.pa_of(arena_.base());
  const auto partitions = prober_.find_dram_conflict_addrs(base, 200);
  std::vector<PhysAddr> fill;
  for (const PhysAddr p : partitions) {
    for (uint64_t off = 0; off < kPartitionBytes; off += 128) {
      fill.push_back(p + off);
    }
  }
  const auto& oracle = dev_.oracle();
  int same_evicted = 0, same_total = 0, other_evicted = 0, other_total = 0;
  arena_.for_each_partition(1, [&](PhysAddr pa) {
    if (same_total >= 20 && other_total >= 20) return false;
    const bool same = oracle.channel_of(pa) == oracle.channel_of(base);
    if (same && same_total < 20) {
      ++same_total;
      same_evicted += prober_.fill_evicts(pa, fill);
    } else if (!same && other_total < 20) {
      ++other_total;
      other_evicted += prober_.fill_evicts(pa, fill);
    }
    return true;
  });
  EXPECT_EQ(same_evicted, same_total);
  EXPECT_EQ(other_evicted, 0);
}

TEST_F(ProberTest, CacheConflictAddrsShareChannelAndSet) {
  const PhysAddr base = dev_.pa_of(arena_.base());
  const auto conflicts = prober_.find_cache_conflict_addrs(base, 4);
  ASSERT_GE(conflicts.size(), 1u);
  const auto& oracle = dev_.oracle();
  for (const PhysAddr pa : conflicts) {
    EXPECT_EQ(oracle.channel_of(pa), oracle.channel_of(base));
    EXPECT_EQ(oracle.l2_set_of(pa), oracle.l2_set_of(base));
  }
}

TEST_F(ProberTest, PchaseRefreshEquivalentToFlush) {
  // The simulator's O(1) flush must be observably identical to the
  // hardware-realistic pointer-chase refresh: in both cases a previously
  // resident line misses afterwards.
  const PhysAddr pa = dev_.pa_of(arena_.base() + 123 * kPartitionBytes);

  arena_.read_pa(pa);
  prober_.refresh_l2();
  const auto after_flush = arena_.read_pa(pa);
  EXPECT_FALSE(after_flush.l2_hit);

  arena_.read_pa(pa);
  prober_.refresh_l2_via_pchase();
  const auto after_pchase = arena_.read_pa(pa);
  EXPECT_FALSE(after_pchase.l2_hit);
}

// ------------------------------------------------------ ChannelMarker ----

TEST(ChannelMarker, LabelsAgreeWithOracle) {
  GpuDevice dev(gpusim::test_gpu(), 13);
  ProbeArena arena(dev, 0.9);
  ConflictProber prober(arena);
  prober.calibrate(3);
  ChannelMarker marker(arena, prober);
  marker.build(dev.spec().num_channels);

  Rng rng(21);
  const uint64_t parts = arena.bytes() >> gpusim::kPartitionBits;
  std::vector<int> discovered, truth;
  for (int i = 0; i < 300; ++i) {
    const PhysAddr pa =
        dev.pa_of(arena.base() + rng.uniform_u64(parts) * kPartitionBytes);
    const auto label = marker.label(pa);
    ASSERT_TRUE(label.has_value());
    discovered.push_back(static_cast<int>(*label));
    truth.push_back(static_cast<int>(dev.oracle().channel_of(pa)));
  }
  const auto map = align_labels(discovered, truth, dev.spec().num_channels);
  int ok = 0;
  for (size_t i = 0; i < discovered.size(); ++i) {
    ok += map[discovered[i]] == truth[i];
  }
  EXPECT_EQ(ok, 300);  // noise-free part: marking is exact
}

TEST(ChannelMarker, RejectsZeroVotes) {
  // No vote, no majority: zero repeats is a caller error.
  GpuDevice dev(gpusim::test_gpu(), 13);
  ProbeArena arena(dev, 0.25);
  ConflictProber prober(arena);
  ChannelMarker marker(arena, prober);
  EXPECT_THROW(marker.label(dev.pa_of(arena.base()), 0), ConfigError);
}

TEST(ChannelMarker, MajorityDenoisesNoisyGpu) {
  GpuDevice dev(noisy_test_gpu(0.05), 17);
  ProbeArena arena(dev, 0.9);
  ConflictProber prober(arena);
  prober.calibrate(3);
  ChannelMarker marker(arena, prober);
  marker.build(dev.spec().num_channels);

  Rng rng(23);
  const uint64_t parts = arena.bytes() >> gpusim::kPartitionBits;
  std::vector<int> majority3, truth;
  int single_wrong = 0, n = 200;
  for (int i = 0; i < n; ++i) {
    const PhysAddr pa =
        dev.pa_of(arena.base() + rng.uniform_u64(parts) * kPartitionBytes);
    const int t = static_cast<int>(dev.oracle().channel_of(pa));
    truth.push_back(t);
    const auto maj = marker.label(pa, 5);
    majority3.push_back(maj ? static_cast<int>(*maj) : -1);
    const auto single = marker.label_single_trial(pa);
    single_wrong += !single.has_value();  // unlabeled counts as wrong here
  }
  const auto map = align_labels(majority3, truth, dev.spec().num_channels);
  int maj_ok = 0;
  for (int i = 0; i < n; ++i) {
    maj_ok += majority3[i] >= 0 && map[majority3[i]] == truth[i];
  }
  // ≥97% with majority voting — the §5.3 noise-tolerance claim.
  EXPECT_GE(maj_ok, n * 97 / 100);
}

// ------------------------------------------------------------- Census ----

TEST(PermutationCensus, RecoversPairStructure) {
  // Oracle labels over a contiguous window on an Ampere-like part.
  const GpuSpec spec = gpusim::rtx_a2000();
  const gpusim::AddressMapping oracle(spec);
  std::vector<int> labels;
  for (uint64_t p = 0; p < 16384; ++p) {
    labels.push_back(static_cast<int>(oracle.channel_of(p * kPartitionBytes)));
  }
  const auto census = analyze_channel_labels(labels, spec.num_channels);
  EXPECT_EQ(census.region_size, 2u);  // Tab. 4: A2000 pairs
  ASSERT_EQ(census.groups.size(), 3u);
  std::set<unsigned> seen;
  for (const auto& g : census.groups) {
    EXPECT_EQ(g.size(), 2u);
    for (unsigned c : g) seen.insert(c);
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_GE(census.pattern_counts.size(), 2u);
  EXPECT_LT(census.pattern_uniform_deviation, 0.25);
}

TEST(PermutationCensus, RecoversQuadStructure) {
  const GpuSpec spec = gpusim::tesla_p40();
  const gpusim::AddressMapping oracle(spec);
  std::vector<int> labels;
  for (uint64_t p = 0; p < 32768; ++p) {
    labels.push_back(static_cast<int>(oracle.channel_of(p * kPartitionBytes)));
  }
  const auto census = analyze_channel_labels(labels, spec.num_channels);
  EXPECT_EQ(census.region_size, 4u);  // Tab. 4: P40 quads
  EXPECT_EQ(census.groups.size(), 3u);
  EXPECT_GE(census.pattern_counts.size(), 4u);
}

TEST(PermutationCensus, ToleratesLabelNoise) {
  const GpuSpec spec = gpusim::rtx_a2000();
  const gpusim::AddressMapping oracle(spec);
  Rng rng(31);
  std::vector<int> labels;
  for (uint64_t p = 0; p < 16384; ++p) {
    int l = static_cast<int>(oracle.channel_of(p * kPartitionBytes));
    if (rng.bernoulli(0.03)) {
      l = static_cast<int>(rng.uniform_u64(spec.num_channels));
    }
    labels.push_back(l);
  }
  const auto census = analyze_channel_labels(labels, spec.num_channels);
  EXPECT_EQ(census.region_size, 2u);
  EXPECT_EQ(census.groups.size(), 3u);
  EXPECT_GT(census.inconsistent_fraction, 0.0);
  EXPECT_LT(census.inconsistent_fraction, 0.15);
}

// ---------------------------------------------------------------- MLP ----

TEST(Mlp, LearnsXor) {
  // Sanity: a 2-layer net must solve XOR (FGPU's linear model cannot).
  Mlp net({2, 8, 2}, 5);
  std::vector<float> x{-1, -1, -1, 1, 1, -1, 1, 1};
  std::vector<int> y{0, 1, 1, 0};
  Mlp::TrainOptions opt;
  opt.epochs = 500;
  const double acc = net.train(x, y, opt);
  EXPECT_DOUBLE_EQ(acc, 1.0);
}

TEST(Mlp, DeterministicGivenSeed) {
  std::vector<float> x;
  std::vector<int> y;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const uint64_t v = rng.next_u64() & 0xF;
    for (int b = 0; b < 4; ++b) x.push_back((v >> b) & 1 ? 1.f : -1.f);
    y.push_back(static_cast<int>(v % 3));
  }
  Mlp a({4, 16, 3}, 9), b({4, 16, 3}, 9);
  Mlp::TrainOptions opt;
  opt.epochs = 30;
  a.train(x, y, opt);
  b.train(x, y, opt);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.predict(&x[i * 4]), b.predict(&x[i * 4]));
  }
}

TEST(Mlp, LearnsChannelHashFromOracleSamples) {
  // The §5.3 claim in miniature: bits 10..34 → channel is learnable.
  const GpuSpec spec = gpusim::test_gpu();
  const gpusim::AddressMapping oracle(spec);
  Rng rng(41);
  const uint64_t parts = spec.partitions();
  const size_t n_train = 9000, n_test = 2000;
  std::vector<float> xtr(n_train * Mlp::kAddressFeatures);
  std::vector<int> ytr(n_train);
  std::vector<float> xte(n_test * Mlp::kAddressFeatures);
  std::vector<int> yte(n_test);
  for (size_t i = 0; i < n_train + n_test; ++i) {
    const PhysAddr pa = rng.uniform_u64(parts) * kPartitionBytes;
    const int label = static_cast<int>(oracle.channel_of(pa));
    if (i < n_train) {
      Mlp::encode_pa(pa, &xtr[i * Mlp::kAddressFeatures]);
      ytr[i] = label;
    } else {
      Mlp::encode_pa(pa, &xte[(i - n_train) * Mlp::kAddressFeatures]);
      yte[i - n_train] = label;
    }
  }
  Mlp net({Mlp::kAddressFeatures, 96, 48, spec.num_channels}, 77);
  Mlp::TrainOptions opt;
  opt.epochs = 40;
  net.train(xtr, ytr, opt);
  EXPECT_GT(net.accuracy(xte, yte), 0.99);
}

TEST(Mlp, RejectsBadShapes) {
  Mlp net({4, 8, 2}, 1);
  std::vector<float> x(7);  // not a multiple of 4
  EXPECT_THROW(net.predict_batch(x), ConfigError);
  std::vector<int> y{0, 5};  // label out of range
  std::vector<float> x2(8);
  EXPECT_THROW(net.train(x2, y, {}), ConfigError);
}

// ---------------------------------------------------------------- LUT ----

TEST(ChannelLut, FromOracleFunctionRoundTrip) {
  const GpuSpec spec = gpusim::test_gpu();
  const gpusim::AddressMapping oracle(spec);
  const auto lut = ChannelLut::from_function(
      [&](PhysAddr pa) { return static_cast<int>(oracle.channel_of(pa)); },
      0, 8ull << 20, spec.num_channels);
  EXPECT_DOUBLE_EQ(lut_oracle_accuracy(lut, oracle, 4000, 1), 1.0);
}

TEST(ChannelLut, AlignmentFixesPermutedLabels) {
  const GpuSpec spec = gpusim::test_gpu();
  const gpusim::AddressMapping oracle(spec);
  // Labels permuted by a fixed rotation: alignment must undo it.
  const auto lut = ChannelLut::from_function(
      [&](PhysAddr pa) {
        return static_cast<int>((oracle.channel_of(pa) + 1) %
                                spec.num_channels);
      },
      0, 8ull << 20, spec.num_channels);
  EXPECT_DOUBLE_EQ(lut_oracle_accuracy(lut, oracle, 4000, 1), 1.0);
}

TEST(ChannelLut, OutOfRangeThrows) {
  ChannelLut lut(0, 1ull << 20, 4);
  EXPECT_THROW(lut.channel_of(2ull << 20), ConfigError);
  EXPECT_THROW(lut.set(0, 9), ConfigError);
}

// ----------------------------------------------------------- FgpuXor ----

std::vector<std::pair<PhysAddr, unsigned>> oracle_samples(
    const GpuSpec& spec, size_t n, uint64_t seed) {
  const gpusim::AddressMapping oracle(spec);
  Rng rng(seed);
  std::vector<std::pair<PhysAddr, unsigned>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const PhysAddr pa = rng.uniform_u64(spec.partitions()) * kPartitionBytes;
    out.emplace_back(pa, oracle.channel_of(pa));
  }
  return out;
}

TEST(FgpuXor, CracksLinearGtx1080) {
  const GpuSpec spec = gpusim::gtx1080();
  const auto samples = oracle_samples(spec, 500, 3);
  const auto model = fgpu_solve(samples, spec.num_channels);
  ASSERT_TRUE(model.success) << model.failure;
  // Perfect generalisation on fresh addresses.
  const auto fresh = oracle_samples(spec, 2000, 4);
  EXPECT_DOUBLE_EQ(fgpu_accuracy(model, fresh), 1.0);
}

TEST(FgpuXor, FailsOnNonLinearParts) {
  // §3.2: "We attempted to reverse engineer other GPUs using FGPU's
  // approach, but all failed."
  for (const GpuSpec& spec : {gpusim::tesla_p40(), gpusim::rtx_a2000()}) {
    const auto samples = oracle_samples(spec, 800, 5);
    const auto model = fgpu_solve(samples, spec.num_channels);
    EXPECT_FALSE(model.success) << spec.name;
  }
}

TEST(FgpuXor, OneNoisySamplePollutesTheSystem) {
  // §3.2: "Even one false positive sample can pollute the equation system."
  const GpuSpec spec = gpusim::gtx1080();
  auto samples = oracle_samples(spec, 500, 7);
  samples[123].second = (samples[123].second + 1) % spec.num_channels;
  const auto model = fgpu_solve(samples, spec.num_channels);
  EXPECT_FALSE(model.success);
}

TEST(FgpuXor, RejectsNonPowerOfTwoChannels) {
  const auto samples = oracle_samples(gpusim::tesla_p40(), 100, 9);
  const auto model = fgpu_solve(samples, 12);
  EXPECT_FALSE(model.success);
  EXPECT_NE(model.failure.find("power of two"), std::string::npos);
}

// ------------------------------------------------------- HashCracker ----

TEST(HashCracker, EndToEndOnCleanPart) {
  GpuDevice dev(gpusim::test_gpu(), 51);
  PipelineOptions opt;
  opt.samples = 6000;
  opt.hidden = {64, 32};
  opt.epochs = 60;
  HashCracker cracker(dev, opt);
  const auto report = cracker.run();
  EXPECT_EQ(report.channels, dev.spec().num_channels);
  EXPECT_EQ(report.samples_collected, 6000u);
  EXPECT_GT(report.holdout_accuracy, 0.97);
  // Exact values pin the campaign: a change to its probes, its seeds or
  // the order of its random draws moves at least one of them.
  EXPECT_EQ(report.calibration.l2_hit_ns, TimeNs{160});
  EXPECT_EQ(report.calibration.l2_miss_ns, TimeNs{490});
  EXPECT_EQ(report.calibration.l2_miss_threshold, TimeNs{325});
  EXPECT_EQ(report.calibration.pair_baseline_ns, TimeNs{490});
  EXPECT_EQ(report.calibration.bank_conflict_threshold, TimeNs{660});
  EXPECT_EQ(report.samples_unlabeled, 3u);
  EXPECT_EQ(report.probes, 47'470'958u);
  EXPECT_EQ(report.holdout_accuracy, 1.0);

  const auto lut = cracker.build_lut(0, 64ull << 20);
  EXPECT_GT(lut_oracle_accuracy(lut, dev.oracle(), 5000, 1), 0.97);
}

TEST(HashCracker, SecondRunRetrainsFromScratch) {
  // Each run maps a probe arena over 90% of VRAM, so a rerun must free
  // the previous one first.
  GpuDevice dev(gpusim::test_gpu(), 51);
  PipelineOptions opt;
  opt.samples = 500;
  opt.hidden = {16};
  opt.epochs = 2;
  HashCracker cracker(dev, opt);
  cracker.run();
  const auto report = cracker.run();
  EXPECT_EQ(report.samples_collected, 500u);
  EXPECT_EQ(report.channels, dev.spec().num_channels);
}

TEST(HashCracker, SurvivesAmpereNoise) {
  GpuDevice dev(noisy_test_gpu(0.05), 53);
  PipelineOptions opt;
  opt.samples = 6000;
  opt.hidden = {64, 32};
  opt.epochs = 60;
  HashCracker cracker(dev, opt);
  const auto report = cracker.run();
  EXPECT_GT(report.single_trial_noise, 0.0);  // raw probes are noisy
  const auto lut = cracker.build_lut(0, 64ull << 20);
  // Majority marking + DNN smoothing still beat the raw noise level.
  EXPECT_GT(lut_oracle_accuracy(lut, dev.oracle(), 5000, 1), 0.95);
}

}  // namespace
}  // namespace sgdrc::reveng
