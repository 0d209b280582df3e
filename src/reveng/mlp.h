// A from-scratch multi-layer perceptron, the paper's §5.3 instrument:
// "DNNs have been proven to be theoretically capable of statistically
// meaningful approximation of any boolean function" — here it learns the
// VRAM channel hash from (physical address → channel id) samples.
//
// No external ML dependency: dense layers, ReLU, softmax cross-entropy,
// SGD with momentum and weight decay. Deterministic for a given seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/address.h"

namespace sgdrc::reveng {

class Mlp {
 public:
  struct TrainOptions {
    size_t epochs = 80;
    size_t batch = 32;
    double lr = 0.02;
    uint64_t seed = 0x7ea0;
  };

  /// The optimizer train() runs: SGD with momentum, decoupled weight
  /// decay and a per-epoch learning-rate decay.
  static constexpr double kMomentum = 0.9;
  static constexpr double kWeightDecay = 1e-5;
  static constexpr double kLrDecay = 0.99;  // multiplicative per epoch

  /// `layers` = {input, hidden..., output}; e.g. {25, 128, 64, 12}.
  Mlp(std::vector<size_t> layers, uint64_t seed);

  size_t input_dim() const { return layers_.front(); }
  size_t output_dim() const { return layers_.back(); }

  /// X is row-major [n × input_dim]; y holds class ids in [0, output_dim).
  /// Returns final training-set accuracy.
  double train(const std::vector<float>& x, const std::vector<int>& y,
               const TrainOptions& opt);

  int predict(const float* x) const;
  std::vector<int> predict_batch(const std::vector<float>& x) const;
  double accuracy(const std::vector<float>& x,
                  const std::vector<int>& y) const;

  /// Feature encoding used throughout: hash-input bits 10..34 of the
  /// physical address as ±1 values (25 features, Fig. 10's hash window).
  static constexpr size_t kAddressFeatures = 25;
  static void encode_pa(gpusim::PhysAddr pa, float* out);

 private:
  struct Layer {
    size_t in, out;
    std::vector<float> w, b;      // weights [out×in], bias [out]
    std::vector<float> vw, vb;    // momentum buffers
  };

  void forward(const float* x, std::vector<std::vector<float>>& acts) const;

  std::vector<size_t> layers_;
  std::vector<Layer> net_;
};

}  // namespace sgdrc::reveng
