#include "reveng/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/bitops.h"
#include "common/error.h"
#include "common/rng.h"

namespace sgdrc::reveng {

void Mlp::encode_pa(gpusim::PhysAddr pa, float* out) {
  const uint64_t x = extract_bits(pa, gpusim::kPartitionBits,
                                  gpusim::kHashInputHighBit);
  for (size_t b = 0; b < kAddressFeatures; ++b) {
    out[b] = (x >> b) & 1 ? 1.0f : -1.0f;
  }
}

Mlp::Mlp(std::vector<size_t> layers, uint64_t seed)
    : layers_(std::move(layers)) {
  SGDRC_REQUIRE(layers_.size() >= 2, "need at least input and output layers");
  Rng rng(seed);
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    Layer lay;
    lay.in = layers_[l];
    lay.out = layers_[l + 1];
    lay.w.resize(lay.in * lay.out);
    lay.b.assign(lay.out, 0.0f);
    lay.vw.assign(lay.w.size(), 0.0f);
    lay.vb.assign(lay.out, 0.0f);
    // He initialisation.
    const double scale = std::sqrt(2.0 / static_cast<double>(lay.in));
    for (auto& w : lay.w) {
      w = static_cast<float>(rng.normal(0.0, scale));
    }
    net_.push_back(std::move(lay));
  }
}

void Mlp::forward(const float* x,
                  std::vector<std::vector<float>>& acts) const {
  acts.resize(net_.size() + 1);
  acts[0].assign(x, x + layers_[0]);
  for (size_t l = 0; l < net_.size(); ++l) {
    const Layer& lay = net_[l];
    auto& out = acts[l + 1];
    out.assign(lay.out, 0.0f);
    const auto& in = acts[l];
    for (size_t o = 0; o < lay.out; ++o) {
      const float* wrow = &lay.w[o * lay.in];
      float s = lay.b[o];
      for (size_t i = 0; i < lay.in; ++i) s += wrow[i] * in[i];
      // ReLU on hidden layers; identity (logits) on the last.
      out[o] = (l + 1 < net_.size()) ? std::max(0.0f, s) : s;
    }
  }
}

double Mlp::train(const std::vector<float>& x, const std::vector<int>& y,
                  const TrainOptions& opt) {
  const size_t n = y.size();
  SGDRC_REQUIRE(x.size() == n * input_dim(), "X shape mismatch");
  for (int label : y) {
    SGDRC_REQUIRE(label >= 0 && static_cast<size_t>(label) < output_dim(),
                  "label out of range");
  }

  Rng rng(opt.seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});

  // Gradient accumulators (reused across batches).
  std::vector<std::vector<float>> gw(net_.size()), gb(net_.size());
  for (size_t l = 0; l < net_.size(); ++l) {
    gw[l].assign(net_[l].w.size(), 0.0f);
    gb[l].assign(net_[l].out, 0.0f);
  }
  std::vector<std::vector<float>> acts;
  std::vector<std::vector<float>> deltas(net_.size() + 1);

  double lr = kLr;
  for (size_t epoch = 0; epoch < opt.epochs; ++epoch) {
    rng.shuffle(order);
    for (size_t start = 0; start < n; start += kBatch) {
      const size_t end = std::min(n, start + kBatch);
      const float inv = 1.0f / static_cast<float>(end - start);
      for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0f);
      for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0f);

      for (size_t s = start; s < end; ++s) {
        const size_t idx = order[s];
        forward(&x[idx * input_dim()], acts);

        // Softmax cross-entropy gradient at the output.
        auto& out = acts.back();
        float maxv = *std::max_element(out.begin(), out.end());
        float z = 0.0f;
        for (float v : out) z += std::exp(v - maxv);
        auto& dout = deltas[net_.size()];
        dout.resize(out.size());
        for (size_t o = 0; o < out.size(); ++o) {
          const float p = std::exp(out[o] - maxv) / z;
          dout[o] = p - (static_cast<int>(o) == y[idx] ? 1.0f : 0.0f);
        }

        // Backprop.
        for (size_t l = net_.size(); l-- > 0;) {
          const Layer& lay = net_[l];
          const auto& in = acts[l];
          const auto& dout_l = deltas[l + 1];
          auto& din = deltas[l];
          din.assign(lay.in, 0.0f);
          for (size_t o = 0; o < lay.out; ++o) {
            const float d = dout_l[o];
            if (d == 0.0f) continue;
            gb[l][o] += d * inv;
            float* gwrow = &gw[l][o * lay.in];
            const float* wrow = &lay.w[o * lay.in];
            for (size_t i = 0; i < lay.in; ++i) {
              gwrow[i] += d * in[i] * inv;
              din[i] += d * wrow[i];
            }
          }
          if (l > 0) {
            // ReLU derivative of the hidden activation.
            for (size_t i = 0; i < lay.in; ++i) {
              if (acts[l][i] <= 0.0f) din[i] = 0.0f;
            }
          }
        }
      }

      // SGD with momentum + decoupled weight decay.
      for (size_t l = 0; l < net_.size(); ++l) {
        Layer& lay = net_[l];
        for (size_t i = 0; i < lay.w.size(); ++i) {
          lay.vw[i] = static_cast<float>(kMomentum) * lay.vw[i] -
                      static_cast<float>(lr) * gw[l][i];
          lay.w[i] += lay.vw[i] -
                      static_cast<float>(lr * kWeightDecay) * lay.w[i];
        }
        for (size_t o = 0; o < lay.out; ++o) {
          lay.vb[o] = static_cast<float>(kMomentum) * lay.vb[o] -
                      static_cast<float>(lr) * gb[l][o];
          lay.b[o] += lay.vb[o];
        }
      }
    }
    lr *= kLrDecay;
  }
  return accuracy(x, y);
}

int Mlp::predict(const float* x) const {
  std::vector<std::vector<float>> acts;
  forward(x, acts);
  const auto& out = acts.back();
  return static_cast<int>(
      std::max_element(out.begin(), out.end()) - out.begin());
}

std::vector<int> Mlp::predict_batch(const std::vector<float>& x) const {
  SGDRC_REQUIRE(x.size() % input_dim() == 0, "X shape mismatch");
  const size_t n = x.size() / input_dim();
  std::vector<int> out(n);
  std::vector<std::vector<float>> acts;
  for (size_t s = 0; s < n; ++s) {
    forward(&x[s * input_dim()], acts);
    const auto& o = acts.back();
    out[s] =
        static_cast<int>(std::max_element(o.begin(), o.end()) - o.begin());
  }
  return out;
}

double Mlp::accuracy(const std::vector<float>& x,
                     const std::vector<int>& y) const {
  const auto pred = predict_batch(x);
  SGDRC_REQUIRE(pred.size() == y.size(), "label count mismatch");
  size_t ok = 0;
  for (size_t i = 0; i < y.size(); ++i) ok += pred[i] == y[i];
  return y.empty() ? 0.0
                   : static_cast<double>(ok) / static_cast<double>(y.size());
}

}  // namespace sgdrc::reveng
