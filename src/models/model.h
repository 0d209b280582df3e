// Model descriptors: a DNN is a kernel DAG — kernels in topological
// order plus the tensors they read and write, with optional explicit
// per-kernel dependency edges (kernel_deps) derived from the tensor
// graph — the same view SGDRC gets from its TVM pipeline (§4's offline
// phase). When kernel_deps is empty the model is a pure chain and
// every consumer executes it exactly as the historical ordered kernel
// sequence; ModelBuilder::build_dag() opts a recipe into operator-level
// parallelism (docs/models.md). Tab. 3's 11 models are built from
// per-architecture recipes in zoo.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "gpusim/kernel.h"

namespace sgdrc::models {

enum class ServiceClass { kLatencySensitive, kBestEffort };

enum class TensorKind { kInput, kWeight, kIntermediate, kOutput };

struct TensorDesc {
  std::string name;
  uint64_t bytes = 0;
  TensorKind kind = TensorKind::kIntermediate;
  int produced_by = -1;         // kernel index that writes it (-1: external)
  std::vector<int> consumed_by; // kernel indices that read it
  /// Set by offline profiling (§7.2): accessed by a memory-bound kernel,
  /// therefore subject to channel coloring and bimodal duplication.
  bool memory_bound = false;
};

struct ModelDesc {
  std::string name;
  char letter = '?';  // Tab. 3 id: A..H LS, I..K BE
  ServiceClass service = ServiceClass::kLatencySensitive;
  unsigned batch = 1;
  std::vector<gpusim::KernelDesc> kernels;  // topological order
  std::vector<TensorDesc> tensors;
  /// Explicit dependency edges: kernel_deps[i] lists the kernel indices
  /// kernel i waits on, each strictly less than i (topological order is
  /// the validated invariant, see ModelBuilder::build_dag(); ServingSim
  /// re-checks hand-built lists at tenant registration). Empty ⇒ pure
  /// chain: kernel i implicitly depends on kernel i-1.
  std::vector<std::vector<int>> kernel_deps;

  bool is_ls() const { return service == ServiceClass::kLatencySensitive; }

  /// True when the model executes as a strict sequential chain (no
  /// explicit DAG edges); such models are scheduled bit-identically to
  /// the pre-DAG simulator.
  bool is_chain() const { return kernel_deps.empty(); }

  uint64_t total_flops() const {
    uint64_t f = 0;
    for (const auto& k : kernels) f += k.flops;
    return f;
  }
  uint64_t total_bytes() const {
    uint64_t b = 0;
    for (const auto& k : kernels) b += k.bytes;
    return b;
  }
  uint64_t weight_bytes() const {
    uint64_t b = 0;
    for (const auto& t : tensors) {
      if (t.kind == TensorKind::kWeight) b += t.bytes;
    }
    return b;
  }

  const TensorDesc& tensor(int idx) const {
    SGDRC_REQUIRE(idx >= 0 && static_cast<size_t>(idx) < tensors.size(),
                  "tensor index out of range");
    return tensors[idx];
  }
};

}  // namespace sgdrc::models
