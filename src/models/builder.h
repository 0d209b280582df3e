// ModelBuilder: layer-level recipe helpers that synthesise kernel
// descriptors with realistic FLOP counts, DRAM traffic, grid shapes,
// register pressure and access expressions — the stand-in for the paper's
// TVM/Ansor kernel generation.
//
// Conventions:
//  * fp32 tensors (4 bytes/element);
//  * a kernel's DRAM traffic = tensors it streams (weights + activations),
//    ignoring cache reuse of the in-tile working set (roofline style);
//  * grid = output elements / (256 threads × 4 items), capped parallelism
//    max_useful_tpcs = blocks / 8.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "models/model.h"

namespace sgdrc::models {

class ModelBuilder {
 public:
  ModelBuilder(std::string name, char letter, ServiceClass service,
               unsigned batch);

  /// External input tensor (activations enter here). Returns tensor id.
  int add_input(uint64_t bytes);

  /// Convolution: consumes `input` tensor, creates weight + output.
  /// Returns output tensor id. groups>1 models grouped/depthwise convs.
  int conv(const std::string& name, int input, unsigned cin, unsigned cout,
           unsigned kernel, unsigned h, unsigned w, unsigned groups = 1);

  /// GEMM (attention / FFN): [m×k] · [k×n]; weight resident.
  int matmul(const std::string& name, int input, unsigned m, unsigned k,
             unsigned n);

  /// Elementwise binary op (residual add etc.): A[i] ⊕ B[i] → C[i].
  /// The shared index expression is what costs the transformer a register
  /// (Fig. 12c's vectorAdd shape).
  int elementwise(const std::string& name, int a, int b);

  /// Elementwise unary op (activation / batchnorm folded).
  int activation(const std::string& name, int input);

  /// Reduction / pooling: shrinks spatial size by `factor`.
  int pool(const std::string& name, int input, unsigned factor);

  /// Channel shuffle / concat: gather with distinct index expressions,
  /// pure memory movement.
  int shuffle(const std::string& name, std::vector<int> inputs);

  /// Tiny squeeze-excite style op: negligible runtime, exercises the
  /// §9.1.2 small-kernel register outliers.
  int tiny_op(const std::string& name, int input, uint64_t bytes);

  /// Mark the most recent tensor as the model output and finalise.
  /// Leaves kernel_deps empty: the model executes as a strict chain,
  /// bit-identical to the pre-DAG simulator (the existing zoo recipes
  /// all build this way).
  ModelDesc build();

  /// Finalise like build(), then derive explicit per-kernel dependency
  /// edges from the tensor graph (kernel i depends on the producers of
  /// every tensor it reads), validated acyclic and topologically
  /// ordered. The result schedules dependency-independent kernels
  /// concurrently (Opara-style intra-request parallelism); a recipe
  /// with no branches still yields a DAG equivalent to its chain.
  ModelDesc build_dag();

 private:
  int add_tensor(std::string name, uint64_t bytes, TensorKind kind,
                 int produced_by);
  int add_kernel(gpusim::KernelDesc k, const std::vector<int>& reads,
                 int writes);
  static unsigned grid_for(uint64_t out_elems);

  ModelDesc m_;
  int next_expr_ = 0;
};

/// Build-time validation of the tensor graph: every
/// TensorDesc::produced_by / consumed_by kernel index must be in range.
/// (Before this existed, an out-of-range index only surfaced at
/// ModelDesc::tensor() access deep inside a run.) Throws ConfigError.
void validate_tensor_graph(const ModelDesc& m);

/// Derive ModelDesc::kernel_deps from the tensor graph: kernel i
/// depends on the producer of every tensor it consumes. Validates the
/// graph first, dedups and sorts each dependency list ascending, and
/// rejects cyclic tensor graphs (an edge whose producer does not
/// strictly precede its consumer in kernel order) with a ConfigError
/// naming the offending tensor. Chains stay chains: a branch-free
/// recipe yields deps {i-1} for every kernel i.
void derive_kernel_deps(ModelDesc& m);

}  // namespace sgdrc::models
