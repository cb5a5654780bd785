#pragma once

#include <memory>

#include "core/engine.hpp"
#include "runtime/counters.hpp"
#include "runtime/sim_executor.hpp"

namespace amtfmm {

/// User-facing configuration.  Everything here is a plain parameter — the
/// DASHMM design point the paper emphasizes: the method, kernel, accuracy
/// and data distribution vary freely while the parallelization underneath
/// stays the same, and no knowledge of the runtime is required.
struct EvalConfig {
  Method method = Method::kFmmAdvanced;
  int threshold = 60;      ///< refinement threshold (paper: 60)
  int digits = 3;          ///< accuracy digits (paper: 3)
  double bh_theta = 0.5;   ///< Barnes-Hut opening angle
  Placement placement = Placement::kCommMin;
  int localities = 1;
  int cores_per_locality = 2;
  /// kPriority also splits the upward pass into high-priority tasks.
  SchedPolicy policy = SchedPolicy::kWorkStealing;
  CoalesceConfig coalesce{};  ///< per-locality parcel coalescing
  bool trace = false;
  bool counters = false;  ///< runtime counter registry (see counters.hpp)
  std::uint64_t seed = 1;
};

struct EvalResult {
  std::vector<double> potentials;  ///< one per target, in caller order
  double makespan = 0.0;           ///< DAG evaluation time (seconds)
  double setup_time = 0.0;         ///< tree + lists + DAG construction
  DagStats dag;
  /// The trace stream (spans, instants, wire records) sorted by t0; filled
  /// when trace is on.
  std::vector<TraceEvent> trace;
  /// DAG edges flattened as [src0, dst0, src1, dst1, ...] in edge-id order
  /// (so a span's arg indexes pair `arg`).  Filled when trace is on;
  /// embedded in Chrome exports for the critical-path analyzer.
  std::vector<std::uint32_t> dag_edges;
  /// Serialized bytes of every remote parcel as counted by the engine's
  /// wire format; always equals comm.bytes (asserted).
  std::uint64_t wire_bytes = 0;
  CommStats comm;
  CounterSnapshot counters;  ///< filled when EvalConfig::counters is on
};

/// Configuration for a simulated (DES) evaluation of the same DAG.
struct SimConfig {
  int localities = 1;
  int cores_per_locality = 32;  ///< Big Red II: 32 cores per node
  SchedPolicy policy = SchedPolicy::kWorkStealing;  ///< see EvalConfig
  NetworkModel network{};
  CoalesceConfig coalesce{};  ///< per-locality parcel coalescing
  CostModel cost;  ///< fill via CostModel::paper() or ::measured()
  bool trace = false;
  bool counters = false;  ///< runtime counter registry (see counters.hpp)
  std::uint64_t seed = 1;
};

struct SimResult {
  double virtual_time = 0.0;
  DagStats dag;
  std::vector<TraceEvent> trace;  ///< see EvalResult::trace
  /// DAG edges flattened as [src, dst, ...] in edge-id order (see
  /// EvalResult::dag_edges).
  std::vector<std::uint32_t> dag_edges;
  /// Engine-side wire-format byte count; always equals comm.bytes.
  std::uint64_t wire_bytes = 0;
  CommStats comm;
  CounterSnapshot counters;  ///< filled when SimConfig::counters is on
  int total_cores = 0;
};

/// The top-level HMM evaluator: builds the dual tree, the interaction
/// lists, and the explicit DAG, then evaluates the implicit LCO dataflow
/// network on the requested substrate.
///
///   auto eval = Evaluator(make_kernel("laplace"), {});
///   auto result = eval.evaluate(sources, charges, targets);
///
/// evaluate() computes real potentials on the threaded executor;
/// simulate() replays the identical DAG on the discrete-event simulator to
/// predict time-to-solution on a virtual cluster (the Big Red II
/// substitution of DESIGN.md).
/// Repeated evaluation over one geometry (the paper's section IV
/// iterative use) goes through the resident EvalPipeline instead.
class Evaluator {
 public:
  Evaluator(std::unique_ptr<Kernel> kernel, EvalConfig cfg);
  ~Evaluator();

  EvalResult evaluate(std::span<const Vec3> sources,
                      std::span<const double> charges,
                      std::span<const Vec3> targets);

  SimResult simulate(std::span<const Vec3> sources,
                     std::span<const Vec3> targets, const SimConfig& sim);

  const Kernel& kernel() const { return *kernel_; }
  const EvalConfig& config() const { return cfg_; }

 private:
  std::unique_ptr<Kernel> kernel_;
  EvalConfig cfg_;
};

/// Reference O(N^2) summation (chunked over the executor's workers); the
/// ground truth every method is validated against.
std::vector<double> direct_sum(const Kernel& kernel,
                               std::span<const Vec3> sources,
                               std::span<const double> charges,
                               std::span<const Vec3> targets);

}  // namespace amtfmm
