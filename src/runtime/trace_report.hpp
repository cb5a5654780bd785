#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/counters.hpp"
#include "runtime/trace.hpp"

namespace amtfmm {

/// Post-mortem summary of one Chrome trace produced by
/// trace_export_chrome(): validity checks, per-class time totals,
/// per-worker utilization, scheduler/coalescing counter echoes, and the
/// weighted critical path through the embedded DAG.  Designed to be small,
/// machine-readable (report_json()), and internally consistent:
///   - sum of per-class busy time <= workers * (t_max - t_min),
///   - critical_path_seconds <= makespan in sim mode (virtual time has no
///     measurement noise, so the bound is exact by construction).
struct TraceReport {
  bool valid = false;     ///< file parsed and all structural checks passed
  std::string error;      ///< first failure when !valid

  bool sim = false;
  int localities = 0;
  int cores_per_locality = 0;
  int workers = 0;        ///< localities * cores_per_locality
  double makespan = 0.0;  ///< from the trace metadata (seconds)
  double t_min = 0.0;     ///< earliest event start (seconds)
  double t_max = 0.0;     ///< latest event end (seconds)

  std::uint64_t num_spans = 0;
  std::uint64_t num_instants = 0;
  std::uint64_t num_comm = 0;  ///< wire messages (flow pairs)
  bool monotonic_ok = false;   ///< traceEvents emitted in ts order
  bool flows_paired = false;   ///< every flow id has one "s" and one "f"

  /// Busy seconds per trace class (indexed like kNumTraceClasses).
  std::array<double, kNumTraceClasses> class_seconds{};
  double busy_seconds = 0.0;  ///< sum over classes
  /// Busy fraction of [t_min, t_max] per worker, indexed locality-major.
  std::vector<double> worker_utilization;

  /// Epoch start times from the "amtfmm" metadata (resident-pipeline
  /// traces accumulate spans across epochs).  Empty for single-epoch
  /// traces from one-shot runs.
  std::vector<double> epoch_starts;
  /// Weighted critical path per epoch: span weights are bucketed into the
  /// epoch whose [start, next-start) window contains their t0, and each
  /// epoch's DAG is pathed independently (the resident DAG is re-armed, so
  /// every epoch traverses the same edges).  Single-epoch traces get one
  /// entry.
  std::vector<double> epoch_critical_path_seconds;

  /// Weighted critical path through the embedded DAG: each edge weighs the
  /// summed duration of the spans attributed to it (args.edge).  For a
  /// multi-epoch trace this is the LARGEST per-epoch critical path — the
  /// quantity bounded by the metadata makespan, where summing across
  /// epochs would not be.
  double critical_path_seconds = 0.0;
  std::uint64_t critical_path_edges = 0;
  std::uint64_t dag_edges = 0;  ///< edges embedded in the trace

  /// Scheduler/coalescing instant tallies from the trace itself, indexed
  /// by TraceKind (non-instant kinds stay zero).
  std::array<std::uint64_t, kNumTraceKinds> instant_counts{};
  /// Counter-registry snapshot echoed from the trace metadata (empty when
  /// the producing run had counters disabled).
  CounterSnapshot counters;
};

/// Reads and analyzes a Chrome trace file written by trace_export_chrome().
/// A malformed file yields valid == false with `error` set; the remaining
/// fields hold whatever was recovered before the failure.
TraceReport analyze_trace_file(const std::string& path);

/// The report as a compact JSON object (CI regression artifact).
std::string report_json(const TraceReport& r);

}  // namespace amtfmm
