#pragma once

#include <span>
#include <string>

#include "runtime/counters.hpp"
#include "runtime/trace.hpp"

namespace amtfmm {

/// Options for trace_export_chrome().  `dag_edges` is the DAG flattened as
/// [src0, dst0, src1, dst1, ...] in edge-id order (EvalResult::dag_edges);
/// it is embedded under the custom top-level "amtfmm" key so the trace file
/// is self-contained for the critical-path analyzer (tools/trace_report).
/// Perfetto and chrome://tracing ignore unknown top-level keys.
struct ChromeTraceOptions {
  int cores_per_locality = 1;
  /// Seconds; echoed into the "amtfmm" metadata.  For a multi-epoch trace
  /// this is the LARGEST per-epoch makespan (each epoch's critical path is
  /// checked against it independently).
  double makespan = 0.0;
  bool sim = false;  ///< virtual-time (DES) run vs wall-clock run
  std::span<const std::uint32_t> dag_edges;
  /// Executor-clock start time of each epoch for a resident-pipeline trace
  /// (EvalPipeline::epoch_start_times()).  Empty = single-epoch trace; the
  /// analyzer then behaves exactly as before.  When present, the analyzer
  /// buckets span weights by epoch and reports a per-epoch critical path.
  std::span<const double> epochs;
  const CounterSnapshot* counters = nullptr;  ///< optional snapshot echo
  /// Socket-locality identity: this trace covers rank `rank` of `world`
  /// processes.  The exporter offsets local pids by `rank` so every rank
  /// of a distributed run occupies its own process row, and embeds
  /// `clock` in the metadata so `trace_report --merge` can correct each
  /// rank's timestamps onto rank 0's timeline:
  ///   rank0_t = steady_origin_s + t - offset_s - rank0_steady_origin_s.
  /// In-process runs keep the defaults (rank 0 of world 1, clock from
  /// Executor::trace_clock()).
  std::uint32_t rank = 0;
  std::uint32_t world = 1;
  TraceClock clock{};
};

/// Writes the trace stream as Chrome/Perfetto `trace_event` JSON: one
/// process per locality, one thread per worker plus a "net" pseudo-thread
/// per locality; spans as "X" complete events (args.edge carries the DAG
/// edge id), scheduler instants as "i" events, and wire records as
/// NIC-occupancy slices on the destination's net thread connected by
/// "s"/"f" flow arrows (flow ids number the wire records in input order).
/// Timestamps are microseconds; events are emitted in non-decreasing ts
/// order.  Returns false on I/O failure.
bool trace_export_chrome(const std::string& path,
                         std::span<const TraceEvent> events,
                         const ChromeTraceOptions& opt);

}  // namespace amtfmm
