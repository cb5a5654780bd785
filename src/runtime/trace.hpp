#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/sync_hook.hpp"

namespace amtfmm {

/// Trace event classes: the eleven DAG operators (numbered as
/// kernels/kernel.hpp Operator) plus runtime-internal work.  Matches the
/// paper's section V.B instrumentation: "events marking the beginning and
/// ending of the various operations performed by DASHMM".
inline constexpr std::uint8_t kClsNetwork = 11;
inline constexpr std::uint8_t kClsOther = 12;
inline constexpr int kNumTraceClasses = 13;

const char* trace_class_name(std::uint8_t cls);

/// Sentinel for TraceEvent::arg: "no attribution".
inline constexpr std::uint32_t kNoTraceArg = 0xffffffffu;

/// What a TraceEvent records: the closed set of kinds in the one trace
/// stream.  Spans are intervals of work on a worker; the four scheduler
/// kinds are zero-duration instants (rendered as Chrome instant events);
/// wire records are messages on the interconnect.
enum class TraceKind : std::uint8_t {
  kSpan = 0,        ///< work on a worker; arg = DAG edge id
  kSteal = 1,       ///< successful steal; arg = victim worker
  kParcelSend = 2,  ///< batch handed to the wire; arg = destination locality
  kParcelRecv = 3,  ///< batch delivered; arg = source locality
  kLcoFire = 4,     ///< LCO trigger (all inputs arrived); arg = kNoTraceArg
  kWire = 5,        ///< wire message; worker = source, arg = destination
};
inline constexpr int kNumTraceKinds = 6;

const char* trace_kind_name(TraceKind kind);

/// True for the zero-duration scheduler kinds (steal .. lco_fire).
constexpr bool is_instant(TraceKind kind) {
  return kind != TraceKind::kSpan && kind != TraceKind::kWire;
}

/// One record of the trace stream (times in seconds — wall time in real
/// mode, virtual time in sim mode).  `kind` tags the record; the other
/// fields mean:
///  - span: [t0, t1] on scheduler thread `worker`, operator or runtime
///    class `cls`, and `arg` the DAG edge id whose apply produced the work
///    (kNoTraceArg when the span covers runtime work with no single edge,
///    e.g. parcel deserialization).  Edge ids index Dag::edges, which the
///    Chrome exporter embeds so the analyzer can rebuild the weighted
///    dependency graph.
///  - instant: t0 == t1 on `worker`; `arg` as documented on TraceKind.
///  - wire: one parcel, or a coalesced batch of parcels, from locality
///    `worker` to locality `arg`, carrying `parcels` and `bytes`.  In sim
///    mode [t0, t1] is the NIC occupancy interval (departure to arrival on
///    the modelled network); in real mode both ends carry the flush time.
/// Non-span records carry a class of at least kNumOperators (kClsOther for
/// instants, kClsNetwork for wire), so summing `cls < kNumOperators`
/// counts operator work only.
struct TraceEvent {
  double t0;
  double t1;
  std::uint32_t worker;
  std::uint8_t cls;
  TraceKind kind = TraceKind::kSpan;
  std::uint32_t arg = kNoTraceArg;
  std::uint32_t parcels = 0;  ///< wire only
  std::uint64_t bytes = 0;    ///< wire only

  static TraceEvent instant(std::uint32_t worker, TraceKind kind, double t,
                            std::uint32_t arg = kNoTraceArg) {
    return TraceEvent{t, t, worker, kClsOther, kind, arg};
  }
  static TraceEvent wire(double t0, double t1, std::uint32_t src,
                         std::uint32_t dst, std::uint32_t parcels,
                         std::uint64_t bytes) {
    return TraceEvent{t0, t1, src, kClsNetwork, TraceKind::kWire, dst,
                      parcels, bytes};
  }
};
static_assert(sizeof(TraceEvent) == 40, "TraceEvent is a hot-path record");

/// Clock anchoring for one rank's trace: how this executor's t=0 relates
/// to the machine's steady clock, to wall-clock time, and (for socket
/// localities) to rank 0's steady clock.  Recorded in trace metadata at
/// export time so merged multi-rank / multi-epoch traces can be aligned:
///   rank0_time(t) = steady_origin_s + t - offset_s - rank0_steady_origin_s
struct TraceClock {
  double steady_origin_s = 0.0;  ///< executor t=0 on the steady clock
  double wall_anchor_s = 0.0;    ///< Unix wall time at that same instant
  double offset_s = 0.0;         ///< local steady minus rank 0's (net only)
  double uncertainty_s = 0.0;    ///< clock-sync error bound (≤ RTT/2)
};

/// Captures the wall/steady correspondence for an executor whose t=0 sits
/// at `steady_origin_s` on the steady clock.  The only sanctioned wall
/// clock read in the runtime (see lint rule 7): traces anchor to real
/// time here, everything else stays on the steady clock.
TraceClock make_trace_clock(double steady_origin_s);

/// Identity of the executing worker thread (executor.hpp binds it), for
/// real-mode tracing.  Returns -1 outside a worker.
int current_worker();

/// Collects the trace stream: one log per worker (no contention on the hot
/// path) plus one mutex-guarded shared log for wire records, which are
/// orders of magnitude rarer than task events, and for records made off
/// the worker threads (the sim event loop, drain() flushes on the calling
/// thread).  A log's only writer is therefore its worker, whatever worker
/// id a record is attributed to.  All logs share one mode:
///
///  - off:  record calls are a single relaxed load + branch;
///  - full: unbounded logs, merged by collect() after drain;
///  - ring: fixed power-of-two logs overwritten forever — the flight
///    recorder (runtime/flight_recorder.hpp) dumps them on a crash or
///    stall.
///
/// Ring memory model (DESIGN.md §7): worker w is the only thread that
/// writes log w (the shared log is written under its mutex), advancing a
/// monotone head with a release store after the slot write; visit_rings()
/// reads heads with acquire and copies the newest min(head, capacity)
/// slots.  A read racing live writers (the crash and
/// watchdog case) can see a torn slot at the overwrite frontier; readers
/// drop records that fail basic sanity instead of synchronizing with the
/// hot path.
///
/// Mode changes happen only while the executor is quiescent, so the mode
/// flag carries no data and needs no ordering with the records.
class TraceSink {
 public:
  enum class Mode : std::uint8_t { kOff, kFull, kRing };

  explicit TraceSink(int workers)
      : logs_(static_cast<std::size_t>(workers)) {}

  /// Full mode on or off.  Asserts that ring mode is not attached: full
  /// tracing and the flight recorder are not combined.
  void set_enabled(bool on);

  /// Ring mode with `capacity` records per log (rounded up to a power of
  /// two); 0 returns to off and keeps the rings for a final dump.  Asserts
  /// that full mode is off.
  void set_ring(std::size_t capacity);

  /// True when any mode is on — the hot-path guard call sites use before
  /// computing timestamps.
  bool enabled() const { return mode() != Mode::kOff; }
  // relaxed-ok: control flag, no ordering required (see class comment).
  Mode mode() const { return mode_.load(std::memory_order_relaxed); }

  int workers() const { return static_cast<int>(logs_.size()); }
  /// Records per ring log (0 while the logs are unbounded).
  std::size_t ring_capacity() const { return ring_ ? mask_ + 1 : 0; }

  /// Records one span attributed to `worker`.
  void record(std::uint32_t worker, std::uint8_t cls, double t0, double t1,
              std::uint32_t arg = kNoTraceArg) {
    // relaxed-ok: control flag, no ordering required (see class comment).
    const Mode m = mode_.load(std::memory_order_relaxed);
    if (m == Mode::kOff) return;
    push(m, TraceEvent{t0, t1, worker, cls, TraceKind::kSpan, arg});
  }

  /// Records one scheduler instant attributed to `worker`.
  void record_instant(std::uint32_t worker, TraceKind kind, double t,
                      std::uint32_t arg = kNoTraceArg) {
    // relaxed-ok: control flag, no ordering required (see class comment).
    const Mode m = mode_.load(std::memory_order_relaxed);
    if (m == Mode::kOff) return;
    push(m, TraceEvent::instant(worker, kind, t, arg));
  }

  /// Records one wire message (TraceEvent::wire), or any record, on the
  /// shared log.  Thread safe.
  void record_comm(const TraceEvent& e) {
    // relaxed-ok: control flag, no ordering required (see class comment).
    const Mode m = mode_.load(std::memory_order_relaxed);
    if (m == Mode::kOff) return;
    SyncLockGuard lk(shared_mu_);
    append(shared_, m, e);
  }

  /// Every full-mode record, sorted by t0 (call after drain()).  Empty
  /// while the logs are rings: those are read through visit_rings().
  std::vector<TraceEvent> collect() const;

  /// Calls fn(record) for the newest min(head, capacity) records of every
  /// worker ring, then of the shared ring, oldest first.  Allocates nothing
  /// and only try_locks the shared log, so a fatal-signal handler may call
  /// it; a shared log held by a crashed thread is skipped.
  template <class Fn>
  void visit_rings(Fn&& fn) const {
    if (!ring_) return;
    for (const Log& l : logs_) read_ring(l, fn);
    if (shared_mu_.try_lock()) {
      read_ring(shared_, fn);
      shared_mu_.unlock();
    }
  }

  void clear();

 private:
  /// One log: an unbounded vector in full mode, a ring of mask_ + 1 slots
  /// in ring mode.  head counts ring records ever written.
  struct Log {
    std::vector<TraceEvent> events;
    alignas(64) std::atomic<std::uint64_t> head{0};
  };

  void push(Mode m, const TraceEvent& e) {
    const int self = current_worker();
    if (self >= 0 && static_cast<std::size_t>(self) < logs_.size()) {
      append(logs_[static_cast<std::size_t>(self)], m, e);
      return;
    }
    SyncLockGuard lk(shared_mu_);
    append(shared_, m, e);
  }

  void append(Log& l, Mode m, const TraceEvent& e) {
    if (m == Mode::kFull) {
      l.events.push_back(e);
      return;
    }
    // relaxed-ok: single-writer cursor; the release store below publishes
    // the slot, and only this log's writer ever advances the head.
    const std::uint64_t h = l.head.load(std::memory_order_relaxed);
    l.events[h & mask_] = e;
    l.head.store(h + 1, std::memory_order_release);
  }

  template <class Fn>
  void read_ring(const Log& l, Fn& fn) const {
    const std::uint64_t head = l.head.load(std::memory_order_acquire);
    const std::uint64_t n = head < mask_ + 1 ? head : mask_ + 1;
    for (std::uint64_t i = head - n; i < head; ++i) {
      const TraceEvent e = l.events[i & mask_];  // copy: writer may still run
      fn(e);
    }
  }

  std::atomic<Mode> mode_{Mode::kOff};
  bool ring_ = false;  ///< logs hold ring storage (set_ring with capacity)
  std::uint64_t mask_ = 0;
  std::vector<Log> logs_;
  mutable SyncMutex shared_mu_;
  Log shared_ GUARDED_BY(shared_mu_);
};

/// Utilization fractions per the paper's equations (1) and (2):
///   f_k^(i) = dt_k^(i) / (n dt_k),   f_k = sum_i f_k^(i)
/// over M uniform intervals of [t_begin, t_end], where n is the total
/// number of scheduler threads.  Only span records count.  Spans crossing
/// interval boundaries are split proportionally; spans entirely at or past
/// t_end and zero-length spans contribute nothing.  A degenerate window
/// (t_end <= t_begin) yields all-zero fractions rather than NaN.
struct UtilizationProfile {
  std::vector<double> total;  // f_k, one per interval
  std::array<std::vector<double>, kNumTraceClasses> by_class;  // f_k^(i)
  double t_begin = 0.0;
  double t_end = 0.0;
};

UtilizationProfile utilization(std::span<const TraceEvent> events,
                               double t_begin, double t_end, int intervals,
                               int num_workers);

}  // namespace amtfmm
