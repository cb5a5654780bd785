#pragma once

#include <cstdint>
#include <string>

#include "runtime/trace.hpp"

namespace amtfmm {

/// Always-on post-mortem recorder: puts a TraceSink in ring mode, so its
/// per-worker rings hold the most recent trace records even with full
/// tracing off, and dumps them as a Chrome trace when something goes wrong
/// (fatal signal, net failure teardown, serve-epoch watchdog).  A hung or
/// crashed multi-process run then always yields a "last N events of every
/// worker on every rank" artifact.  The ring memory model is TraceSink's
/// (DESIGN.md §7).
class FlightRecorder {
 public:
  /// Attaches ring mode to `sink` with `events_per_worker` records per log
  /// (rounded up to a power of two); the destructor detaches it.  Same
  /// quiescence contract as TraceSink's mode changes, and full tracing
  /// must be off.  The sink must outlive the recorder.
  explicit FlightRecorder(TraceSink& sink,
                          std::size_t events_per_worker = 4096);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Where dump() writes.  Copied into a fixed internal buffer so the
  /// crash path never allocates; over-long paths are truncated.
  void set_dump_path(const std::string& path);
  const char* dump_path() const { return path_; }

  /// Identity + clock metadata embedded in the dump so merged multi-rank
  /// flight dumps can be aligned like regular traces.
  void set_meta(std::uint32_t rank, int cores, const TraceClock& clock);

  /// Writes the sink's rings to dump_path() as a Chrome trace (JSON), with
  /// `reason` in the metadata.  Avoids allocation and stdio streams:
  /// snprintf into a fixed buffer + write(2), so it is safe to call from
  /// a fatal-signal handler.  Returns false when the file cannot be
  /// opened or no path was configured.  Idempotent per call (truncates).
  bool dump(const char* reason) const;

  std::size_t capacity() const { return sink_.ring_capacity(); }

 private:
  TraceSink& sink_;
  char path_[512] = {};
  std::uint32_t rank_ = 0;
  int cores_ = 0;
  TraceClock clock_{};
};

/// Process-wide registry feeding the crash paths: fatal-signal handler,
/// net-failure teardown, and watchdogs call flight_dump_all() to dump
/// every live recorder.  Registration is bounded (a process hosts a
/// handful of recorders at most) and lock-free on the dump side so the
/// signal handler never blocks.
void flight_register(FlightRecorder* fr);
void flight_unregister(FlightRecorder* fr);

/// Dumps every registered recorder; returns how many dumps were written.
/// Safe from a signal handler.
int flight_dump_all(const char* reason);

/// Installs fatal-signal handlers (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT)
/// that dump all registered recorders, then re-raise with the default
/// disposition so the process still dies with the original signal.
/// Idempotent.
void flight_install_crash_handler();

}  // namespace amtfmm
