#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/locality_runtime.hpp"
#include "runtime/net/transport.hpp"
#include "runtime/sync_hook.hpp"

namespace amtfmm::net {

/// Socket-locality executor: this process IS one locality (its rank in a
/// world of N processes); the other N-1 localities live in peer processes
/// reached through NetTransport.  The SPMD contract mirrors MPI: every
/// rank constructs the identical global problem, but only tasks whose
/// locality equals the local rank run here (locality_is_local()), and
/// work crosses processes exclusively as serialized parcels — Task::
/// net_kind + net_payload on the way out, a registered NetHandler on the
/// way in.  PR 4's no-pointer-crosses-a-locality guarantee is what makes
/// this a drop-in third substrate: the engine's parcels were already
/// fully serialized bytes.
///
/// Scheduling: a plain mutex/condvar worker pool over high/low FIFO
/// queues.  The in-process executors carry the work-stealing machinery;
/// here the interesting contention is the wire, so the pool stays simple
/// and idle workers double as the coalescer's deadline-flush agents.
///
/// Termination: drain() runs a coordinator/follower protocol over
/// control messages (rank 0 coordinates).  A rank is locally quiescent
/// when its pool is idle and its coalescing buffers are empty; the world
/// terminates when a probe round finds every rank quiescent with
/// globally matching sent==received parcel counts that are *identical to
/// the previous round* (two agreeing rounds make the counter snapshot a
/// consistent cut despite message latency).  drain() is re-armable:
/// post-evaluation gathers can send more parcels and drain again.
class NetExecutor final : public Executor {
 public:
  /// `cfg` describes this rank; `cores` is the local worker count.
  NetExecutor(const NetConfig& cfg, int cores, CoalesceConfig coalesce);
  ~NetExecutor() override;

  int num_localities() const override {
    return static_cast<int>(cfg_.world);
  }
  int cores_per_locality() const override { return cores_; }
  int current_locality() const override;
  bool locality_is_local(std::uint32_t loc) const override {
    return loc == cfg_.rank;
  }
  void register_net_handler(std::uint8_t kind, NetHandler h) override;
  void unregister_net_handler(std::uint8_t kind) override;
  void spawn(Task t) override;
  void send(std::uint32_t from, std::uint32_t to, std::size_t bytes,
            Task t) override;
  /// Runs to global quiescence (all ranks, termination protocol) and
  /// returns the wall-clock makespan.  Throws net_error if a peer died
  /// or the byte stream broke — never hangs on a dead mesh.
  double drain() override;
  double now() const override;
  TraceClock trace_clock() const override;

  std::uint32_t rank() const { return cfg_.rank; }
  std::uint32_t world() const { return cfg_.world; }

  /// Startup clock-sync result against rank 0 (identity on rank 0).
  /// Measured once right after the mesh comes up; feeds trace metadata so
  /// merged multi-rank timelines can be offset-corrected.
  ClockSyncResult clock_sync_result() const { return clock_sync_; }

  /// Best-effort telemetry side channel (see NetTransport::post_telemetry
  /// — bypasses the injection window and all termination accounting).
  bool post_telemetry(std::uint32_t dst, std::span<const std::byte> payload) {
    if (cfg_.world == 1 || dst == cfg_.rank) return false;
    return transport_.post_telemetry(dst, payload);
  }
  /// Installs the telemetry receive callback (runs on the progress
  /// thread; must be cheap and non-blocking).  Callable any time.
  void set_on_telemetry(NetTransport::TelemetryFn fn);

 private:
  struct InOrder {
    SyncMutex mu;
    std::uint64_t expected GUARDED_BY(mu) = 0;
    bool running GUARDED_BY(mu) = false;
    std::map<std::uint64_t, WireBatch> ready GUARDED_BY(mu);
  };
  struct Ack {
    std::uint64_t round = 0;
    std::uint64_t sent = 0;
    std::uint64_t recvd = 0;
  };

  void worker_loop(int w);
  /// Serializes and posts one batch to its destination rank.  Counter
  /// ordering is load-bearing for termination: sent_parcels_ rises
  /// BEFORE the frame can possibly be received anywhere.
  void transmit(ParcelBatch b, bool coalesced);
  /// Progress-thread callbacks.
  void on_net_batch(WireBatch&& b);
  void on_net_control(const ControlMsg& m);
  void on_net_failure(const std::string& why);
  /// Worker-side execution of an arrived batch.
  void run_wire_batch(const WireBatch& b);
  void run_in_order(WireBatch b);
  NetHandler wait_handler(std::uint8_t kind);
  /// Idle-worker deadline flush; true if anything went out.
  bool flush_expired();
  /// One coordinator probe round; true when the world terminated.
  bool coordinate_round();
  /// Follower wait: answer probes while quiescent; true on terminate,
  /// false when new local work arrived.
  bool follower_wait();
  void throw_if_failed();

  NetConfig cfg_;
  int cores_;
  std::chrono::steady_clock::time_point epoch_;
  NetTransport transport_;
  /// `net.termination_rounds`: probe rounds coordinated or answered.
  const CounterRegistry::Id term_rounds_;
  ClockSyncResult clock_sync_;  ///< measured once in the constructor

  // Worker pool (mu_ guards the queues and all termination state).
  mutable SyncMutex mu_;
  SyncCondVar work_cv_;   ///< workers: new task / stop
  SyncCondVar state_cv_;  ///< drain: quiescence + control
  std::deque<Task> high_ GUARDED_BY(mu_);
  std::deque<Task> low_ GUARDED_BY(mu_);
  /// Queued + running local tasks.
  std::int64_t outstanding_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;

  // Destination re-sequencing, one slot per source rank.
  std::vector<std::unique_ptr<InOrder>> inorder_;

  SyncMutex handlers_mu_;
  SyncCondVar handlers_cv_;
  std::array<NetHandler, 256> handlers_ GUARDED_BY(handlers_mu_);

  // Termination protocol state (under mu_; the annotations make the old
  // "guarded by mu_ unless noted" comment a compiler-checked contract).
  // relaxed-ok (both): monotone counters; every decision read happens
  // under mu_ with the two-round protocol supplying consistency.
  std::atomic<std::uint64_t> sent_parcels_{0};
  std::atomic<std::uint64_t> recvd_parcels_{0};
  /// Coordinator, per rank.
  std::vector<std::optional<Ack>> acks_ GUARDED_BY(mu_);
  bool prev_round_valid_ GUARDED_BY(mu_) = false;
  std::vector<Ack> prev_acks_ GUARDED_BY(mu_);
  Ack prev_self_ GUARDED_BY(mu_);
  std::uint64_t round_ GUARDED_BY(mu_) = 0;
  bool probe_pending_ GUARDED_BY(mu_) = false;
  std::uint64_t probe_round_ GUARDED_BY(mu_) = 0;
  /// Latest kTerminate received.
  std::uint64_t terminate_epoch_ GUARDED_BY(mu_) = 0;
  std::uint64_t drains_done_ GUARDED_BY(mu_) = 0;
  bool net_failed_ GUARDED_BY(mu_) = false;
  std::string net_failure_ GUARDED_BY(mu_);
};

}  // namespace amtfmm::net
