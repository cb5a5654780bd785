#include "runtime/net/net_executor.hpp"

#include <algorithm>
#include <cstdio>

#include "runtime/flight_recorder.hpp"
#include "support/error.hpp"

namespace amtfmm::net {

NetExecutor::NetExecutor(const NetConfig& cfg, int cores,
                         CoalesceConfig coalesce)
    : Executor(std::make_unique<LocalityRuntime>(
          // The coalescer sees the full world (destinations are global
          // ranks); trace and counters see only the local workers.
          static_cast<int>(cfg.world), cores, coalesce)),
      cfg_(cfg),
      cores_(cores),
      epoch_(std::chrono::steady_clock::now()),
      transport_(
          cfg, rt_->counters(),
          [this](WireBatch&& b) { on_net_batch(std::move(b)); },
          [this](const ControlMsg& m) { on_net_control(m); },
          [this](const std::string& why) { on_net_failure(why); }),
      term_rounds_(rt_->counters().counter("net.termination_rounds")) {
  AMTFMM_ASSERT(cores_ >= 1);
  inorder_.reserve(cfg_.world);
  for (std::uint32_t r = 0; r < cfg_.world; ++r) {
    inorder_.push_back(std::make_unique<InOrder>());
  }
  acks_.resize(cfg_.world);
  prev_acks_.resize(cfg_.world);

  transport_.start();  // mesh up before any worker can send
  // Clock sync rides the fresh mesh before any batch traffic competes
  // for it: the quietest moment this process will ever see, which is
  // exactly when the min-RTT midpoint estimate is tightest.
  clock_sync_ = transport_.clock_sync();
  threads_.reserve(static_cast<std::size_t>(cores_));
  for (int w = 0; w < cores_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

NetExecutor::~NetExecutor() {
  // Transport first: once the progress thread is gone, no callback can
  // race the pool teardown.  No drain — destruction must always succeed,
  // even on a failed mesh.
  transport_.stop();
  {
    SyncLockGuard lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  for (std::uint32_t r = 0; r < cfg_.world; ++r) {
    InOrder& io = *inorder_[r];
    if (!io.ready.empty()) {
      std::fprintf(stderr,
                   "rank %u: %zu stranded batch(es) from rank %u at shutdown "
                   "(expected seq %llu, first held seq %llu)\n",
                   cfg_.rank, io.ready.size(), r,
                   static_cast<unsigned long long>(io.expected),
                   static_cast<unsigned long long>(io.ready.begin()->first));
    }
  }
}

void NetExecutor::set_on_telemetry(NetTransport::TelemetryFn fn) {
  transport_.set_on_telemetry(std::move(fn));
}

int NetExecutor::current_locality() const {
  return current_worker() >= 0 ? static_cast<int>(cfg_.rank) : -1;
}

double NetExecutor::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

TraceClock NetExecutor::trace_clock() const {
  TraceClock c = make_trace_clock(
      std::chrono::duration<double>(epoch_.time_since_epoch()).count());
  c.offset_s = clock_sync_.offset_s;
  c.uncertainty_s = clock_sync_.uncertainty_s;
  return c;
}

void NetExecutor::register_net_handler(std::uint8_t kind, NetHandler h) {
  {
    SyncLockGuard lk(handlers_mu_);
    handlers_[kind] = std::move(h);
  }
  handlers_cv_.notify_all();
}

void NetExecutor::unregister_net_handler(std::uint8_t kind) {
  SyncLockGuard lk(handlers_mu_);
  handlers_[kind] = nullptr;
}

Executor::NetHandler NetExecutor::wait_handler(std::uint8_t kind) {
  SyncUniqueLock lk(handlers_mu_);
  if (!handlers_[kind]) {
    // A parcel can arrive between transport start and the engine
    // registering its handlers; block briefly rather than drop.  Sixty
    // seconds of no registration is a programming error, not latency.
    // Deadline loop instead of wait_for(pred): see sync_hook.hpp.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!handlers_[kind]) {
      if (handlers_cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    AMTFMM_ASSERT(bool(handlers_[kind]) &&
                  "no handler registered for arriving parcel kind");
  }
  return handlers_[kind];  // copy: the call runs outside the lock
}

void NetExecutor::spawn(Task t) {
  AMTFMM_ASSERT(locality_is_local(t.locality));
  {
    SyncLockGuard lk(mu_);
    ++outstanding_;
    (t.high_priority ? high_ : low_).push_back(std::move(t));
  }
  work_cv_.notify_one();
  state_cv_.notify_all();  // drain predicates watch outstanding_
}

void NetExecutor::send(std::uint32_t from, std::uint32_t to,
                       std::size_t bytes, Task t) {
  AMTFMM_ASSERT(from == cfg_.rank && to < cfg_.world);
  t.locality = to;
  if (to == cfg_.rank) {
    spawn(std::move(t));
    return;
  }
  AMTFMM_ASSERT(t.net_kind != 0 &&
                "remote task without a wire representation");
  AMTFMM_ASSERT(t.net_payload && t.net_payload->size() == bytes);
  auto out = rt_->submit(from, to, bytes, std::move(t), now());
  if (!out.batch) return;  // buffered; deadline/quiescence flush later
  transmit(std::move(*out.batch), out.coalesced);
}

void NetExecutor::transmit(ParcelBatch b, bool coalesced) {
  const double tn = now();
  rt_->account_batch(b, tn, tn, coalesced);
  // Flushes from drain() and the progress thread send too: every batch
  // needs its send instant, or trace_merge's FIFO pairing of sends with
  // the peer's receives slips by one per unrecorded send.
  if (rt_->trace().enabled()) {
    rt_->trace().record_instant(
        static_cast<std::uint32_t>(LocalityRuntime::metric_worker()),
        TraceKind::kParcelSend, tn, b.dst);
  }
  WireBatch wb;
  wb.src = b.src;
  wb.dst = b.dst;
  wb.seq = b.seq;
  wb.reason = static_cast<std::uint8_t>(b.reason);
  wb.any_high = b.any_high;
  wb.coalesced = coalesced;
  wb.parcels.reserve(b.tasks.size());
  for (const Task& t : b.tasks) {
    AMTFMM_ASSERT(t.net_kind != 0 && t.net_payload);
    WireParcel p;
    p.kind = t.net_kind;
    p.high = t.high_priority;
    p.payload = *t.net_payload;
    wb.parcels.push_back(std::move(p));
  }
  const auto n = static_cast<std::int64_t>(b.tasks.size());
  // Ordering contract with the termination protocol: sent is visible
  // before any peer can observe (and count) the arriving frame.
  sent_parcels_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
  // A false return means the transport failed or stopped and dropped the
  // frame; the failure surfaces from drain(), so nothing hangs on it.
  (void)transport_.post_batch(b.dst, wb);
  if (coalesced) rt_->note_batch_consumed(n);
}

void NetExecutor::on_net_batch(WireBatch&& b) {
  AMTFMM_ASSERT(b.dst == cfg_.rank && b.src < cfg_.world);
  const auto n = static_cast<std::uint64_t>(b.parcels.size());
  Task t;
  t.locality = cfg_.rank;
  t.high_priority = b.any_high;
  auto sb = std::make_shared<WireBatch>(std::move(b));
  if (sb->coalesced) {
    t.fn = [this, sb] { run_in_order(std::move(*sb)); };
  } else {
    t.fn = [this, sb] { run_wire_batch(*sb); };
  }
  {
    SyncLockGuard lk(mu_);
    // Once the transport has failed this evaluation is being abandoned:
    // the engine behind the handlers dies during the caller's unwinding,
    // so batches must be dropped, not spawned.  The check shares mu_ with
    // throw_if_failed()'s queue purge, so no task can slip in after it.
    if (net_failed_) return;
    ++outstanding_;
    (t.high_priority ? high_ : low_).push_back(std::move(t));
  }
  work_cv_.notify_one();
  state_cv_.notify_all();
  // Count the receipt only after the work is visible to quiescence
  // detection (outstanding_ > 0): a recvd count with no outstanding work
  // would let the termination protocol declare a balanced cut while the
  // wrapper task is still queued.
  recvd_parcels_.fetch_add(n, std::memory_order_relaxed);
}

void NetExecutor::run_wire_batch(const WireBatch& b) {
  const int w = current_worker();
  if (w >= 0 && rt_->trace().enabled()) {
    rt_->trace().record_instant(static_cast<std::uint32_t>(w),
                                TraceKind::kParcelRecv, now(), b.src);
  }
  for (const WireParcel& p : b.parcels) {
    NetHandler h = wait_handler(p.kind);
    h(p.payload);
  }
}

void NetExecutor::run_in_order(WireBatch b) {
  InOrder& io = *inorder_[b.src];
  {
    SyncLockGuard lk(io.mu);
    io.ready.emplace(b.seq, std::move(b));
    if (io.running || io.ready.begin()->first != io.expected) return;
    io.running = true;
  }
  for (;;) {
    WireBatch cur;
    {
      SyncLockGuard lk(io.mu);
      auto it = io.ready.find(io.expected);
      if (it == io.ready.end()) {
        io.running = false;
        return;
      }
      cur = std::move(it->second);
      io.ready.erase(it);
      ++io.expected;
    }
    run_wire_batch(cur);
  }
}

bool NetExecutor::flush_expired() {
  if (!rt_->coalesce_config().enabled || !rt_->pending_from(cfg_.rank)) {
    return false;
  }
  // The flush must be visible to quiescence detection for its whole
  // take-to-transmit span: it runs outside any task, and between popping
  // a batch (buffered drops to zero) and transmit() raising sent_, every
  // counter the termination protocol reads looks frozen.  Without this
  // guard a stalled flusher lets the world terminate with the frame
  // still in hand — which then arrives in the next drain epoch as a
  // stale parcel.  Counting the span as outstanding work closes the gap.
  {
    SyncLockGuard lk(mu_);
    ++outstanding_;
  }
  auto batches = rt_->take_expired_from(cfg_.rank, now());
  for (auto& b : batches) transmit(std::move(b), /*coalesced=*/true);
  {
    SyncLockGuard lk(mu_);
    if (--outstanding_ == 0) state_cv_.notify_all();
  }
  return !batches.empty();
}

void NetExecutor::worker_loop(int w) {
  detail::set_current_worker(w);
  SyncUniqueLock lk(mu_);
  while (!stop_) {
    if (!high_.empty() || !low_.empty()) {
      auto& q = high_.empty() ? low_ : high_;
      Task t = std::move(q.front());
      q.pop_front();
      lk.unlock();
      if (t.fn) t.fn();
      rt_->counters().add(w, rt_->ids().tasks_run);
      lk.lock();
      --outstanding_;
      if (outstanding_ == 0) state_cv_.notify_all();
      continue;
    }
    // Idle: act as the locality's communication agent (deadline flushes),
    // then nap briefly — the transport's progress thread owns the wire,
    // so the nap bounds only flush latency, not message latency.
    lk.unlock();
    const bool flushed = flush_expired();
    lk.lock();
    if (flushed) continue;
    work_cv_.wait_for(lk, std::chrono::microseconds(200));
  }
  detail::set_current_worker(-1);
}

void NetExecutor::on_net_control(const ControlMsg& m) {
  SyncLockGuard lk(mu_);
  switch (static_cast<ControlType>(m.type)) {
    case ControlType::kProbe:
      probe_pending_ = true;
      probe_round_ = m.a;
      break;
    case ControlType::kAck:
      if (m.rank < cfg_.world) {
        acks_[m.rank] = Ack{m.a, m.b, m.c};
      }
      break;
    case ControlType::kTerminate:
      terminate_epoch_ = std::max(terminate_epoch_, m.a);
      break;
    case ControlType::kHello:
    case ControlType::kGoodbye:
    case ControlType::kPing:
    case ControlType::kPong:
      break;  // bootstrap / shutdown / sync frames; transport-internal
  }
  state_cv_.notify_all();
}

void NetExecutor::on_net_failure(const std::string& why) {
  {
    SyncLockGuard lk(mu_);
    net_failed_ = true;
    if (net_failure_.empty()) net_failure_ = why;
  }
  state_cv_.notify_all();
  work_cv_.notify_all();
  // Failure-path teardown is one of the flight recorder's dump triggers:
  // the surviving ranks each capture their last events, so a peer death
  // leaves a cross-rank post-mortem artifact, not just an error line.
  flight_dump_all("net failure");
}

void NetExecutor::throw_if_failed() {
  std::string why;
  {
    SyncUniqueLock lk(mu_);
    if (!net_failed_) return;
    why = net_failure_;
    // The caller abandons the evaluation: the engine whose handlers the
    // queued wrapper tasks would invoke is destroyed during unwinding.
    // Quiesce local delivery before throwing — drop everything queued and
    // wait out the tasks already running — so no worker touches the dying
    // engine afterwards.  on_net_batch drops new arrivals under the same
    // lock once net_failed_ is set, so the queues stay empty.
    outstanding_ -= high_.size() + low_.size();
    high_.clear();
    low_.clear();
    // Explicit predicate loop (no wait(pred) overload; see sync_hook.hpp).
    while (outstanding_ != 0) state_cv_.wait(lk);
  }
  throw net_error("rank " + std::to_string(cfg_.rank) +
                  ": transport failed: " + why);
}

bool NetExecutor::coordinate_round() {
  std::uint64_t round;
  std::uint64_t epoch;
  {
    SyncLockGuard lk(mu_);
    round = ++round_;
    rt_->counters().add(0, term_rounds_);
    // Snapshot under mu_: the thread-safety analysis caught the decide-
    // termination path below reading drains_done_ with no lock held.
    epoch = drains_done_ + 1;
  }
  const std::uint64_t s0 = sent_parcels_.load(std::memory_order_relaxed);
  const std::uint64_t r0 = recvd_parcels_.load(std::memory_order_relaxed);
  ControlMsg probe;
  probe.type = static_cast<std::uint8_t>(ControlType::kProbe);
  probe.rank = cfg_.rank;
  probe.a = round;
  transport_.broadcast_control(probe);
  {
    SyncUniqueLock lk(mu_);
    // Explicit predicate loop (no wait(pred) overload; see sync_hook.hpp):
    // wake on failure, new local work, or a full set of round-matching acks.
    for (;;) {
      bool done = net_failed_ || outstanding_ > 0;
      if (!done) {
        done = true;
        for (std::uint32_t r = 1; r < cfg_.world; ++r) {
          if (!acks_[r] || acks_[r]->round != round) {
            done = false;
            break;
          }
        }
      }
      if (done) break;
      state_cv_.wait(lk);
    }
    if (net_failed_) return false;       // drain() throws
    if (outstanding_ > 0) return false;  // new work; abandon the round
  }
  const std::uint64_t s1 = sent_parcels_.load(std::memory_order_relaxed);
  const std::uint64_t r1 = recvd_parcels_.load(std::memory_order_relaxed);
  const Ack self{round, s1, r1};
  bool stable = s1 == s0 && r1 == r0;
  std::uint64_t sum_sent = s1;
  std::uint64_t sum_recvd = r1;
  {
    SyncLockGuard lk(mu_);
    for (std::uint32_t r = 1; r < cfg_.world; ++r) {
      sum_sent += acks_[r]->sent;
      sum_recvd += acks_[r]->recvd;
      if (prev_round_valid_ && (acks_[r]->sent != prev_acks_[r].sent ||
                                acks_[r]->recvd != prev_acks_[r].recvd)) {
        stable = false;
      }
    }
    if (prev_round_valid_ &&
        (self.sent != prev_self_.sent || self.recvd != prev_self_.recvd)) {
      stable = false;
    }
    // Persist this round as the comparison base for the next one.
    for (std::uint32_t r = 1; r < cfg_.world; ++r) prev_acks_[r] = *acks_[r];
    prev_self_ = self;
    const bool first = !prev_round_valid_;
    prev_round_valid_ = true;
    if (first || !stable || sum_sent != sum_recvd) return false;
  }
  // Two consecutive rounds saw identical per-rank monotone counters with
  // globally balanced sent/recvd: the counters describe one consistent
  // cut with nothing in flight.  Decide termination.
  ControlMsg term;
  term.type = static_cast<std::uint8_t>(ControlType::kTerminate);
  term.rank = cfg_.rank;
  term.a = epoch;  // 1-based drain epoch, snapshotted under mu_ above
  transport_.broadcast_control(term);
  return true;
}

bool NetExecutor::follower_wait() {
  SyncUniqueLock lk(mu_);
  for (;;) {
    if (net_failed_) return false;  // drain() throws
    if (terminate_epoch_ >= drains_done_ + 1) return true;
    if (outstanding_ > 0) return false;  // new work arrived
    if (probe_pending_ && rt_->buffered() == 0) {
      probe_pending_ = false;
      ControlMsg ack;
      ack.type = static_cast<std::uint8_t>(ControlType::kAck);
      ack.rank = cfg_.rank;
      ack.a = probe_round_;
      // Quiescent under mu_: no task and no idle-worker flush can be
      // mid-transmit (both hold outstanding_ > 0 for their span), so the
      // counter pair is a consistent local snapshot.
      ack.b = sent_parcels_.load(std::memory_order_relaxed);
      ack.c = recvd_parcels_.load(std::memory_order_relaxed);
      rt_->counters().add(0, term_rounds_);
      lk.unlock();
      transport_.post_control(0, ack);
      lk.lock();
      continue;
    }
    state_cv_.wait(lk);
  }
}

double NetExecutor::drain() {
  const double t0 = now();
  for (;;) {
    {
      SyncUniqueLock lk(mu_);
      // Explicit predicate loop (no wait(pred) overload; see sync_hook.hpp).
      while (outstanding_ != 0 && !net_failed_) state_cv_.wait(lk);
    }
    throw_if_failed();
    // Local quiescence flush: everything still buffered for remote ranks
    // goes on the wire now.  Transmits may block on backpressure but
    // never spawn local work; received batches can, hence the re-loop.
    bool flushed = false;
    for (auto& b : rt_->take_all_from(cfg_.rank)) {
      transmit(std::move(b), /*coalesced=*/true);
      flushed = true;
    }
    {
      SyncLockGuard lk(mu_);
      if (flushed || outstanding_ != 0 || rt_->buffered() != 0) continue;
    }
    if (cfg_.world == 1) break;
    if (cfg_.rank == 0) {
      if (coordinate_round()) break;
    } else {
      if (follower_wait()) break;
    }
    throw_if_failed();
  }
  throw_if_failed();
  {
    SyncLockGuard lk(mu_);
    ++drains_done_;
    // Re-arm the probe protocol for the next drain epoch on the same
    // mesh: the stable-cut comparison restarts from scratch (two fresh
    // agreeing rounds) and stale per-rank acks are dropped.  A pending
    // probe is deliberately NOT cleared: on a resident mesh the
    // coordinator can enter the next drain and broadcast its first probe
    // while this follower is still in this epilogue (kTerminate and that
    // probe arrive back to back), and the coordinator never re-probes a
    // round — swallowing it here deadlocks the next drain.  Answering it
    // from the next follower_wait is safe: acks are matched by round
    // number, and the cumulative counter cut is read at answer time.
    prev_round_valid_ = false;
    for (auto& a : acks_) a.reset();
  }
  return now() - t0;
}

}  // namespace amtfmm::net
