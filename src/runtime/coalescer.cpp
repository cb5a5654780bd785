#include "runtime/coalescer.hpp"

#include "support/error.hpp"

namespace amtfmm {

ParcelCoalescer::ParcelCoalescer(int localities, const CoalesceConfig& cfg)
    : cfg_(cfg),
      localities_(static_cast<std::uint32_t>(localities)),
      buffers_(static_cast<std::size_t>(localities) *
               static_cast<std::size_t>(localities)),
      pending_per_src_(new std::atomic<std::uint64_t>[
          static_cast<std::size_t>(localities)]) {
  AMTFMM_ASSERT(localities >= 1);
  AMTFMM_ASSERT(cfg_.max_parcels >= 1);
  AMTFMM_ASSERT(cfg_.max_bytes >= 1);
  for (int i = 0; i < localities; ++i) {
    // relaxed-ok: single-threaded construction; publication orders these.
    pending_per_src_[static_cast<std::size_t>(i)].store(
        0, std::memory_order_relaxed);
  }
}

ParcelBatch ParcelCoalescer::take_locked(Buffer& b, std::uint32_t src,
                                         std::uint32_t dst,
                                         FlushReason reason) {
  ParcelBatch out;
  out.src = src;
  out.dst = dst;
  out.seq = b.next_seq++;
  out.bytes = b.bytes;
  out.any_high = b.any_high;
  out.reason = reason;
  out.tasks = std::move(b.tasks);
  b.tasks.clear();
  b.bytes = 0;
  b.any_high = false;
  b.epoch++;
  // Count-after-remove: the probe counter may transiently over-report but
  // never under-reports (see the pending_per_src_ invariant).
  sync_event(SyncKind::kBatchFlush, this, out.tasks.size());
  hooked_fetch_sub(pending_per_src_[src], out.tasks.size(),
                   std::memory_order_seq_cst);
  sync_event(SyncKind::kPendingLower, this, out.tasks.size());
  return out;
}

ParcelCoalescer::Enqueued ParcelCoalescer::enqueue(std::uint32_t src,
                                                   std::uint32_t dst,
                                                   std::size_t bytes, Task t,
                                                   double now) {
  Buffer& b = buffer(src, dst);
  Enqueued r;
  SyncLockGuard lk(b.mu);
  if (b.tasks.empty()) {
    b.oldest = now;
    r.first = true;
    r.epoch = b.epoch;
  }
  // Count-before-insert: lock-free probes (pending_from) must never
  // under-report, or an idle-path flush could skip a buffer that a
  // concurrent enqueue has already filled.  rtcheck mutation point: the
  // pre-fix insert-then-count order violates the invariant.
  const bool count_late = rt_mutation(Mutation::kCoalescerCountAfterInsert);
  if (!count_late) {
    hooked_fetch_add(pending_per_src_[src], 1, std::memory_order_seq_cst);
    sync_event(SyncKind::kPendingRaise, this, 1);
  }
  b.tasks.push_back(std::move(t));
  b.bytes += bytes;
  b.any_high = b.any_high || b.tasks.back().high_priority;
  sync_event(SyncKind::kBatchEnqueue, this, 1);
  if (count_late) {
    hooked_fetch_add(pending_per_src_[src], 1, std::memory_order_seq_cst);
    sync_event(SyncKind::kPendingRaise, this, 1);
  }
  if (b.tasks.size() >= cfg_.max_parcels || b.bytes >= cfg_.max_bytes) {
    r.ready = take_locked(b, src, dst, FlushReason::kThreshold);
  }
  return r;
}

std::optional<ParcelBatch> ParcelCoalescer::take_if_epoch(
    std::uint32_t src, std::uint32_t dst, std::uint64_t epoch) {
  Buffer& b = buffer(src, dst);
  SyncLockGuard lk(b.mu);
  if (b.epoch != epoch || b.tasks.empty()) return std::nullopt;
  return take_locked(b, src, dst, FlushReason::kDeadline);
}

std::vector<ParcelBatch> ParcelCoalescer::take_expired_from(std::uint32_t src,
                                                            double now) {
  std::vector<ParcelBatch> out;
  if (hooked_load(pending_per_src_[src], std::memory_order_seq_cst) == 0) {
    return out;
  }
  for (std::uint32_t dst = 0; dst < localities_; ++dst) {
    Buffer& b = buffer(src, dst);
    SyncLockGuard lk(b.mu);
    if (!b.tasks.empty() && now - b.oldest >= cfg_.flush_deadline) {
      out.push_back(take_locked(b, src, dst, FlushReason::kDeadline));
    }
  }
  return out;
}

std::vector<ParcelBatch> ParcelCoalescer::take_all_from(std::uint32_t src) {
  std::vector<ParcelBatch> out;
  if (hooked_load(pending_per_src_[src], std::memory_order_seq_cst) == 0) {
    return out;
  }
  for (std::uint32_t dst = 0; dst < localities_; ++dst) {
    Buffer& b = buffer(src, dst);
    SyncLockGuard lk(b.mu);
    if (!b.tasks.empty()) {
      out.push_back(take_locked(b, src, dst, FlushReason::kQuiescence));
    }
  }
  return out;
}

std::vector<ParcelBatch> ParcelCoalescer::take_all() {
  std::vector<ParcelBatch> out;
  for (std::uint32_t src = 0; src < localities_; ++src) {
    auto from = take_all_from(src);
    for (auto& b : from) out.push_back(std::move(b));
  }
  return out;
}

bool ParcelCoalescer::pending() const {
  for (std::uint32_t src = 0; src < localities_; ++src) {
    if (hooked_load(pending_per_src_[src], std::memory_order_seq_cst) != 0) {
      return true;
    }
  }
  return false;
}

bool ParcelCoalescer::pending_from(std::uint32_t src) const {
  return hooked_load(pending_per_src_[src], std::memory_order_seq_cst) != 0;
}

}  // namespace amtfmm
