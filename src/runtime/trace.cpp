#include "runtime/trace.hpp"

#include <algorithm>
#include <chrono>

#include "kernels/kernel.hpp"
#include "support/error.hpp"

namespace amtfmm {

TraceClock make_trace_clock(double steady_origin_s) {
  TraceClock c;
  c.steady_origin_s = steady_origin_s;
  // Read both clocks back to back: the pair correlates the steady
  // timeline traces run on with real time.  The microseconds between the
  // two reads are noise well below the clock-sync error bound.
  const double steady_now =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  // time-ok: the trace wall-clock anchor is the one sanctioned wall time
  // read in the runtime (lint rule 7); everything else is steady-clock.
  const double wall_now =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  c.wall_anchor_s = wall_now - (steady_now - steady_origin_s);
  return c;
}

const char* trace_class_name(std::uint8_t cls) {
  if (cls < kNumOperators) return to_string(static_cast<Operator>(cls));
  if (cls == kClsNetwork) return "network";
  if (cls == kClsOther) return "other";
  return "?";
}

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSpan: return "span";
    case TraceKind::kSteal: return "steal";
    case TraceKind::kParcelSend: return "parcel_send";
    case TraceKind::kParcelRecv: return "parcel_recv";
    case TraceKind::kLcoFire: return "lco_fire";
    case TraceKind::kWire: return "wire";
  }
  return "?";
}

void TraceSink::set_enabled(bool on) {
  if (mode() == Mode::kRing) {
    // Full tracing and the flight recorder are never combined; turning
    // full mode off leaves an attached ring alone.
    AMTFMM_ASSERT_MSG(!on, "full tracing while the flight recorder is on");
    return;
  }
  if (on && ring_) {
    // A detached recorder's rings give way to unbounded logs.
    ring_ = false;
    mask_ = 0;
    clear();
  }
  // relaxed-ok: control flag, no ordering required (see class comment).
  mode_.store(on ? Mode::kFull : Mode::kOff, std::memory_order_relaxed);
}

void TraceSink::set_ring(std::size_t capacity) {
  AMTFMM_ASSERT_MSG(mode() != Mode::kFull,
                    "flight recorder attached while full tracing is on");
  if (capacity == 0) {
    // relaxed-ok: control flag, no ordering required (see class comment).
    mode_.store(Mode::kOff, std::memory_order_relaxed);
    return;
  }
  std::size_t cap = 1;
  while (cap < capacity) cap <<= 1;
  ring_ = true;
  mask_ = cap - 1;
  for (Log& l : logs_) l.events.assign(cap, TraceEvent{});
  {
    SyncLockGuard lk(shared_mu_);
    shared_.events.assign(cap, TraceEvent{});
  }
  clear();  // heads back to zero
  // relaxed-ok: control flag, no ordering required (see class comment).
  mode_.store(Mode::kRing, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceSink::collect() const {
  std::vector<TraceEvent> out;
  if (ring_) return out;
  SyncLockGuard lk(shared_mu_);
  std::size_t total = shared_.events.size();
  for (const Log& l : logs_) total += l.events.size();
  out.reserve(total);
  for (const Log& l : logs_) {
    out.insert(out.end(), l.events.begin(), l.events.end());
  }
  for (const TraceEvent& e : shared_.events) {
    if (e.kind != TraceKind::kWire) out.push_back(e);
  }
  const auto wire = static_cast<std::ptrdiff_t>(out.size());
  for (const TraceEvent& e : shared_.events) {
    if (e.kind == TraceKind::kWire) out.push_back(e);
  }
  // Wire records sort on their own before the merge, so their relative
  // order (the exporter numbers flows by it) depends on the wire log only.
  const auto by_t0 = [](const TraceEvent& a, const TraceEvent& b) {
    return a.t0 < b.t0;
  };
  std::sort(out.begin(), out.begin() + wire, by_t0);
  std::sort(out.begin() + wire, out.end(), by_t0);
  std::inplace_merge(out.begin(), out.begin() + wire, out.end(), by_t0);
  return out;
}

void TraceSink::clear() {
  auto reset = [this](Log& l) {
    if (!ring_) l.events.clear();
    // relaxed-ok: quiescent reset (see class comment).
    l.head.store(0, std::memory_order_relaxed);
  };
  for (Log& l : logs_) reset(l);
  SyncLockGuard lk(shared_mu_);
  reset(shared_);
}

UtilizationProfile utilization(std::span<const TraceEvent> events,
                               double t_begin, double t_end, int intervals,
                               int num_workers) {
  AMTFMM_ASSERT(intervals >= 1);
  AMTFMM_ASSERT(num_workers >= 1);
  UtilizationProfile p;
  p.t_begin = t_begin;
  p.t_end = t_end;
  p.total.assign(static_cast<std::size_t>(intervals), 0.0);
  for (auto& v : p.by_class) v.assign(static_cast<std::size_t>(intervals), 0.0);
  // Degenerate window: all-zero fractions, never divide by zero below.
  if (!(t_end > t_begin)) return p;

  const double dt = (t_end - t_begin) / intervals;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceKind::kSpan) continue;
    double a = std::max(e.t0, t_begin);
    double b = std::min(e.t1, t_end);
    if (b <= a) continue;
    int k0 = static_cast<int>((a - t_begin) / dt);
    int k1 = static_cast<int>((b - t_begin) / dt);
    k0 = std::clamp(k0, 0, intervals - 1);
    k1 = std::clamp(k1, 0, intervals - 1);
    for (int k = k0; k <= k1; ++k) {
      const double lo = t_begin + k * dt;
      const double hi = lo + dt;
      const double overlap = std::min(b, hi) - std::max(a, lo);
      if (overlap <= 0.0) continue;
      p.by_class[e.cls][static_cast<std::size_t>(k)] += overlap;
    }
  }
  const double denom = num_workers * dt;
  for (int c = 0; c < kNumTraceClasses; ++c) {
    for (int k = 0; k < intervals; ++k) {
      p.by_class[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)] /= denom;
      p.total[static_cast<std::size_t>(k)] +=
          p.by_class[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
    }
  }
  return p;
}

}  // namespace amtfmm
