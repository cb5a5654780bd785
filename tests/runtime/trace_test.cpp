#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/kernel.hpp"
#include "runtime/executor.hpp"
#include "runtime/flight_recorder.hpp"
#include "runtime/trace.hpp"
#include "support/json.hpp"

namespace amtfmm {
namespace {

TEST(Utilization, SingleFullyBusyWorker) {
  std::vector<TraceEvent> ev{{0.0, 1.0, 0, 0}};
  const auto p = utilization(ev, 0.0, 1.0, 4, 1);
  for (double f : p.total) EXPECT_NEAR(f, 1.0, 1e-12);
}

TEST(Utilization, EventSplitAcrossIntervals) {
  // One event covering [0.25, 0.75] of a 1s window, 2 intervals, 1 worker:
  // each interval gets 0.25s busy out of 0.5s -> f = 0.5.
  std::vector<TraceEvent> ev{{0.25, 0.75, 0, 3}};
  const auto p = utilization(ev, 0.0, 1.0, 2, 1);
  EXPECT_NEAR(p.total[0], 0.5, 1e-12);
  EXPECT_NEAR(p.total[1], 0.5, 1e-12);
  EXPECT_NEAR(p.by_class[3][0], 0.5, 1e-12);
  EXPECT_NEAR(p.by_class[2][0], 0.0, 1e-12);
}

TEST(Utilization, MultipleWorkersNormalize) {
  // Two workers, one busy all the time, one idle: f = 1/2 (paper eq. 1's
  // n-thread denominator).
  std::vector<TraceEvent> ev{{0.0, 2.0, 0, 1}};
  const auto p = utilization(ev, 0.0, 2.0, 5, 2);
  for (double f : p.total) EXPECT_NEAR(f, 0.5, 1e-12);
}

TEST(Utilization, PerClassFractionsSumToTotal) {
  std::vector<TraceEvent> ev{
      {0.0, 0.5, 0, 0}, {0.5, 1.0, 0, 5}, {0.0, 1.0, 1, 9}};
  const auto p = utilization(ev, 0.0, 1.0, 10, 2);
  for (int k = 0; k < 10; ++k) {
    double sum = 0.0;
    for (const auto& cls : p.by_class) sum += cls[static_cast<std::size_t>(k)];
    EXPECT_NEAR(sum, p.total[static_cast<std::size_t>(k)], 1e-12);
  }
}

TEST(Utilization, EventsOutsideWindowAreClipped) {
  std::vector<TraceEvent> ev{{-1.0, 0.5, 0, 0}, {0.9, 5.0, 0, 0}};
  const auto p = utilization(ev, 0.0, 1.0, 1, 1);
  EXPECT_NEAR(p.total[0], 0.6, 1e-12);
}

TEST(Utilization, EventsAtWindowEndContributeNothing) {
  // An event starting exactly at t_end and a zero-length event: neither
  // may contribute, and no interval may come out NaN or negative.
  std::vector<TraceEvent> ev{{1.0, 1.5, 0, 0}, {0.5, 0.5, 0, 0}};
  const auto p = utilization(ev, 0.0, 1.0, 4, 1);
  for (double f : p.total) {
    EXPECT_FALSE(std::isnan(f));
    EXPECT_NEAR(f, 0.0, 1e-12);
  }
}

TEST(Utilization, EventEndingExactlyAtWindowEndFullyCounted) {
  // Regression for the boundary-split arithmetic: an event ending exactly
  // at t_end lands in the last interval with its full overlap, and an
  // event straddling the final boundary splits proportionally.
  std::vector<TraceEvent> ev{{0.75, 1.0, 0, 0}};
  const auto p = utilization(ev, 0.0, 1.0, 4, 1);
  EXPECT_NEAR(p.total[0], 0.0, 1e-12);
  EXPECT_NEAR(p.total[3], 1.0, 1e-12);

  std::vector<TraceEvent> straddle{{0.6, 0.9, 0, 0}};
  const auto q = utilization(straddle, 0.0, 1.0, 4, 1);
  // [0.6, 0.75) in interval 2 (0.15 of 0.25), [0.75, 0.9) in interval 3.
  EXPECT_NEAR(q.total[2], 0.6, 1e-12);
  EXPECT_NEAR(q.total[3], 0.6, 1e-12);
}

TEST(Utilization, DegenerateWindowYieldsZeros) {
  std::vector<TraceEvent> ev{{0.0, 1.0, 0, 0}};
  for (const double t_end : {0.0, -1.0}) {
    const auto p = utilization(ev, 0.0, t_end, 3, 2);
    ASSERT_EQ(p.total.size(), 3u);
    for (double f : p.total) {
      EXPECT_FALSE(std::isnan(f));
      EXPECT_EQ(f, 0.0);
    }
  }
}

TEST(TraceSink, DisabledRecordsNothing) {
  TraceSink sink(2);
  sink.record(0, 1, 0.0, 1.0);
  EXPECT_TRUE(sink.collect().empty());
  sink.set_enabled(true);
  sink.record(1, 2, 0.5, 1.0);
  sink.record(0, 1, 0.0, 1.0);
  const auto ev = sink.collect();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].worker, 0u);  // sorted by start time
  EXPECT_EQ(ev[1].cls, 2);
}

TEST(TraceClassNames, CoverOperatorsAndRuntime) {
  EXPECT_STREQ(trace_class_name(0), "S->T");
  EXPECT_STREQ(trace_class_name(kClsNetwork), "network");
  EXPECT_STREQ(trace_class_name(kClsOther), "other");
  // Unknown classes degrade to a placeholder instead of reading past the
  // name table.
  EXPECT_STREQ(trace_class_name(kNumTraceClasses), "?");
  EXPECT_STREQ(trace_class_name(0xff), "?");
}

TEST(TraceInstantNames, CoverAllKinds) {
  EXPECT_STREQ(trace_kind_name(TraceKind::kSteal), "steal");
  EXPECT_STREQ(trace_kind_name(TraceKind::kParcelSend), "parcel_send");
  EXPECT_STREQ(trace_kind_name(TraceKind::kParcelRecv), "parcel_recv");
  EXPECT_STREQ(trace_kind_name(TraceKind::kLcoFire), "lco_fire");
}

TEST(TraceSink, SpanArgAttributionRoundTrips) {
  TraceSink sink(1);
  sink.set_enabled(true);
  sink.record(0, 3, 0.0, 1.0, 42);
  sink.record(0, 3, 1.0, 2.0);  // default: no attribution
  const auto ev = sink.collect();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].arg, 42u);
  EXPECT_EQ(ev[1].arg, kNoTraceArg);
}

TEST(TraceSink, InstantsCollectSortedAcrossWorkers) {
  TraceSink sink(2);
  sink.record_instant(0, TraceKind::kSteal, 1.0, 1);
  EXPECT_TRUE(sink.collect().empty());  // disabled: dropped
  sink.set_enabled(true);
  sink.record_instant(1, TraceKind::kLcoFire, 2.0);
  sink.record_instant(0, TraceKind::kSteal, 0.5, 1);
  sink.record_instant(1, TraceKind::kParcelRecv, 1.0, 0);
  const auto ev = sink.collect();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].kind, TraceKind::kSteal);
  EXPECT_EQ(ev[0].arg, 1u);
  EXPECT_EQ(ev[1].kind, TraceKind::kParcelRecv);
  EXPECT_EQ(ev[2].kind, TraceKind::kLcoFire);
  EXPECT_EQ(ev[2].arg, kNoTraceArg);
  for (const TraceEvent& e : ev) {
    EXPECT_EQ(e.t0, e.t1);            // instants carry no duration
    EXPECT_GE(e.cls, kNumOperators);  // never counted as operator work
  }
  sink.clear();
  EXPECT_TRUE(sink.collect().empty());
}

TEST(TraceSink, OneStreamCarriesSpansInstantsAndWire) {
  TraceSink sink(2);
  sink.set_enabled(true);
  sink.record(1, 3, 0.5, 1.5, 7);
  sink.record_instant(0, TraceKind::kSteal, 0.25, 1);
  sink.record_comm(TraceEvent::wire(0.1, 0.9, 0, 1, 3, 123));
  const auto ev = sink.collect();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].kind, TraceKind::kWire);  // sorted by t0 across logs
  EXPECT_EQ(ev[0].worker, 0u);              // source locality
  EXPECT_EQ(ev[0].arg, 1u);                 // destination locality
  EXPECT_EQ(ev[0].parcels, 3u);
  EXPECT_EQ(ev[0].bytes, 123u);
  EXPECT_EQ(ev[0].cls, kClsNetwork);
  EXPECT_EQ(ev[1].kind, TraceKind::kSteal);
  EXPECT_EQ(ev[2].kind, TraceKind::kSpan);
  EXPECT_EQ(ev[2].arg, 7u);

  // Only spans count toward utilization: the 0.8 s wire record would
  // otherwise fill most of the window.
  const auto p = utilization(ev, 0.0, 2.0, 1, 2);
  EXPECT_NEAR(p.total[0], 0.25, 1e-12);
}

// Full tracing and the flight recorder's ring mode are never combined.
TEST(TraceSinkDeathTest, RingAndFullModesAreExclusive) {
  EXPECT_DEATH(
      {
        TraceSink sink(1);
        sink.set_enabled(true);
        sink.set_ring(8);
      },
      "attached while full tracing");
  EXPECT_DEATH(
      {
        TraceSink sink(1);
        sink.set_ring(8);
        sink.set_enabled(true);
      },
      "full tracing while the flight recorder");
}

// Four worker threads record alternating spans and instants into their own
// logs while a fifth, non-worker thread records wire messages into the
// shared log.  Record i of worker w starts at (w * kPerWorker + i) us and
// carries arg w * kPerWorker + i; wire message i carries bytes == i.
constexpr int kWorkers = 4;
constexpr int kPerWorker = 1000;
constexpr int kWires = 600;

void record_concurrently(TraceSink& sink) {
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&sink, w] {
      detail::set_current_worker(w);
      const auto wk = static_cast<std::uint32_t>(w);
      for (int i = 0; i < kPerWorker; ++i) {
        const auto id = static_cast<std::uint32_t>(w * kPerWorker + i);
        const double t = 1e-6 * id;
        if (i % 2 == 0) {
          sink.record(wk, 1, t, t + 5e-7, id);
        } else {
          sink.record_instant(wk, TraceKind::kSteal, t, id);
        }
      }
      detail::set_current_worker(-1);
    });
  }
  threads.emplace_back([&sink] {
    for (int i = 0; i < kWires; ++i) {
      const double t = 1e-6 * (kWorkers * kPerWorker + i);
      sink.record_comm(TraceEvent::wire(t, t + 1e-6, 0, 1, 1,
                                        static_cast<std::uint64_t>(i)));
    }
  });
  for (auto& t : threads) t.join();
}

TEST(TraceSinkConcurrency, FullModeCollectsEveryRecordOnce) {
  TraceSink sink(kWorkers);
  sink.set_enabled(true);
  record_concurrently(sink);
  const auto ev = sink.collect();
  ASSERT_EQ(ev.size(),
            static_cast<std::size_t>(kWorkers * kPerWorker + kWires));
  EXPECT_TRUE(std::is_sorted(
      ev.begin(), ev.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.t0 < b.t0; }));
  std::set<std::uint32_t> ids;
  std::set<std::uint64_t> wires;
  for (const TraceEvent& e : ev) {
    if (e.kind == TraceKind::kWire) {
      EXPECT_TRUE(wires.insert(e.bytes).second) << "duplicate wire " << e.bytes;
      continue;
    }
    EXPECT_EQ(e.worker, e.arg / kPerWorker);
    EXPECT_EQ(e.kind, e.arg % 2 == 0 ? TraceKind::kSpan : TraceKind::kSteal);
    EXPECT_TRUE(ids.insert(e.arg).second) << "duplicate record " << e.arg;
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kWorkers * kPerWorker));
  EXPECT_EQ(wires.size(), static_cast<std::size_t>(kWires));
}

TEST(TraceSinkConcurrency, RingModeKeepsNewestCapacityPerLog) {
  TraceSink sink(kWorkers);
  FlightRecorder fr(sink, /*events_per_worker=*/256);
  const std::size_t cap = fr.capacity();
  ASSERT_EQ(cap, 256u);
  record_concurrently(sink);

  std::vector<std::vector<std::uint32_t>> per_worker(kWorkers);
  std::vector<std::uint64_t> wires;
  sink.visit_rings([&](const TraceEvent& e) {
    if (e.kind == TraceKind::kWire) {
      wires.push_back(e.bytes);
    } else {
      ASSERT_LT(e.worker, static_cast<std::uint32_t>(kWorkers));
      per_worker[e.worker].push_back(e.arg);
    }
  });
  for (int w = 0; w < kWorkers; ++w) {
    // Exactly the newest `cap` records of worker w, oldest first.
    ASSERT_EQ(per_worker[static_cast<std::size_t>(w)].size(), cap);
    for (std::size_t k = 0; k < cap; ++k) {
      EXPECT_EQ(per_worker[static_cast<std::size_t>(w)][k],
                static_cast<std::uint32_t>(w * kPerWorker + kPerWorker -
                                           static_cast<int>(cap) +
                                           static_cast<int>(k)));
    }
  }
  ASSERT_EQ(wires.size(), cap);
  for (std::size_t k = 0; k < cap; ++k) EXPECT_EQ(wires[k], kWires - cap + k);

  // The flight dump renders the same rings: every surviving span, instant
  // and wire record.
  const std::string path = ::testing::TempDir() + "trace_ring_dump.json";
  fr.set_dump_path(path);
  ASSERT_TRUE(fr.dump("concurrency test"));
  std::string text;
  ASSERT_TRUE(read_file(path, text));
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(text, v, err)) << err;
  std::size_t spans = 0, instants = 0, comm = 0;
  for (const JsonValue& e : v.find("traceEvents")->array) {
    const std::string ph = e.str_or("ph", "");
    if (ph == "i") ++instants;
    if (ph == "X") ++(e.str_or("cat", "") == "comm" ? comm : spans);
  }
  EXPECT_EQ(spans, kWorkers * cap / 2);
  EXPECT_EQ(instants, kWorkers * cap / 2);
  EXPECT_EQ(comm, cap);
}

}  // namespace
}  // namespace amtfmm
