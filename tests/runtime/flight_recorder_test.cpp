// Flight recorder + watchdog tests: bounded ring overwrite, dump validity
// (the dump must load as a Chrome trace), TraceSink routing with full
// tracing off, and the stall watchdog's fire/re-arm discipline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "runtime/flight_recorder.hpp"
#include "runtime/trace.hpp"
#include "runtime/watchdog.hpp"
#include "support/json.hpp"

namespace amtfmm {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Parses a flight dump; returns the traceEvents array value.
JsonValue load_dump(const std::string& path) {
  std::string text;
  EXPECT_TRUE(read_file(path, text)) << path;
  JsonValue v;
  std::string err;
  EXPECT_TRUE(json_parse(text, v, err)) << err;
  return v;
}

TEST(FlightRecorder, RingKeepsOnlyNewestEvents) {
  TraceSink sink(/*workers=*/1);
  FlightRecorder fr(sink, /*events_per_worker=*/8);
  EXPECT_EQ(fr.capacity(), 8u);
  const std::string path = tmp_path("flight_ring.json");
  fr.set_dump_path(path);
  // 20 spans into an 8-slot ring: only the newest 8 (args 12..19) survive.
  for (int i = 0; i < 20; ++i) {
    sink.record(0, /*cls=*/1, 1e-3 * i, 1e-3 * i + 5e-4,
                static_cast<std::uint32_t>(i));
  }
  ASSERT_TRUE(fr.dump("ring test"));

  const JsonValue v = load_dump(path);
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<double> args;
  for (const JsonValue& e : events->array) {
    if (e.str_or("ph", "") != "X") continue;
    if (const JsonValue* a = e.find("args")) {
      args.push_back(a->num_or("edge", -1.0));
    }
  }
  ASSERT_EQ(args.size(), 8u);
  for (std::size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(args[i], 12.0 + static_cast<double>(i));
  }
}

TEST(FlightRecorder, DumpCarriesMetadataAndInstants) {
  TraceSink sink(2);
  FlightRecorder fr(sink, 16);
  const std::string path = tmp_path("flight_meta.json");
  fr.set_dump_path(path);
  TraceClock clock;
  clock.steady_origin_s = 123.5;
  clock.wall_anchor_s = 1.7e9;
  clock.offset_s = 0.25;
  clock.uncertainty_s = 1e-5;
  fr.set_meta(/*rank=*/3, /*cores=*/2, clock);
  sink.record_instant(1, TraceKind::kParcelRecv, 2e-3, /*arg=*/0);
  sink.record_comm(TraceEvent::wire(1e-3, 2e-3, 0, 3, 2, 64));
  ASSERT_TRUE(fr.dump("unit test"));

  const JsonValue v = load_dump(path);
  const JsonValue* meta = v.find("amtfmm_flight");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->str_or("reason", ""), "unit test");
  EXPECT_EQ(meta->num_or("rank", -1.0), 3.0);
  EXPECT_NEAR(meta->num_or("steady_origin_s", 0.0), 123.5, 1e-9);
  EXPECT_NEAR(meta->num_or("clock_offset_s", 0.0), 0.25, 1e-9);
  int instants = 0, wires = 0;
  for (const JsonValue& e : v.find("traceEvents")->array) {
    if (e.str_or("ph", "") == "i") ++instants;
    if (e.str_or("cat", "") == "comm") ++wires;
  }
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(wires, 1);
}

TEST(FlightRecorder, TraceSinkRoutesWithFullTracingOff) {
  TraceSink sink(1);

  // Nothing attached: record is a no-op (the disabled hot path).
  sink.record(0, 1, 0.0, 1e-3, 7);
  EXPECT_FALSE(sink.enabled());

  FlightRecorder fr(sink, 16);
  const std::string path = tmp_path("flight_route.json");
  fr.set_dump_path(path);
  EXPECT_TRUE(sink.enabled());  // hot-path guard sees ring mode
  EXPECT_EQ(sink.mode(), TraceSink::Mode::kRing);  // ...not full tracing
  sink.record(0, 1, 0.0, 1e-3, 7);
  sink.record_instant(0, TraceKind::kSteal, 5e-4, 2);
  EXPECT_TRUE(sink.collect().empty()) << "flight events must not leak into "
                                         "the full-trace buffers";
  sink.set_ring(0);  // detach; the rings stay readable for the dump
  EXPECT_FALSE(sink.enabled());
  sink.record(0, 1, 0.0, 1e-3, 99);  // after detach: dropped

  ASSERT_TRUE(fr.dump("routing test"));
  const JsonValue v = load_dump(path);
  int spans = 0, instants = 0;
  for (const JsonValue& e : v.find("traceEvents")->array) {
    const std::string ph = e.str_or("ph", "");
    if (ph == "X") {
      ++spans;
      EXPECT_EQ(e.find("args")->num_or("edge", -1.0), 7.0);
    }
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
}

TEST(FlightRecorder, DumpAllReachesRegisteredRecorders) {
  TraceSink sink(1);
  FlightRecorder fr(sink, 8);
  const std::string path = tmp_path("flight_all.json");
  fr.set_dump_path(path);
  sink.record(0, 1, 0.0, 1e-3, 0);
  EXPECT_GE(flight_dump_all("dump-all test"), 1);
  const JsonValue v = load_dump(path);
  EXPECT_EQ(v.find("amtfmm_flight")->str_or("reason", ""), "dump-all test");
}

// ---- watchdog ----------------------------------------------------------

TEST(Watchdog, FiresOnceOnStallAndReportsStallTime) {
  std::atomic<int> fires{0};
  std::atomic<double> stalled{0.0};
  Watchdog wd(0.05, [&](double s) {
    fires.fetch_add(1);
    stalled.store(s);
  });
  wd.arm();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(wd.fired());
  EXPECT_EQ(fires.load(), 1) << "one stall episode must fire exactly once";
  EXPECT_GE(stalled.load(), 0.05);
}

TEST(Watchdog, BeatsSuppressFiring) {
  std::atomic<int> fires{0};
  Watchdog wd(0.2, [&](double) { fires.fetch_add(1); });
  wd.arm();
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    wd.beat();
  }
  wd.disarm();
  EXPECT_EQ(fires.load(), 0);
  EXPECT_FALSE(wd.fired());
}

TEST(Watchdog, DisarmedPeriodsAreNotWatched) {
  std::atomic<int> fires{0};
  Watchdog wd(0.05, [&](double) { fires.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(fires.load(), 0) << "never armed, must never fire";
}

TEST(Watchdog, BeatReArmsDetectionAfterAStall) {
  std::atomic<int> fires{0};
  Watchdog wd(0.05, [&](double) { fires.fetch_add(1); });
  wd.arm();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(fires.load(), 1);
  wd.beat();  // stall ended; a NEW stall must be reported again
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(fires.load(), 2);
}

// The serve-shaped integration: a stalled "epoch" dumps the flight
// recorder through the registry, exactly what amtfmm_serve wires up.
TEST(Watchdog, StallDumpsFlightRecorder) {
  TraceSink sink(1);
  FlightRecorder fr(sink, 8);
  const std::string path = tmp_path("flight_watchdog.json");
  fr.set_dump_path(path);
  sink.record(0, 1, 0.0, 1e-3, 5);
  std::atomic<int> dumped{0};
  Watchdog wd(0.05, [&](double) {
    dumped.store(flight_dump_all("serve epoch watchdog"));
  });
  wd.arm();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(wd.fired());
  EXPECT_GE(dumped.load(), 1);
  const JsonValue v = load_dump(path);
  EXPECT_EQ(v.find("amtfmm_flight")->str_or("reason", ""),
            "serve epoch watchdog");
}

}  // namespace
}  // namespace amtfmm
