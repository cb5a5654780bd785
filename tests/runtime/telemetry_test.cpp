// Telemetry channel tests: window deltas, the JSON wire format, the
// Prometheus exposition, and the sampler -> aggregator -> snapshot-file
// pipeline end to end (all in-process; the cross-rank transport leg is
// checked by amtfmm_serve's rank 0 in the Serve.unix_np2 test).

#include <gtest/gtest.h>

#include <chrono>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/counters.hpp"
#include "runtime/telemetry.hpp"
#include "support/json.hpp"

namespace amtfmm {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(TelemetryDelta, CountersSubtractGaugesPassThrough) {
  CounterRegistry reg(1);
  const auto c = reg.counter("sched.tasks_run");
  const auto g = reg.gauge("gas.objects_hw");
  const auto h = reg.histogram("serve.epoch_us");
  reg.set_enabled(true);
  reg.add(0, c, 10);
  reg.gauge_max(0, g, 7);
  reg.observe(0, h, 100);
  const CounterSnapshot prev = reg.snapshot();
  reg.add(0, c, 5);
  reg.gauge_max(0, g, 9);
  reg.observe(0, h, 200);
  reg.observe(0, h, 300);
  const CounterSnapshot cur = reg.snapshot();

  const CounterSnapshot s = snapshot_delta(prev, cur);
  EXPECT_EQ(s.value("sched.tasks_run"), 5u);   // window delta
  EXPECT_EQ(s.value("gas.objects_hw"), 9u);    // current value
  const auto* hd = s.hist("serve.epoch_us");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->count, 2u);                    // window observations only
  EXPECT_EQ(hd->sum, 500u);

  // A metric registered after the window opened counts from zero.
  const auto late = reg.counter("serve.epochs");
  reg.add(0, late, 3);
  EXPECT_EQ(snapshot_delta(cur, reg.snapshot()).value("serve.epochs"), 3u);
}

TEST(TelemetryWire, EncodeDecodeRoundTrip) {
  TelemetrySample s;
  s.rank = 3;
  s.seq = 41;
  s.t_s = 1.5;
  s.dt_s = 0.25;
  // Names in sorted order: the reader returns each group sorted by name.
  s.window.counters = {{"comm.parcels", 0}, {"sched.tasks_run", 1234}};
  s.window.gauges.push_back({"gas.objects_hw", 99});
  CounterSnapshot::Histogram h;
  h.name = "serve.epoch_us";
  h.count = 3;
  h.sum = 400;
  h.buckets[0] = 1;
  h.buckets[7] = 2;
  s.window.histograms.push_back(h);

  TelemetrySample out;
  std::string err;
  ASSERT_TRUE(telemetry_decode(telemetry_encode(s), out, err)) << err;
  EXPECT_EQ(out.rank, 3u);
  EXPECT_EQ(out.seq, 41u);
  EXPECT_NEAR(out.t_s, 1.5, 1e-12);
  EXPECT_NEAR(out.dt_s, 0.25, 1e-12);
  // Writer -> reader -> writer reproduces the sample byte for byte.
  EXPECT_EQ(telemetry_encode(out), telemetry_encode(s));
  EXPECT_EQ(out.window.value("sched.tasks_run"), 1234u);
  const auto* hd = out.window.hist("serve.epoch_us");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->buckets[7], 2u);

  EXPECT_FALSE(telemetry_decode("not json", out, err));
  EXPECT_FALSE(telemetry_decode("{\"v\":99}", out, err));  // future version
  EXPECT_FALSE(telemetry_decode("{\"v\":1}", out, err));  // "hists" format
}

TEST(TelemetryProm, ExpositionGrammarAndNames) {
  TelemetrySample s;
  s.rank = 1;
  s.dt_s = 0.5;
  s.window.counters.push_back({"sched.tasks_run", 100});  // 200/s
  s.window.gauges.push_back({"gas.objects_hw", 64});
  CounterSnapshot::Histogram h;
  h.name = "serve.epoch_us";
  h.count = 4;
  h.buckets[10] = 4;  // all in [1024, 2048)
  s.window.histograms.push_back(h);

  const std::string text = telemetry_render_prom({s});
  EXPECT_NE(text.find("# TYPE amtfmm_sched_tasks_run_rate gauge"),
            std::string::npos);
  EXPECT_NE(text.find("amtfmm_sched_tasks_run_rate{rank=\"1\"} 200"),
            std::string::npos);
  EXPECT_NE(text.find("amtfmm_gas_objects_hw{rank=\"1\"} 64"),
            std::string::npos);
  EXPECT_NE(text.find("amtfmm_serve_epoch_us_window_count{rank=\"1\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("amtfmm_serve_epoch_us_p99"), std::string::npos);
  // Text exposition grammar: `# TYPE name gauge` lines and
  // `name{rank="N"} value` samples, nothing else.
  const std::regex type_re("# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* gauge");
  const std::regex sample_re(
      R"re([a-zA-Z_:][a-zA-Z0-9_:]*\{rank="\d+"\} )re"
      R"re([-+]?(\d+\.?\d*([eE][-+]?\d+)?|inf|nan))re");
  std::istringstream lines(text);
  std::size_t samples = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    if (line.front() == '#') {
      EXPECT_TRUE(std::regex_match(line, type_re)) << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
      ++samples;
    }
  }
  EXPECT_EQ(samples, 5u);  // rate, gauge, window count, p50, p99
  // No unsanitized '.' may survive in a metric name.
  for (std::size_t pos = 0; (pos = text.find("amtfmm_", pos)) !=
                            std::string::npos;
       ++pos) {
    const std::size_t end = text.find_first_of("{ ", pos);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(text.substr(pos, end - pos).find('.'), std::string::npos);
  }
}

TEST(TelemetryPipeline, SamplerToAggregatorToSnapshotFile) {
  CounterRegistry reg(2);
  const auto c = reg.counter("sched.tasks_run");
  reg.set_enabled(true);

  const std::string path = tmp_path("telemetry_snapshot.json");
  TelemetryAggregator agg(/*world=*/1, path);
  {
    TelemetrySampler sampler(reg, /*rank=*/0, /*interval_s=*/0.02,
                             [&agg](std::string&& s) {
                               agg.enqueue(std::move(s));
                             });
    for (int i = 0; i < 10; ++i) {
      reg.add(i % 2, c, 100);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    sampler.stop();  // final flush ships the tail window
  }
  agg.stop();
  EXPECT_GT(agg.accepted(), 0u);
  EXPECT_EQ(agg.rejected(), 0u);

  std::vector<std::vector<TelemetrySample>> series;
  std::string err;
  ASSERT_TRUE(telemetry_load_snapshot(path, series, err)) << err;
  ASSERT_EQ(series.size(), 1u);
  ASSERT_FALSE(series[0].empty());
  // Window deltas over the whole run must sum to everything recorded, and
  // seq must be gapless (nothing was dropped in-process).
  std::uint64_t total = 0;
  std::uint64_t expect_seq = 0;
  for (const TelemetrySample& s : series[0]) {
    EXPECT_EQ(s.seq, expect_seq++);
    EXPECT_GT(s.dt_s, 0.0);
    total += s.window.value("sched.tasks_run");
  }
  EXPECT_EQ(total, 1000u);
}

TEST(TelemetryPipeline, AggregatorRejectsGarbageAndForeignRanks) {
  const std::string path = tmp_path("telemetry_reject.json");
  TelemetryAggregator agg(/*world=*/2, path);
  TelemetrySample ok;
  ok.rank = 1;
  agg.enqueue(telemetry_encode(ok));
  TelemetrySample bad;
  bad.rank = 7;  // >= world
  agg.enqueue(telemetry_encode(bad));
  agg.enqueue("{{{ not json");
  agg.stop();
  EXPECT_EQ(agg.accepted(), 1u);
  EXPECT_EQ(agg.rejected(), 2u);

  std::vector<std::vector<TelemetrySample>> series;
  std::string err;
  ASSERT_TRUE(telemetry_load_snapshot(path, series, err)) << err;
  ASSERT_EQ(series.size(), 2u);
  EXPECT_TRUE(series[0].empty());
  ASSERT_EQ(series[1].size(), 1u);
}

TEST(TelemetryPipeline, LoadSnapshotMissingFileFails) {
  std::vector<std::vector<TelemetrySample>> series;
  std::string err;
  EXPECT_FALSE(telemetry_load_snapshot(tmp_path("nope.json"), series, err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace amtfmm
