#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/counters.hpp"

namespace amtfmm {
namespace {

TEST(CounterRegistry, RegistrationReturnsStableIds) {
  CounterRegistry reg(2);
  const auto a = reg.counter("sched.tasks_run");
  const auto b = reg.counter("sched.steal_attempts");
  EXPECT_NE(a, b);
  // Re-registering an existing name returns the existing id.
  EXPECT_EQ(reg.counter("sched.tasks_run"), a);
  EXPECT_EQ(reg.find("sched.steal_attempts"), b);
  EXPECT_EQ(reg.find("no.such.metric"), CounterRegistry::kNoId);
}

TEST(CounterRegistry, DisabledUpdatesAreDropped) {
  CounterRegistry reg(1);
  const auto c = reg.counter("c");
  const auto g = reg.gauge("g");
  const auto h = reg.histogram("h");
  reg.add(0, c, 7);
  reg.gauge_max(0, g, 9);
  reg.observe(0, h, 3);
  const CounterSnapshot s = reg.snapshot();
  EXPECT_EQ(s.value("c"), 0u);
  EXPECT_EQ(s.value("g"), 0u);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 0u);
}

TEST(CounterRegistry, UngatedAddCountsWhileDisabled) {
  CounterRegistry reg(2);
  const auto c = reg.counter("c");
  reg.add_ungated(0, c, 5);
  reg.add_ungated(1, c, 2);
  reg.add(1, c, 100);  // the gated add still drops
  EXPECT_EQ(reg.snapshot().value("c"), 7u);
}

TEST(CounterRegistry, CountersSumAcrossWorkerShards) {
  CounterRegistry reg(4);
  const auto c = reg.counter("c");
  reg.set_enabled(true);
  for (int w = 0; w < 4; ++w) reg.add(w, c, static_cast<std::uint64_t>(w + 1));
  EXPECT_EQ(reg.snapshot().value("c"), 1u + 2 + 3 + 4);
  // Out-of-range worker ids (main thread, sim event loop) fold to shard 0.
  reg.add(99, c, 5);
  reg.add(-1, c, 5);
  EXPECT_EQ(reg.snapshot().value("c"), 20u);
}

TEST(CounterRegistry, GaugesMergeByMaximum) {
  CounterRegistry reg(3);
  const auto g = reg.gauge("depth_hw");
  reg.set_enabled(true);
  reg.gauge_max(0, g, 5);
  reg.gauge_max(1, g, 17);
  reg.gauge_max(2, g, 11);
  reg.gauge_max(1, g, 3);  // lower value must not regress the high-water
  EXPECT_EQ(reg.snapshot().value("depth_hw"), 17u);
}

TEST(CounterRegistry, HistogramBucketsAreLog2) {
  EXPECT_EQ(CounterRegistry::bucket_of(0), 0u);
  EXPECT_EQ(CounterRegistry::bucket_of(1), 0u);
  EXPECT_EQ(CounterRegistry::bucket_of(2), 1u);
  EXPECT_EQ(CounterRegistry::bucket_of(3), 1u);
  EXPECT_EQ(CounterRegistry::bucket_of(4), 2u);
  EXPECT_EQ(CounterRegistry::bucket_of(7), 2u);
  EXPECT_EQ(CounterRegistry::bucket_of(8), 3u);
  // Values past the last bucket boundary clamp into the final bucket.
  EXPECT_EQ(CounterRegistry::bucket_of(~0ull), CounterRegistry::kHistBuckets - 1);

  CounterRegistry reg(2);
  const auto h = reg.histogram("lat");
  reg.set_enabled(true);
  reg.observe(0, h, 1);
  reg.observe(0, h, 6);
  reg.observe(1, h, 6);
  const CounterSnapshot s = reg.snapshot();
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 3u);
  EXPECT_EQ(s.histograms[0].sum, 13u);
  EXPECT_EQ(s.histograms[0].buckets[0], 1u);
  EXPECT_EQ(s.histograms[0].buckets[2], 2u);
}

// Concurrency hammer: many threads updating the same metrics through their
// own shards (and deliberately through a shared shard) while the registry
// is live.  Snapshot totals must be exact — run under TSan in CI.
TEST(CounterRegistry, ConcurrentUpdatesAreExact) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 50000;
  CounterRegistry reg(kThreads);
  const auto c = reg.counter("hits");
  const auto shared = reg.counter("shared_hits");
  const auto g = reg.gauge("peak");
  const auto h = reg.histogram("lat");
  reg.set_enabled(true);

  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        reg.add(w, c);
        reg.add(0, shared);  // every thread hammers one shard
        reg.gauge_max(w, g, i);
        if ((i & 1023) == 0) reg.observe(w, h, i);
      }
    });
  }
  for (auto& t : threads) t.join();

  const CounterSnapshot s = reg.snapshot();
  EXPECT_EQ(s.value("hits"), kThreads * kIters);
  EXPECT_EQ(s.value("shared_hits"), kThreads * kIters);
  EXPECT_EQ(s.value("peak"), kIters - 1);
  std::uint64_t hist_count = 0;
  for (const auto& hist : s.histograms)
    if (hist.name == "lat") hist_count = hist.count;
  EXPECT_EQ(hist_count, kThreads * ((kIters + 1023) / 1024));
}

// Toggling enabled while workers update: no torn counts, no data race (the
// gate is a relaxed atomic).  The final total just has to be <= the number
// of attempted increments and stable after join.
TEST(CounterRegistry, ConcurrentEnableToggle) {
  CounterRegistry reg(4);
  const auto c = reg.counter("c");
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 20000; ++i) reg.add(w, c);
    });
  }
  for (int i = 0; i < 100; ++i) reg.set_enabled(i % 2 == 0);
  reg.set_enabled(true);
  for (auto& t : threads) t.join();
  EXPECT_LE(reg.snapshot().value("c"), 4u * 20000u);
}

// ---- histogram_quantile edge cases -------------------------------------

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  CounterSnapshot::Histogram h;
  EXPECT_EQ(histogram_quantile(h, 0.0), 0.0);
  EXPECT_EQ(histogram_quantile(h, 0.5), 0.0);
  EXPECT_EQ(histogram_quantile(h, 1.0), 0.0);
}

TEST(HistogramQuantile, SingleBucketInterpolatesLinearly) {
  // Every observation in bucket 3 = [8, 16): quantiles sweep the bucket
  // linearly, never leaving [8, 16].
  CounterSnapshot::Histogram h;
  h.buckets[3] = 100;
  h.count = 100;
  EXPECT_NEAR(histogram_quantile(h, 0.5), 12.0, 0.2);
  EXPECT_GE(histogram_quantile(h, 0.0), 8.0);
  EXPECT_LE(histogram_quantile(h, 1.0), 16.0);
  // Quantiles outside [0, 1] clamp instead of reading out of range.
  EXPECT_LE(histogram_quantile(h, 2.0), 16.0);
  EXPECT_GE(histogram_quantile(h, -1.0), 8.0);
}

TEST(HistogramQuantile, TopBucketSaturationIsBounded) {
  // Observations beyond the largest bucket saturate into bucket 31; the
  // estimate stays within [2^31, 2^32] — the best bound a log2 histogram
  // can give — instead of diverging or overflowing.
  CounterSnapshot::Histogram h;
  h.buckets[31] = 10;
  h.count = 10;
  const double lo = static_cast<double>(1ull << 31);
  EXPECT_GE(histogram_quantile(h, 0.5), lo);
  EXPECT_LE(histogram_quantile(h, 1.0), 2.0 * lo);
}

TEST(HistogramQuantile, MergedShardsMatchSingleShardObservations) {
  // The same observations spread over 4 worker shards must produce the
  // identical snapshot histogram (bucket-wise sum) and hence identical
  // quantiles as observing them all from one worker.
  CounterRegistry sharded(4), single(1);
  const auto hs = sharded.histogram("lat");
  const auto h1 = single.histogram("lat");
  sharded.set_enabled(true);
  single.set_enabled(true);
  const std::uint64_t vals[] = {1, 3, 3, 9, 20, 100, 1000, 1001};
  for (int i = 0; i < 8; ++i) {
    sharded.observe(i % 4, hs, vals[i]);
    single.observe(0, h1, vals[i]);
  }
  const auto a = sharded.snapshot().histograms.at(0);
  const auto b = single.snapshot().histograms.at(0);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.buckets, b.buckets);
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(histogram_quantile(a, q), histogram_quantile(b, q));
  }
  // Median of {1,3,3,9,20,100,1000,1001}: rank 4 of 8 exhausts buckets
  // [0,2) and [2,4) (cumulative 3) and lands on the 9 in bucket [8,16).
  EXPECT_GE(histogram_quantile(a, 0.5), 8.0);
  EXPECT_LE(histogram_quantile(a, 0.5), 16.0);
}

}  // namespace
}  // namespace amtfmm
