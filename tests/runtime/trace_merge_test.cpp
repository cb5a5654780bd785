// Cross-rank trace merge tests: handcrafted 2-rank traces with a known
// clock skew.  The merge must correct rank 1's timestamps onto rank 0's
// timeline (making all cross-rank flows non-negative), FIFO-match the
// parcel send/recv instants into flows, and report a cross-rank critical
// path at least as long as any single rank's.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/trace.hpp"
#include "runtime/trace_export.hpp"
#include "runtime/trace_merge.hpp"
#include "runtime/trace_report.hpp"
#include "support/json.hpp"

namespace amtfmm {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Writes one rank's trace: a task span, a parcel-send instant to the
/// peer, and a parcel-recv instant from the peer, with the given clock.
void write_rank_trace(const std::string& path, std::uint32_t rank,
                      const TraceClock& clock, double span_t0,
                      double span_t1, std::uint32_t edge, double send_t,
                      std::uint32_t dst, double recv_t, std::uint32_t src,
                      std::span<const std::uint32_t> edges) {
  const std::vector<TraceEvent> events{
      {span_t0, span_t1, 0, 1, TraceKind::kSpan, edge},
      TraceEvent::instant(0, TraceKind::kParcelSend, send_t, dst),
      TraceEvent::instant(0, TraceKind::kParcelRecv, recv_t, src),
  };
  ChromeTraceOptions opt;
  opt.cores_per_locality = 1;
  opt.makespan = 0.01;
  opt.dag_edges = edges;
  opt.rank = rank;
  opt.world = 2;
  opt.clock = clock;
  ASSERT_TRUE(trace_export_chrome(path, events, opt));
}

TEST(TraceMerge, CorrectsSkewedClocksAndFindsCrossRankPath) {
  // Rank 1's steady clock reads 0.5 s ahead of rank 0's (offset_s = 0.5,
  // as clock_sync measures it) and its trace origin differs too.  The
  // correction delta for rank 1 is
  //   (steady_origin_1 - offset_1) - (steady_origin_0 - offset_0)
  //     = (99.7 - 0.5) - (100.0 - 0.0) = -0.8 s.
  TraceClock c0;
  c0.steady_origin_s = 100.0;
  TraceClock c1;
  c1.steady_origin_s = 99.7;
  c1.offset_s = 0.5;
  c1.uncertainty_s = 2e-4;

  // Chained 2-edge DAG 0 -> 1 -> 2; rank 0 runs edge 0 (1 ms), rank 1
  // runs edge 1 (2 ms), so the merged critical path is 3 ms — longer
  // than either single rank's.
  const std::vector<std::uint32_t> edges{0, 1, 1, 2};

  // True (rank-0 timeline) story: rank 0 sends at 1.000, rank 1 receives
  // at 1.002; rank 1 sends back at 1.200, rank 0 receives at 1.203.
  // Rank-1 local times = rank-0 times - delta = + 0.8.
  const std::string p0 = tmp_path("merge_rank0.json");
  const std::string p1 = tmp_path("merge_rank1.json");
  write_rank_trace(p0, 0, c0, /*span*/ 0.100, 0.101, /*edge=*/0,
                   /*send_t=*/1.000, /*dst=*/1, /*recv_t=*/1.203,
                   /*src=*/1, edges);
  write_rank_trace(p1, 1, c1, /*span*/ 0.950, 0.952, /*edge=*/1,
                   /*send_t=*/2.000, /*dst=*/0, /*recv_t=*/1.802,
                   /*src=*/0, edges);

  const std::string out = tmp_path("merge_out.json");
  const TraceMergeReport r = trace_merge({p0, p1}, out);
  ASSERT_TRUE(r.valid) << r.error;
  EXPECT_EQ(r.world, 2u);
  ASSERT_EQ(r.ranks.size(), 2u);
  EXPECT_NEAR(r.ranks[1].delta_s, -0.8, 1e-9);
  EXPECT_NEAR(r.max_uncertainty_s, 2e-4, 1e-12);
  EXPECT_LT(r.max_uncertainty_s, 1e-3);

  // Both flows matched; corrected durations are the true 2 ms and 3 ms.
  // Without the clock correction the 1 -> 0 flow (local send 2.000,
  // remote recv 1.203) would be negative.
  EXPECT_EQ(r.cross_flows, 2u);
  EXPECT_EQ(r.unmatched_sends, 0u);
  EXPECT_EQ(r.negative_flows, 0u);
  EXPECT_NEAR(r.min_flow_s, 2e-3, 1e-9);
  EXPECT_NEAR(r.max_flow_s, 3e-3, 1e-9);

  // The merged DAG path (edge 0 on rank 0 + edge 1 on rank 1) dominates
  // every single-rank critical path.
  for (const auto& rank : r.ranks) {
    EXPECT_GE(r.critical_path_s, rank.critical_path_s);
  }
  EXPECT_NEAR(r.cross_critical_path_s, 3e-3, 1e-6);

  // The merged file itself must be a valid, analyzable Chrome trace with
  // synthesized cross-rank flow arrows.
  const TraceReport merged = analyze_trace_file(out);
  EXPECT_TRUE(merged.valid) << merged.error;
  std::string text;
  ASSERT_TRUE(read_file(out, text));
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(text, v, err)) << err;
  const JsonValue* meta = v.find("amtfmm");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->num_or("world", 0.0), 2.0);
  int xflow_s = 0, xwire = 0;
  for (const JsonValue& e : v.find("traceEvents")->array) {
    if (e.str_or("name", "") == "xparcel" && e.str_or("ph", "") == "s") {
      ++xflow_s;
    }
    if (e.str_or("name", "") == "xwire") ++xwire;
  }
  EXPECT_EQ(xflow_s, 2);
  EXPECT_EQ(xwire, 2);
}

TEST(TraceMerge, UncorrectedSkewYieldsNegativeFlows) {
  // Same story but rank 1's metadata hides the offset (offset_s = 0):
  // the merge must still run, and flag the impossible flow instead of
  // silently producing a broken timeline.
  TraceClock c0;
  c0.steady_origin_s = 100.0;
  TraceClock c1;
  c1.steady_origin_s = 100.0;  // pretends to share rank 0's clock
  const std::vector<std::uint32_t> edges{0, 1};
  const std::string p0 = tmp_path("neg_rank0.json");
  const std::string p1 = tmp_path("neg_rank1.json");
  write_rank_trace(p0, 0, c0, 0.1, 0.101, 0, /*send*/ 1.000, 1,
                   /*recv*/ 2.500, 1, edges);
  write_rank_trace(p1, 1, c1, 0.1, 0.102, 0, /*send*/ 2.400, 0,
                   /*recv*/ 0.900, 0, edges);  // recv BEFORE the send
  const TraceMergeReport r =
      trace_merge({p0, p1}, tmp_path("neg_out.json"));
  ASSERT_TRUE(r.valid) << r.error;
  EXPECT_GT(r.negative_flows, 0u);
}

TEST(TraceMerge, RejectsDuplicateAndMissingInputs) {
  TraceClock c;
  const std::vector<std::uint32_t> edges{0, 1};
  const std::string p0 = tmp_path("dup_rank0.json");
  write_rank_trace(p0, 0, c, 0.1, 0.101, 0, 1.0, 1, 1.2, 1, edges);
  EXPECT_FALSE(trace_merge({p0, p0}, tmp_path("dup_out.json")).valid);
  EXPECT_FALSE(trace_merge({tmp_path("missing_in.json")},
                           tmp_path("missing_out.json"))
                   .valid);
  EXPECT_FALSE(trace_merge({}, tmp_path("empty_out.json")).valid);
  // The cross-rank critical path is computed from the merged file, so a
  // merge without an output path is rejected, not run as analysis only.
  const TraceMergeReport no_out = trace_merge({p0}, "");
  EXPECT_FALSE(no_out.valid);
  EXPECT_EQ(no_out.error, "merge needs an output path");
}

}  // namespace
}  // namespace amtfmm
