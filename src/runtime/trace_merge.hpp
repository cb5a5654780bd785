#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace amtfmm {

/// Result of merging N per-rank Chrome traces onto rank 0's timeline
/// (`trace_report --merge`).  Each input carries its own TraceClock in the
/// "amtfmm" metadata; rank r's events shift by
///   delta_r = (steady_origin_r - offset_r) - (steady_origin_0 - offset_0)
/// which expresses them on rank 0's executor clock (rank 0's own delta is
/// 0 by construction).  Cross-rank parcel flows are then re-derived by
/// FIFO-matching each sender's parcel_send instants against the
/// destination's parcel_recv instants — the transport preserves
/// per-(src,dst) order — giving real NIC/net spans with endpoints on two
/// different clocks, the quantity single-rank traces cannot show.
struct TraceMergeReport {
  struct Rank {
    std::uint32_t rank = 0;
    double delta_s = 0.0;        ///< correction applied to this rank's ts
    double offset_s = 0.0;       ///< clock-sync offset from the metadata
    double uncertainty_s = 0.0;  ///< clock-sync error bound
    double t_min_s = 0.0;        ///< corrected earliest event
    double t_max_s = 0.0;        ///< corrected latest event
    double critical_path_s = 0.0;  ///< this rank's own DAG critical path
  };

  bool valid = false;
  std::string error;
  std::uint32_t world = 0;
  std::vector<Rank> ranks;

  double max_uncertainty_s = 0.0;

  /// Cross-rank flows re-derived from matched send/recv instants, on the
  /// corrected timeline.  `negative_flows` counts pairs where the
  /// corrected receive precedes the corrected send — zero when the clock
  /// correction is sound (sync error below the one-way latency).
  std::uint64_t cross_flows = 0;
  std::uint64_t unmatched_sends = 0;  ///< sends with no recv (rank died?)
  std::uint64_t negative_flows = 0;
  double min_flow_s = 0.0;
  double max_flow_s = 0.0;

  /// Weighted critical path of the merged execution: the embedded DAG
  /// pathed with span weights summed over every rank (each edge's spans
  /// run on exactly one owning rank, so the sum never double-counts), per
  /// epoch, maximum taken.  Monotone in the per-rank weights, so always
  /// >= every single-rank critical path.
  double cross_critical_path_s = 0.0;
  /// Longest causal chain through the matched flows: alternating NIC/net
  /// spans and the on-rank time between a receive and the next send.  The
  /// communication backbone of the merged timeline.
  double net_chain_s = 0.0;
  /// max(cross_critical_path_s, net_chain_s): the reported cross-rank
  /// critical path including net spans.
  double critical_path_s = 0.0;
};

/// Merges per-rank traces into one corrected Chrome trace at `out_path`,
/// which must be non-empty: the cross-rank critical path is computed from
/// the merged file, so an empty path returns an invalid report.  Inputs
/// may be in any rank order; rank identity comes from each file's
/// metadata.  A missing rank 0 makes the
/// lowest-rank input the timeline reference.
TraceMergeReport trace_merge(const std::vector<std::string>& inputs,
                             const std::string& out_path);

/// The merge report as a compact JSON object.
std::string merge_report_json(const TraceMergeReport& r);

}  // namespace amtfmm
