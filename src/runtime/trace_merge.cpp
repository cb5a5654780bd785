#include "runtime/trace_merge.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "runtime/trace.hpp"
#include "runtime/trace_report.hpp"
#include "support/json.hpp"

namespace amtfmm {
namespace {

constexpr double kUs = 1e6;  // seconds -> trace_event microseconds

/// One parsed input file plus its merge-relevant metadata.
struct RankTrace {
  JsonValue root;
  std::uint32_t rank = 0;
  int cores = 1;
  double steady_origin_s = 0.0;
  double offset_s = 0.0;
  double uncertainty_s = 0.0;
  double delta_s = 0.0;  ///< correction onto the reference rank's clock
  std::string path;
};

/// A matched cross-rank parcel flow on the corrected timeline.
struct Flow {
  double send_s;
  double recv_s;
  std::uint32_t src;
  std::uint32_t dst;
};

/// Re-serializes a parsed JSON value (the merge mutates parsed events —
/// shifted ts, remapped flow ids — and must write them back out).
void emit_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      // Integers survive the double round trip exactly below 2^53; emit
      // them without a fractional part so pids/tids/ids stay integral.
      if (v.number == std::floor(v.number) &&
          std::abs(v.number) < 9.0e15) {
        w.value(static_cast<std::int64_t>(v.number));
      } else {
        w.value(v.number);
      }
      break;
    case JsonValue::Kind::kString:
      w.value(v.string);
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& e : v.array) emit_value(w, e);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object) {
        w.key(k);
        emit_value(w, e);
      }
      w.end_object();
      break;
  }
}

}  // namespace

TraceMergeReport trace_merge(const std::vector<std::string>& inputs,
                             const std::string& out_path) {
  TraceMergeReport r;
  auto fail = [&r](const std::string& what) {
    r.valid = false;
    if (r.error.empty()) r.error = what;
    return r;
  };
  if (inputs.empty()) return fail("no input traces");
  if (out_path.empty()) return fail("merge needs an output path");

  // Parse every input and pull the clock metadata.
  std::vector<RankTrace> ranks(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    RankTrace& rt = ranks[i];
    rt.path = inputs[i];
    std::string text;
    if (!read_file(inputs[i], text)) {
      return fail("cannot read " + inputs[i]);
    }
    std::string perr;
    if (!json_parse(text, rt.root, perr)) {
      return fail(inputs[i] + ": malformed JSON: " + perr);
    }
    const JsonValue* meta = rt.root.find("amtfmm");
    if (meta == nullptr || !meta->is_object()) {
      return fail(inputs[i] + ": missing \"amtfmm\" metadata");
    }
    rt.rank = static_cast<std::uint32_t>(meta->num_or("rank", 0.0));
    rt.cores = static_cast<int>(meta->num_or("cores_per_locality", 1.0));
    if (const JsonValue* clk = meta->find("clock");
        clk != nullptr && clk->is_object()) {
      rt.steady_origin_s = clk->num_or("steady_origin_s", 0.0);
      rt.offset_s = clk->num_or("offset_s", 0.0);
      rt.uncertainty_s = clk->num_or("uncertainty_s", 0.0);
    }
  }
  std::sort(ranks.begin(), ranks.end(),
            [](const RankTrace& a, const RankTrace& b) {
              return a.rank < b.rank;
            });
  for (std::size_t i = 1; i < ranks.size(); ++i) {
    if (ranks[i].rank == ranks[i - 1].rank) {
      return fail("duplicate rank " + std::to_string(ranks[i].rank) +
                  " across inputs");
    }
  }

  // The lowest rank present anchors the merged timeline (rank 0 in any
  // complete set); its own delta is identically 0.
  const RankTrace& ref = ranks.front();
  const double ref_origin = ref.steady_origin_s - ref.offset_s;
  r.world = 0;
  for (RankTrace& rt : ranks) {
    rt.delta_s = (rt.steady_origin_s - rt.offset_s) - ref_origin;
    r.world = std::max(r.world, rt.rank + 1);
    r.max_uncertainty_s = std::max(r.max_uncertainty_s, rt.uncertainty_s);
  }

  // Walk every rank's events: shift timestamps, re-key flow ids into a
  // disjoint per-rank range, and harvest the parcel_send / parcel_recv
  // instants that re-derive cross-rank flows.
  struct Ordered {
    double ts_us;
    JsonValue ev;
  };
  std::deque<Ordered> merged;
  std::vector<JsonValue> meta_events;
  const char* send_name = trace_kind_name(TraceKind::kParcelSend);
  const char* recv_name = trace_kind_name(TraceKind::kParcelRecv);
  // sends[src][dst] / recvs[dst][src]: corrected times in trace order —
  // the transport preserves per-(src,dst) FIFO order, so the k-th send
  // pairs with the k-th receive.
  const std::size_t world = r.world;
  std::vector<std::vector<std::deque<double>>> sends(
      world, std::vector<std::deque<double>>(world));
  std::vector<std::vector<std::deque<double>>> recvs(
      world, std::vector<std::deque<double>>(world));
  double id_base = 0.0;

  for (RankTrace& rt : ranks) {
    const JsonValue* events = rt.root.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      return fail(rt.path + ": missing traceEvents array");
    }
    const double delta_us = rt.delta_s * kUs;
    double max_id = -1.0;
    TraceMergeReport::Rank out;
    out.rank = rt.rank;
    out.delta_s = rt.delta_s;
    out.offset_s = rt.offset_s;
    out.uncertainty_s = rt.uncertainty_s;
    bool any_time = false;
    for (const JsonValue& ev : events->array) {
      if (!ev.is_object()) return fail(rt.path + ": non-object event");
      JsonValue copy = ev;
      const std::string ph = copy.str_or("ph", "");
      if (ph == "M") {
        meta_events.push_back(std::move(copy));
        continue;
      }
      auto it = copy.object.find("ts");
      if (it == copy.object.end() || !it->second.is_number()) {
        return fail(rt.path + ": event without ts");
      }
      it->second.number += delta_us;
      const double ts = it->second.number;
      double t1 = ts;
      if (ph == "X") t1 += copy.num_or("dur", 0.0);
      if (!any_time) {
        out.t_min_s = ts / kUs;
        out.t_max_s = t1 / kUs;
        any_time = true;
      } else {
        out.t_min_s = std::min(out.t_min_s, ts / kUs);
        out.t_max_s = std::max(out.t_max_s, t1 / kUs);
      }
      if (ph == "s" || ph == "f") {
        auto idit = copy.object.find("id");
        if (idit != copy.object.end() && idit->second.is_number()) {
          max_id = std::max(max_id, idit->second.number);
          idit->second.number += id_base;
        }
      }
      if (ph == "i") {
        const std::string name = copy.str_or("name", "");
        const bool is_send = name == send_name;
        const bool is_recv = name == recv_name;
        if (is_send || is_recv) {
          const JsonValue* args = copy.find("args");
          const double peer = args != nullptr ? args->num_or("arg", -1.0)
                                              : -1.0;
          if (peer >= 0.0 && peer < static_cast<double>(world) &&
              rt.rank < world) {
            const auto p = static_cast<std::uint32_t>(peer);
            if (is_send && p != rt.rank) {
              sends[rt.rank][p].push_back(ts / kUs);
            } else if (is_recv && p != rt.rank) {
              recvs[rt.rank][p].push_back(ts / kUs);
            }
          }
        }
      }
      merged.push_back(Ordered{ts, std::move(copy)});
    }
    id_base += max_id + 1.0;
    r.ranks.push_back(out);
  }

  // FIFO-match sends to receives and synthesize cross-rank flow arrows
  // plus a NIC/net wire span on the destination's net thread.  These are
  // the only events in the merged file whose two endpoints come from two
  // different clocks — negative durations here mean the correction (or
  // the sync bound) is wrong.
  std::vector<Flow> flows;
  r.min_flow_s = std::numeric_limits<double>::infinity();
  auto cores_of = [&](std::uint32_t rank) {
    for (const RankTrace& rt : ranks) {
      if (rt.rank == rank) return rt.cores;
    }
    return 1;
  };
  for (std::uint32_t s = 0; s < world; ++s) {
    for (std::uint32_t d = 0; d < world; ++d) {
      if (s == d) continue;
      auto& sq = sends[s][d];
      auto& rq = recvs[d][s];
      const std::size_t n = std::min(sq.size(), rq.size());
      r.unmatched_sends += sq.size() - n;
      for (std::size_t k = 0; k < n; ++k) {
        Flow f{sq[k], rq[k], s, d};
        const double dur = f.recv_s - f.send_s;
        ++r.cross_flows;
        if (dur < 0.0) ++r.negative_flows;
        r.min_flow_s = std::min(r.min_flow_s, dur);
        r.max_flow_s = std::max(r.max_flow_s, dur);
        const double id = id_base + static_cast<double>(flows.size());
        JsonValue fs;
        fs.kind = JsonValue::Kind::kObject;
        auto num = [](double x) {
          JsonValue v;
          v.kind = JsonValue::Kind::kNumber;
          v.number = x;
          return v;
        };
        auto str = [](const char* x) {
          JsonValue v;
          v.kind = JsonValue::Kind::kString;
          v.string = x;
          return v;
        };
        fs.object["name"] = str("xparcel");
        fs.object["cat"] = str("comm");
        fs.object["ph"] = str("s");
        fs.object["id"] = num(id);
        fs.object["ts"] = num(f.send_s * kUs);
        fs.object["pid"] = num(s);
        fs.object["tid"] = num(cores_of(s));
        merged.push_back(Ordered{f.send_s * kUs, fs});
        JsonValue wire = fs;
        wire.object["name"] = str("xwire");
        wire.object["ph"] = str("X");
        wire.object.erase("id");
        wire.object["ts"] = num(std::min(f.send_s, f.recv_s) * kUs);
        wire.object["dur"] = num(std::max(dur, 0.0) * kUs);
        wire.object["pid"] = num(d);
        wire.object["tid"] = num(cores_of(d));
        JsonValue args;
        args.kind = JsonValue::Kind::kObject;
        args.object["src"] = num(s);
        wire.object["args"] = std::move(args);
        merged.push_back(
            Ordered{std::min(f.send_s, f.recv_s) * kUs, std::move(wire)});
        JsonValue fe = std::move(fs);
        fe.object["ph"] = str("f");
        fe.object["bp"] = str("e");
        fe.object["ts"] = num(f.recv_s * kUs);
        fe.object["pid"] = num(d);
        fe.object["tid"] = num(cores_of(d));
        merged.push_back(Ordered{f.recv_s * kUs, std::move(fe)});
        flows.push_back(f);
      }
    }
  }
  if (!std::isfinite(r.min_flow_s)) r.min_flow_s = 0.0;

  // Longest causal chain through the matched flows: NIC/net spans linked
  // by the on-rank dwell between a receive and a later send from that
  // rank.  Flows are processed in send order, so every chain-extending
  // predecessor (recv <= this send <= ...) is already scored.  The inner
  // scan is linear per flow — fine at tool scale (thousands of batches).
  std::sort(flows.begin(), flows.end(),
            [](const Flow& a, const Flow& b) { return a.send_s < b.send_s; });
  std::vector<std::vector<std::pair<double, double>>> done(world);  // recv, L
  for (const Flow& f : flows) {
    const double net = std::max(f.recv_s - f.send_s, 0.0);
    double best_prev = 0.0;
    for (const auto& [recv_s, len] : done[f.src]) {
      if (recv_s <= f.send_s + 1e-12) {
        best_prev = std::max(best_prev, len + (f.send_s - recv_s));
      }
    }
    const double L = net + best_prev;
    done[f.dst].push_back({f.recv_s, L});
    r.net_chain_s = std::max(r.net_chain_s, L);
  }

  // Merged metadata comes from the reference rank: the epoch starts are
  // already on its clock (delta 0) and every rank embeds the identical
  // SPMD DAG edge list.
  const JsonValue* ref_meta = ref.root.find("amtfmm");
  double t_min = 0.0;
  double t_max = 0.0;
  bool any = false;
  for (const auto& rk : r.ranks) {
    t_min = any ? std::min(t_min, rk.t_min_s) : rk.t_min_s;
    t_max = any ? std::max(t_max, rk.t_max_s) : rk.t_max_s;
    any = true;
  }

  std::stable_sort(merged.begin(), merged.end(),
                   [](const Ordered& a, const Ordered& b) {
                     return a.ts_us < b.ts_us;
                   });
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const JsonValue& m : meta_events) emit_value(w, m);
  for (const Ordered& o : merged) emit_value(w, o.ev);
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.key("amtfmm");
  w.begin_object();
  w.kv("version", 1);
  w.kv("sim", false);
  w.kv("merged", true);
  w.kv("makespan", t_max - t_min);
  w.kv("localities", static_cast<std::uint64_t>(world));
  int cores = 1;
  for (const RankTrace& rt : ranks) cores = std::max(cores, rt.cores);
  w.kv("cores_per_locality", cores);
  w.kv("rank", 0);
  w.kv("world", static_cast<std::uint64_t>(world));
  if (ref_meta != nullptr) {
    if (const JsonValue* eps = ref_meta->find("epochs");
        eps != nullptr && eps->is_array()) {
      w.key("epochs");
      emit_value(w, *eps);
    }
    if (const JsonValue* edges = ref_meta->find("edges");
        edges != nullptr && edges->is_array()) {
      w.key("edges");
      emit_value(w, *edges);
    }
  }
  w.key("ranks");
  w.begin_array();
  for (const auto& rk : r.ranks) {
    w.begin_object();
    w.kv("rank", rk.rank);
    w.kv("delta_s", rk.delta_s);
    w.kv("offset_s", rk.offset_s);
    w.kv("uncertainty_s", rk.uncertainty_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  if (!w.write_file(out_path)) return fail("cannot write " + out_path);

  // Per-rank and merged critical paths via the standard analyzer — the
  // merged file carries every rank's edge-attributed spans, so analyzing
  // it sums weights across ranks (each edge runs on exactly one owning
  // rank; the merged path is therefore >= every single-rank path).
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const TraceReport tr = analyze_trace_file(ranks[i].path);
    if (!tr.valid) {
      return fail(ranks[i].path + ": " + tr.error);
    }
    r.ranks[i].critical_path_s = tr.critical_path_seconds;
  }
  const TraceReport mr = analyze_trace_file(out_path);
  if (!mr.valid) return fail("merged trace invalid: " + mr.error);
  r.cross_critical_path_s = mr.critical_path_seconds;
  r.critical_path_s = std::max(r.cross_critical_path_s, r.net_chain_s);

  r.valid = true;
  return r;
}

std::string merge_report_json(const TraceMergeReport& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("valid", r.valid);
  if (!r.valid) w.kv("error", r.error);
  w.kv("world", static_cast<std::uint64_t>(r.world));
  w.kv("max_uncertainty_s", r.max_uncertainty_s);
  w.kv("cross_flows", r.cross_flows);
  w.kv("unmatched_sends", r.unmatched_sends);
  w.kv("negative_flows", r.negative_flows);
  w.kv("min_flow_s", r.min_flow_s);
  w.kv("max_flow_s", r.max_flow_s);
  w.kv("cross_critical_path_s", r.cross_critical_path_s);
  w.kv("net_chain_s", r.net_chain_s);
  w.kv("critical_path_s", r.critical_path_s);
  w.key("ranks");
  w.begin_array();
  for (const auto& rk : r.ranks) {
    w.begin_object();
    w.kv("rank", rk.rank);
    w.kv("delta_s", rk.delta_s);
    w.kv("offset_s", rk.offset_s);
    w.kv("uncertainty_s", rk.uncertainty_s);
    w.kv("window_s", rk.t_max_s - rk.t_min_s);
    w.kv("critical_path_s", rk.critical_path_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace amtfmm
