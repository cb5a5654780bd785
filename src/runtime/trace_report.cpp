#include "runtime/trace_report.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/json.hpp"

namespace amtfmm {
namespace {

constexpr double kSec = 1e-6;  // trace_event microseconds -> seconds

int class_of(const std::string& name) {
  for (int c = 0; c < kNumTraceClasses; ++c) {
    if (name == trace_class_name(static_cast<std::uint8_t>(c))) return c;
  }
  return -1;
}

int instant_of(const std::string& name) {
  for (int k = 0; k < kNumTraceKinds; ++k) {
    const auto kind = static_cast<TraceKind>(k);
    if (is_instant(kind) && name == trace_kind_name(kind)) return k;
  }
  return -1;
}

/// Longest path through the DAG with the given per-edge weights (seconds).
/// Edges are [src, dst] pairs in edge-id order; Kahn topological order plus
/// a max-plus DP.  Returns {length, edges on the path}.
std::pair<double, std::uint64_t> critical_path(
    const std::vector<std::uint32_t>& flat,
    const std::vector<double>& weight) {
  const std::size_t m = flat.size() / 2;
  if (m == 0) return {0.0, 0};
  std::uint32_t n = 0;
  for (const std::uint32_t v : flat) n = std::max(n, v + 1);

  std::vector<std::uint32_t> indeg(n, 0);
  for (std::size_t e = 0; e < m; ++e) ++indeg[flat[2 * e + 1]];
  // CSR of out-edges by source for the traversal.
  std::vector<std::uint32_t> head(n + 1, 0);
  for (std::size_t e = 0; e < m; ++e) ++head[flat[2 * e] + 1];
  for (std::uint32_t v = 0; v < n; ++v) head[v + 1] += head[v];
  std::vector<std::uint32_t> out_edge(m);
  {
    std::vector<std::uint32_t> cur(head.begin(), head.end() - 1);
    for (std::size_t e = 0; e < m; ++e) {
      out_edge[cur[flat[2 * e]]++] = static_cast<std::uint32_t>(e);
    }
  }

  std::vector<double> dist(n, 0.0);
  std::vector<std::uint64_t> hops(n, 0);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  std::size_t qi = 0;
  std::size_t seen = 0;
  while (qi < queue.size()) {
    const std::uint32_t u = queue[qi++];
    ++seen;
    for (std::uint32_t i = head[u]; i < head[u + 1]; ++i) {
      const std::uint32_t e = out_edge[i];
      const std::uint32_t v = flat[2 * e + 1];
      const double cand = dist[u] + weight[e];
      if (cand > dist[v]) {
        dist[v] = cand;
        hops[v] = hops[u] + 1;
      }
      if (--indeg[v] == 0) queue.push_back(v);
    }
  }
  if (seen != n) return {-1.0, 0};  // cycle: not a DAG
  double best = 0.0;
  std::uint64_t best_hops = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (dist[v] > best) {
      best = dist[v];
      best_hops = hops[v];
    }
  }
  return {best, best_hops};
}

}  // namespace

TraceReport analyze_trace_file(const std::string& path) {
  TraceReport r;
  auto fail = [&r](const std::string& what) {
    r.valid = false;
    if (r.error.empty()) r.error = what;
    return r;
  };

  std::string text;
  if (!read_file(path, text)) return fail("cannot read " + path);
  JsonValue root;
  std::string perr;
  if (!json_parse(text, root, perr)) return fail("malformed JSON: " + perr);
  if (!root.is_object()) return fail("top level is not an object");

  const JsonValue* meta = root.find("amtfmm");
  if (meta == nullptr || !meta->is_object()) {
    return fail("missing \"amtfmm\" metadata");
  }
  r.sim = meta->find("sim") != nullptr && meta->find("sim")->boolean;
  r.makespan = meta->num_or("makespan", 0.0);
  r.localities = static_cast<int>(meta->num_or("localities", 1.0));
  r.cores_per_locality =
      static_cast<int>(meta->num_or("cores_per_locality", 1.0));
  if (r.localities < 1 || r.cores_per_locality < 1) {
    return fail("bad localities/cores_per_locality metadata");
  }
  r.workers = r.localities * r.cores_per_locality;

  std::vector<std::uint32_t> flat;
  if (const JsonValue* edges = meta->find("edges");
      edges != nullptr && edges->is_array()) {
    if (edges->array.size() % 2 != 0) return fail("odd edge list length");
    flat.reserve(edges->array.size());
    for (const JsonValue& v : edges->array) {
      if (!v.is_number()) return fail("non-numeric edge entry");
      flat.push_back(static_cast<std::uint32_t>(v.number));
    }
  }
  r.dag_edges = flat.size() / 2;
  if (const JsonValue* eps = meta->find("epochs");
      eps != nullptr && eps->is_array()) {
    for (const JsonValue& v : eps->array) {
      if (!v.is_number()) return fail("non-numeric epoch start");
      r.epoch_starts.push_back(v.number);
    }
    if (!std::is_sorted(r.epoch_starts.begin(), r.epoch_starts.end())) {
      return fail("epoch starts not sorted");
    }
  }
  if (const JsonValue* ctr = meta->find("counters"); ctr != nullptr) {
    r.counters = CounterSnapshot::from_json(*ctr);
  }

  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }

  // One weight vector per epoch: the resident pipeline re-traverses the
  // same DAG each epoch, so each epoch is pathed independently (summing
  // a span's weight into a single pot would fabricate a chain longer than
  // any one evaluation).
  const std::size_t num_epochs = std::max<std::size_t>(r.epoch_starts.size(), 1);
  auto epoch_of = [&](double t0) -> std::size_t {
    if (r.epoch_starts.size() <= 1) return 0;
    const auto it = std::upper_bound(r.epoch_starts.begin(),
                                     r.epoch_starts.end(), t0 + 1e-12);
    return it == r.epoch_starts.begin()
               ? 0
               : static_cast<std::size_t>(it - r.epoch_starts.begin()) - 1;
  };
  std::vector<std::vector<double>> edge_weight(
      num_epochs, std::vector<double>(r.dag_edges, 0.0));
  std::vector<double> worker_busy(static_cast<std::size_t>(r.workers), 0.0);
  std::map<std::uint64_t, std::pair<int, int>> flows;  // id -> (#s, #f)
  double last_ts = -1e300;
  bool any_time = false;
  r.monotonic_ok = true;

  for (const JsonValue& ev : events->array) {
    if (!ev.is_object()) return fail("non-object trace event");
    const std::string ph = ev.str_or("ph", "");
    if (ph == "M") continue;  // metadata records carry no timestamp
    const JsonValue* tsv = ev.find("ts");
    if (tsv == nullptr || !tsv->is_number()) {
      return fail("event without ts");
    }
    const double ts = tsv->number;
    if (ts < last_ts - 1e-9) r.monotonic_ok = false;
    last_ts = std::max(last_ts, ts);

    const double t0 = ts * kSec;
    double t1 = t0;
    if (ph == "X") t1 = t0 + ev.num_or("dur", 0.0) * kSec;
    if (!any_time) {
      r.t_min = t0;
      r.t_max = t1;
      any_time = true;
    } else {
      r.t_min = std::min(r.t_min, t0);
      r.t_max = std::max(r.t_max, t1);
    }

    const std::string name = ev.str_or("name", "");
    const std::string cat = ev.str_or("cat", "");
    if (ph == "X" && cat == "task") {
      ++r.num_spans;
      const int cls = class_of(name);
      if (cls < 0) return fail("unknown span class: " + name);
      const double dur = t1 - t0;
      r.class_seconds[static_cast<std::size_t>(cls)] += dur;
      const int worker = static_cast<int>(ev.num_or("pid", 0.0)) *
                             r.cores_per_locality +
                         static_cast<int>(ev.num_or("tid", 0.0));
      if (worker < 0 || worker >= r.workers) {
        return fail("span worker out of range");
      }
      worker_busy[static_cast<std::size_t>(worker)] += dur;
      if (const JsonValue* args = ev.find("args"); args != nullptr) {
        const double edge = args->num_or("edge", -1.0);
        if (edge >= 0.0) {
          const auto e = static_cast<std::size_t>(edge);
          if (e >= r.dag_edges) return fail("span edge id out of range");
          edge_weight[epoch_of(t0)][e] += dur;
        }
      }
    } else if (ph == "i") {
      ++r.num_instants;
      const int k = instant_of(name);
      if (k >= 0) ++r.instant_counts[static_cast<std::size_t>(k)];
    } else if (ph == "s" || ph == "f") {
      const JsonValue* id = ev.find("id");
      if (id == nullptr || !id->is_number()) return fail("flow without id");
      auto& [starts, ends] = flows[static_cast<std::uint64_t>(id->number)];
      (ph == "s" ? starts : ends) += 1;
    }
  }

  r.num_comm = flows.size();
  r.flows_paired = true;
  for (const auto& [id, se] : flows) {
    if (se.first != 1 || se.second != 1) r.flows_paired = false;
  }

  for (int c = 0; c < kNumTraceClasses; ++c) {
    r.busy_seconds += r.class_seconds[static_cast<std::size_t>(c)];
  }
  const double window = r.t_max - r.t_min;
  r.worker_utilization.resize(worker_busy.size(), 0.0);
  if (window > 0.0) {
    for (std::size_t i = 0; i < worker_busy.size(); ++i) {
      r.worker_utilization[i] = worker_busy[i] / window;
    }
  }

  r.epoch_critical_path_seconds.reserve(num_epochs);
  for (std::size_t ep = 0; ep < num_epochs; ++ep) {
    const auto [cp, cp_edges] = critical_path(flat, edge_weight[ep]);
    if (cp < 0.0) return fail("embedded edge list contains a cycle");
    r.epoch_critical_path_seconds.push_back(cp);
    if (cp >= r.critical_path_seconds) {
      r.critical_path_seconds = cp;
      r.critical_path_edges = cp_edges;
    }
  }

  // Internal consistency: concurrency cannot exceed the worker count, and
  // a dependency chain cannot finish after the sim makespan (virtual time
  // is exact; real time gets slack for timer granularity).
  const double slack = 1e-9 + 1e-6 * std::max(window, r.makespan);
  if (r.busy_seconds > r.workers * window + slack) {
    return fail("per-class time exceeds workers * wall time");
  }
  if (r.sim && r.makespan > 0.0 &&
      r.critical_path_seconds > r.makespan + slack) {
    return fail("critical path exceeds sim makespan");
  }
  if (!r.monotonic_ok) return fail("timestamps not monotonic");
  if (!r.flows_paired) return fail("unpaired flow events");

  r.valid = true;
  return r;
}

std::string report_json(const TraceReport& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("valid", r.valid);
  if (!r.valid) w.kv("error", r.error);
  w.kv("sim", r.sim);
  w.kv("localities", r.localities);
  w.kv("cores_per_locality", r.cores_per_locality);
  w.kv("workers", r.workers);
  w.kv("makespan_s", r.makespan);
  w.kv("window_s", r.t_max - r.t_min);
  w.kv("num_spans", r.num_spans);
  w.kv("num_instants", r.num_instants);
  w.kv("num_comm", r.num_comm);
  w.kv("monotonic_ok", r.monotonic_ok);
  w.kv("flows_paired", r.flows_paired);
  w.kv("busy_seconds", r.busy_seconds);
  w.key("class_seconds");
  w.begin_object();
  for (int c = 0; c < kNumTraceClasses; ++c) {
    const double s = r.class_seconds[static_cast<std::size_t>(c)];
    if (s > 0.0) w.kv(trace_class_name(static_cast<std::uint8_t>(c)), s);
  }
  w.end_object();
  w.key("worker_utilization");
  w.begin_array();
  for (const double u : r.worker_utilization) w.value(u);
  w.end_array();
  w.key("critical_path");
  w.begin_object();
  w.kv("seconds", r.critical_path_seconds);
  w.kv("edges", r.critical_path_edges);
  w.kv("dag_edges", r.dag_edges);
  w.kv("epochs", static_cast<std::uint64_t>(
                     std::max<std::size_t>(r.epoch_starts.size(), 1)));
  w.key("per_epoch_seconds");
  w.begin_array();
  for (const double s : r.epoch_critical_path_seconds) w.value(s);
  w.end_array();
  w.end_object();
  w.key("instants");
  w.begin_object();
  for (int k = 0; k < kNumTraceKinds; ++k) {
    const auto kind = static_cast<TraceKind>(k);
    if (is_instant(kind)) {
      w.kv(trace_kind_name(kind),
           r.instant_counts[static_cast<std::size_t>(k)]);
    }
  }
  w.end_object();
  if (!r.counters.empty()) {
    w.key("counters");
    r.counters.append_json(w);
  }
  w.end_object();
  return w.str();
}

}  // namespace amtfmm
