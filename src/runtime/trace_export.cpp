#include "runtime/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/json.hpp"

namespace amtfmm {
namespace {

constexpr double kUs = 1e6;  // seconds -> trace_event microseconds

/// One renderable record, used only to order the stream's records (and
/// the three parts of each wire record) by timestamp before emission.
struct Rec {
  double ts;
  std::uint8_t part;     // 0 = span or instant, 1..3 = wire part (s, X, f)
  std::uint32_t index;   // into the input span
  std::uint32_t flow;    // wire ordinal: the flow id
};

}  // namespace

bool trace_export_chrome(const std::string& path,
                         std::span<const TraceEvent> events,
                         const ChromeTraceOptions& opt) {
  const int cores = std::max(opt.cores_per_locality, 1);
  int localities = 1;  // local: process rows this file emits
  // Global locality count for the analyzer: local rows are offset by the
  // rank, wire records address peers by global rank, and a distributed
  // rank's file must span the whole world even if it never spoke to the
  // last rank.
  int global_wire = 0;
  std::vector<Rec> recs;
  recs.reserve(events.size());
  std::uint32_t flows = 0;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.kind != TraceKind::kWire) {
      localities = std::max(localities, static_cast<int>(e.worker) / cores + 1);
      recs.push_back(Rec{e.t0, 0, i, 0});
      continue;
    }
    global_wire = std::max({global_wire, static_cast<int>(e.worker) + 1,
                            static_cast<int>(e.arg) + 1});
    recs.push_back(Rec{e.t0, 1, i, flows});  // flow start at the source
    recs.push_back(Rec{e.t0, 2, i, flows});  // NIC occupancy slice
    recs.push_back(Rec{e.t1, 3, i, flows});  // flow end at the destination
    ++flows;
  }
  const int global_localities =
      std::max({localities + static_cast<int>(opt.rank),
                static_cast<int>(opt.world), global_wire});
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec& a, const Rec& b) { return a.ts < b.ts; });

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  // Metadata: process per locality, thread per worker, one net thread per
  // locality (tid == cores, past the real workers).  A distributed rank
  // hosts only its own locality, so its pids start at opt.rank — comm
  // events already address peers by global rank.
  const int pid0 = static_cast<int>(opt.rank);
  // In-process runs host every locality, so name every row the comm
  // events reference; a distributed rank names only its own rows (peers
  // name theirs in their own files, concatenated by trace_merge).
  const int row_localities =
      opt.world > 1 ? localities : global_localities;
  for (int l = 0; l < row_localities; ++l) {
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", pid0 + l);
    w.key("args");
    w.begin_object();
    w.kv("name", std::string("locality ") + std::to_string(pid0 + l));
    w.end_object();
    w.end_object();
    for (int c = 0; c <= cores; ++c) {
      w.begin_object();
      w.kv("name", "thread_name");
      w.kv("ph", "M");
      w.kv("pid", pid0 + l);
      w.kv("tid", c);
      w.key("args");
      w.begin_object();
      w.kv("name", c == cores
                       ? std::string("net")
                       : std::string("worker ") +
                             std::to_string((pid0 + l) * cores + c));
      w.end_object();
      w.end_object();
    }
  }

  auto pid_tid = [&](std::uint32_t worker) {
    const int pid = pid0 + static_cast<int>(worker) / cores;
    const int tid = static_cast<int>(worker) % cores;
    w.kv("pid", pid);
    w.kv("tid", tid);
  };

  for (const Rec& r : recs) {
    const TraceEvent& e = events[r.index];
    w.begin_object();
    if (r.part == 0 && e.kind == TraceKind::kSpan) {
      w.kv("name", trace_class_name(e.cls));
      w.kv("cat", "task");
      w.kv("ph", "X");
      w.kv("ts", e.t0 * kUs);
      w.kv("dur", (e.t1 - e.t0) * kUs);
      pid_tid(e.worker);
      if (e.arg != kNoTraceArg) {
        w.key("args");
        w.begin_object();
        w.kv("edge", e.arg);
        w.end_object();
      }
    } else if (r.part == 0) {
      w.kv("name", trace_kind_name(e.kind));
      w.kv("cat", "sched");
      w.kv("ph", "i");
      w.kv("s", "t");  // thread-scoped instant
      w.kv("ts", e.t0 * kUs);
      pid_tid(e.worker);
      if (e.arg != kNoTraceArg) {
        w.key("args");
        w.begin_object();
        w.kv("arg", e.arg);
        w.end_object();
      }
    } else if (r.part == 1) {  // flow start on the source's net thread
      w.kv("name", "parcel");
      w.kv("cat", "comm");
      w.kv("ph", "s");
      w.kv("id", r.flow);
      w.kv("ts", e.t0 * kUs);
      w.kv("pid", e.worker);
      w.kv("tid", cores);
    } else if (r.part == 2) {  // NIC occupancy on the destination's net thread
      w.kv("name", "wire");
      w.kv("cat", "comm");
      w.kv("ph", "X");
      w.kv("ts", e.t0 * kUs);
      w.kv("dur", (e.t1 - e.t0) * kUs);
      w.kv("pid", e.arg);
      w.kv("tid", cores);
      w.key("args");
      w.begin_object();
      w.kv("src", e.worker);
      w.kv("parcels", e.parcels);
      w.kv("bytes", e.bytes);
      w.end_object();
    } else {  // flow end, binding enclosing the wire slice's close
      w.kv("name", "parcel");
      w.kv("cat", "comm");
      w.kv("ph", "f");
      w.kv("bp", "e");
      w.kv("id", r.flow);
      w.kv("ts", e.t1 * kUs);
      w.kv("pid", e.arg);
      w.kv("tid", cores);
    }
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");

  // Self-contained analyzer metadata (ignored by Perfetto).
  w.key("amtfmm");
  w.begin_object();
  w.kv("version", 1);
  w.kv("sim", opt.sim);
  w.kv("makespan", opt.makespan);
  // Global locality count: a distributed rank's pids start at opt.rank,
  // so the analyzer's worker range must span the whole world even when
  // this file only holds one rank's events.
  w.kv("localities", global_localities);
  w.kv("cores_per_locality", cores);
  w.kv("rank", opt.rank);
  w.kv("world", opt.world);
  w.key("clock");
  w.begin_object();
  w.kv("steady_origin_s", opt.clock.steady_origin_s);
  w.kv("wall_anchor_s", opt.clock.wall_anchor_s);
  w.kv("offset_s", opt.clock.offset_s);
  w.kv("uncertainty_s", opt.clock.uncertainty_s);
  w.end_object();
  if (!opt.epochs.empty()) {
    w.key("epochs");
    w.begin_array();
    for (const double t : opt.epochs) w.value(t);
    w.end_array();
  }
  w.key("edges");
  w.begin_array();
  for (const std::uint32_t v : opt.dag_edges) w.value(v);
  w.end_array();
  if (opt.counters != nullptr && !opt.counters->empty()) {
    w.key("counters");
    opt.counters->append_json(w);
  }
  w.end_object();
  w.end_object();
  return w.write_file(path);
}

}  // namespace amtfmm
