// amtfmm_serve: resident FMM-as-a-service driver and SPMD self-test.
//
// Stands up one EvalPipeline and evaluates it for many epochs on the SAME
// tree + DAG + GAS/LCO arena: epoch 1 pays the build + instantiate cost,
// every later epoch re-arms the arena in place.  Runs either in-process
// (ThreadExecutor, --localities x --cores) or as one SPMD rank of a
// socket world under tools/amtfmm_launch (net_config_from_env; standalone
// it is a world of one).  Every check is a hard failure:
//
//   1. steady state is allocation-free: gas_allocs_last_epoch() == 0 for
//      every epoch >= 2;
//   2. the epoch-2 arena re-arm costs at most 5% of epoch 1 (build plus
//      first run), steady throughput is positive, and the latency tail is
//      sane: 0 < p50 <= p99 <= 50 x p50;
//   3. repeat epochs agree with epoch 1 at 1e-12 relative and move the
//      same wire bytes; on a socket world, so does a fresh pipeline built
//      on the same mesh;
//   4. request batching demuxes correctly: every per-request slice of a
//      batched epoch matches the combined potentials;
//   5. global parity: ranks != 0 ship their epoch-1 partial potentials
//      and byte counts to rank 0 as kNetKindUser parcels.  Rank 0 sums
//      them (each target box has exactly one home rank, so the sum is
//      exact) and checks the global answer against a fresh in-process
//      evaluation with one locality per rank at 1e-12; summed wire_bytes
//      == summed comm.bytes == the in-process wire bytes == the DES
//      simulation's, EXACTLY; and with world > 1 the net.* counters are
//      live;
//   6. the epoch watchdog fires exactly when --stall and --watchdog are
//      both set, and its flight dump DIR/flight.<rank>.json parses, names
//      the watchdog as its reason and holds events;
//   7. with --telemetry, rank 0's aggregator snapshot holds samples from
//      every rank, rejected none, and its Prometheus exposition carries
//      the families amtfmm_top --prom serves for every rank;
//   8. with --trace-out on a socket world, rank 0 merges the per-rank
//      traces onto its clock: valid, no negative cross-rank flow, clock
//      uncertainty below 1 ms, and a cross-rank critical path no shorter
//      than any rank's own.
//
// --trace-out writes per-rank Chrome traces of the resident epochs, the
// inputs of check 8 and of trace_report --merge.  Full tracing and the
// flight recorder's ring mode never combine, so the recorder is attached
// only without --trace-out.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "geom/distributions.hpp"
#include "runtime/flight_recorder.hpp"
#include "runtime/net/net_executor.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/trace_export.hpp"
#include "runtime/trace_merge.hpp"
#include "runtime/watchdog.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace amtfmm;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(k == 0 ? 0 : k - 1, v.size() - 1)];
}

double max_rel_err(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]) / std::max(1.0, std::abs(b[i])));
  }
  return m;
}

/// Collects hard failures; each prints one "SERVE FAIL" line.
struct Verdict {
  bool ok = true;
  [[gnu::format(printf, 2, 3)]] void fail(const char* fmt, ...) {
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("SERVE FAIL: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
    ok = false;
  }
};

/// Rank 0's accumulator for the gather parcels: the element-wise sum of
/// the peers' epoch-1 partial potentials and of their byte counts.  A
/// parcel is [wire_bytes, comm.bytes, comm.parcels, npot] as u64, then
/// npot doubles.
struct Gather {
  static constexpr std::size_t kHeader = 4 * sizeof(std::uint64_t);

  std::mutex mu;
  std::vector<double> sum;  ///< one entry per target
  std::uint64_t wire_bytes = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t parcels = 0;
  std::uint32_t ranks_seen = 0;
  bool bad = false;

  static std::vector<std::byte> pack(const EvalResult& r) {
    const std::uint64_t head[4] = {r.wire_bytes, r.comm.bytes, r.comm.parcels,
                                   r.potentials.size()};
    std::vector<std::byte> buf(kHeader + r.potentials.size() * sizeof(double));
    std::memcpy(buf.data(), head, kHeader);
    std::memcpy(buf.data() + kHeader, r.potentials.data(),
                r.potentials.size() * sizeof(double));
    return buf;
  }

  void add(const std::vector<std::byte>& buf) {
    std::lock_guard<std::mutex> lk(mu);
    std::uint64_t head[4] = {};
    if (buf.size() >= kHeader) std::memcpy(head, buf.data(), kHeader);
    if (head[3] != sum.size() ||
        buf.size() != kHeader + sum.size() * sizeof(double)) {
      bad = true;
      return;
    }
    wire_bytes += head[0];
    comm_bytes += head[1];
    parcels += head[2];
    for (std::size_t i = 0; i < sum.size(); ++i) {
      double v;
      std::memcpy(&v, buf.data() + kHeader + i * sizeof(double), sizeof(v));
      sum[i] += v;
    }
    ++ranks_seen;
  }
};

/// Check 6's artifact: the flight dump the watchdog left at `path`.
void check_flight_dump(const char* path, std::uint32_t rank, Verdict& v) {
  std::string text, error;
  JsonValue dump;
  if (!read_file(path, text) || !json_parse(text, dump, error)) {
    v.fail("rank %u flight dump %s unreadable %s", rank, path, error.c_str());
    return;
  }
  const JsonValue* meta = dump.find("amtfmm_flight");
  const std::string reason =
      meta != nullptr ? meta->str_or("reason", "") : std::string();
  if (reason.find("watchdog") == std::string::npos) {
    v.fail("rank %u flight dump reason '%s' does not name the watchdog", rank,
           reason.c_str());
  }
  const JsonValue* events = dump.find("traceEvents");
  if (events == nullptr || !events->is_array() || events->array.empty()) {
    v.fail("rank %u flight dump holds no events", rank);
  }
}

/// Check 7, on rank 0 after the aggregator's final snapshot.
void check_telemetry_snapshot(const TelemetryAggregator& agg,
                              std::uint32_t world, Verdict& v) {
  std::vector<std::vector<TelemetrySample>> series;
  std::string error;
  if (!telemetry_load_snapshot(agg.snapshot_path(), series, error)) {
    v.fail("telemetry snapshot %s: %s", agg.snapshot_path().c_str(),
           error.c_str());
    return;
  }
  if (series.size() != world) {
    v.fail("telemetry snapshot covers %zu ranks, want %u", series.size(),
           world);
  }
  if (agg.rejected() != 0) {
    v.fail("telemetry aggregator rejected %" PRIu64 " samples",
           agg.rejected());
  }
  std::vector<TelemetrySample> latest;
  for (std::size_t r = 0; r < series.size(); ++r) {
    if (series[r].empty()) {
      v.fail("rank %zu shipped no telemetry sample to rank 0", r);
    } else {
      latest.push_back(series[r].back());
    }
  }
  const std::string prom = telemetry_render_prom(latest);
  for (const TelemetrySample& s : latest) {
    for (const char* family :
         {"amtfmm_sched_tasks_run_rate", "amtfmm_serve_epoch_us_window_count",
          "amtfmm_serve_epoch_us_p50", "amtfmm_serve_epoch_us_p99",
          "amtfmm_gas_objects_hw"}) {
      const std::string line = std::string(family) + "{rank=\"" +
                               std::to_string(s.rank) + "\"} ";
      if (prom.find("\n" + line) == std::string::npos) {
        v.fail("rank %u: metric family %s missing from the exposition",
               s.rank, family);
      }
    }
  }
}

/// Check 8, on rank 0 once every rank has written its trace.
void check_trace_merge(const std::string& prefix, std::uint32_t world,
                       Verdict& v) {
  std::vector<std::string> inputs;
  for (std::uint32_t r = 0; r < world; ++r) {
    inputs.push_back(prefix + "." + std::to_string(r));
  }
  const TraceMergeReport m = trace_merge(inputs, prefix + ".merged.json");
  if (!m.valid) {
    v.fail("trace merge invalid: %s", m.error.c_str());
    return;
  }
  if (m.negative_flows != 0) {
    v.fail("%" PRIu64 " negative cross-rank flows after clock correction",
           m.negative_flows);
  }
  if (!(m.max_uncertainty_s < 1e-3)) {
    v.fail("clock uncertainty %.3e s not sub-millisecond",
           m.max_uncertainty_s);
  }
  for (const TraceMergeReport::Rank& r : m.ranks) {
    if (m.cross_critical_path_s < r.critical_path_s) {
      v.fail("cross-rank critical path %.6f s below rank %u's %.6f s",
             m.cross_critical_path_s, r.rank, r.critical_path_s);
    }
  }
}

int run(int argc, char** argv) {
  Cli cli(
      "Resident FMM-as-a-service driver: steady-state epochs on one "
      "pipeline.\n  amtfmm_serve --n=8000 --epochs=8\n"
      "  amtfmm_launch --np=2 -- amtfmm_serve --n=8000 --epochs=6");
  cli.add_flag("n", std::int64_t{8000}, "source and target count");
  cli.add_flag("distribution", std::string("cube"),
               "point distribution (cube | sphere | plummer)");
  cli.add_flag("kernel", std::string("laplace"), "kernel name");
  cli.add_flag("digits", std::int64_t{3}, "accuracy digits");
  cli.add_flag("threshold", std::int64_t{60}, "refinement threshold");
  cli.add_flag("localities", std::int64_t{2},
               "in-process localities (ignored under a socket world)");
  cli.add_flag("cores", std::int64_t{2}, "worker threads per locality/rank");
  cli.add_flag("epochs", std::int64_t{8}, "total evaluation epochs (>= 2)");
  cli.add_flag("batch", std::int64_t{4},
               "independent target-query sets in the batched epoch");
  cli.add_flag("coalesce", true, "enable parcel coalescing");
  cli.add_flag("seed", std::int64_t{1}, "problem seed (identical on all ranks)");
  cli.add_flag("trace-out", std::string(""),
               "per-rank Chrome trace path prefix of the resident epochs "
               "(empty = off; disables the flight recorder)");
  cli.add_flag("telemetry", std::string(""),
               "live-metrics dir: every rank samples its counters, rank 0 "
               "aggregates into DIR/telemetry.json for amtfmm_top (empty = "
               "off)");
  cli.add_flag("telemetry-interval", 0.25,
               "seconds between telemetry samples");
  cli.add_flag("watchdog", 0.0,
               "serve-epoch watchdog timeout in seconds (0 = off); a "
               "stalled epoch dumps the flight recorder");
  cli.add_flag("stall", 0.0,
               "inject an artificial stall of this many seconds before the "
               "final epoch (exercises the watchdog)");
  cli.parse(argc, argv);

  net::NetConfig ncfg;  // standalone default: world of one
  bool net_mode = false;
  if (auto env = net::net_config_from_env()) {
    ncfg = *env;
    net_mode = ncfg.world > 1;
  }

  const auto n = static_cast<std::size_t>(cli.i64("n"));
  const auto seed = static_cast<std::uint64_t>(cli.i64("seed"));
  const int epochs = std::max(2, static_cast<int>(cli.i64("epochs")));
  const Distribution dist = parse_distribution(cli.str("distribution"));

  Rng rs(seed), rt(seed + 1), rq(seed + 2);
  const auto sources = generate_points(dist, n, rs);
  const auto targets = generate_points(dist, n, rt);
  const auto charges = generate_charges(n, rq);

  EvalConfig cfg;
  cfg.digits = static_cast<int>(cli.i64("digits"));
  cfg.threshold = static_cast<int>(cli.i64("threshold"));
  cfg.localities = static_cast<int>(cli.i64("localities"));
  cfg.cores_per_locality = static_cast<int>(cli.i64("cores"));
  cfg.coalesce.enabled = cli.flag("coalesce");
  cfg.counters = true;
  const std::string trace_out = cli.str("trace-out");
  cfg.trace = !trace_out.empty();

  auto kernel = make_kernel(cli.str("kernel"));

  Gather gather;  // outlives the executor whose handler feeds it
  std::unique_ptr<net::NetExecutor> nex;
  std::unique_ptr<EvalPipeline> pipeline;
  if (net_mode) {
    nex = std::make_unique<net::NetExecutor>(
        ncfg, cfg.cores_per_locality, cfg.coalesce);
    if (nex->rank() == 0) {
      // Must exist before any peer's gather parcel can arrive.
      gather.sum.assign(targets.size(), 0.0);
      nex->register_net_handler(
          kNetKindUser,
          [&gather](const std::vector<std::byte>& buf) { gather.add(buf); });
    }
    pipeline = std::make_unique<EvalPipeline>(*kernel, cfg, sources, targets,
                                              *nex);
  } else {
    pipeline =
        std::make_unique<EvalPipeline>(*kernel, cfg, sources, targets);
  }
  const std::uint32_t rank = net_mode ? nex->rank() : 0;
  const std::uint32_t world = net_mode ? nex->world() : 1;
  Executor& ex = pipeline->executor();

  // Flight recorder, on unless full tracing is.  Workers stream their last
  // few thousand events into per-worker rings (one relaxed load + branch
  // when nothing else is enabled); a fatal signal, a net-failure teardown,
  // or the epoch watchdog dumps them as a Chrome trace for post-mortems.
  const std::string tel_dir = cli.str("telemetry");
  std::optional<FlightRecorder> flight;
  if (!cfg.trace) {
    std::string flight_dir = tel_dir;
    if (flight_dir.empty()) {
      const char* net_dir = std::getenv("AMTFMM_NET_DIR");
      flight_dir = net_dir != nullptr ? net_dir : ".";
    }
    flight.emplace(ex.trace());
    // A dump left by an earlier run must not pass check 6 for this one.
    const std::string dump_path =
        flight_dir + "/flight." + std::to_string(rank) + ".json";
    std::error_code ec;
    std::filesystem::remove(dump_path, ec);
    flight->set_dump_path(dump_path);
    flight->set_meta(rank, cfg.cores_per_locality, ex.trace_clock());
    flight_install_crash_handler();
  }

  // Live telemetry: every rank runs a sampler shipping window deltas of
  // its CounterRegistry; rank 0 aggregates all ranks (its own sampler
  // feeds the aggregator directly, peers arrive over the transport's
  // telemetry side channel) into an atomically-replaced snapshot file
  // that amtfmm_top polls.
  std::unique_ptr<TelemetryAggregator> aggregator;
  std::unique_ptr<TelemetrySampler> sampler;
  if (!tel_dir.empty()) {
    if (rank == 0) {
      aggregator = std::make_unique<TelemetryAggregator>(
          world, tel_dir + "/telemetry.json");
      if (net_mode) {
        TelemetryAggregator* agg = aggregator.get();
        nex->set_on_telemetry(
            [agg](std::uint32_t, std::vector<std::byte>&& payload) {
              agg->enqueue(std::string(
                  reinterpret_cast<const char*>(payload.data()),
                  payload.size()));
            });
      }
    }
    TelemetrySampler::ShipFn ship;
    if (rank == 0) {
      TelemetryAggregator* agg = aggregator.get();
      ship = [agg](std::string&& s) { agg->enqueue(std::move(s)); };
    } else {
      net::NetExecutor* x = nex.get();
      ship = [x](std::string&& s) {
        x->post_telemetry(
            0, std::span<const std::byte>(
                   reinterpret_cast<const std::byte*>(s.data()), s.size()));
      };
    }
    sampler = std::make_unique<TelemetrySampler>(
        ex.counters(), rank, cli.f64("telemetry-interval"), std::move(ship));
  }

  // Epoch watchdog: armed around every evaluation; an epoch that goes
  // `--watchdog` seconds without completing dumps the flight recorder —
  // a wedged drain leaves an artifact instead of a silent hang.
  std::unique_ptr<Watchdog> watchdog;
  if (cli.f64("watchdog") > 0.0) {
    watchdog = std::make_unique<Watchdog>(
        cli.f64("watchdog"), [rank](double stalled_s) {
          std::fprintf(stderr,
                       "SERVE WATCHDOG: rank %u epoch stalled %.2f s, "
                       "dumping flight recorder\n",
                       rank, stalled_s);
          flight_dump_all("serve epoch watchdog");
        });
  }

  // Epoch 1: instantiates the resident arena (build cost is separate —
  // pipeline.setup_seconds() — so epoch 1's latency is instantiate+run).
  if (watchdog) watchdog->arm();
  Timer t1;
  const EvalResult first = pipeline->evaluate(charges);
  const double epoch1_s = t1.seconds() + pipeline->setup_seconds();
  if (watchdog) watchdog->beat();

  // Steady state: epochs 2..E re-arm in place.
  std::vector<double> lat;
  double reset_s = 0.0;
  std::uint64_t steady_allocs = 0;
  double repeat_rel = 0.0;
  double max_makespan = first.makespan;
  const std::uint64_t wire = first.wire_bytes;
  Verdict v;
  for (int e = 2; e <= epochs; ++e) {
    if (e == epochs && cli.f64("stall") > 0.0) {
      // Injected stall: the epoch is armed but makes no progress, so the
      // watchdog (if configured) must fire and leave a flight dump.
      std::this_thread::sleep_for(std::chrono::duration<double>(
          cli.f64("stall")));
    }
    Timer te;
    const EvalResult r = pipeline->evaluate(charges);
    lat.push_back(te.seconds());
    if (watchdog) watchdog->beat();
    if (e == 2) reset_s = pipeline->last_reset_seconds();
    steady_allocs += pipeline->gas_allocs_last_epoch();
    repeat_rel =
        std::max(repeat_rel, max_rel_err(r.potentials, first.potentials));
    max_makespan = std::max(max_makespan, r.makespan);
    if (r.wire_bytes != wire) {
      v.fail("rank %u epoch %d wire_bytes %" PRIu64 " != epoch-1 %" PRIu64,
             rank, e, r.wire_bytes, wire);
    }
  }
  if (watchdog) {
    const bool fired = watchdog->fired();
    const bool stalled = cli.f64("stall") > 0.0;
    watchdog.reset();  // joins the monitor thread: a dump is complete
    if (fired != stalled) {
      v.fail("rank %u watchdog %s (--watchdog=%g --stall=%g)", rank,
             fired ? "fired without an injected stall"
                   : "did not fire under the injected stall",
             cli.f64("watchdog"), cli.f64("stall"));
    }
    if (fired && flight) check_flight_dump(flight->dump_path(), rank, v);
  }
  if (steady_allocs != 0) {
    v.fail("rank %u steady state allocated %" PRIu64 " GAS objects (want 0)",
           rank, steady_allocs);
  }
  if (repeat_rel > 1e-12) {
    v.fail("rank %u repeat epochs drift from epoch 1 (max rel err %.3e > "
           "1e-12)", rank, repeat_rel);
  }

  // Batched epoch: many independent target-query sets, one traversal.
  const auto nreq = static_cast<std::size_t>(cli.i64("batch"));
  std::vector<EvalRequest> requests(nreq);
  Rng rr(seed + 3);
  for (std::size_t r = 0; r < nreq; ++r) {
    const std::size_t len = 1 + rr.below(std::max<std::size_t>(n / 4, 1));
    requests[r].targets.reserve(len);
    for (std::size_t j = 0; j < len; ++j) {
      requests[r].targets.push_back(static_cast<std::uint32_t>(rr.below(n)));
    }
  }
  const BatchEvalResult batch = pipeline->evaluate_batch(charges, requests);
  max_makespan = std::max(max_makespan, batch.combined.makespan);
  for (std::size_t r = 0; r < nreq && v.ok; ++r) {
    for (std::size_t j = 0; j < requests[r].targets.size(); ++j) {
      if (batch.per_request[r][j] !=
          batch.combined.potentials[requests[r].targets[j]]) {
        v.fail("rank %u batch demux mismatch", rank);
        break;
      }
    }
  }

  if (cfg.trace) {
    // The resident epochs only: the fresh build and the gather below are
    // not part of the served timeline.
    ChromeTraceOptions topt;
    topt.cores_per_locality = cfg.cores_per_locality;
    topt.makespan = max_makespan;
    topt.dag_edges = batch.combined.dag_edges;
    topt.epochs = pipeline->epoch_start_times();
    topt.counters = &batch.combined.counters;
    topt.rank = rank;
    topt.world = world;
    topt.clock = ex.trace_clock();
    if (!trace_export_chrome(trace_out + "." + std::to_string(rank),
                             batch.combined.trace, topt)) {
      v.fail("rank %u cannot write %s.%u", rank, trace_out.c_str(), rank);
    }
  }

  // The reference configuration: fresh builds of the identical problem,
  // untraced, with one locality per rank in a socket world.
  EvalConfig ref_cfg = cfg;
  ref_cfg.trace = false;
  ref_cfg.localities = ex.num_localities();

  if (net_mode) {
    // Fresh-build parity on the same mesh: a new pipeline must match the
    // multi-epoch resident partials at 1e-12.
    auto fresh_kernel = make_kernel(cli.str("kernel"));
    EvalPipeline fresh(*fresh_kernel, ref_cfg, sources, targets, *nex);
    const double fresh_rel =
        max_rel_err(first.potentials, fresh.evaluate(charges).potentials);
    if (fresh_rel > 1e-12) {
      v.fail("rank %u resident vs fresh-build parity (max rel err %.3e > "
             "1e-12)", rank, fresh_rel);
    }

    // Gather: one more drain epoch carries every peer's epoch-1 partials
    // and byte counts to rank 0.
    if (rank != 0) {
      // The final telemetry sample shares the per-peer outbox FIFO with
      // the gather parcel, so stopping the sampler first lands it on
      // rank 0 before the gather completes.
      if (sampler) sampler->stop();
      auto buf = std::make_shared<std::vector<std::byte>>(Gather::pack(first));
      Task t;
      t.locality = 0;
      t.net_kind = kNetKindUser;
      t.net_payload = buf;
      t.fn = [] {};
      nex->send(rank, 0, buf->size(), t);
    }
    nex->drain();
  }

  // Orderly telemetry teardown: the local sampler's final flush must land
  // before the transport callback is cleared, so the aggregator strictly
  // outlives any frame the progress thread may still deliver.
  if (sampler) sampler->stop();
  if (aggregator) {
    if (net_mode) nex->set_on_telemetry(nullptr);
    aggregator->stop();
    check_telemetry_snapshot(*aggregator, world, v);
  }

  const double steady_sum = std::accumulate(lat.begin(), lat.end(), 0.0);
  const double evals_per_s =
      steady_sum > 0.0 ? static_cast<double>(lat.size()) / steady_sum : 0.0;
  const double p50 = percentile(lat, 0.50);
  const double p99 = percentile(lat, 0.99);
  const double reset_ratio = epoch1_s > 0.0 ? reset_s / epoch1_s : 0.0;
  // The re-arm bound only catches an accidental rebuild per epoch (the
  // measured ratio is ~1e-4); the tail bound is generous for shared hosts.
  if (reset_ratio > 0.05) {
    v.fail("rank %u reset_ratio %.4f above 0.05", rank, reset_ratio);
  }
  if (!(evals_per_s > 0.0)) v.fail("rank %u no steady throughput", rank);
  if (!(0.0 < p50 && p50 <= p99)) {
    v.fail("rank %u bad latency order p50=%g p99=%g", rank, p50, p99);
  } else if (p99 > 50.0 * p50) {
    v.fail("rank %u p99 %.1fms more than 50x p50 %.1fms", rank, p99 * 1e3,
           p50 * 1e3);
  }
  if (rank != 0) return v.ok ? 0 : 1;

  // Global parity on rank 0: its own partials plus the gathered sums
  // (disjoint supports), against a fresh in-process evaluation and the
  // DES simulation of the same DAG and placement.
  std::uint64_t total_wire = wire;
  std::uint64_t total_sent = first.comm.bytes;
  std::uint64_t total_parcels = first.comm.parcels;
  std::vector<double> global = first.potentials;
  {
    std::lock_guard<std::mutex> lk(gather.mu);
    if (gather.bad || gather.ranks_seen != world - 1) {
      v.fail("gather saw %u of %u ranks (bad=%d)", gather.ranks_seen,
             world - 1, gather.bad ? 1 : 0);
    }
    for (std::size_t i = 0; i < gather.sum.size(); ++i) {
      global[i] += gather.sum[i];
    }
    total_wire += gather.wire_bytes;
    total_sent += gather.comm_bytes;
    total_parcels += gather.parcels;
  }
  Evaluator ref_eval(make_kernel(cli.str("kernel")), ref_cfg);
  const EvalResult ref = ref_eval.evaluate(sources, charges, targets);
  SimConfig scfg;
  scfg.localities = ref_cfg.localities;
  scfg.cores_per_locality = cfg.cores_per_locality;
  scfg.coalesce = cfg.coalesce;
  const SimResult sim = ref_eval.simulate(sources, targets, scfg);
  const double global_rel = max_rel_err(global, ref.potentials);
  if (global_rel > 1e-12) {
    v.fail("global potentials diverge from the in-process run (max rel err "
           "%.3e > 1e-12)", global_rel);
  }
  if (total_wire != total_sent) {
    v.fail("wire_bytes %" PRIu64 " != comm.bytes %" PRIu64, total_wire,
           total_sent);
  }
  if (total_wire != ref.wire_bytes || total_wire != sim.wire_bytes) {
    v.fail("wire bytes disagree: served %" PRIu64 ", in-process %" PRIu64
           ", sim %" PRIu64, total_wire, ref.wire_bytes, sim.wire_bytes);
  }
  if (world > 1) {
    const std::uint64_t msgs = first.counters.value("net.msgs_sent");
    const std::uint64_t iters = first.counters.value("net.progress_iters");
    if (msgs == 0 || iters == 0 || wire == 0) {
      v.fail("net dead (msgs_sent=%" PRIu64 " progress_iters=%" PRIu64
             " wire_bytes=%" PRIu64 ")", msgs, iters, wire);
    }
    if (cfg.trace) check_trace_merge(trace_out, world, v);
  }
  if (!v.ok) return 1;

  std::size_t gas_objects = 0;
  for (int l = 0; l < ex.num_localities(); ++l) {
    gas_objects += pipeline->gas_objects_on(static_cast<std::uint32_t>(l));
  }
  std::printf("SERVE OK %s world=%u n=%zu epochs=%d setup=%.3fs "
              "reset=%.1fus ratio=%.5f evals/s=%.2f p50=%.1fms p99=%.1fms "
              "gas_hw=%zu wire=%" PRIu64 " parcels=%" PRIu64
              " max_rel=%.3e\n",
              net_mode ? "net" : "inproc", world, n, epochs,
              pipeline->setup_seconds(), reset_s * 1e6, reset_ratio,
              evals_per_s, p50 * 1e3, p99 * 1e3, gas_objects, total_wire,
              total_parcels, global_rel);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amtfmm_serve: %s\n", e.what());
    return 1;
  }
}
