// Measurement driver of the resident-pipeline benchmark.
//
//   fmmbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//
// Generates every input from (workload, seed), stands up one resident
// EvalPipeline on 2 localities x 1 worker with parcel coalescing on, and
// runs a closed loop for S seconds: one caller waits for each epoch, as an
// iterative solver or time-stepper would.  Every call into the program is
// timed from outside through the public API of its layer.
//
// --trace=0 measures the end-to-end loop with counters and tracing off.
// --trace=1 spends half the loop untraced and half with tracing and
// counters on, then times each layer separately: tree/lists/DAG builds, a
// single-thread replay of a seeded sample of the workload's own DAG edges,
// the wire codecs, and ThreadExecutor spawn/drain probes.
//
// Output is one JSON object of raw samples on stdout; run.py turns it
// into the named metrics of BENCHMARK.json.  A failing epoch is counted,
// never fatal.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "geom/distributions.hpp"
#include "runtime/thread_executor.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

using namespace amtfmm;

namespace {

constexpr int kThreshold = 60;
constexpr int kDigits = 3;
// Two localities keep every inter-locality path (parcels, serialization,
// coalescing) in play.  One worker each leaves half of a 4-CPU host idle:
// with a worker on every CPU, losing one or two CPUs to other processes or
// to the hypervisor slowed epochs by up to 2x for minutes at a time, while
// this shape was unaffected by two competing busy processes.
constexpr int kLocalities = 2;
constexpr int kCoresPerLocality = 1;
constexpr std::size_t kCheckTargets = 200;
constexpr double kMaxRelErr = 1e-3;
/// Steady epochs inside the peak-memory window (set-up, the first epoch,
/// then this many): a fixed amount of work, whatever the run length.
constexpr std::size_t kRssEpochs = 5;
/// EvalPipeline constructions timed per untraced run; setup_s is their
/// median.
constexpr int kSetups = 5;

struct Workload {
  const char* name;
  const char* kernel;
  Method method;
  std::size_t n;   ///< sources and targets each
  bool churn;      ///< 1% source moves + 4-request evaluate_batch per epoch
};

constexpr Workload kWorkloads[] = {
    {"laplace-adv", "laplace", Method::kFmmAdvanced, 20000, false},
    {"laplace-basic", "laplace", Method::kFmmBasic, 20000, false},
    {"counting-churn", "counting", Method::kFmmAdvanced, 400000, true},
};

/// Independent generator streams derived from the seed alone, so workloads
/// of equal size share their geometry and charges.
Rng stream(std::uint64_t seed, std::uint64_t which) {
  return Rng(seed * 0x9e3779b97f4a7c15ull + which);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void put_array(JsonWriter& w, const std::string& k,
               const std::vector<double>& v) {
  w.key(k);
  w.begin_array();
  for (const double x : v) w.value(x);
  w.end_array();
}

// ---------------------------------------------------------------------------
// The closed loop.
// ---------------------------------------------------------------------------

/// What one epoch cost and whether its outputs checked out.
struct Epoch {
  bool ok = false;
  bool timed = false;  ///< the evaluate call returned (no exception)
  double eval_s = 0.0;
  double t0 = 0.0, t1 = 0.0;  ///< evaluate call window on the loop clock
  double update_s = 0.0;  ///< churn only
  PipelineUpdateStats update;
  CommStats comm;
  double reset_s = 0.0;
  std::uint64_t gas_allocs = 0;
};

class Loop {
 public:
  Loop(const Workload& w, std::uint64_t seed, EvalPipeline& pipe,
       std::vector<Vec3> sources, std::span<const Vec3> targets)
      : w_(w),
        pipe_(pipe),
        sources_(std::move(sources)),
        targets_(targets),
        ref_kernel_(make_kernel(w.kernel)),
        charge_rng_(stream(seed, 3)),
        move_rng_(stream(seed, 4)) {
    Rng pick = stream(seed, 5);
    for (std::size_t i = 0; i < kCheckTargets; ++i) {
      sample_.push_back(static_cast<std::uint32_t>(pick.below(targets.size())));
    }
    if (w_.churn) {
      order_.resize(sources_.size());
      std::iota(order_.begin(), order_.end(), 0u);
      // Each source jitters around its generated (home) position inside
      // its leaf cube, so every update keeps the tree structure and takes
      // the incremental path; box counts never drift toward a rebuild.
      home_ = sources_;
      const Tree& tree = pipe.model().tree.source;
      // Morton keys scale by 2^21 - 1, so key cells sit up to ~5e-7 domain
      // widths off the geometric leaf faces; stay well inside both.
      margin_ = 1e-5 * tree.domain().size;
      home_leaf_.resize(sources_.size());
      for (const TreeBox& b : tree.boxes()) {
        if (!b.is_leaf()) continue;
        for (std::uint32_t i = b.first; i < b.first + b.count; ++i) {
          home_leaf_[tree.original_index()[i]] =
              static_cast<std::uint32_t>(leaves_.size());
        }
        leaves_.push_back(b.cube);
      }
      for (std::uint32_t r = 0; r < 4; ++r) {
        EvalRequest req;
        for (std::size_t i = r; i < targets.size(); i += 4) {
          req.targets.push_back(static_cast<std::uint32_t>(i));
        }
        requests_.push_back(std::move(req));
      }
    }
  }

  /// One epoch.  `steady` epochs of the churn workload first move 1% of
  /// the sources through update_sources.
  Epoch step(bool steady) {
    Epoch e;
    ++attempted_;
    try {
      PipelineUpdate u;
      if (w_.churn && steady) u.moves = draw_moves();
      const std::vector<double> q = draw_charges();
      if (!u.moves.empty()) {
        Timer tu;
        e.update = pipe_.update_sources(u);
        e.update_s = tu.seconds();
        for (const PointMove& m : u.moves) sources_[m.index] = m.position;
      }
      e.t0 = clock_.seconds();
      if (w_.churn) {
        const BatchEvalResult r = pipe_.evaluate_batch(q, requests_);
        e.t1 = clock_.seconds();
        e.comm = r.combined.comm;
        e.ok = check_batch(r) && check_counting(r.combined.potentials, q);
      } else {
        const EvalResult r = pipe_.evaluate(q);
        e.t1 = clock_.seconds();
        e.comm = r.comm;
        e.ok = check_sample(r.potentials, q);
      }
      e.timed = true;
      e.eval_s = e.t1 - e.t0;
      e.reset_s = pipe_.last_reset_seconds();
      e.gas_allocs = pipe_.gas_allocs_last_epoch();
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "epoch %llu failed: %s\n",
                   static_cast<unsigned long long>(attempted_), ex.what());
      e.ok = false;
    }
    if (!e.ok) ++failed_;
    return e;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double max_rel_err() const { return max_rel_; }

 private:
  std::vector<double> draw_charges() {
    std::vector<double> q(sources_.size());
    for (double& x : q) {
      // Counting: small integer charges keep every sum exact in double.
      x = w_.churn ? static_cast<double>(1 + charge_rng_.below(9))
                   : charge_rng_.uniform();
    }
    return q;
  }

  /// 1% of the sources, distinct indices, each coordinate displaced from
  /// its home by up to +-0.001, clamped just inside the home leaf cube.
  std::vector<PointMove> draw_moves() {
    const std::size_t k = std::max<std::size_t>(1, sources_.size() / 100);
    std::vector<PointMove> moves(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + move_rng_.below(order_.size() - i);
      std::swap(order_[i], order_[j]);
      const std::uint32_t idx = order_[i];
      const Vec3& p = home_[idx];
      const Cube& c = leaves_[home_leaf_[idx]];
      auto jitter = [&](double v, double lo) {
        return std::clamp(v + move_rng_.uniform(-1e-3, 1e-3), lo + margin_,
                          lo + c.size - margin_);
      };
      moves[i].index = idx;
      moves[i].position = {jitter(p.x, c.low.x), jitter(p.y, c.low.y),
                           jitter(p.z, c.low.z)};
    }
    return moves;
  }

  /// Relative L2 error on the seeded target sample against direct_sum.
  bool check_sample(const std::vector<double>& phi,
                    const std::vector<double>& q) {
    std::vector<Vec3> pts;
    for (const std::uint32_t i : sample_) pts.push_back(targets_[i]);
    const std::vector<double> ref = direct_sum(*ref_kernel_, sources_, q, pts);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      const double d = phi[sample_[i]] - ref[i];
      num += d * d;
      den += ref[i] * ref[i];
    }
    const double rel = std::sqrt(num / den);
    max_rel_ = std::max(max_rel_, std::isfinite(rel) ? rel : INFINITY);
    return std::isfinite(rel) && rel <= kMaxRelErr;
  }

  /// Counting kernel: every target's potential is exactly sum(q).  The
  /// first epoch also confirms that direct_sum on the sample gives sum(q).
  bool check_counting(const std::vector<double>& phi,
                      const std::vector<double>& q) {
    const double total = std::accumulate(q.begin(), q.end(), 0.0);
    bool ok = true;
    if (attempted_ == 1) {
      std::vector<Vec3> pts;
      for (const std::uint32_t i : sample_) pts.push_back(targets_[i]);
      for (const double r : direct_sum(*ref_kernel_, sources_, q, pts)) {
        ok = ok && r == total;
      }
    }
    double num = 0.0;
    for (const double p : phi) num += (p - total) * (p - total);
    const double rel =
        std::sqrt(num / static_cast<double>(phi.size())) / std::abs(total);
    max_rel_ = std::max(max_rel_, std::isfinite(rel) ? rel : INFINITY);
    return ok && rel == 0.0;
  }

  /// Every request slice is bitwise equal to the combined potentials.
  bool check_batch(const BatchEvalResult& r) const {
    if (r.per_request.size() != requests_.size()) return false;
    for (std::size_t k = 0; k < requests_.size(); ++k) {
      const auto& idx = requests_[k].targets;
      if (r.per_request[k].size() != idx.size()) return false;
      for (std::size_t i = 0; i < idx.size(); ++i) {
        const double a = r.per_request[k][i];
        const double b = r.combined.potentials[idx[i]];
        if (std::memcmp(&a, &b, sizeof a) != 0) return false;
      }
    }
    return true;
  }

  const Workload& w_;
  EvalPipeline& pipe_;
  std::vector<Vec3> sources_;  ///< current positions, original order
  std::span<const Vec3> targets_;
  std::unique_ptr<Kernel> ref_kernel_;  ///< direct_sum reference
  Rng charge_rng_;
  Rng move_rng_;
  std::vector<std::uint32_t> sample_;
  std::vector<std::uint32_t> order_;  ///< partial-shuffle pool for moves
  std::vector<Vec3> home_;             ///< generated source positions
  std::vector<std::uint32_t> home_leaf_;  ///< source -> index in leaves_
  std::vector<Cube> leaves_;           ///< source-tree leaf cubes
  double margin_ = 0.0;                ///< clamp distance from leaf faces
  std::vector<EvalRequest> requests_;
  Timer clock_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double max_rel_ = 0.0;
};

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only).
// ---------------------------------------------------------------------------

CounterSnapshot::Histogram histogram_delta(const CounterSnapshot& a,
                                           const CounterSnapshot& b,
                                           const std::string& name) {
  CounterSnapshot::Histogram d;
  d.name = name;
  for (const auto& h : b.histograms) {
    if (h.name != name) continue;
    d = h;
    for (const auto& g : a.histograms) {
      if (g.name != name) continue;
      d.count -= g.count;
      d.sum -= g.sum;
      for (std::size_t i = 0; i < d.buckets.size(); ++i) {
        d.buckets[i] -= g.buckets[i];
      }
    }
  }
  return d;
}

CoeffVec random_coeffs(std::size_t n, Rng& r) {
  CoeffVec v(n);
  for (cdouble& c : v) c = {r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)};
  return v;
}

/// One sampled DAG edge with inputs of its real sizes, levels and offsets.
struct ReplayEdge {
  Operator op;
  const TreeBox* from;
  const TreeBox* to;
  int dir = 0;
  int qlevel = 0;
  std::uint8_t dirs = 0;  ///< I2L: directions with an incoming own X
  std::vector<CoeffVec> in;  ///< one, or six for I2L
  std::span<const Vec3> src_pts;
  std::vector<double> src_q;
  std::span<const Vec3> tgt_pts;
  std::vector<double> soa[8];  ///< S2T: sx sy sz sq tx ty tz phi
};

/// Applies one sampled edge exactly as the engine's apply_edge does,
/// including the output-buffer reset.
void apply(const Kernel& k, ReplayEdge& e, CoeffVec& out,
           std::vector<double>& phi) {
  const Vec3 fc = e.from->cube.center();
  const Vec3 tc = e.to->cube.center();
  const int fl = e.from->level;
  const int tl = e.to->level;
  switch (e.op) {
    case Operator::kS2M:
      out.clear();
      k.s2m(e.src_pts, e.src_q, tc, tl, out);
      break;
    case Operator::kM2M:
      out.assign(k.m_count(tl), cdouble{});
      k.m2m_acc(e.in[0], fc, tc, fl, out);
      break;
    case Operator::kM2L:
      out.assign(k.l_count(tl), cdouble{});
      k.m2l_acc(e.in[0], fc, tc, tl, out);
      break;
    case Operator::kS2L:
      out.assign(k.l_count(tl), cdouble{});
      k.s2l_acc(e.src_pts, e.src_q, tc, tl, out);
      break;
    case Operator::kM2T:
      phi.assign(e.tgt_pts.size(), 0.0);
      for (std::size_t i = 0; i < e.tgt_pts.size(); ++i) {
        phi[i] += k.m2t(e.in[0], fc, fl, e.tgt_pts[i]);
      }
      break;
    case Operator::kL2L:
      out.assign(k.l_count(tl), cdouble{});
      k.l2l_acc(e.in[0], fc, tc, tl, out);
      break;
    case Operator::kL2T:
      phi.assign(e.tgt_pts.size(), 0.0);
      for (std::size_t i = 0; i < e.tgt_pts.size(); ++i) {
        phi[i] += k.l2t(e.in[0], fc, fl, e.tgt_pts[i]);
      }
      break;
    case Operator::kS2T: {
      simd::P2PBatch b;
      b.sx = e.soa[0].data();
      b.sy = e.soa[1].data();
      b.sz = e.soa[2].data();
      b.sq = e.soa[3].data();
      b.ns = e.soa[0].size();
      b.tx = e.soa[4].data();
      b.ty = e.soa[5].data();
      b.tz = e.soa[6].data();
      b.nt = e.soa[4].size();
      e.soa[7].assign(b.nt, 0.0);
      b.phi = e.soa[7].data();
      k.s2t_batch(b);
      break;
    }
    case Operator::kM2I:
      for (const Axis d : kAllAxes) {
        out.clear();
        k.m2i(e.in[0], fl, d, out);
      }
      break;
    case Operator::kI2I:
      out.assign(k.x_count(e.qlevel), cdouble{});
      k.i2i_acc(e.in[0], kAllAxes[static_cast<std::size_t>(e.dir)], tc - fc,
                e.qlevel, out);
      break;
    case Operator::kI2L:
      out.assign(k.l_count(tl), cdouble{});
      for (std::size_t d = 0; d < 6; ++d) {
        if ((e.dirs >> d) & 1u) k.i2l_acc(e.in[d], kAllAxes[d], fl, out);
      }
      break;
  }
}

/// Times `fn` in repeated passes until at least `budget_s` has elapsed;
/// returns seconds per call.
template <typename Fn>
double time_per_call(std::size_t calls_per_pass, double budget_s, Fn&& fn) {
  std::size_t calls = 0;
  Timer t;
  do {
    fn();
    calls += calls_per_pass;
  } while (t.seconds() < budget_s);
  return t.seconds() / static_cast<double>(calls);
}

/// Single-thread replay of a seeded sample of each edge class of the
/// pipeline's DAG on the pipeline's own (already set up) kernel.
void replay_kernels(JsonWriter& w, const Kernel& k, const PreparedModel& m,
                    std::uint64_t seed) {
  const Dag& dag = m.dag;
  const DualTree& dt = m.tree;
  auto box_of = [&](const DagNode& n) -> const TreeBox& {
    const bool src = n.kind == NodeKind::kS || n.kind == NodeKind::kM ||
                     n.kind == NodeKind::kIs;
    return src ? dt.source.box(n.box) : dt.target.box(n.box);
  };
  std::vector<std::uint8_t> own_dirs(dag.nodes.size(), 0);
  std::vector<std::vector<std::uint32_t>> by_class(kNumOperators);
  std::vector<NodeIndex> edge_src(dag.edges.size());
  for (NodeIndex ni = 0; ni < dag.nodes.size(); ++ni) {
    const DagNode& n = dag.nodes[ni];
    for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges; ++e) {
      const DagEdge& edge = dag.edges[e];
      edge_src[e] = ni;
      by_class[static_cast<std::size_t>(edge.op)].push_back(e);
      if (edge.op == Operator::kI2I && edge.slot == 0) {
        own_dirs[edge.target] |= static_cast<std::uint8_t>(1u << edge.dir);
      }
    }
  }

  Rng rng = stream(seed, 6);
  const DagStats stats = dag.stats();
  CoeffVec out;
  std::vector<double> phi;
  w.key("replay");
  w.begin_array();
  for (int c = 0; c < kNumOperators; ++c) {
    const auto op = static_cast<Operator>(c);
    const auto& ids = by_class[static_cast<std::size_t>(c)];
    constexpr std::size_t kSample = 32;
    std::vector<ReplayEdge> sample;
    for (std::size_t i = 0; i < std::min(kSample, ids.size()); ++i) {
      const std::uint32_t eid = ids[rng.below(ids.size())];
      const DagEdge& edge = dag.edges[eid];
      const DagNode& fn = dag.nodes[edge_src[eid]];
      const DagNode& tn = dag.nodes[edge.target];
      ReplayEdge r;
      r.op = op;
      r.from = &box_of(fn);
      r.to = &box_of(tn);
      r.dir = edge.dir;
      r.qlevel = std::max(r.from->level, r.to->level);
      const int fl = r.from->level;
      r.src_pts = std::span<const Vec3>(dt.source.sorted_points())
                      .subspan(r.from->first, r.from->count);
      r.tgt_pts = std::span<const Vec3>(dt.target.sorted_points())
                      .subspan(r.to->first, r.to->count);
      const bool src_is_points = op == Operator::kS2M ||
                                 op == Operator::kS2L || op == Operator::kS2T;
      if (src_is_points) {
        for (std::size_t j = 0; j < r.src_pts.size(); ++j) {
          r.src_q.push_back(rng.uniform());
        }
      }
      switch (op) {
        case Operator::kM2M: case Operator::kM2L: case Operator::kM2T:
        case Operator::kM2I:
          r.in.push_back(random_coeffs(k.m_count(fl), rng));
          break;
        case Operator::kL2L: case Operator::kL2T:
          r.in.push_back(random_coeffs(k.l_count(fl), rng));
          break;
        case Operator::kI2I:
          r.in.push_back(random_coeffs(k.x_count(fl), rng));
          break;
        case Operator::kI2L:
          r.dirs = own_dirs[edge_src[eid]];
          for (int d = 0; d < 6; ++d) {
            r.in.push_back(random_coeffs(k.x_count(fl), rng));
          }
          break;
        default:
          break;
      }
      if (op == Operator::kS2T) {
        for (std::size_t j = 0; j < r.src_pts.size(); ++j) {
          r.soa[0].push_back(r.src_pts[j].x);
          r.soa[1].push_back(r.src_pts[j].y);
          r.soa[2].push_back(r.src_pts[j].z);
          r.soa[3].push_back(r.src_q[j]);
        }
        for (const Vec3& p : r.tgt_pts) {
          r.soa[4].push_back(p.x);
          r.soa[5].push_back(p.y);
          r.soa[6].push_back(p.z);
        }
      }
      sample.push_back(std::move(r));
    }
    double per_edge_s = 0.0;
    if (!sample.empty()) {
      per_edge_s = time_per_call(sample.size(), 0.025, [&] {
        for (ReplayEdge& r : sample) apply(k, r, out, phi);
      });
    }
    const auto& ec = stats.edges[static_cast<std::size_t>(c)];
    w.begin_object();
    w.kv("op", to_string(op));
    w.kv("edges", static_cast<std::uint64_t>(ec.count));
    w.kv("total_bytes", ec.total_bytes);
    w.kv("us_per_edge", per_edge_s * 1e6);
    w.end_object();
  }
  w.end_array();

  // Wire codecs at the most populated multipole level.
  std::vector<std::size_t> per_level(64, 0);
  for (const DagNode& n : dag.nodes) {
    if (n.kind == NodeKind::kM) ++per_level[n.level];
  }
  const int lvl = static_cast<int>(
      std::max_element(per_level.begin(), per_level.end()) - per_level.begin());
  const CoeffVec mfull = random_coeffs(k.m_count(lvl), rng);
  const CoeffVec xfull = random_coeffs(k.x_count(lvl), rng);
  std::vector<std::byte> mwire(k.m_wire_bytes(lvl));
  std::vector<std::byte> xwire(k.x_wire_bytes(lvl));
  CoeffVec back;
  constexpr double kCodecBudget = 0.01;
  w.kv("pack_m_us", 1e6 * time_per_call(1, kCodecBudget, [&] {
         k.pack_m(mfull, lvl, mwire.data());
       }));
  w.kv("unpack_m_us", 1e6 * time_per_call(1, kCodecBudget, [&] {
         k.unpack_m(mwire, lvl, back);
       }));
  w.kv("pack_x_us", 1e6 * time_per_call(1, kCodecBudget, [&] {
         k.pack_x(xfull, lvl, xwire.data());
       }));
  w.kv("unpack_x_us", 1e6 * time_per_call(1, kCodecBudget, [&] {
         k.unpack_x(xwire, lvl, back);
       }));
}

/// Spawns `n` copies of `body` through W seeder tasks, one per worker, so
/// the fan-out runs on the workers' own deques; returns drain wall time.
double fan_out(ThreadExecutor& ex, std::size_t n,
               const std::function<void()>& body) {
  const int workers = ex.total_workers();
  const std::size_t per = n / static_cast<std::size_t>(workers);
  Timer t;
  for (int s = 0; s < workers; ++s) {
    Task seeder;
    seeder.locality = static_cast<std::uint32_t>(s / ex.cores_per_locality());
    const std::uint32_t loc = seeder.locality;
    seeder.fn = [&ex, per, loc, body] {
      for (std::size_t i = 0; i < per; ++i) {
        Task task;
        task.locality = loc;
        task.fn = body;
        ex.spawn(std::move(task));
      }
    };
    ex.spawn(std::move(seeder));
  }
  ex.drain();
  return t.seconds();
}

/// Runtime probes over the public spawn/drain API on the workload's 2x1
/// shape: empty-task overhead, and Task Bench's METG at 50% efficiency
/// (the smallest task granularity W*wall/tasks at which busy tasks of a
/// fixed grain keep the workers at least half efficient).
void runtime_probes(JsonWriter& w, const EvalConfig& cfg) {
  ThreadExecutor ex(cfg.localities, cfg.cores_per_locality, cfg.policy,
                    cfg.seed, cfg.coalesce);
  const double workers = ex.total_workers();

  constexpr std::size_t kEmpty = 1 << 18;
  std::vector<double> overhead;
  for (int rep = 0; rep < 3; ++rep) {
    overhead.push_back(fan_out(ex, kEmpty, [] {}) * 1e9 * workers / kEmpty);
  }
  w.kv("task_overhead_ns", median(overhead));

  double metg_us = 0.0;
  for (int k = -2; k <= 18; ++k) {
    const double grain_s = 1e-6 * std::pow(2.0, 0.5 * k);
    const auto n = static_cast<std::size_t>(
        std::max(64.0, workers * 0.02 / grain_s));
    const double wall = fan_out(ex, n, [grain_s] {
      Timer spin;
      while (spin.seconds() < grain_s) {
      }
    });
    const double tasks = static_cast<double>(
        n / static_cast<std::size_t>(workers) *
        static_cast<std::size_t>(workers));
    metg_us = 1e6 * wall * workers / tasks;
    if (tasks * grain_s / (wall * workers) >= 0.5) break;
  }
  w.kv("metg_us", metg_us);
}

/// Times the four model-building layers separately on a fresh kernel.
void layer_setup(JsonWriter& w, const Workload& wl, const EvalConfig& cfg,
                 std::span<const Vec3> src, std::span<const Vec3> tgt) {
  auto k = make_kernel(wl.kernel);
  Timer t;
  const DualTree dt = build_dual_tree(src, tgt, cfg.threshold, cfg.localities);
  w.kv("tree_build_s", t.seconds());
  t.reset();
  k->setup(dt.source.domain().size,
           std::max(dt.source.max_level(), dt.target.max_level()) + 1,
           cfg.digits);
  w.kv("kernel_setup_s", t.seconds());
  t.reset();
  const InteractionLists lists = build_lists(dt);
  w.kv("lists_build_s", t.seconds());
  t.reset();
  DagBuildConfig dcfg;
  dcfg.method = cfg.method;
  dcfg.placement = cfg.placement;
  const Dag dag = build_dag(dt, lists, *k, dcfg, cfg.localities);
  w.kv("dag_build_s", t.seconds());
  w.kv("dag_edges", static_cast<std::uint64_t>(dag.edges.size()));
}

/// Per-epoch samples of the steady loop.  Epochs that threw carry no
/// timing and are left out; they still count as failed.
struct Samples {
  std::vector<double> eval_s, update_s, dirty_leaves, rebuilt, reset_s,
      gas_allocs, parcels, batches, bytes, flush_deadline;

  void add(const Epoch& e, bool churn) {
    if (!e.timed) return;
    eval_s.push_back(e.eval_s);
    if (churn) {
      update_s.push_back(e.update_s);
      dirty_leaves.push_back(static_cast<double>(e.update.dirty_leaves));
      rebuilt.push_back(e.update.rebuilt ? 1.0 : 0.0);
    }
    reset_s.push_back(e.reset_s);
    gas_allocs.push_back(static_cast<double>(e.gas_allocs));
    parcels.push_back(static_cast<double>(e.comm.parcels));
    batches.push_back(static_cast<double>(e.comm.batches));
    bytes.push_back(static_cast<double>(e.comm.bytes));
    flush_deadline.push_back(static_cast<double>(e.comm.flush_deadline));
  }

  void write(JsonWriter& w) const {
    put_array(w, "eval_s", eval_s);
    put_array(w, "update_s", update_s);
    put_array(w, "dirty_leaves", dirty_leaves);
    put_array(w, "rebuilt", rebuilt);
    put_array(w, "reset_s", reset_s);
    put_array(w, "gas_allocs", gas_allocs);
    put_array(w, "parcels", parcels);
    put_array(w, "batches", batches);
    put_array(w, "bytes", bytes);
    put_array(w, "flush_deadline", flush_deadline);
  }
};

int run(int argc, char** argv) {
  Cli cli("Resident EvalPipeline benchmark driver (one workload, one seed)");
  cli.add_flag("workload", std::string(), "laplace-adv | laplace-basic | "
                                          "counting-churn");
  cli.add_flag("seed", std::int64_t{1}, "input seed");
  cli.add_flag("seconds", 10.0, "length of the timed closed loop");
  cli.add_flag("trace", std::int64_t{0}, "1: per-layer traced run");
  cli.parse(argc, argv);

  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cli.str("workload") == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", cli.str("workload").c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(cli.i64("seed"));
  const double seconds = cli.f64("seconds");
  const bool traced = cli.i64("trace") != 0;
  const int setups = traced ? 1 : kSetups;

  Rng rs = stream(seed, 1), rt = stream(seed, 2);
  std::vector<Vec3> sources = generate_points(Distribution::kCube, wl->n, rs);
  const std::vector<Vec3> targets =
      generate_points(Distribution::kCube, wl->n, rt);

  EvalConfig cfg;
  cfg.method = wl->method;
  cfg.threshold = kThreshold;
  cfg.digits = kDigits;
  cfg.localities = kLocalities;
  cfg.cores_per_locality = kCoresPerLocality;
  cfg.coalesce.enabled = true;
  cfg.seed = seed;

  JsonWriter w;
  w.begin_object();
  w.kv("workload", wl->name);
  w.kv("seed", seed);
  w.kv("trace", traced);
  w.kv("workers", kLocalities * kCoresPerLocality);
  if (traced) {
    w.key("layers");
    w.begin_object();
    layer_setup(w, *wl, cfg, sources, targets);
    w.end_object();
  }

  // Set-up: time whole constructions; the last pipeline stays resident.
  auto kernel = make_kernel(wl->kernel);
  std::unique_ptr<EvalPipeline> pipe;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    pipe.reset();
    Timer t;
    pipe = std::make_unique<EvalPipeline>(*kernel, cfg, sources, targets);
    setup_s.push_back(t.seconds());
  }
  put_array(w, "setup_s", setup_s);

  Loop loop(*wl, seed, *pipe, sources, targets);
  const Epoch first = loop.step(false);
  w.kv("first_epoch_s", first.eval_s);

  // Steady closed loop, untraced.  At least three epochs per phase.
  Samples steady;
  const double untraced_s = traced ? 0.5 * seconds : seconds;
  Timer phase;
  double rss_mb = 0.0;
  for (std::size_t n = 1; n <= 3 || phase.seconds() < untraced_s; ++n) {
    steady.add(loop.step(true), wl->churn);
    if (n == kRssEpochs) rss_mb = peak_rss_mb();
  }
  steady.write(w);

  if (traced) {
    // Traced phase: the same loop with the trace sink and the counter
    // registry on.  Operator spans are summed per epoch, then dropped.
    Executor& ex = pipe->executor();
    ex.trace().set_enabled(true);
    ex.counters().set_enabled(true);
    const CounterSnapshot before = ex.counters().snapshot();
    // Workers park between epochs too.  Parks are counted only when they
    // begin with counters on, and end when the next epoch wakes them, so
    // the gaps between consecutive traced epochs are subtracted from the
    // parked time to leave the idle time inside epochs.
    std::vector<double> traced_eval_s, op_busy_s;
    double gaps_s = 0.0, prev_t1 = -1.0;
    phase.reset();
    for (std::size_t n = 1; n <= 3 || phase.seconds() < 0.5 * seconds; ++n) {
      const Epoch e = loop.step(true);
      double busy = 0.0;
      for (const TraceEvent& ev : ex.trace().collect()) {
        if (ev.cls < kNumOperators) busy += ev.t1 - ev.t0;
      }
      ex.trace().clear();
      if (!e.timed) continue;
      traced_eval_s.push_back(e.eval_s);
      op_busy_s.push_back(busy);
      if (prev_t1 >= 0.0) gaps_s += e.t0 - prev_t1;
      prev_t1 = e.t1;
    }
    const CounterSnapshot after = ex.counters().snapshot();
    ex.trace().set_enabled(false);
    ex.counters().set_enabled(false);
    put_array(w, "traced_eval_s", traced_eval_s);
    put_array(w, "op_busy_s", op_busy_s);

    w.key("counters");
    w.begin_object();
    w.kv("sched.tasks_run",
         after.value("sched.tasks_run") - before.value("sched.tasks_run"));
    const double parked_s = 1e-6 * static_cast<double>(
        after.value("sched.park_time_us") - before.value("sched.park_time_us"));
    w.kv("idle_worker_s",
         std::max(0.0, parked_s - ex.total_workers() * gaps_s));
    w.kv("lco.input_wait_p50_us",
         histogram_quantile(
             histogram_delta(before, after, "lco.input_wait_us"), 0.5));
    w.end_object();

    replay_kernels(w, *kernel, pipe->model(), seed);
    pipe.reset();
    w.key("probes");
    w.begin_object();
    runtime_probes(w, cfg);
    w.end_object();
  }
  pipe.reset();

  w.kv("attempted", loop.attempted());
  w.kv("failed", loop.failed());
  w.kv("rel_l2_err", loop.max_rel_err());
  w.kv("peak_rss_mb", rss_mb > 0.0 ? rss_mb : peak_rss_mb());
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fmmbench_driver: %s\n", e.what());
    return 2;
  }
}
