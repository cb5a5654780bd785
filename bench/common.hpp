#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "core/evaluator.hpp"
#include "geom/distributions.hpp"
#include "runtime/trace_export.hpp"
#include "support/cli.hpp"

namespace amtfmm::bench {

/// Source and target ensembles as in the paper's runs: same size, distinct
/// (different draws), same distribution type.
struct Ensembles {
  std::vector<Vec3> sources;
  std::vector<Vec3> targets;
  std::vector<double> charges;
};

inline Ensembles make_ensembles(Distribution d, std::size_t n,
                                std::uint64_t seed) {
  Rng rs(seed), rt(seed + 1000), rq(seed + 2000);
  Ensembles e;
  e.sources = generate_points(d, n, rs);
  e.targets = generate_points(d, n, rt);
  e.charges = generate_charges(n, rq, 0.1, 1.0);
  return e;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Formats a byte range like the paper's tables ("32-1920" or "880").
inline std::string byte_range(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) return "-";  // empty class
  if (lo == hi) return std::to_string(lo);
  return std::to_string(lo) + "-" + std::to_string(hi);
}

/// Collects the hard failures of a self-checking bench mode: each prints
/// one "<tag> FAIL: ..." line, and the mode exits 1 when any fired.
struct Gate {
  const char* tag;
  bool ok = true;

  [[gnu::format(printf, 2, 3)]] void fail(const char* fmt, ...) {
    std::va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "%s FAIL: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
    ok = false;
  }
};

/// Registers the shared `--trace-out=FILE` flag.
inline void add_trace_out_flag(Cli& cli) {
  cli.add_flag("trace-out", std::string(),
               "write a Chrome/Perfetto trace of the run to FILE");
}

/// Exports a run as a Chrome trace when `--trace-out` was given: a
/// SimResult in virtual time, or an EvalResult from the threaded executor
/// in wall time.  Returns false only when the flag was set and the export
/// failed.
template <class Result>
inline bool export_trace_if_requested(const Cli& cli, const Result& r,
                                      int cores_per_locality) {
  const std::string path = cli.str("trace-out");
  if (path.empty()) return true;
  ChromeTraceOptions opt;
  opt.cores_per_locality = cores_per_locality;
  if constexpr (std::is_same_v<Result, SimResult>) {
    opt.makespan = r.virtual_time;
    opt.sim = true;
  } else {
    opt.makespan = r.makespan;
  }
  opt.dag_edges = r.dag_edges;
  opt.counters = r.counters.empty() ? nullptr : &r.counters;
  const bool ok = trace_export_chrome(path, r.trace, opt);
  std::printf(ok ? "\ntrace written to %s (open in ui.perfetto.dev or run "
                   "tools/trace_report)\n"
                 : "\nERROR: could not write trace to %s\n",
              path.c_str());
  return ok;
}

}  // namespace amtfmm::bench
