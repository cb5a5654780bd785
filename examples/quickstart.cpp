// Quickstart: evaluate the Coulomb potential of 20k random charges at 20k
// target points with the advanced (merge-and-shift) FMM, and check the
// result against direct summation on a sample.
//
//   ./examples/quickstart [--n 20000] [--kernel laplace] [--method fmm-advanced]

#include <cstdio>

#include "core/evaluator.hpp"
#include "geom/distributions.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"

using namespace amtfmm;

int main(int argc, char** argv) {
  Cli cli("quickstart: evaluate an N-body potential with the AMT-based FMM");
  cli.add_flag("n", static_cast<std::int64_t>(20000), "number of sources/targets");
  cli.add_flag("kernel", std::string("laplace"), "laplace|yukawa");
  cli.add_flag("method", std::string("fmm-advanced"), "fmm|fmm-advanced|bh");
  cli.add_flag("threshold", static_cast<std::int64_t>(60), "refinement threshold");
  cli.parse(argc, argv);
  const auto n = static_cast<std::size_t>(cli.i64("n"));

  // 1. Make some data: sources and targets both uniform in the unit cube,
  //    drawn independently (a "distinct ensembles" dual-tree problem).
  Rng rng(42);
  const auto sources = generate_points(Distribution::kCube, n, rng);
  const auto targets = generate_points(Distribution::kCube, n, rng);
  const auto charges = generate_charges(n, rng, 0.1, 1.0);

  // 2. Configure the evaluator.  The kernel, method, accuracy, and the
  //    execution substrate are all plain parameters; no runtime knowledge
  //    is needed (the DASHMM design goal).
  EvalConfig cfg;
  cfg.method = parse_method(cli.str("method"));
  cfg.threshold = static_cast<int>(cli.i64("threshold"));
  cfg.digits = 3;
  cfg.localities = 2;          // two logical localities in this process
  cfg.cores_per_locality = 2;  // each with two scheduler threads
  Evaluator evaluator(make_kernel(cli.str("kernel"), /*yukawa_lambda=*/1.0),
                      cfg);

  // 3. Evaluate.
  Timer timer;
  const EvalResult result = evaluator.evaluate(sources, charges, targets);
  std::printf("evaluated %zu potentials in %.3f s "
              "(setup %.3f s, DAG evaluation %.3f s)\n",
              n, timer.seconds(), result.setup_time, result.makespan);
  std::printf("DAG: %zu nodes, %zu edges; %llu parcels, %.2f MB between "
              "localities\n",
              result.dag.total_nodes, result.dag.total_edges,
              static_cast<unsigned long long>(result.comm.parcels),
              static_cast<double>(result.comm.bytes) / 1e6);

  // 4. Verify a sample against direct summation.
  const std::size_t sample = std::min<std::size_t>(200, n);
  std::vector<Vec3> probe(targets.begin(),
                          targets.begin() + static_cast<long>(sample));
  const auto exact = direct_sum(evaluator.kernel(), sources, charges, probe);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < sample; ++i) {
    num += (result.potentials[i] - exact[i]) * (result.potentials[i] - exact[i]);
    den += exact[i] * exact[i];
  }
  std::printf("relative L2 error on a %zu-target sample: %.2e "
              "(3-digit accuracy requested)\n",
              sample, std::sqrt(num / den));
  return 0;
}
