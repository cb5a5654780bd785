#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "geom/distributions.hpp"

namespace amtfmm {
namespace {

/// The iterative use of section IV: build one resident pipeline, evaluate
/// the same DAG repeatedly with fresh charges.  Results must match the
/// one-shot path exactly, and the kernel math must be stateless across
/// evaluations.
TEST(IterativeUse, PreparedEvaluationsMatchOneShot) {
  Rng rng(41);
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);

  EvalConfig cfg;
  cfg.threshold = 30;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, cfg, src, tgt);

  for (int iter = 0; iter < 3; ++iter) {
    Rng qr(100 + static_cast<std::uint64_t>(iter));
    const auto q = generate_charges(n, qr);
    const EvalResult prepared = pipe.evaluate(q);

    Evaluator fresh(make_kernel("laplace"), cfg);
    const EvalResult oneshot = fresh.evaluate(src, q, tgt);
    ASSERT_EQ(prepared.potentials.size(), oneshot.potentials.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(prepared.potentials[i], oneshot.potentials[i],
                  1e-10 * std::abs(oneshot.potentials[i]) + 1e-13)
          << "iteration " << iter << " target " << i;
    }
  }
}

TEST(IterativeUse, LinearInCharges) {
  // Doubling every charge must exactly double every potential when the
  // same prepared DAG is reused (pure linear pipeline).
  Rng rng(43);
  const std::size_t n = 2500;
  const auto src = generate_points(Distribution::kSphere, n, rng);
  const auto tgt = generate_points(Distribution::kSphere, n, rng);
  const auto q = generate_charges(n, rng);
  std::vector<double> q2(q);
  for (auto& v : q2) v *= 2.0;

  EvalConfig cfg;
  cfg.threshold = 40;
  auto kernel = make_kernel("yukawa", 2.0);
  EvalPipeline pipe(*kernel, cfg, src, tgt);
  const auto r1 = pipe.evaluate(q);
  const auto r2 = pipe.evaluate(q2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r2.potentials[i], 2.0 * r1.potentials[i],
                1e-10 * std::abs(r1.potentials[i]) + 1e-13);
  }
}

}  // namespace
}  // namespace amtfmm
