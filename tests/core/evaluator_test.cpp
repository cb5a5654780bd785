#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.hpp"
#include "geom/distributions.hpp"

namespace amtfmm {
namespace {

double rel_l2_error(std::span<const double> got, std::span<const double> ref) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num += (got[i] - ref[i]) * (got[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

struct AccuracyCase {
  const char* kernel;
  Method method;
  Distribution dist;
  Vec3 offset;
  double tolerance;
  int digits = 3;
  /// Zero-mean charges drawn from [-1, 1] instead of all-positive ones.
  bool signed_charges = false;
  std::size_t n = 2500;
};

/// Deterministic parameter printer: the default one dumps raw bytes, which
/// include the kernel-name pointer and change under ASLR, breaking ctest's
/// discovered test names.
void PrintTo(const AccuracyCase& c, std::ostream* os) {
  *os << c.kernel << "_" << to_string(c.method) << "_" << to_string(c.dist)
      << "_off" << c.offset.x;
  if (c.signed_charges) *os << "_signed_d" << c.digits;
}

class EvaluatorAccuracy : public ::testing::TestWithParam<AccuracyCase> {
 protected:
  static double error(const AccuracyCase& c) {
    Rng rng(123);
    const auto src = generate_points(c.dist, c.n, rng);
    const auto tgt = generate_points(c.dist, c.n, rng, c.offset);
    auto q = c.signed_charges ? generate_charges(c.n, rng, -1.0, 1.0)
                              : generate_charges(c.n, rng, 0.1, 1.0);
    if (c.signed_charges) {
      double mean = 0.0;
      for (double v : q) mean += v;
      mean /= static_cast<double>(c.n);
      for (double& v : q) v -= mean;
    }

    EvalConfig cfg;
    cfg.method = c.method;
    cfg.digits = c.digits;
    cfg.threshold = 40;
    cfg.localities = 2;
    cfg.cores_per_locality = 2;
    Evaluator eval(make_kernel(c.kernel, /*yukawa_lambda=*/2.0), cfg);
    const EvalResult r = eval.evaluate(src, q, tgt);
    const auto ref = direct_sum(eval.kernel(), src, q, tgt);
    return rel_l2_error(r.potentials, ref);
  }
};

TEST_P(EvaluatorAccuracy, MatchesDirectSummationToThreeDigits) {
  const AccuracyCase c = GetParam();
  EXPECT_LT(error(c), c.tolerance) << c.kernel << " " << to_string(c.method);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EvaluatorAccuracy,
    ::testing::Values(
        AccuracyCase{"laplace", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 1e-3},
        AccuracyCase{"laplace", Method::kFmmAdvanced, Distribution::kSphere, {0, 0, 0}, 1e-3},
        AccuracyCase{"laplace", Method::kFmmBasic, Distribution::kCube, {0, 0, 0}, 1e-3},
        AccuracyCase{"laplace", Method::kBarnesHut, Distribution::kCube, {0, 0, 0}, 2e-3},
        AccuracyCase{"laplace", Method::kFmmAdvanced, Distribution::kCube, {0.6, 0.2, 0.1}, 1e-3},
        AccuracyCase{"yukawa", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 2e-3},
        AccuracyCase{"yukawa", Method::kFmmAdvanced, Distribution::kSphere, {0, 0, 0}, 2e-3},
        AccuracyCase{"yukawa", Method::kFmmBasic, Distribution::kCube, {0, 0, 0}, 2e-3}));

/// The accuracy contract: requested digits d bound the relative error by
/// 10^-d.  With all-positive charges the far field is dominated by the
/// monopole and the error sits orders of magnitude below the request, so
/// these cases use zero-mean charges, whose cancellation exposes a
/// too-short expansion or quadrature.
class EvaluatorRequestedDigits : public EvaluatorAccuracy {};

TEST_P(EvaluatorRequestedDigits, ErrorWithinRequestedDigits) {
  const AccuracyCase c = GetParam();
  EXPECT_LT(error(c), c.tolerance)
      << c.kernel << " " << to_string(c.method) << " " << c.digits
      << " digits";
}

INSTANTIATE_TEST_SUITE_P(
    SignedCharges, EvaluatorRequestedDigits,
    ::testing::Values(
        AccuracyCase{"laplace", Method::kFmmBasic, Distribution::kCube, {0, 0, 0}, 1e-3, 3, true},
        AccuracyCase{"laplace", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 1e-3, 3, true},
        AccuracyCase{"yukawa", Method::kFmmBasic, Distribution::kCube, {0, 0, 0}, 1e-3, 3, true},
        AccuracyCase{"yukawa", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 1e-3, 3, true},
        AccuracyCase{"laplace", Method::kFmmBasic, Distribution::kCube, {0, 0, 0}, 1e-6, 6, true, 1500},
        AccuracyCase{"laplace", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 1e-6, 6, true, 1500},
        AccuracyCase{"yukawa", Method::kFmmBasic, Distribution::kCube, {0, 0, 0}, 1e-6, 6, true, 1500},
        AccuracyCase{"yukawa", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 1e-6, 6, true, 1500}));

TEST(Evaluator, MultiLocalityMatchesSingleLocality) {
  Rng rng(9);
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);

  EvalConfig one;
  one.localities = 1;
  one.cores_per_locality = 1;
  one.threshold = 30;
  Evaluator e1(make_kernel("laplace"), one);
  const auto r1 = e1.evaluate(src, q, tgt);

  EvalConfig many = one;
  many.localities = 4;
  many.cores_per_locality = 2;
  Evaluator e4(make_kernel("laplace"), many);
  const auto r4 = e4.evaluate(src, q, tgt);
  ASSERT_GT(r4.comm.parcels, 0u) << "4 localities must exchange parcels";

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r1.potentials[i], r4.potentials[i],
                1e-9 * std::abs(r1.potentials[i]) + 1e-12);
  }
}

TEST(Evaluator, PriorityModeIsNumericallyIdentical) {
  Rng rng(10);
  const std::size_t n = 2000;
  const auto src = generate_points(Distribution::kSphere, n, rng);
  const auto tgt = generate_points(Distribution::kSphere, n, rng);
  const auto q = generate_charges(n, rng);
  EvalConfig cfg;
  cfg.threshold = 25;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  Evaluator plain(make_kernel("laplace"), cfg);
  cfg.policy = SchedPolicy::kPriority;
  Evaluator prio(make_kernel("laplace"), cfg);
  const auto a = plain.evaluate(src, q, tgt);
  const auto b = prio.evaluate(src, q, tgt);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(a.potentials[i], b.potentials[i],
                1e-9 * std::abs(a.potentials[i]) + 1e-12);
  }
}

TEST(Evaluator, TracingCollectsOperatorEvents) {
  Rng rng(4);
  const std::size_t n = 2000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);
  EvalConfig cfg;
  cfg.trace = true;
  cfg.threshold = 40;
  Evaluator eval(make_kernel("laplace"), cfg);
  const auto r = eval.evaluate(src, q, tgt);
  EXPECT_FALSE(r.trace.empty());
  bool saw_s2m = false, saw_i2i = false;
  for (const auto& e : r.trace) {
    if (e.cls == static_cast<std::uint8_t>(Operator::kS2M)) saw_s2m = true;
    if (e.cls == static_cast<std::uint8_t>(Operator::kI2I)) saw_i2i = true;
  }
  EXPECT_TRUE(saw_s2m);
  EXPECT_TRUE(saw_i2i);
}

TEST(Evaluator, SimulatedEvaluationScalesWithCores) {
  Rng rng(21);
  const std::size_t n = 30000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);

  EvalConfig cfg;
  Evaluator eval(make_kernel("counting"), cfg);
  SimConfig sim;
  sim.cost = CostModel::paper("laplace");
  sim.localities = 1;
  sim.cores_per_locality = 32;
  const SimResult r32 = eval.simulate(src, tgt, sim);
  sim.localities = 4;
  const SimResult r128 = eval.simulate(src, tgt, sim);
  EXPECT_GT(r32.virtual_time, 0.0);
  EXPECT_LT(r128.virtual_time, r32.virtual_time)
      << "more cores must not be slower";
  const double speedup = r32.virtual_time / r128.virtual_time;
  EXPECT_GT(speedup, 1.5);
  EXPECT_LE(speedup, 4.3);
  EXPECT_GT(r128.comm.bytes, 0u);
}

TEST(Evaluator, RejectsBadConfiguration) {
  EvalConfig cfg;
  cfg.threshold = 0;
  EXPECT_THROW(Evaluator(make_kernel("laplace"), cfg), config_error);
}

}  // namespace
}  // namespace amtfmm
