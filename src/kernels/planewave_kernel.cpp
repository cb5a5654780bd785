#include "kernels/planewave_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "math/special.hpp"
#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {

cdouble minus_i_pow(int m) {
  switch (((m % 4) + 4) & 3) {
    case 0: return {1.0, 0.0};
    case 1: return {0.0, -1.0};
    case 2: return {-1.0, 0.0};
    default: return {0.0, 1.0};
  }
}

void PlaneWaveKernel::setup_planewave(PlaneWaveSpec spec) {
  AMTFMM_ASSERT(!spec.levels.empty() && (spec.local_sign == 1 ||
                                         spec.local_sign == -1));
  pw_ = std::move(spec);
  for (std::size_t d = 0; d < kAllAxes.size(); ++d) {
    const Mat3 q = axis_to_z(kAllAxes[d]);
    fwd_[d] = AngularTransform(pw_.p, q);
    inv_[d] = AngularTransform(pw_.p, q.transpose());
  }
}

int PlaneWaveKernel::clamp_level(int level) const {
  return std::clamp(level, 0, pw_.max_level);
}

const PlaneWaveSpec::Tables& PlaneWaveKernel::tables(int level) const {
  const auto l = static_cast<std::size_t>(clamp_level(level));
  return pw_.levels[std::min(l, pw_.levels.size() - 1)];
}

std::size_t PlaneWaveKernel::x_count(int level) const {
  if (pw_.levels.empty()) return 0;  // not set up yet
  return tables(level).quad.total;
}

void PlaneWaveKernel::m2i(const CoeffVec& m, int level, Axis d,
                          CoeffVec& out) const {
  const PlaneWaveSpec::Tables& t = tables(level);
  const PlaneWaveQuadrature& quad = t.quad;
  out.assign(quad.total, cdouble{});
  if (quad.count == 0) return;
  // The Sommerfeld identity is discretized in box units; converting the
  // kernel back to physical units costs one 1/box_size.
  const double inv_w =
      1.0 / (pw_.domain_size / static_cast<double>(1u << clamp_level(level)));
  const int p = pw_.p;
  const auto P = static_cast<std::size_t>(p);
  const std::size_t stride = tri_index(p, p) + 1;
  auto& arena = ScratchArena::local();
  auto mrot_lease = arena.coeffs();
  auto g_lease = arena.coeffs();
  CoeffVec& mrot = *mrot_lease;
  CoeffVec& g = *g_lease;
  fwd_[static_cast<std::size_t>(d)].apply(m, pw_.m2i_weight, 1, mrot);
  g.assign(2 * P + 1, cdouble{});
  for (std::size_t k = 0; k < static_cast<std::size_t>(quad.count); ++k) {
    // G(k, mm) = phase_mm sum_{n >= |mm|} R_k(n, |mm|) Mrot_n^mm
    const double* radial = t.m2i_radial.data() + k * stride;
    for (int mm = -p; mm <= p; ++mm) {
      const int am = std::abs(mm);
      cdouble acc{};
      for (int n = am; n <= p; ++n) {
        acc += radial[tri_index(n, am)] * mrot[sq_index(n, mm)];
      }
      g[static_cast<std::size_t>(mm + p)] =
          acc * pw_.phase[static_cast<std::size_t>(mm + p)];
    }
    const int mk = quad.m_count[k];
    const std::size_t off = quad.offset[k];
    const double wk = inv_w * quad.weight[k] / mk;
    for (std::size_t j = off; j < off + static_cast<std::size_t>(mk); ++j) {
      // sum_m g_m e^{i m alpha_j} via incremental powers
      const cdouble e{quad.cos_alpha[j], quad.sin_alpha[j]};
      cdouble acc = g[P];
      cdouble ep{1.0, 0.0};
      for (std::size_t mm = 1; mm <= P; ++mm) {
        ep *= e;
        acc += g[P + mm] * ep + g[P - mm] * std::conj(ep);
      }
      out[j] = wk * acc;
    }
  }
}

void PlaneWaveKernel::i2i_acc(const CoeffVec& in, Axis d, const Vec3& offset,
                              int level, CoeffVec& inout) const {
  const PlaneWaveQuadrature& quad = tables(level).quad;
  if (quad.count == 0) return;
  const double w =
      pw_.domain_size / static_cast<double>(1u << clamp_level(level));
  const Vec3 o = axis_to_z(d) * offset;  // rotated-frame offset
  // Merge legs ascend the cone; the parent->child shift leg may step back
  // by up to half a (parent) box.  The composed source->target translation
  // always lands in the valid z in [1,4] range.
  AMTFMM_ASSERT_MSG(o.z / w > -1.01, "I->I translation leaves the cone");
  const double dz = o.z / w, dx = o.x / w, dy = o.y / w;
  for (std::size_t k = 0; k < static_cast<std::size_t>(quad.count); ++k) {
    const double lam = quad.lambda[k];
    const double damp = std::exp(-quad.mu[k] * dz);
    const std::size_t off = quad.offset[k];
    const auto mk = static_cast<std::size_t>(quad.m_count[k]);
    for (std::size_t j = off; j < off + mk; ++j) {
      const double phase =
          lam * (dx * quad.cos_alpha[j] + dy * quad.sin_alpha[j]);
      inout[j] += in[j] * damp * cdouble{std::cos(phase), std::sin(phase)};
    }
  }
}

void PlaneWaveKernel::i2l_acc(const CoeffVec& in, Axis d, int level,
                              CoeffVec& inout) const {
  const PlaneWaveSpec::Tables& t = tables(level);
  const PlaneWaveQuadrature& quad = t.quad;
  if (quad.count == 0) return;
  const int p = pw_.p;
  const auto P = static_cast<std::size_t>(p);
  const std::size_t stride = tri_index(p, p) + 1;
  auto& arena = ScratchArena::local();
  auto lrot_lease = arena.coeffs();
  auto f_lease = arena.coeffs();
  auto lback_lease = arena.coeffs();
  CoeffVec& lrot = *lrot_lease;
  CoeffVec& f = *f_lease;
  CoeffVec& lback = *lback_lease;
  lrot.assign(sq_count(p), cdouble{});
  f.assign(2 * P + 1, cdouble{});
  for (std::size_t k = 0; k < static_cast<std::size_t>(quad.count); ++k) {
    // F(k, m) = sum_j W(k, j) e^{i m alpha_j}
    std::fill(f.begin(), f.end(), cdouble{});
    const std::size_t off = quad.offset[k];
    const auto mk = static_cast<std::size_t>(quad.m_count[k]);
    for (std::size_t j = off; j < off + mk; ++j) {
      const cdouble wkj = in[j];
      const cdouble e{quad.cos_alpha[j], quad.sin_alpha[j]};
      f[P] += wkj;
      cdouble ep{1.0, 0.0};
      for (std::size_t mm = 1; mm <= P; ++mm) {
        ep *= e;
        f[P + mm] += wkj * ep;
        f[P - mm] += wkj * std::conj(ep);
      }
    }
    const double* radial = t.i2l_radial.data() + k * stride;
    for (int n = 0; n <= p; ++n) {
      for (int mm = -n; mm <= n; ++mm) {
        lrot[sq_index(n, mm)] +=
            radial[tri_index(n, std::abs(mm))] *
            pw_.phase[static_cast<std::size_t>(mm + p)] *
            f[static_cast<std::size_t>(p - pw_.local_sign * mm)];
      }
    }
  }
  inv_[static_cast<std::size_t>(d)].apply(lrot, pw_.i2l_weight, pw_.local_sign,
                                          lback);
  for (std::size_t i = 0; i < lback.size(); ++i) inout[i] += lback[i];
}

}  // namespace amtfmm
