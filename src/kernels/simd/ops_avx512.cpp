// AVX-512F (8-wide double) variants of the batch kernels.  Same contract
// as ops_avx2.cpp, but the tail path uses native mask registers, 1/sqrt
// starts from the 14-bit vrsqrt14pd estimate (full double domain — no
// float round trip, so no range guard is needed), and 2^k scaling goes
// through vscalefpd.

// GCC 12 warns "'__Y' may be used uninitialized" inside avx512fintrin.h,
// whose intrinsics seed an unused operand from _mm512_undefined_pd() by
// design: a false positive, silenced for GCC in this file only, before the
// header because the reported location is in it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "kernels/simd/ops.hpp"

namespace amtfmm::simd {

#if defined(__x86_64__) || defined(__i386__)

#define AMTFMM_AVX512 __attribute__((target("avx512f")))

namespace {

/// 1/sqrt(r2): 14-bit estimate plus two Newton iterations (14 -> 28 -> 56
/// bits, past the 53-bit double mantissa).  r2 == 0 lanes come out inf;
/// callers mask them.
AMTFMM_AVX512 inline __m512d rsqrt_nr(__m512d r2) {
  __m512d y = _mm512_rsqrt14_pd(r2);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d three_half = _mm512_set1_pd(1.5);
  for (int it = 0; it < 2; ++it) {
    const __m512d t = _mm512_mul_pd(_mm512_mul_pd(r2, y), y);
    y = _mm512_mul_pd(y, _mm512_fnmadd_pd(half, t, three_half));
  }
  return y;
}

/// e^x — the same Cephes rational as the AVX2 variant; 2^k via scalef.
AMTFMM_AVX512 inline __m512d exp_pd(__m512d x) {
  const __m512d hi = _mm512_set1_pd(709.437);
  const __m512d lo = _mm512_set1_pd(-709.436139303);
  const __m512d log2e = _mm512_set1_pd(1.4426950408889634073599);
  const __m512d c1 = _mm512_set1_pd(0.693145751953125);
  const __m512d c2 = _mm512_set1_pd(1.42860682030941723212e-6);
  const __m512d p0 = _mm512_set1_pd(1.26177193074810590878e-4);
  const __m512d p1 = _mm512_set1_pd(3.02994407707441961300e-2);
  const __m512d p2 = _mm512_set1_pd(9.99999999999999999910e-1);
  const __m512d q0 = _mm512_set1_pd(3.00198505138664455042e-6);
  const __m512d q1 = _mm512_set1_pd(2.52448340349684104192e-3);
  const __m512d q2 = _mm512_set1_pd(2.27265548208155028766e-1);
  const __m512d q3 = _mm512_set1_pd(2.00000000000000000005e0);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d half = _mm512_set1_pd(0.5);

  x = _mm512_min_pd(_mm512_max_pd(x, lo), hi);
  const __m512d fx = _mm512_floor_pd(_mm512_fmadd_pd(x, log2e, half));
  x = _mm512_fnmadd_pd(fx, c1, x);
  x = _mm512_fnmadd_pd(fx, c2, x);
  const __m512d x2 = _mm512_mul_pd(x, x);
  __m512d px = _mm512_fmadd_pd(p0, x2, p1);
  px = _mm512_fmadd_pd(px, x2, p2);
  px = _mm512_mul_pd(px, x);
  __m512d qx = _mm512_fmadd_pd(q0, x2, q1);
  qx = _mm512_fmadd_pd(qx, x2, q2);
  qx = _mm512_fmadd_pd(qx, x2, q3);
  __m512d e = _mm512_div_pd(px, _mm512_sub_pd(qx, px));
  e = _mm512_fmadd_pd(e, _mm512_set1_pd(2.0), one);
  return _mm512_scalef_pd(e, fx);  // e * 2^fx (fx already integral)
}

template <bool Grad>
AMTFMM_AVX512 void laplace_impl(const P2PBatch& b) {
  const __m512d zero = _mm512_setzero_pd();
  for (std::size_t i = 0; i < b.nt; ++i) {
    const __m512d vtx = _mm512_set1_pd(b.tx[i]);
    const __m512d vty = _mm512_set1_pd(b.ty[i]);
    const __m512d vtz = _mm512_set1_pd(b.tz[i]);
    __m512d phi = zero, ax = zero, ay = zero, az = zero;
    for (std::size_t j = 0; j < b.ns; j += 8) {
      const std::size_t rem = b.ns - j;
      const __mmask8 m =
          rem >= 8 ? static_cast<__mmask8>(0xff)
                   : static_cast<__mmask8>((1u << rem) - 1u);
      const __m512d xj = _mm512_maskz_loadu_pd(m, b.sx + j);
      const __m512d yj = _mm512_maskz_loadu_pd(m, b.sy + j);
      const __m512d zj = _mm512_maskz_loadu_pd(m, b.sz + j);
      const __m512d qj = _mm512_maskz_loadu_pd(m, b.sq + j);
      const __m512d dx = _mm512_sub_pd(vtx, xj);
      const __m512d dy = _mm512_sub_pd(vty, yj);
      const __m512d dz = _mm512_sub_pd(vtz, zj);
      __m512d r2 = _mm512_mul_pd(dx, dx);
      r2 = _mm512_fmadd_pd(dy, dy, r2);
      r2 = _mm512_fmadd_pd(dz, dz, r2);
      const __mmask8 nz = _mm512_cmp_pd_mask(r2, zero, _CMP_NEQ_OQ);
      const __m512d inv_r = _mm512_maskz_mov_pd(nz, rsqrt_nr(r2));
      phi = _mm512_fmadd_pd(qj, inv_r, phi);
      if constexpr (Grad) {
        const __m512d inv_r3 =
            _mm512_mul_pd(_mm512_mul_pd(inv_r, inv_r), inv_r);
        const __m512d w = _mm512_mul_pd(qj, inv_r3);
        ax = _mm512_fnmadd_pd(w, dx, ax);
        ay = _mm512_fnmadd_pd(w, dy, ay);
        az = _mm512_fnmadd_pd(w, dz, az);
      }
    }
    b.phi[i] += _mm512_reduce_add_pd(phi);
    if constexpr (Grad) {
      b.ax[i] += _mm512_reduce_add_pd(ax);
      b.ay[i] += _mm512_reduce_add_pd(ay);
      b.az[i] += _mm512_reduce_add_pd(az);
    }
  }
}

AMTFMM_AVX512 void laplace(const P2PBatch& b) {
  if (b.ax != nullptr) {
    laplace_impl<true>(b);
  } else {
    laplace_impl<false>(b);
  }
}

template <bool Grad>
AMTFMM_AVX512 void yukawa_impl(const P2PBatch& b, double kappa) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d vk = _mm512_set1_pd(kappa);
  const __m512d one = _mm512_set1_pd(1.0);
  for (std::size_t i = 0; i < b.nt; ++i) {
    const __m512d vtx = _mm512_set1_pd(b.tx[i]);
    const __m512d vty = _mm512_set1_pd(b.ty[i]);
    const __m512d vtz = _mm512_set1_pd(b.tz[i]);
    __m512d phi = zero, ax = zero, ay = zero, az = zero;
    for (std::size_t j = 0; j < b.ns; j += 8) {
      const std::size_t rem = b.ns - j;
      const __mmask8 m =
          rem >= 8 ? static_cast<__mmask8>(0xff)
                   : static_cast<__mmask8>((1u << rem) - 1u);
      const __m512d xj = _mm512_maskz_loadu_pd(m, b.sx + j);
      const __m512d yj = _mm512_maskz_loadu_pd(m, b.sy + j);
      const __m512d zj = _mm512_maskz_loadu_pd(m, b.sz + j);
      const __m512d qj = _mm512_maskz_loadu_pd(m, b.sq + j);
      const __m512d dx = _mm512_sub_pd(vtx, xj);
      const __m512d dy = _mm512_sub_pd(vty, yj);
      const __m512d dz = _mm512_sub_pd(vtz, zj);
      __m512d r2 = _mm512_mul_pd(dx, dx);
      r2 = _mm512_fmadd_pd(dy, dy, r2);
      r2 = _mm512_fmadd_pd(dz, dz, r2);
      const __mmask8 nz = _mm512_cmp_pd_mask(r2, zero, _CMP_NEQ_OQ);
      const __m512d inv_r = _mm512_maskz_mov_pd(nz, rsqrt_nr(r2));
      const __m512d kr = _mm512_mul_pd(vk, _mm512_mul_pd(r2, inv_r));
      const __m512d damp = exp_pd(_mm512_sub_pd(zero, kr));
      const __m512d e = _mm512_mul_pd(qj, _mm512_mul_pd(damp, inv_r));
      phi = _mm512_add_pd(phi, e);
      if constexpr (Grad) {
        const __m512d inv_r2 = _mm512_mul_pd(inv_r, inv_r);
        const __m512d w =
            _mm512_mul_pd(_mm512_add_pd(one, kr), _mm512_mul_pd(e, inv_r2));
        ax = _mm512_fnmadd_pd(w, dx, ax);
        ay = _mm512_fnmadd_pd(w, dy, ay);
        az = _mm512_fnmadd_pd(w, dz, az);
      }
    }
    b.phi[i] += _mm512_reduce_add_pd(phi);
    if constexpr (Grad) {
      b.ax[i] += _mm512_reduce_add_pd(ax);
      b.ay[i] += _mm512_reduce_add_pd(ay);
      b.az[i] += _mm512_reduce_add_pd(az);
    }
  }
}

AMTFMM_AVX512 void yukawa(const P2PBatch& b, double kappa) {
  if (b.ax != nullptr) {
    yukawa_impl<true>(b, kappa);
  } else {
    yukawa_impl<false>(b, kappa);
  }
}

AMTFMM_AVX512 void zaxpy_avx512(std::complex<double> a,
                                const std::complex<double>* x,
                                std::complex<double>* y, std::size_t n) {
  const __m512d vre = _mm512_set1_pd(a.real());
  const __m512d vim = _mm512_set1_pd(a.imag());
  const double* px = reinterpret_cast<const double*>(x);
  double* py = reinterpret_cast<double*>(y);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d xv = _mm512_loadu_pd(px + 2 * i);
    const __m512d xs = _mm512_permute_pd(xv, 0x55);  // swap re/im per pair
    const __m512d t = _mm512_mul_pd(xs, vim);
    const __m512d r = _mm512_fmaddsub_pd(xv, vre, t);
    _mm512_storeu_pd(py + 2 * i,
                     _mm512_add_pd(_mm512_loadu_pd(py + 2 * i), r));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

AMTFMM_AVX512 std::complex<double> zrdot_avx512(const std::complex<double>* x,
                                                const double* r,
                                                std::size_t n) {
  const double* px = reinterpret_cast<const double*>(x);
  const __m512i dup = _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0);
  __m512d acc = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m512d xv = _mm512_loadu_pd(px + 2 * i);
    // [r_i, r_i, r_{i+1}, r_{i+1}, ...]
    const __m512d rd = _mm512_permutexvar_pd(
        dup, _mm512_castpd256_pd512(_mm256_loadu_pd(r + i)));
    acc = _mm512_fmadd_pd(xv, rd, acc);
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, acc);
  double re = lanes[0] + lanes[2] + lanes[4] + lanes[6];
  double im = lanes[1] + lanes[3] + lanes[5] + lanes[7];
  for (; i < n; ++i) {
    re += x[i].real() * r[i];
    im += x[i].imag() * r[i];
  }
  return {re, im};
}

}  // namespace

const SimdOps& avx512_ops() {
  static const SimdOps ops{laplace, yukawa, zaxpy_avx512, zrdot_avx512};
  return ops;
}

#else  // non-x86: variant not compiled in

const SimdOps& avx512_ops() {
  static const SimdOps ops{};
  return ops;
}

#endif

}  // namespace amtfmm::simd
