#pragma once

#include <complex>
#include <cstddef>
#include <string_view>
#include <vector>

namespace amtfmm::simd {

/// Instruction-set variants of the batch kernels.  Every build carries the
/// scalar implementation; the wide variants are compiled with per-function
/// target attributes and selected at runtime, so one binary runs correctly
/// on any host.  Order is ascending preference: dispatch picks the last
/// supported entry.
enum class Isa { kScalar, kNeon, kAvx2, kAvx512 };

inline constexpr int kNumIsas = 4;

const char* to_string(Isa isa);

/// Parses an ISA name ("scalar", "neon", "avx2", "avx512").  Returns false
/// (and leaves `out` untouched) for unknown names.
bool parse_isa(std::string_view name, Isa& out);

/// Whether the variant is compiled in *and* the host CPU supports it.
/// kScalar is always supported.
bool isa_supported(Isa isa);

/// All supported ISAs in ascending preference order (always starts with
/// kScalar).  The parity tests iterate this to cover every variant the
/// host can run.
std::vector<Isa> supported_isas();

/// The ISA the batch kernels currently dispatch to.  On first use this is
/// initialized to the best supported ISA, unless the AMTFMM_FORCE_ISA
/// environment variable names a recognized ISA: a supported one is used
/// as-is, an unsupported one falls back to kScalar (conservative — a
/// "forced" run must never silently upgrade).  Unrecognized values warn on
/// stderr and keep auto-detection.
Isa active_isa();

/// Overrides the dispatch ISA at runtime (tests, benchmarks, the
/// micro_operators --kernel-sweep ISA loop).  Returns false and leaves the active ISA
/// unchanged when the variant is unsupported on this host.
bool set_active_isa(Isa isa);

/// One S->T (P2P) interaction batch in SoA form:
///   phi[i] += sum_j sq[j] * K(t_i, s_j)
/// and, when ax/ay/az are all non-null,
///   a*[i] += sum_j sq[j] * dK/dt*(t_i, s_j)   (the acceleration / force
///                                              per unit target charge).
/// Coincident pairs (t_i == s_j) contribute exactly zero to every output,
/// matching Kernel::direct / direct_grad.
///
/// All arrays are caller-owned; tx/ty/tz have nt entries, sx/sy/sz/sq have
/// ns entries.  No alignment is required for correctness (the wide kernels
/// use unaligned loads), but buffers staged from ScratchArena::soa() are
/// 64-byte aligned so vector loads never split cache lines.
struct P2PBatch {
  const double* tx = nullptr;
  const double* ty = nullptr;
  const double* tz = nullptr;
  std::size_t nt = 0;
  const double* sx = nullptr;
  const double* sy = nullptr;
  const double* sz = nullptr;
  const double* sq = nullptr;
  std::size_t ns = 0;
  double* phi = nullptr;
  double* ax = nullptr;
  double* ay = nullptr;
  double* az = nullptr;
};

/// Laplace near field: K(t, s) = 1/|t - s|.
void p2p_laplace(const P2PBatch& b);

/// Yukawa (screened Coulomb) near field: K(t, s) = e^{-kappa r}/r.
void p2p_yukawa(const P2PBatch& b, double kappa);

/// y[i] += a * x[i] over interleaved complex doubles — the inner operation
/// of the rotation-M2L block transforms (vectorized over the order index).
void zaxpy(std::complex<double> a, const std::complex<double>* x,
           std::complex<double>* y, std::size_t n);

/// sum_i x[i] * r[i] (complex times real) — the axial M2L translation dot
/// product.
std::complex<double> zrdot(const std::complex<double>* x, const double* r,
                           std::size_t n);

}  // namespace amtfmm::simd
