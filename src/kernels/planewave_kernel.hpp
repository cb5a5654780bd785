#pragma once

#include <array>
#include <vector>

#include "kernels/kernel.hpp"
#include "math/planewave.hpp"

namespace amtfmm {

/// (-i)^m for signed integer m ((-i)^{-1} = i).
cdouble minus_i_pow(int m);

/// Everything in which the plane-wave paths of two kernels differ, as data.
/// Radial tables are k-major with stride tri_index(p, p) + 1 and entry
/// tri_index(n, |m|).
struct PlaneWaveSpec {
  struct Tables {
    PlaneWaveQuadrature quad;
    std::vector<double> m2i_radial;  ///< R_k(n, |m|)
    std::vector<double> i2l_radial;  ///< Q_k(n, |m|)
  };
  int p = 0;
  double domain_size = 1.0;
  int max_level = 0;  ///< deeper levels use this level's box size
  /// Per level 0, 1, ...; the last entry also serves every deeper level, so
  /// a scale-invariant kernel supplies one.
  std::vector<Tables> levels;
  std::vector<double> m2i_weight;  ///< multipole basis weight (square layout)
  std::vector<double> i2l_weight;  ///< local basis weight (square layout)
  /// The local basis carries A_n^{s m}: the back rotation uses s, and the
  /// I->L analysis sum is read at -s m.
  int local_sign = 1;
  std::vector<cdouble> phase;  ///< phase_m at index m + p
};

/// A kernel whose intermediate expansions are plane waves (Laplace,
/// Yukawa).  This class holds the only bodies of M->I, I->I and I->L; the
/// kernel builds a PlaneWaveSpec in setup().  In the frame where the
/// direction d is +z (rot_d), with the Sommerfeld quadrature of
/// math/planewave.hpp in box units:
///   M->I:  W_d(k,j) = (w_k / (M_k box)) sum_m e^{i m a_j} phase_m
///                     sum_{n>=|m|} R_k(n,|m|) rot_d(M)_n^m
///   I->I:  diagonal multiply by e^{-mu_k dz'} e^{i lam_k (dx' cos a_j +
///          dy' sin a_j)}, offsets in box units of the rotated frame
///   I->L:  Lrot_n^m = sum_k Q_k(n,|m|) phase_m F_k(-s m),
///          F_k(m) = sum_j W(k,j) e^{i m a_j}, then rotate back.
class PlaneWaveKernel : public Kernel {
 public:
  std::size_t x_count(int level) const override;
  bool supports_merge_and_shift() const override { return true; }

  void m2i(const CoeffVec& m, int level, Axis d, CoeffVec& out) const override;
  void i2i_acc(const CoeffVec& in, Axis d, const Vec3& offset, int level,
               CoeffVec& inout) const override;
  void i2l_acc(const CoeffVec& in, Axis d, int level,
               CoeffVec& inout) const override;

 protected:
  /// Takes the kernel's data and builds the six forward/inverse rotations.
  void setup_planewave(PlaneWaveSpec spec);

 private:
  int clamp_level(int level) const;
  const PlaneWaveSpec::Tables& tables(int level) const;

  PlaneWaveSpec pw_;
  std::array<AngularTransform, 6> fwd_;  // indexed by Axis
  std::array<AngularTransform, 6> inv_;
};

}  // namespace amtfmm
