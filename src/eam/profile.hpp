#pragma once

/// \file profile.hpp
/// Flattened, r²-indexed potential profiles: the branch-free table
/// representation the force hot loops evaluate.
///
/// The paper's wafer kernels never call the potential's functional form in
/// the inner loop — each core holds *local copies of the interpolation
/// tables* for rho, F, and phi (Sec. III-A) and evaluates them with a
/// segment lookup plus a low-order polynomial (Table III). The same shape
/// keeps FPGA-MD inner loops branch-free and bandwidth-bound (Yang et al.).
/// PotentialProfile is that representation for both host engines:
///
///  * every radial function is tabulated **as a function of r²** on a
///    uniform r² grid. The accept test in the hot loop already produces r²
///    (`r2 < rcut2`), so indexing by r² removes the per-pair `sqrt`
///    entirely — the standard MD table trick (cf. LAMMPS pair tables).
///  * the force kernels are stored pre-divided by r: phi'(r)/r and
///    rho'(r)/r. The pair force is then `d * (F'_i rho'_j/r + F'_j
///    rho'_i/r + phi'/r)` — no division in the loop either.
///  * coefficients are interleaved per segment (value, segment delta) in
///    flat contiguous arrays, so one lookup touches one or two cache lines
///    and no virtual dispatch.
///  * the embedding term F(rho), F'(rho) is tabulated on a uniform rho
///    grid, bundled so the density pass fetches both with one index.
///
/// The profile is built once from any EamPotential and instantiated at two
/// precisions, mirroring the paper's precision split: FP64 for the
/// reference engine, FP32 for the wafer path (the per-core table copies the
/// real machine holds in 48 kB of SRAM are FP32). Node values are exact
/// samples of the source potential — linear interpolation reproduces them
/// bitwise at the grid nodes, so a setfl-tabulated input passes through the
/// profile undistorted at its knots.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eam/potential.hpp"

namespace wsmd::eam {

/// Table resolution. The defaults keep interpolation error far below FP32
/// state noise (see tests/eam/test_profile.cpp bounds); a real wafer core
/// would hold coarser tables (see table_bytes() and the README estimate).
struct ProfileConfig {
  int nr = 8192;          ///< r² segments over [0, cutoff²]
  int nrho = 8192;        ///< rho segments over [0, rho_max]
  double rho_max = 0.0;   ///< embedding range (0 = derive from the source)
};

/// Flat r²-indexed evaluation tables for one EamPotential, precision T.
template <typename T>
class PotentialProfile {
 public:
  PotentialProfile(const EamPotential& src, ProfileConfig config = {});

  int num_types() const { return nt_; }
  double cutoff() const { return rc_; }
  T cutoff_sq() const { return rc2_; }
  bool pairwise_only() const { return pairwise_only_; }
  double rho_max() const { return rho_max_; }

  /// --- Hot-path lookups (branch-free, r²-indexed) ----------------------
  /// Callers guard with `r2 < cutoff_sq()` — the accept test the loops
  /// already perform; lookups at or beyond the cutoff are out of contract.

  /// Electron density rho(r) contributed by an atom of `type`.
  T density(int type, T r2) const {
    const T t = r2 * inv_dr2_;
    const std::size_t k = segment(t, nr_);
    const T* c = rho_.data() + (static_cast<std::size_t>(type) * nr_ + k) * 2;
    return c[0] + c[1] * (t - static_cast<T>(k));
  }

  /// rho'(r)/r (the density force kernel).
  T density_force(int type, T r2) const {
    const T t = r2 * inv_dr2_;
    const std::size_t k = segment(t, nr_);
    const T* c =
        rho_force_.data() + (static_cast<std::size_t>(type) * nr_ + k) * 2;
    return c[0] + c[1] * (t - static_cast<T>(k));
  }

  /// Pair energy phi(r) and force kernel phi'(r)/r in one segment lookup
  /// (the two ride in one interleaved 4-wide bundle).
  void pair(int ti, int tj, T r2, T& phi, T& phi_force) const {
    const T t = r2 * inv_dr2_;
    const std::size_t k = segment(t, nr_);
    const T frac = t - static_cast<T>(k);
    const T* c = pair_.data() +
                 ((static_cast<std::size_t>(ti) * nt_ +
                   static_cast<std::size_t>(tj)) *
                      nr_ +
                  k) *
                     4;
    phi = c[0] + c[1] * frac;
    phi_force = c[2] + c[3] * frac;
  }

  /// Embedding energy F(rho) and derivative F'(rho), one bundle lookup.
  /// rho beyond rho_max extrapolates the last segment linearly.
  void embed(int type, T rho, T& f, T& fprime) const {
    const T t = rho * inv_drho_;
    const std::size_t k = segment(t, nrho_);
    const T frac = t - static_cast<T>(k);
    const T* c =
        embed_.data() + (static_cast<std::size_t>(type) * nrho_ + k) * 4;
    f = c[0] + c[1] * frac;
    fprime = c[2] + c[3] * frac;
  }

  /// Raw table view for the batched SIMD kernels (md/simd.hpp): flat
  /// coefficient pointers plus the index scales, so a kernel can gather
  /// bundle elements directly instead of calling the accessors per pair.
  /// Counts are int32 because the vector paths compute table indices in
  /// 32-bit lanes (nt² · nr · 4 stays far below 2³¹ for every real
  /// potential). The view borrows the profile's storage — keep the profile
  /// alive while using it.
  struct Raw {
    const T* rho;        ///< 2-wide bundles {value, delta}
    const T* rho_force;  ///< 2-wide bundles {rho'/r, delta}
    const T* pair;       ///< 4-wide bundles {phi, dphi, phi'/r, dphi'/r}
    const T* embed;      ///< 4-wide bundles {F, dF, F', dF'}
    std::int32_t nr;
    std::int32_t nrho;
    std::int32_t nt;
    T inv_dr2;
    T inv_drho;
  };
  Raw raw() const {
    return {rho_.data(),
            rho_force_.data(),
            pair_.data(),
            embed_.data(),
            static_cast<std::int32_t>(nr_),
            static_cast<std::int32_t>(nrho_),
            nt_,
            inv_dr2_,
            inv_drho_};
  }

  /// --- Introspection (tests, memory accounting) ------------------------

  std::size_t r2_segments() const { return nr_; }
  std::size_t rho_segments() const { return nrho_; }
  /// The k-th r² grid node (k in [0, r2_segments()]).
  double r2_node(std::size_t k) const { return dr2_ * static_cast<double>(k); }
  /// Radius the k-th node was sampled at: sqrt(r2_node) floored at the
  /// small-r clamp (EAM pair functions diverge toward r = 0; no physical
  /// configuration probes below the clamp).
  double node_radius(std::size_t k) const;

  /// Exact stored node values (what linear interpolation reproduces
  /// bitwise at the nodes).
  T density_node(int type, std::size_t k) const;
  T density_force_node(int type, std::size_t k) const;
  T pair_node(int ti, int tj, std::size_t k) const;
  T pair_force_node(int ti, int tj, std::size_t k) const;

  /// Total table bytes a single worker holding these coefficient arrays
  /// would store (paper Sec. III-A per-core state accounting).
  std::size_t table_bytes() const {
    return (rho_.size() + rho_force_.size() + pair_.size() + embed_.size()) *
           sizeof(T);
  }

 private:
  static std::size_t segment(T t, std::size_t n) {
    // t >= 0 by construction (r² and rho are non-negative); clamping the
    // index keeps the lookup branch-predictable and total.
    std::size_t k = static_cast<std::size_t>(t);
    return k < n ? k : n - 1;
  }

  std::size_t nr_ = 0;
  std::size_t nrho_ = 0;
  int nt_ = 0;
  double rc_ = 0.0;
  double dr2_ = 0.0;
  double drho_ = 0.0;
  double rho_max_ = 0.0;
  double r_floor_ = 0.0;
  T rc2_{};
  T inv_dr2_{};
  T inv_drho_{};
  bool pairwise_only_ = false;

  // Interleaved per-segment coefficients (value, next-node delta):
  // rho_[type][k]       -> {rho, d rho}            (2-wide)
  // rho_force_[type][k] -> {rho'/r, d rho'/r}      (2-wide)
  // pair_[ti*nt+tj][k]  -> {phi, d phi, phi'/r, d phi'/r}   (4-wide)
  // embed_[type][k]     -> {F, dF, F', dF'}        (4-wide)
  std::vector<T> rho_;
  std::vector<T> rho_force_;
  std::vector<T> pair_;
  std::vector<T> embed_;
};

extern template class PotentialProfile<float>;
extern template class PotentialProfile<double>;

using ProfileF32 = PotentialProfile<float>;
using ProfileF64 = PotentialProfile<double>;

}  // namespace wsmd::eam
