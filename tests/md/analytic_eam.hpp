#pragma once

/// \file analytic_eam.hpp
/// Test oracle: the two-pass EAM force loop evaluated through the
/// potential's analytic functional form (virtual calls, one sqrt per pair),
/// serial and in FP64.
///
/// The engines evaluate the potential only from its r²-indexed profile
/// tables (md::EamForceKernel, core::WseMd). This loop is the independent
/// reference they are checked against: the force = -grad E, dimer and
/// density checks run on it, and the production kernel is compared with it
/// atom by atom. It keeps the arithmetic of the analytic path the force
/// kernel once carried, down to the 256-atom tile partials of the energy
/// sums, so its numbers are the ones that path produced.

#include <cmath>
#include <cstddef>
#include <vector>

#include "md/atom_system.hpp"
#include "md/neighbor.hpp"

namespace wsmd::md::oracle {

/// Same interface as the production kernel's result accessors.
class AnalyticEamKernel {
 public:
  /// Evaluate forces into `system.forces()` and return the total potential
  /// energy (eV). `neighbors` must be a current full list built with at
  /// least the potential's cutoff.
  double compute(AtomSystem& system, const NeighborList& neighbors) {
    constexpr std::size_t kTile = 256;
    const auto& pot = system.potential();
    const auto& pos = system.positions();
    const auto& types = system.types();
    const Box& box = system.box();
    const std::size_t n = system.size();

    const double rc = pot.cutoff();
    const double rc2 = rc * rc;
    const bool pairwise_only = pot.is_pairwise_only();

    auto& forces = system.forces();
    forces.resize(n);

    const std::size_t ntiles = (n + kTile - 1) / kTile;
    std::vector<double> tile_embed(ntiles, 0.0);
    std::vector<double> tile_pair(ntiles, 0.0);

    // Pass 1: densities and embedding derivatives.
    rho_.assign(n, 0.0);
    std::vector<double> fprime(n, 0.0);
    if (!pairwise_only) {
      for (std::size_t t = 0; t < ntiles; ++t) {
        const std::size_t i0 = t * kTile;
        const std::size_t i1 = i0 + kTile < n ? i0 + kTile : n;
        double embed_acc = 0.0;
        for (std::size_t i = i0; i < i1; ++i) {
          double rho = 0.0;
          for (std::size_t j : neighbors.neighbors(i)) {
            const Vec3d d = box.minimum_image(pos[i], pos[j]);
            const double r2 = norm2(d);
            if (r2 >= rc2) continue;
            rho += pot.density(types[j], std::sqrt(r2));
          }
          rho_[i] = rho;
          embed_acc += pot.embed(types[i], rho);
          fprime[i] = pot.embed_deriv(types[i], rho);
        }
        tile_embed[t] = embed_acc;
      }
    }

    // Pass 2: pair + embedding forces.
    for (std::size_t t = 0; t < ntiles; ++t) {
      const std::size_t i0 = t * kTile;
      const std::size_t i1 = i0 + kTile < n ? i0 + kTile : n;
      double pair_acc = 0.0;
      for (std::size_t i = i0; i < i1; ++i) {
        Vec3d f{0, 0, 0};
        for (std::size_t j : neighbors.neighbors(i)) {
          const Vec3d d = box.minimum_image(pos[i], pos[j]);  // rj - ri
          const double r2 = norm2(d);
          if (r2 >= rc2) continue;
          const double r = std::sqrt(r2);
          pair_acc += pot.pair(types[i], types[j], r);
          double fmag = pot.pair_deriv(types[i], types[j], r);
          if (!pairwise_only) {
            fmag += fprime[i] * pot.density_deriv(types[j], r) +
                    fprime[j] * pot.density_deriv(types[i], r);
          }
          // Force on i with fmag = dU/dr: -dU/dr * unit(ri - rj), written
          // via d = rj - ri.
          f += d * (fmag / r);
        }
        forces[i] = f;
      }
      tile_pair[t] = pair_acc;
    }

    e_embed_ = 0.0;
    for (double e : tile_embed) e_embed_ += e;
    double pair_sum = 0.0;
    for (double e : tile_pair) pair_sum += e;
    e_pair_ = 0.5 * pair_sum;  // full list counts each pair twice
    return e_pair_ + e_embed_;
  }

  /// Host densities from the most recent compute().
  const std::vector<double>& densities() const { return rho_; }
  /// Embedding and pair shares of the last compute() (eV).
  double embedding_energy() const { return e_embed_; }
  double pair_energy() const { return e_pair_; }

 private:
  std::vector<double> rho_;
  double e_embed_ = 0.0;
  double e_pair_ = 0.0;
};

}  // namespace wsmd::md::oracle
