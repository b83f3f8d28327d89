#pragma once

/// \file force_eam.hpp
/// Two-pass EAM force evaluation (paper Eqs. 2-4).
///
/// Pass 1 accumulates the host electron density rho_i for every atom and
/// evaluates the embedding term F_i(rho_i) and its derivative. Pass 2
/// evaluates the radial force
///   f_i = - sum_j [ F'_i rho'_j(r_ij) + F'_j rho'_i(r_ij) + phi'_ij(r_ij) ]
///         * (r_i - r_j)/r_ij
/// This is the same decomposition LAMMPS's pair_eam uses and the same terms
/// the paper's per-core kernel computes (Table III).
///
/// One evaluation path, the table-driven one every engine run takes: a SIMD
/// distance sieve compacts each neighbor row into accepted (idx, d, r²)
/// lanes once, then the density and force passes run the vectorized
/// r²-indexed PotentialProfile lookups (md/simd.hpp) over the compacted
/// rows. The analytic functional form is checked against it atom by atom
/// in tests/md/test_forces.cpp.
///
/// Threading: atoms are carved into fixed 256-atom tiles dispatched
/// round-robin over an engine::ShardPool. Each tile writes only its own
/// atoms' forces (the full neighbor list makes every row independent) and
/// its own energy partial; partials are then summed serially in tile
/// order. The tile size is a constant — not derived from the worker count
/// — so forces and energies are bitwise identical at any thread count,
/// including the inline serial run.

#include <cstdint>
#include <vector>

#include "eam/profile.hpp"
#include "md/atom_system.hpp"
#include "md/neighbor.hpp"

namespace wsmd::engine {
class ShardPool;
}

namespace wsmd::md {

/// Scratch + result holder for force evaluations; reusable across steps.
class EamForceKernel {
 public:
  /// Evaluate forces into `system.forces()`. Returns total potential energy
  /// (pair + embedding) in eV. The neighbor list must be current and built
  /// with the potential's cutoff (list entries beyond the cutoff are
  /// filtered here — the list radius includes the skin). `profile` must be
  /// built from the system's potential. A non-null `pool` threads the sweep
  /// (deterministically — see above).
  double compute(AtomSystem& system, const NeighborList& neighbors,
                 const eam::ProfileF64& profile,
                 engine::ShardPool* pool = nullptr);

  /// Host densities from the most recent compute() (diagnostics/tests).
  const std::vector<double>& densities() const { return rho_; }

  /// Embedding energy share of the last compute() (eV).
  double embedding_energy() const { return e_embed_; }
  /// Pair energy share of the last compute() (eV).
  double pair_energy() const { return e_pair_; }

 private:
  std::vector<double> rho_;
  std::vector<double> fprime_;
  double e_embed_ = 0.0;
  double e_pair_ = 0.0;

  // Per-row compacted sieve output in one padded CSR block (row i starts at
  // acc_off_[i]; the +kPadF64-per-row padding absorbs the sieve's full-width
  // compaction stores), reused across steps.
  std::vector<std::size_t> acc_off_;
  std::vector<std::uint32_t> acc_n_;
  std::vector<std::uint32_t> acc_idx_;
  std::vector<double> acc_dx_;
  std::vector<double> acc_dy_;
  std::vector<double> acc_dz_;
  std::vector<double> acc_r2_;
  // Per-tile energy partials, reduced serially in tile order.
  std::vector<double> tile_embed_;
  std::vector<double> tile_pair_;
};

}  // namespace wsmd::md
