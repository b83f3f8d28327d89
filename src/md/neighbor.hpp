#pragma once

/// \file neighbor.hpp
/// Cell list and Verlet neighbor list for the reference engine.
///
/// This mirrors the production-MD machinery the paper benchmarks against
/// (LAMMPS reuses neighbor lists across timesteps; see also the projected
/// "Neighbor List" optimization in paper Table V). The list is *full*
/// (both i->j and j->i entries) because EAM's density pass wants every
/// neighbor of every atom. A `skin` distance delays rebuilds until any atom
/// has moved half the skin.
///
/// Build. One half walk (CellList::for_each_pair) finds each unordered
/// pair a < b once, so each distance is computed once, and no row is
/// sorted. Row i holds its lower part (j < i), then its upper part (j > i).
/// The pairs are bucketed by their smaller index a; emptying the buckets
/// by ascending a appends a to row b, which fills every lower part in
/// ascending order. Transposing the lower parts by ascending b then fills
/// every upper part in ascending order too. Each row comes out ascending:
/// the same bytes a per-row sort of the full walk gives.
///
/// Bits. Ascending rows fix the order in which the force sweep meets a
/// row's neighbors, and the sweep keeps exactly the entries with r < rc
/// (md/force_eam.hpp). The skin entries therefore never reach a sum: as
/// long as the list is complete, forces, energies and trajectories are
/// bitwise independent of the skin and of when the list was rebuilt. That
/// is why a checkpoint stores no list and no build positions: a restore
/// only needs ensure_current to rebuild a list that is stale for the
/// restored positions.
///
/// Skin curve. The skin only trades sieve candidates for rebuilds. On the
/// 5,760-atom Cu slab of bench/e2e's cu6k_ref (Cu rc 4.96 A, 290 K, 240
/// steps), a 1.0 A skin ends with 371,594 entries after 5 rebuilds; the
/// default 0.6 A ends with 271,622 after 10, at about a third of the old
/// sorted build's cost each.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/box.hpp"
#include "util/soa.hpp"
#include "util/vec3.hpp"

namespace wsmd::md {

/// CSR-layout full neighbor list.
class NeighborList {
 public:
  /// `cutoff` is the interaction cutoff; `skin` the extra Verlet margin.
  NeighborList(double cutoff, double skin);

  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }
  double list_radius() const { return cutoff_ + skin_; }

  /// Rebuild unconditionally from the given positions.
  void build(const Box& box, const std::vector<Vec3d>& positions);
  void build(const Box& box, const Vec3dPlanes& positions);

  /// Rebuild only if some atom moved more than skin/2 since the last build.
  /// Returns true when a rebuild happened.
  bool ensure_current(const Box& box, const std::vector<Vec3d>& positions);
  bool ensure_current(const Box& box, const Vec3dPlanes& positions);

  /// Neighbors of atom i (indices within list_radius at build time).
  /// Indices are 32-bit: the SIMD sieve gathers them as i32 lanes (and a
  /// 4-billion-atom CSR list would not fit host memory anyway).
  struct Range {
    const std::uint32_t* begin_;
    const std::uint32_t* end_;
    const std::uint32_t* begin() const { return begin_; }
    const std::uint32_t* end() const { return end_; }
    std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  };
  Range neighbors(std::size_t i) const {
    return {indices_.data() + offsets_[i], indices_.data() + offsets_[i + 1]};
  }

  /// Row offset of atom i in the CSR index array (the batched force path
  /// indexes its own per-pair scratch with these).
  std::size_t row_offset(std::size_t i) const { return offsets_[i]; }

  std::size_t atom_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Total stored neighbor entries (diagnostics).
  std::size_t total_entries() const { return indices_.size(); }

  /// Number of rebuilds performed so far (diagnostics; LAMMPS "Neigh" count).
  std::size_t rebuild_count() const { return rebuilds_; }

 private:
  double cutoff_;
  double skin_;
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> indices_;
  /// Positions of the last build: ensure_current measures displacement
  /// from them.
  std::vector<Vec3d> reference_positions_;
  std::size_t rebuilds_ = 0;
  // Build scratch, kept across rebuilds: the pairs bucketed by their
  // smaller index, each row's lower-part size, and per-row cursors.
  std::vector<std::uint32_t> bucket_;
  std::vector<std::uint32_t> lower_;
  std::vector<std::size_t> cursor_;
};

}  // namespace wsmd::md
