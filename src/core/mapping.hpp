#pragma once

/// \file mapping.hpp
/// Locality-preserving atom-to-core mapping (paper Sec. III-A).
///
/// The wafer is a 2-D grid of cores; the simulation domain is flattened
/// onto its x-y plane by the projection P (z is dropped). Each core c has a
/// nominal position P(c) in the domain; the assignment cost
///
///     C(g) = max_i  max_norm( P(r_i) - P(g(i)) )
///
/// is the worst-case in-plane displacement between an atom and its worker
/// core. Interacting atoms are then separated by at most 2 C(g) + rcut in
/// the plane, which fixes the neighborhood radius b of the candidate
/// exchange: every (2b+1)^2 square of cores must contain all interaction
/// partners of its center (paper Sec. III-A).
///
/// WSMD's construction: partition the domain into lattice-cell columns,
/// give each column a rectangular block of cores sized for its atom count,
/// and solve a small per-column assignment problem placing each atom on the
/// block slot nearest its projected position. A greedy swap refinement
/// (also used online as the atom-swap step) further reduces the cost — the
/// paper reports 2.1 A + cutoff for its best offline mapping (Sec. V-E).
///
/// Periodic x/y axes use the fold-to-line transform of paper Fig. 5: the
/// coordinate circle is split in half and the two halves interleave, so
/// logical ring neighbors sit at most 2 core columns apart.

#include <cstdint>
#include <vector>

#include "lattice/lattice.hpp"
#include "util/random.hpp"
#include "util/vec3.hpp"

namespace wsmd::core {

/// Integer core coordinate on the fabric.
struct CoreCoord {
  int x = 0;
  int y = 0;
  friend bool operator==(const CoreCoord&, const CoreCoord&) = default;
};

struct MappingConfig {
  /// Edge length of a partition cell in Angstrom (defaults to the crystal
  /// lattice constant when built via `for_structure`). Must exceed 0.
  double cell_size = 0.0;
  /// Greedy refinement rounds after the initial per-cell assignment.
  int refine_rounds = 2;
};

/// Fold a periodic cell index onto the interleaved line (paper Fig. 5):
/// the ring 0,1,...,n-1 splits at n/2; indices from the two halves
/// alternate so ring neighbors are at most 2 apart on the line.
int fold_cell_index(int cell, int num_cells);

/// Chebyshev distance between cores.
inline int chebyshev(const CoreCoord& a, const CoreCoord& b) {
  const int dx = a.x > b.x ? a.x - b.x : b.x - a.x;
  const int dy = a.y > b.y ? a.y - b.y : b.y - a.y;
  return dx > dy ? dx : dy;
}

class AtomMapping {
 public:
  /// Build a mapping for the structure. The core grid is sized
  /// automatically: (cells_x * block_w) x (cells_y * block_h) where the
  /// block holds the largest per-column atom count.
  static AtomMapping for_structure(const lattice::Structure& s,
                                   MappingConfig config = {});

  std::size_t atom_count() const { return atom_core_.size(); }
  int grid_width() const { return grid_w_; }
  int grid_height() const { return grid_h_; }
  std::size_t core_count() const {
    return static_cast<std::size_t>(grid_w_) * static_cast<std::size_t>(grid_h_);
  }

  /// Core worker of atom i.
  CoreCoord core_of(std::size_t atom) const;

  /// Atom handled by core (x, y); -1 when the core is empty (the paper
  /// allows empty tiles, "atoms at infinity").
  long atom_at(int x, int y) const;

  /// Nominal in-plane position of a core (domain coordinates, A).
  Vec3d nominal_position(const CoreCoord& c) const;

  /// Per-atom in-plane displacement max_norm(P(r_i) - P(g(i))) for the
  /// given positions (A).
  double displacement(std::size_t atom, const Vec3d& position) const;

  /// Assignment cost C(g) = worst-case displacement (A).
  double assignment_cost(const std::vector<Vec3d>& positions) const;

  /// Smallest b such that every pair of atoms within `rcut` maps to cores
  /// within Chebyshev distance b (exact, via a spatial hash over pairs).
  int required_b(const std::vector<Vec3d>& positions, double rcut) const;

  /// Angstroms of domain per core step along x / y (the pitch converting
  /// assignment cost into fabric hops).
  double pitch_x() const { return pitch_x_; }
  double pitch_y() const { return pitch_y_; }

  /// Greedy swap refinement: repeatedly exchange atoms between nearby
  /// cores when that lowers the pairwise max displacement. Returns the
  /// final assignment cost. This is the paper's offline optimization and
  /// the primitive behind the online atom swap (Sec. III-D).
  double refine(const std::vector<Vec3d>& positions, int rounds);

  /// Reassign atom->core (used by the online atom-swap step).
  void swap_atoms(const CoreCoord& a, const CoreCoord& b);

  /// Assignment version: bumped by every swap_atoms and
  /// restore_assignment, so caches keyed on the core->atom table (the
  /// wafer engine's candidate shortlist) can tell that it changed.
  std::uint64_t version() const { return version_; }

  /// The full core->atom table (core y*w+x -> atom id or -1), the
  /// assignment a checkpoint stores.
  const std::vector<long>& core_atoms() const { return core_atom_; }

  /// Replace the assignment wholesale (checkpoint restore). The grid
  /// geometry is unchanged; `core_atom` must cover every core and place
  /// every atom exactly once.
  void restore_assignment(const std::vector<long>& core_atom);

  /// Logical (fold-transformed) in-plane coordinates of a physical
  /// position: identity minus the box origin on open axes; the Fig. 5
  /// interleaved fold on periodic axes. All displacement metrics and core
  /// nominal positions live in this space.
  Vec3d logical_xy(const Vec3d& position) const;

 private:
  struct AxisInfo {
    bool folded = false;
    double cell = 1.0;
    int cells = 1;
    int columns = 1;  ///< logical columns (2x ceil(cells/2) when folded)
  };

  int grid_w_ = 0, grid_h_ = 0;
  double pitch_x_ = 1.0, pitch_y_ = 1.0;
  Vec3d origin_{0, 0, 0};
  Box box_;
  std::array<AxisInfo, 2> axes_;
  std::vector<CoreCoord> atom_core_;   // atom -> core
  std::vector<long> core_atom_;        // core (y*w+x) -> atom or -1
  std::uint64_t version_ = 0;
};

}  // namespace wsmd::core
