/// \file test_cell_list_parity.cpp
/// Bitwise parity of the span-walk md::CellList, the allocation-free CSP
/// in md::analyze_structure and the half-walk md::NeighborList build with
/// the straightforward algorithms they replaced, which this file keeps as
/// oracles:
///   - a cell list that walks each atom's deduplicated 27-stencil cell by
///     cell, with one Box::minimum_image per candidate pair;
///   - a CSP that sorts a std::vector<Vec3d> of bonds by norm2 and pairs
///     them greedily over a std::vector<bool> of used bonds;
///   - a Verlet build that walks each atom's full neighborhood and sorts
///     its row.
/// The probes' CSVs and the Verlet list's summation order depend on the
/// visit order and on the bits of d and r2, so those are compared exactly,
/// on perfect lattices (exact distance ties), a thermalised Cu bicrystal
/// (rows of more than 16 bonds: std::sort's introsort path) and random gas
/// in every boundary kind at radii giving 2 and at least 3 cells per axis.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "eam/zhou.hpp"
#include "lattice/grain_boundary.hpp"
#include "lattice/lattice.hpp"
#include "md/analysis.hpp"
#include "md/cell_list.hpp"
#include "md/neighbor.hpp"
#include "util/random.hpp"

namespace wsmd::md {
namespace {

// --- Oracles ----------------------------------------------------------------

/// The 27-stencil cell list: per-atom cell ids, atoms grouped by cell in
/// index order, each cell's sorted and deduplicated stencil.
class StencilCellList {
 public:
  StencilCellList(const Box& box, const std::vector<Vec3d>& positions,
                  double radius)
      : box_(box), pos_(positions), r2max_(radius * radius) {
    const std::size_t n = positions.size();
    Vec3d lo = box.lo, hi = box.hi;
    for (std::size_t a = 0; a < 3; ++a) {
      if (box.periodic[a]) continue;
      double mn = positions[0][a], mx = positions[0][a];
      for (const auto& r : positions) {
        mn = std::min(mn, r[a]);
        mx = std::max(mx, r[a]);
      }
      lo[a] = mn - 1e-9;
      hi[a] = mx + 1e-9;
    }
    int ncell[3];
    double edge[3];
    for (std::size_t a = 0; a < 3; ++a) {
      const double len = hi[a] - lo[a];
      ncell[a] = std::max(1, static_cast<int>(std::floor(len / radius)));
      edge[a] = len / ncell[a];
    }
    const std::size_t cells = static_cast<std::size_t>(ncell[0]) * ncell[1] *
                              static_cast<std::size_t>(ncell[2]);
    auto flat = [&](const int c[3]) {
      return (static_cast<std::size_t>(c[2]) * ncell[1] + c[1]) * ncell[0] +
             c[0];
    };
    atom_cell_.resize(n);
    cell_start_.assign(cells + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      int c[3];
      for (std::size_t a = 0; a < 3; ++a) {
        double x = positions[i][a] - lo[a];
        if (box.periodic[a]) {
          const double len = hi[a] - lo[a];
          x -= std::floor(x / len) * len;
        }
        c[a] = std::clamp(static_cast<int>(std::floor(x / edge[a])), 0,
                          ncell[a] - 1);
      }
      atom_cell_[i] = flat(c);
      ++cell_start_[atom_cell_[i] + 1];
    }
    for (std::size_t c = 0; c < cells; ++c) {
      cell_start_[c + 1] += cell_start_[c];
    }
    cell_atoms_.resize(n);
    std::vector<std::size_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      cell_atoms_[cursor[atom_cell_[i]]++] = i;
    }
    stencil_start_.assign(cells + 1, 0);
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const int cx = static_cast<int>(cell % ncell[0]);
      const int cy = static_cast<int>(cell / ncell[0] % ncell[1]);
      const int cz = static_cast<int>(
          cell / (static_cast<std::size_t>(ncell[0]) * ncell[1]));
      std::vector<std::size_t> stencil;
      for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            int cc[3] = {cx + dx, cy + dy, cz + dz};
            bool skip = false;
            for (std::size_t a = 0; a < 3; ++a) {
              if (box.periodic[a]) {
                cc[a] = (cc[a] + ncell[a]) % ncell[a];
              } else if (cc[a] < 0 || cc[a] >= ncell[a]) {
                skip = true;
              }
            }
            if (!skip) stencil.push_back(flat(cc));
          }
        }
      }
      std::sort(stencil.begin(), stencil.end());
      stencil.erase(std::unique(stencil.begin(), stencil.end()), stencil.end());
      stencil_cells_.insert(stencil_cells_.end(), stencil.begin(),
                            stencil.end());
      stencil_start_[cell + 1] = stencil_cells_.size();
    }
  }

  template <typename F>
  void for_each_neighbor(std::size_t i, F&& f) const {
    const std::size_t cell = atom_cell_[i];
    for (std::size_t s = stencil_start_[cell]; s < stencil_start_[cell + 1];
         ++s) {
      const std::size_t cc = stencil_cells_[s];
      for (std::size_t k = cell_start_[cc]; k < cell_start_[cc + 1]; ++k) {
        const std::size_t j = cell_atoms_[k];
        if (j == i) continue;
        const Vec3d d = box_.minimum_image(pos_[i], pos_[j]);
        const double r2 = norm2(d);
        if (r2 < r2max_) f(j, d, r2);
      }
    }
  }

  template <typename F>
  void for_each_pair(F&& f) const {
    for (std::size_t i = 0; i < pos_.size(); ++i) {
      for_each_neighbor(i, [&](std::size_t j, const Vec3d& d, double r2) {
        if (j > i) f(i, j, d, r2);
      });
    }
  }

 private:
  Box box_;
  const std::vector<Vec3d>& pos_;
  double r2max_;
  std::vector<std::size_t> atom_cell_, cell_start_, cell_atoms_;
  std::vector<std::size_t> stencil_start_, stencil_cells_;
};

/// CSP with a full sort of the bond vectors by norm2 and a greedy pairing
/// that rescans every pair of unused bonds each round.
StructureAnalysis oracle_analyze(const Box& box,
                                 const std::vector<Vec3d>& positions,
                                 double rcut, int neighbor_count) {
  const StencilCellList cl(box, positions, rcut);
  StructureAnalysis out;
  out.centrosymmetry.assign(positions.size(), 0.0);
  out.coordination.assign(positions.size(), 0);
  std::vector<Vec3d> bonds;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    bonds.clear();
    cl.for_each_neighbor(
        i, [&](std::size_t, const Vec3d& d, double) { bonds.push_back(d); });
    out.coordination[i] = static_cast<int>(bonds.size());
    std::sort(bonds.begin(), bonds.end(), [](const Vec3d& a, const Vec3d& b) {
      return norm2(a) < norm2(b);
    });
    const std::size_t n =
        std::min(bonds.size(), static_cast<std::size_t>(neighbor_count));
    if (n < 2) {
      out.centrosymmetry[i] = rcut * rcut;
      continue;
    }
    std::vector<bool> used(n, false);
    double csp = 0.0;
    for (std::size_t pair = 0; pair < n / 2; ++pair) {
      double best = 1e300;
      std::size_t ba = 0, bb = 0;
      for (std::size_t a = 0; a < n; ++a) {
        if (used[a]) continue;
        for (std::size_t b = a + 1; b < n; ++b) {
          if (used[b]) continue;
          const double v = norm2(bonds[a] + bonds[b]);
          if (v < best) {
            best = v;
            ba = a;
            bb = b;
          }
        }
      }
      used[ba] = used[bb] = true;
      csp += best;
    }
    out.centrosymmetry[i] = csp;
  }
  return out;
}

/// The Verlet list as NeighborList::build made it before the half walk:
/// CSR rows from each atom's full cell-list walk, each row sorted.
struct SortedRows {
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> indices;
};

SortedRows sorted_rows(const Box& box, const std::vector<Vec3d>& positions,
                       double radius) {
  CellList cl;
  cl.build(box, positions, radius);
  SortedRows out;
  out.offsets.assign(positions.size() + 1, 0);
  std::vector<std::uint32_t> row;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    row.clear();
    cl.for_each_neighbor(i, [&](std::size_t j, const Vec3d&, double) {
      row.push_back(static_cast<std::uint32_t>(j));
    });
    std::sort(row.begin(), row.end());
    out.offsets[i + 1] = out.offsets[i] + row.size();
    out.indices.insert(out.indices.end(), row.begin(), row.end());
  }
  return out;
}

// --- Inputs -----------------------------------------------------------------

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// One visit: neighbor (or pair) ids and the bits of d and r2.
using Visit = std::tuple<std::size_t, std::size_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t>;

Visit visit(std::size_t i, std::size_t j, const Vec3d& d, double r2) {
  return {i, j, bits(d.x), bits(d.y), bits(d.z), bits(r2)};
}

struct Input {
  std::string name;
  Box box;
  std::vector<Vec3d> positions;
  double radius;  ///< cell-list radius, and the CSP rcut
};

std::vector<Vec3d> random_gas(Rng& rng, const Box& box, std::size_t n) {
  std::vector<Vec3d> pos(n);
  for (auto& r : pos) {
    r = {rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y),
         rng.uniform(box.lo.z, box.hi.z)};
  }
  return pos;
}

/// Cu bicrystal with Gaussian displacements of a ~300 K crystal (0.1 A
/// per axis): third-shell atoms enter the 1.2 a0 CSP sphere, so rows run
/// past 16 bonds.
Input thermal_cu_bicrystal() {
  lattice::GrainBoundaryParams params;
  params.element = "Cu";
  params.tilt_angle_deg = 16.0;
  params.cells_x = 8;
  params.cells_y = 8;
  params.cells_z = 3;
  auto gb = lattice::make_grain_boundary(params);
  Rng rng(6100);
  for (auto& r : gb.structure.positions) {
    r += Vec3d{rng.gaussian(0.0, 0.1), rng.gaussian(0.0, 0.1),
               rng.gaussian(0.0, 0.1)};
  }
  const double a = eam::zhou_parameters("Cu").lattice_constant();
  return {"cu_bicrystal", gb.structure.box, gb.structure.positions, 1.2 * a};
}

std::vector<Input> inputs() {
  std::vector<Input> out;
  const double a_bcc = 3.3, a_fcc = 3.615;
  for (const bool periodic : {false, true}) {
    const std::array<bool, 3> p = {periodic, periodic, periodic};
    const auto bcc =
        lattice::replicate(lattice::UnitCell::bcc(a_bcc), 5, 5, 5, 0, p);
    out.push_back({periodic ? "bcc_periodic" : "bcc_open", bcc.box,
                   bcc.positions, 1.2 * a_bcc});
    const auto fcc =
        lattice::replicate(lattice::UnitCell::fcc(a_fcc), 4, 4, 4, 0, p);
    out.push_back({periodic ? "fcc_periodic" : "fcc_open", fcc.box,
                   fcc.positions, 1.2 * a_fcc});
  }
  out.push_back(thermal_cu_bicrystal());
  Rng rng(31);
  // radius 2.5 -> >= 3 cells per axis; 4.0 -> exactly 2 per axis, where
  // periodic wraps fold stencil offsets together (the dedup path).
  for (const double radius : {2.5, 4.0}) {
    for (const auto& periodic :
         {std::array<bool, 3>{false, false, false},
          std::array<bool, 3>{true, true, true},
          std::array<bool, 3>{true, false, true}}) {
      const Box box({0, 0, 0}, {9, 11, 10}, periodic);
      out.push_back({"gas_r" + std::to_string(radius) + "_p" +
                         std::to_string(periodic[0]) +
                         std::to_string(periodic[1]) +
                         std::to_string(periodic[2]),
                     box, random_gas(rng, box, 200), radius});
    }
  }
  return out;
}

// --- Parity -----------------------------------------------------------------

TEST(CellListParity, NeighborWalkMatchesStencilWalkBitwise) {
  for (const auto& in : inputs()) {
    const StencilCellList oracle(in.box, in.positions, in.radius);
    CellList cl;
    cl.build(in.box, in.positions, in.radius);
    std::size_t visits = 0;
    for (std::size_t i = 0; i < in.positions.size(); ++i) {
      std::vector<Visit> want, got;
      oracle.for_each_neighbor(
          i, [&](std::size_t j, const Vec3d& d, double r2) {
            want.push_back(visit(i, j, d, r2));
          });
      cl.for_each_neighbor(i, [&](std::size_t j, const Vec3d& d, double r2) {
        got.push_back(visit(i, j, d, r2));
      });
      ASSERT_EQ(got, want) << in.name << ": atom " << i;
      visits += got.size();
    }
    EXPECT_GT(visits, in.positions.size()) << in.name;
  }
}

TEST(CellListParity, PairWalkMatchesStencilWalkBitwise) {
  for (const auto& in : inputs()) {
    const StencilCellList oracle(in.box, in.positions, in.radius);
    CellList cl;
    cl.build(in.box, in.positions, in.radius);
    std::vector<Visit> want, got;
    oracle.for_each_pair(
        [&](std::size_t i, std::size_t j, const Vec3d& d, double r2) {
          want.push_back(visit(i, j, d, r2));
        });
    cl.for_each_pair(
        [&](std::size_t i, std::size_t j, const Vec3d& d, double r2) {
          ASSERT_LT(i, j) << in.name;
          got.push_back(visit(i, j, d, r2));
        });
    // The pair walk runs in slot order; the contract is the set of
    // (i, j, d, r2), each pair once.
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
        << in.name;
    EXPECT_EQ(got, want) << in.name;
  }
}

TEST(NeighborListParity, RowsMatchThePerRowSortBuildBitwise) {
  auto systems = inputs();
  // Non-finite atoms (open and periodic), which get empty rows, and a
  // periodic box holding one cell per axis at the list radius.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(47);
  for (const bool periodic : {false, true}) {
    const Box box({0, 0, 0}, {12, 13, 11}, {periodic, periodic, periodic});
    auto pos = random_gas(rng, box, 150);
    pos[0] = {nan, 1.0, 1.0};
    pos[75] = {2.0, inf, nan};
    pos[149] = {-inf, 3.0, 3.0};
    systems.push_back({periodic ? "non_finite_periodic" : "non_finite_open",
                       box, pos, 2.5});
  }
  const Box tiny({0, 0, 0}, {5.5, 5.5, 5.5}, {true, true, true});
  systems.push_back({"gas_one_cell", tiny, random_gas(rng, tiny, 60), 3.0});

  for (const auto& in : systems) {
    // The list radius is the input's radius: a cutoff of 2/3 of it (which
    // every periodic box holds twice over) and the skin the rest.
    NeighborList nl(in.radius * 2.0 / 3.0, in.radius / 3.0);
    nl.build(in.box, in.positions);
    const SortedRows want = sorted_rows(in.box, in.positions, nl.list_radius());
    const std::size_t n = in.positions.size();
    ASSERT_EQ(nl.atom_count(), n) << in.name;
    std::vector<std::size_t> offsets(n + 1);
    std::vector<std::uint32_t> indices;
    for (std::size_t i = 0; i <= n; ++i) offsets[i] = nl.row_offset(i);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = nl.neighbors(i);
      indices.insert(indices.end(), row.begin(), row.end());
      if (!std::isfinite(in.positions[i].x + in.positions[i].y +
                         in.positions[i].z)) {
        EXPECT_EQ(row.size(), 0u) << in.name << ": non-finite atom " << i;
      }
    }
    ASSERT_EQ(offsets, want.offsets) << in.name;
    ASSERT_EQ(indices, want.indices) << in.name;
    EXPECT_EQ(nl.total_entries(), want.indices.size()) << in.name;
    EXPECT_GT(want.indices.size(), n) << in.name;
  }
}

TEST(CentrosymmetryParity, MatchesGreedyOracleBitwise) {
  std::size_t widest_row = 0;
  for (const auto& in : inputs()) {
    for (int neighbors = 2; neighbors <= 16; neighbors += 2) {
      const auto want =
          oracle_analyze(in.box, in.positions, in.radius, neighbors);
      const auto got =
          analyze_structure(in.box, in.positions, in.radius, neighbors);
      ASSERT_EQ(got.coordination, want.coordination)
          << in.name << " N=" << neighbors;
      for (std::size_t i = 0; i < in.positions.size(); ++i) {
        ASSERT_EQ(bits(got.centrosymmetry[i]), bits(want.centrosymmetry[i]))
            << in.name << " N=" << neighbors << " atom " << i << ": "
            << got.centrosymmetry[i] << " vs " << want.centrosymmetry[i];
      }
    }
    if (in.name == "cu_bicrystal") {
      const auto probe = analyze_structure(in.box, in.positions, in.radius, 12);
      widest_row = static_cast<std::size_t>(
          *std::max_element(probe.coordination.begin(),
                            probe.coordination.end()));
    }
  }
  // The bicrystal must reach std::sort's introsort path (> 16 elements).
  EXPECT_GT(widest_row, 16u);
}

TEST(CentrosymmetryParity, MatchesGreedyOracleForWideRows) {
  // Any even neighbor count works: a dense gas with a wide radius keeps 66
  // of its ~160 bonds per atom (2,145 candidate pairs per row).
  Rng rng(7);
  const Box box({0, 0, 0}, {10, 10, 10});
  const auto pos = random_gas(rng, box, 600);
  const auto want = oracle_analyze(box, pos, 4.0, 66);
  const auto got = analyze_structure(box, pos, 4.0, 66);
  ASSERT_EQ(got.coordination, want.coordination);
  std::size_t wide = 0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (got.coordination[i] > 64) ++wide;
    ASSERT_EQ(bits(got.centrosymmetry[i]), bits(want.centrosymmetry[i]))
        << "atom " << i;
  }
  EXPECT_GT(wide, pos.size() / 2);
}

}  // namespace
}  // namespace wsmd::md
