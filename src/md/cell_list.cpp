#include "md/cell_list.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace wsmd::md {

namespace {

bool finite(const Vec3d& r) {
  return std::isfinite(r.x) && std::isfinite(r.y) && std::isfinite(r.z);
}

}  // namespace

void CellList::require_min_image(const Box& box, double cutoff) {
  for (std::size_t a = 0; a < 3; ++a) {
    if (box.periodic[a]) {
      WSMD_REQUIRE(box.length(static_cast<int>(a)) >= 2.0 * cutoff,
                   "periodic box length " << box.length(static_cast<int>(a))
                                          << " < 2*cutoff " << 2.0 * cutoff
                                          << " on axis " << a);
    }
  }
}

void CellList::build(const Box& box, const std::vector<Vec3d>& positions,
                     double radius) {
  WSMD_REQUIRE(radius > 0.0, "cell-list radius must be positive");
  WSMD_REQUIRE(!positions.empty(), "cannot build a cell list for zero atoms");
  WSMD_REQUIRE(positions.size() < std::numeric_limits<std::uint32_t>::max(),
               "cell list holds at most 2^32 - 2 atoms");
  radius_ = radius;
  r2max_ = radius * radius;
  const Vec3d len = box.lengths();
  for (std::size_t a = 0; a < 3; ++a) {
    periodic_[a] = box.periodic[a];
    len_[a] = len[a];
  }
  any_periodic_ = periodic_[0] || periodic_[1] || periodic_[2];
  const auto n = static_cast<std::uint32_t>(positions.size());

  // Binning region: periodic axes use the box, open axes the extrema of
  // the finite atoms (the box itself when there are none).
  Vec3d lo = box.lo, hi = box.hi;
  Vec3d mn{std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity()};
  Vec3d mx = -mn;
  std::uint32_t finite_atoms = 0;
  for (const auto& r : positions) {
    if (!finite(r)) continue;
    ++finite_atoms;
    for (std::size_t a = 0; a < 3; ++a) {
      mn[a] = std::min(mn[a], r[a]);
      mx[a] = std::max(mx[a], r[a]);
    }
  }
  for (std::size_t a = 0; a < 3; ++a) {
    if (box.periodic[a] || finite_atoms == 0) continue;
    lo[a] = mn[a] - 1e-9;
    hi[a] = mx[a] + 1e-9;
  }

  // Cells of edge >= radius, at most max(27, 2 per finite atom) of them
  // (and 2^30): a finite atom flung far out on open axes would otherwise
  // ask for up to (extent / radius)^3 cells. Past the cap the widest axis
  // is halved until the grid fits; edges only grow, so the search stays
  // exact. No deck comes near the cap.
  const double max_cells = std::clamp(2.0 * finite_atoms, 27.0, 0x1p30);
  double cells[3];
  for (std::size_t a = 0; a < 3; ++a) {
    cells[a] = std::clamp(std::floor((hi[a] - lo[a]) / radius), 1.0,
                          max_cells);
  }
  while (cells[0] * cells[1] * cells[2] > max_cells) {
    double& widest = *std::max_element(cells, cells + 3);
    widest = std::floor(widest / 2.0);
  }
  int ncell[3];
  double cell_edge[3];
  for (std::size_t a = 0; a < 3; ++a) {
    ncell[a] = static_cast<int>(cells[a]);
    cell_edge[a] = (hi[a] - lo[a]) / ncell[a];
  }

  const auto nx = static_cast<std::uint32_t>(ncell[0]);
  const auto ny = static_cast<std::uint32_t>(ncell[1]);
  const std::uint32_t total_cells =
      nx * ny * static_cast<std::uint32_t>(ncell[2]);
  auto flat_id = [&](const int c[3]) {
    return (static_cast<std::uint32_t>(c[2]) * ny +
            static_cast<std::uint32_t>(c[1])) *
               nx +
           static_cast<std::uint32_t>(c[0]);
  };

  // Bin atoms (counting sort into CSR keeps per-cell atoms in index order,
  // which makes traversal deterministic). Non-finite atoms go to the extra
  // cell `total_cells`, which has no slots and an empty span list.
  atom_cell_.resize(n);
  cell_start_.assign(static_cast<std::size_t>(total_cells) + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!finite(positions[i])) {
      atom_cell_[i] = total_cells;
      continue;
    }
    int c[3];
    for (std::size_t a = 0; a < 3; ++a) {
      double x = positions[i][a] - lo[a];
      if (box.periodic[a]) {
        const double period = hi[a] - lo[a];
        x -= std::floor(x / period) * period;
      }
      c[a] = static_cast<int>(std::clamp(std::floor(x / cell_edge[a]), 0.0,
                                         static_cast<double>(ncell[a] - 1)));
    }
    const std::uint32_t flat = flat_id(c);
    atom_cell_[i] = flat;
    ++cell_start_[flat + 1];
  }
  for (std::uint32_t c = 0; c < total_cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  const std::uint32_t slots = cell_start_[total_cells];
  cell_atoms_.resize(slots);
  atom_slot_.assign(n, 0);
  xs_.assign(slots + kBlock, 0.0);
  ys_.assign(slots + kBlock, 0.0);
  zs_.assign(slots + kBlock, 0.0);
  {
    std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                      cell_start_.end() - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (atom_cell_[i] == total_cells) continue;
      const std::uint32_t s = cursor[atom_cell_[i]]++;
      cell_atoms_[s] = i;
      atom_slot_[i] = s;
      xs_[s] = positions[i].x;
      ys_[s] = positions[i].y;
      zs_[s] = positions[i].z;
    }
  }

  // Each cell's deduplicated 27-stencil, merged into spans. With < 3 cells
  // along a periodic axis the wrapped offsets collide; sort+unique keeps
  // each neighbor cell exactly once so queries never double-visit an atom.
  // Ascending cell ids are ascending slots, so the spans of a sorted
  // stencil keep the visit order; adjacent slot ranges (consecutive ids, or
  // ids separated only by empty cells) merge into one span.
  span_start_.assign(static_cast<std::size_t>(total_cells) + 2, 0);
  spans_.clear();
  std::uint32_t scratch[27];
  for (std::uint32_t cell = 0; cell < total_cells; ++cell) {
    const int cx = static_cast<int>(cell % nx);
    const int cy = static_cast<int>(cell / nx % ny);
    const int cz = static_cast<int>(cell / (nx * ny));
    std::size_t count = 0;
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
              break;
            }
          }
          if (skip) continue;
          scratch[count++] = flat_id(cc);
        }
      }
    }
    std::sort(scratch, scratch + count);
    const std::size_t unique_count =
        static_cast<std::size_t>(std::unique(scratch, scratch + count) -
                                 scratch);
    const std::size_t first = spans_.size();
    for (std::size_t k = 0; k < unique_count; ++k) {
      const Span s{cell_start_[scratch[k]], cell_start_[scratch[k] + 1]};
      if (s.begin == s.end) continue;
      if (spans_.size() > first && spans_.back().end == s.begin) {
        spans_.back().end = s.end;
      } else {
        spans_.push_back(s);
      }
    }
    span_start_[cell + 1] = static_cast<std::uint32_t>(spans_.size());
  }
  span_start_[total_cells + 1] = span_start_[total_cells];
}

}  // namespace wsmd::md
