#include "core/mapping.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "util/error.hpp"

namespace wsmd::core {

int fold_cell_index(int cell, int num_cells) {
  WSMD_REQUIRE(num_cells > 0, "fold needs a positive cell count");
  WSMD_REQUIRE(cell >= 0 && cell < num_cells, "cell index out of range");
  // First half of the ring lands on even line positions left-to-right;
  // second half lands on odd positions right-to-left, interleaving the two
  // sides of the split circle (paper Fig. 5).
  const int half = (num_cells + 1) / 2;
  if (cell < half) return 2 * cell;
  return 2 * (num_cells - 1 - cell) + 1;
}

namespace {

/// Greedy small-scale assignment: pair atoms with block slots by ascending
/// in-plane logical distance, measured in *core hops* (per-axis pitch
/// units) because that is what determines the neighborhood radius b.
/// Deterministic; near-optimal for the worst-pair metric at these sizes
/// (<= ~32 atoms per column).
std::vector<int> assign_atoms_to_slots(
    const std::vector<Vec3d>& atom_xy,       // logical projected positions
    const std::vector<Vec3d>& slot_nominal,  // slot nominal positions
    double pitch_x, double pitch_y) {
  const std::size_t n = atom_xy.size();
  WSMD_REQUIRE(n <= slot_nominal.size(), "more atoms than slots in a column");
  struct Cand {
    double d;
    std::uint32_t atom, slot;
  };
  std::vector<Cand> cands;
  cands.reserve(n * slot_nominal.size());
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t s = 0; s < slot_nominal.size(); ++s) {
      const Vec3d d = atom_xy[a] - slot_nominal[s];
      const double dd =
          std::max(std::fabs(d.x) / pitch_x, std::fabs(d.y) / pitch_y);
      cands.push_back({dd, a, s});
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& l, const Cand& r) {
    if (l.d != r.d) return l.d < r.d;
    if (l.atom != r.atom) return l.atom < r.atom;
    return l.slot < r.slot;
  });
  std::vector<int> atom_slot(n, -1);
  std::vector<bool> slot_used(slot_nominal.size(), false);
  std::size_t assigned = 0;
  for (const Cand& c : cands) {
    if (assigned == n) break;
    if (atom_slot[c.atom] != -1 || slot_used[c.slot]) continue;
    atom_slot[c.atom] = static_cast<int>(c.slot);
    slot_used[c.slot] = true;
    ++assigned;
  }
  WSMD_REQUIRE(assigned == n, "column assignment failed");
  return atom_slot;
}

/// Site-aware, z-monotone assignment. Crystalline columns contain a few
/// distinct in-plane sites (BCC: 2, FCC: 4), each with a z-stack of atoms.
/// Assigning every site a fixed group of block columns — identical in
/// every cell — makes same-site atoms in neighboring cells land exactly
/// block_w (block_h) cores apart, which is what keeps the neighborhood
/// radius at the paper's b (Ta 4, W 7). Returns an empty vector when the
/// column does not decompose cleanly (disordered configurations fall back
/// to the greedy metric assignment).
std::vector<int> site_partition_assign(const std::vector<Vec3d>& atom_xy,
                                       const std::vector<double>& atom_z,
                                       double cell, int block_w, int block_h) {
  const std::size_t n = atom_xy.size();
  // Quantize sub-cell positions to a quarter-cell grid to identify sites.
  struct Site {
    int qx, qy;
    std::vector<std::size_t> atoms;
  };
  std::vector<Site> sites;
  for (std::size_t i = 0; i < n; ++i) {
    const double fx = atom_xy[i].x / cell - std::floor(atom_xy[i].x / cell);
    const double fy = atom_xy[i].y / cell - std::floor(atom_xy[i].y / cell);
    const int qx = static_cast<int>(std::floor(fx * 4.0 + 0.5)) % 4;
    const int qy = static_cast<int>(std::floor(fy * 4.0 + 0.5)) % 4;
    bool found = false;
    for (auto& s : sites) {
      if (s.qx == qx && s.qy == qy) {
        s.atoms.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) sites.push_back({qx, qy, {i}});
  }
  if (sites.size() > 4) return {};  // not a simple crystal column

  // Group sites by x, order groups by x and members by y.
  std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
    if (a.qx != b.qx) return a.qx < b.qx;
    return a.qy < b.qy;
  });
  struct Group {
    int qx;
    std::vector<std::size_t> atoms;  // ordered by (qy, z)
  };
  std::vector<Group> groups;
  for (auto& s : sites) {
    std::sort(s.atoms.begin(), s.atoms.end(),
              [&](std::size_t a, std::size_t b) { return atom_z[a] < atom_z[b]; });
    if (groups.empty() || groups.back().qx != s.qx) {
      groups.push_back({s.qx, {}});
    }
    auto& g = groups.back();
    g.atoms.insert(g.atoms.end(), s.atoms.begin(), s.atoms.end());
  }

  // Column ranges per x-group; reject when they do not fit.
  int total_cols = 0;
  std::vector<int> width(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    width[g] = static_cast<int>(
        (groups[g].atoms.size() + static_cast<std::size_t>(block_h) - 1) /
        static_cast<std::size_t>(block_h));
    total_cols += width[g];
  }
  if (total_cols > block_w) return {};

  std::vector<int> atom_slot(n, -1);
  int col_base = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    // Fill the group's column range row-major in (qy, z) order: atoms
    // adjacent in z land in the same or adjacent rows (z-monotone).
    for (std::size_t k = 0; k < groups[g].atoms.size(); ++k) {
      const int col = col_base + static_cast<int>(k) % width[g];
      const int row = static_cast<int>(k) / width[g];
      if (row >= block_h) return {};
      atom_slot[groups[g].atoms[k]] = row * block_w + col;
    }
    col_base += width[g];
  }
  return atom_slot;
}

}  // namespace

Vec3d AtomMapping::logical_xy(const Vec3d& position) const {
  const Vec3d w = box_.wrap(position);
  Vec3d out{0, 0, 0};
  for (int axis = 0; axis < 2; ++axis) {
    const AxisInfo& ax = axes_[static_cast<std::size_t>(axis)];
    const double u = (axis == 0 ? w.x : w.y) - origin_[static_cast<std::size_t>(axis)];
    double g;
    if (!ax.folded) {
      g = u;
    } else {
      // Piecewise fold: cell c keeps its sub-cell offset (mirrored on the
      // second branch so the seam at the split is continuous) and lands at
      // the interleaved column fold_cell_index(c).
      int c = std::clamp(static_cast<int>(std::floor(u / ax.cell)), 0,
                         ax.cells - 1);
      const double s = u - c * ax.cell;
      const int k = fold_cell_index(c, ax.cells);
      const bool second_branch = c >= (ax.cells + 1) / 2;
      g = k * ax.cell + (second_branch ? ax.cell - s : s);
    }
    out[static_cast<std::size_t>(axis)] = g;
  }
  return out;
}

AtomMapping AtomMapping::for_structure(const lattice::Structure& s,
                                       MappingConfig config) {
  WSMD_REQUIRE(s.size() > 0, "cannot map an empty structure");
  AtomMapping m;
  m.box_ = s.box;

  // Anchor the partition on the *atoms*, not the (possibly padded) box:
  // open-boundary slabs carry vacuum padding that would misalign the cell
  // columns against the crystal and inflate per-column counts. Periodic
  // axes use the box bounds (wrapped coordinates are authoritative there).
  Vec3d atom_lo = s.box.wrap(s.positions.front());
  Vec3d atom_hi = atom_lo;
  for (const auto& r : s.positions) {
    const Vec3d w = s.box.wrap(r);
    for (std::size_t a = 0; a < 3; ++a) {
      atom_lo[a] = std::min(atom_lo[a], w[a]);
      atom_hi[a] = std::max(atom_hi[a], w[a]);
    }
  }
  Vec3d len{0, 0, 0};
  for (std::size_t a = 0; a < 2; ++a) {
    if (s.box.periodic[a]) {
      m.origin_[a] = s.box.lo[a];
      len[a] = s.box.lengths()[a];
    } else {
      m.origin_[a] = atom_lo[a] - 1e-9;
      len[a] = std::max(atom_hi[a] - atom_lo[a] + 2e-9, 1e-6);
    }
  }

  // Partition-cell size: explicit, or sized for ~8 atoms per column.
  double cell = config.cell_size;
  if (cell <= 0.0) {
    const double area = len.x * len.y;
    const double per_col = 8.0;
    cell = std::sqrt(area * per_col / static_cast<double>(s.size()));
  }
  WSMD_REQUIRE(cell > 0.0, "cell size must be positive");

  for (int axis = 0; axis < 2; ++axis) {
    AxisInfo& ax = m.axes_[static_cast<std::size_t>(axis)];
    ax.cell = cell;
    ax.cells = std::max(
        1, static_cast<int>(std::ceil(len[static_cast<std::size_t>(axis)] / cell)));
    ax.folded = s.box.periodic[static_cast<std::size_t>(axis)];
    ax.columns = ax.folded ? 2 * ((ax.cells + 1) / 2) : ax.cells;
  }

  // Bin atoms into logical columns.
  const int fc_x = m.axes_[0].columns;
  const int fc_y = m.axes_[1].columns;
  std::vector<std::vector<std::size_t>> columns(
      static_cast<std::size_t>(fc_x) * static_cast<std::size_t>(fc_y));
  std::vector<Vec3d> logical(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    logical[i] = m.logical_xy(s.positions[i]);
    const int cx = std::clamp(static_cast<int>(logical[i].x / cell), 0, fc_x - 1);
    const int cy = std::clamp(static_cast<int>(logical[i].y / cell), 0, fc_y - 1);
    columns[static_cast<std::size_t>(cy) * fc_x + cx].push_back(i);
  }

  std::size_t max_per_column = 0;
  std::size_t fullest = 0;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].size() > max_per_column) {
      max_per_column = columns[c].size();
      fullest = c;
    }
  }
  WSMD_REQUIRE(max_per_column > 0, "no atoms binned");

  // Block dimensions: prefer the smallest-diameter block on which the
  // site partition decomposes cleanly (that is what pins the neighborhood
  // radius b to the paper's values); fall back to near-square.
  int block_w = 0, block_h = 0;
  {
    std::vector<Vec3d> probe_xy;
    std::vector<double> probe_z;
    for (std::size_t i : columns[fullest]) {
      probe_xy.push_back(logical[i]);
      probe_z.push_back(s.positions[i].z);
    }
    int best_max = 0, best_area = 0;
    bool found = false;
    for (int w = 1; w <= static_cast<int>(max_per_column); ++w) {
      const int h = static_cast<int>(
          (max_per_column + static_cast<std::size_t>(w) - 1) /
          static_cast<std::size_t>(w));
      if (!site_partition_assign(probe_xy, probe_z, cell, w, h).empty()) {
        const int md = std::max(w, h);
        const int area = w * h;
        if (!found || md < best_max || (md == best_max && area < best_area)) {
          found = true;
          best_max = md;
          best_area = area;
          block_w = w;
          block_h = h;
        }
      }
    }
    if (!found) {
      block_w = static_cast<int>(
          std::ceil(std::sqrt(static_cast<double>(max_per_column))));
      block_h = static_cast<int>(
          std::ceil(static_cast<double>(max_per_column) / block_w));
    }
  }

  m.grid_w_ = fc_x * block_w;
  m.grid_h_ = fc_y * block_h;
  m.pitch_x_ = cell / block_w;
  m.pitch_y_ = cell / block_h;

  m.atom_core_.resize(s.size());
  m.core_atom_.assign(m.core_count(), -1);

  // Per-column assignment of atoms to block slots: site-aware z-monotone
  // partition for crystalline columns, greedy metric fallback otherwise.
  std::vector<Vec3d> atom_xy, slot_pos;
  std::vector<double> atom_z;
  for (int cy = 0; cy < fc_y; ++cy) {
    for (int cx = 0; cx < fc_x; ++cx) {
      const auto& atoms = columns[static_cast<std::size_t>(cy) * fc_x + cx];
      if (atoms.empty()) continue;
      atom_xy.clear();
      atom_z.clear();
      slot_pos.clear();
      for (std::size_t i : atoms) {
        atom_xy.push_back(logical[i]);
        atom_z.push_back(s.positions[i].z);
      }
      std::vector<CoreCoord> slots;
      for (int by = 0; by < block_h; ++by) {
        for (int bx = 0; bx < block_w; ++bx) {
          const CoreCoord c{cx * block_w + bx, cy * block_h + by};
          slots.push_back(c);
          slot_pos.push_back(m.nominal_position(c));
        }
      }
      std::vector<int> assign =
          site_partition_assign(atom_xy, atom_z, cell, block_w, block_h);
      if (assign.empty()) {
        assign = assign_atoms_to_slots(atom_xy, slot_pos, m.pitch_x_, m.pitch_y_);
      }
      for (std::size_t k = 0; k < atoms.size(); ++k) {
        const CoreCoord c = slots[static_cast<std::size_t>(assign[k])];
        m.atom_core_[atoms[k]] = c;
        m.core_atom_[static_cast<std::size_t>(c.y) * m.grid_w_ + c.x] =
            static_cast<long>(atoms[k]);
      }
    }
  }

  if (config.refine_rounds > 0) {
    m.refine(s.positions, config.refine_rounds);
  }
  return m;
}

CoreCoord AtomMapping::core_of(std::size_t atom) const {
  WSMD_REQUIRE(atom < atom_core_.size(), "atom index out of range");
  return atom_core_[atom];
}

long AtomMapping::atom_at(int x, int y) const {
  WSMD_REQUIRE(x >= 0 && x < grid_w_ && y >= 0 && y < grid_h_,
               "core out of range");
  return core_atom_[static_cast<std::size_t>(y) * grid_w_ + x];
}

Vec3d AtomMapping::nominal_position(const CoreCoord& c) const {
  return {(c.x + 0.5) * pitch_x_, (c.y + 0.5) * pitch_y_, 0.0};
}

double AtomMapping::displacement(std::size_t atom, const Vec3d& position) const {
  const Vec3d nominal = nominal_position(core_of(atom));
  const Vec3d lg = logical_xy(position);
  const double dx = std::fabs(lg.x - nominal.x);
  const double dy = std::fabs(lg.y - nominal.y);
  return std::max(dx, dy);
}

double AtomMapping::assignment_cost(const std::vector<Vec3d>& positions) const {
  WSMD_REQUIRE(positions.size() == atom_core_.size(),
               "position count mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    worst = std::max(worst, displacement(i, positions[i]));
  }
  return worst;
}

int AtomMapping::required_b(const std::vector<Vec3d>& positions,
                            double rcut) const {
  WSMD_REQUIRE(positions.size() == atom_core_.size(),
               "position count mismatch");
  WSMD_REQUIRE(rcut > 0.0, "cutoff must be positive");

  struct Key {
    long long x, y, z;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = 1469598103934665603ull;
      for (long long v : {k.x, k.y, k.z}) {
        h ^= static_cast<std::size_t>(v) + 0x9E3779B97F4A7C15ull;
        h *= 1099511628211ull;
      }
      return h;
    }
  };
  auto key_of = [rcut](const Vec3d& r) {
    return Key{static_cast<long long>(std::floor(r.x / rcut)),
               static_cast<long long>(std::floor(r.y / rcut)),
               static_cast<long long>(std::floor(r.z / rcut))};
  };
  std::unordered_map<Key, std::vector<std::size_t>, KeyHash> grid;
  grid.reserve(positions.size());
  // Hash wrapped positions so periodic images meet in the same cells; the
  // pair distance itself uses the box minimum image.
  std::vector<Vec3d> wrapped(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    wrapped[i] = box_.wrap(positions[i]);
    grid[key_of(wrapped[i])].push_back(i);
  }

  const double rc2 = rcut * rcut;
  int b = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Key c = key_of(wrapped[i]);
    for (long long dz = -1; dz <= 1; ++dz) {
      for (long long dy = -1; dy <= 1; ++dy) {
        for (long long dx = -1; dx <= 1; ++dx) {
          const auto it = grid.find(Key{c.x + dx, c.y + dy, c.z + dz});
          if (it == grid.end()) continue;
          for (std::size_t j : it->second) {
            if (j <= i) continue;
            const Vec3d d = box_.minimum_image(wrapped[i], wrapped[j]);
            if (norm2(d) >= rc2) continue;
            b = std::max(b, chebyshev(atom_core_[i], atom_core_[j]));
          }
        }
      }
    }
  }
  // NOTE: hashing wrapped coordinates misses periodic pairs whose images
  // straddle the wrap; include them by also checking the edge cells when
  // any axis is periodic. For the folded mapping those pairs are exactly
  // the ones the fold keeps local, so scan the boundary band explicitly.
  for (int axis = 0; axis < 2; ++axis) {
    if (!box_.periodic[static_cast<std::size_t>(axis)]) continue;
    std::vector<std::size_t> lo_band, hi_band;
    const double lo_edge = box_.lo[static_cast<std::size_t>(axis)] + rcut;
    const double hi_edge = box_.hi[static_cast<std::size_t>(axis)] - rcut;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const double u = wrapped[i][static_cast<std::size_t>(axis)];
      if (u < lo_edge) lo_band.push_back(i);
      if (u > hi_edge) hi_band.push_back(i);
    }
    for (std::size_t i : lo_band) {
      for (std::size_t j : hi_band) {
        if (i == j) continue;
        const Vec3d d = box_.minimum_image(wrapped[i], wrapped[j]);
        if (norm2(d) >= rc2) continue;
        b = std::max(b, chebyshev(atom_core_[i], atom_core_[j]));
      }
    }
  }
  return b;
}

double AtomMapping::refine(const std::vector<Vec3d>& positions, int rounds) {
  WSMD_REQUIRE(positions.size() == atom_core_.size(),
               "position count mismatch");
  // Greedy local search: for every core pair within Chebyshev distance 2,
  // swap the held atoms (or move into an empty core) when that reduces the
  // pairwise worst displacement. Deterministic sweep order.
  for (int round = 0; round < rounds; ++round) {
    bool improved = false;
    for (int y = 0; y < grid_h_; ++y) {
      for (int x = 0; x < grid_w_; ++x) {
        for (int dy = 0; dy <= 2; ++dy) {
          for (int dx = (dy == 0 ? 1 : -2); dx <= 2; ++dx) {
            // Re-read on every probe: an accepted swap changes the slot.
            const long a =
                core_atom_[static_cast<std::size_t>(y) * grid_w_ + x];
            const int nx = x + dx, ny = y + dy;
            if (nx < 0 || nx >= grid_w_ || ny < 0 || ny >= grid_h_) continue;
            const long bt =
                core_atom_[static_cast<std::size_t>(ny) * grid_w_ + nx];
            if (a < 0 && bt < 0) continue;
            const CoreCoord ca{x, y}, cb{nx, ny};
            // Hop-normalized distance: what the neighborhood radius b
            // actually depends on.
            auto disp = [&](long atom, const CoreCoord& c) {
              if (atom < 0) return 0.0;
              const Vec3d nom = nominal_position(c);
              const Vec3d lg =
                  logical_xy(positions[static_cast<std::size_t>(atom)]);
              return std::max(std::fabs(lg.x - nom.x) / pitch_x_,
                              std::fabs(lg.y - nom.y) / pitch_y_);
            };
            const double before = std::max(disp(a, ca), disp(bt, cb));
            const double after = std::max(disp(a, cb), disp(bt, ca));
            if (after + 1e-12 < before) {
              swap_atoms(ca, cb);
              improved = true;
            }
          }
        }
      }
    }
    if (!improved) break;
  }
  return assignment_cost(positions);
}

void AtomMapping::swap_atoms(const CoreCoord& a, const CoreCoord& b) {
  WSMD_REQUIRE(a.x >= 0 && a.x < grid_w_ && a.y >= 0 && a.y < grid_h_,
               "core a out of range");
  WSMD_REQUIRE(b.x >= 0 && b.x < grid_w_ && b.y >= 0 && b.y < grid_h_,
               "core b out of range");
  auto& slot_a = core_atom_[static_cast<std::size_t>(a.y) * grid_w_ + a.x];
  auto& slot_b = core_atom_[static_cast<std::size_t>(b.y) * grid_w_ + b.x];
  std::swap(slot_a, slot_b);
  ++version_;
  if (slot_a >= 0) atom_core_[static_cast<std::size_t>(slot_a)] = a;
  if (slot_b >= 0) atom_core_[static_cast<std::size_t>(slot_b)] = b;
}

void AtomMapping::restore_assignment(const std::vector<long>& core_atom) {
  WSMD_REQUIRE(core_atom.size() == core_count(),
               "restore_assignment: table covers " << core_atom.size()
                                                   << " cores, grid has "
                                                   << core_count());
  std::vector<bool> placed(atom_core_.size(), false);
  for (std::size_t c = 0; c < core_atom.size(); ++c) {
    const long a = core_atom[c];
    if (a < 0) continue;
    WSMD_REQUIRE(static_cast<std::size_t>(a) < atom_core_.size(),
                 "restore_assignment: atom id " << a << " out of range");
    WSMD_REQUIRE(!placed[static_cast<std::size_t>(a)],
                 "restore_assignment: atom " << a
                                             << " assigned to two cores");
    placed[static_cast<std::size_t>(a)] = true;
  }
  for (std::size_t a = 0; a < placed.size(); ++a) {
    WSMD_REQUIRE(placed[a],
                 "restore_assignment: atom " << a << " assigned to no core");
  }
  core_atom_ = core_atom;
  ++version_;
  for (std::size_t c = 0; c < core_atom_.size(); ++c) {
    const long a = core_atom_[c];
    if (a < 0) continue;
    atom_core_[static_cast<std::size_t>(a)] = {
        static_cast<int>(c) % grid_w_, static_cast<int>(c) / grid_w_};
  }
}

}  // namespace wsmd::core
