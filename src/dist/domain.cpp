#include "dist/domain.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>

namespace wsmd::dist {

std::vector<core::ShardRect> row_strips(int width, int height, int count) {
  std::vector<core::ShardRect> strips;
  for (int t = 0; t < count; ++t) {
    strips.push_back(core::row_strip({0, 0, width, height}, t, count));
  }
  return strips;
}

RowSpan halo_rows(const std::vector<core::ShardRect>& strips, int owner,
                  int needer, int b) {
  const auto& own = strips[static_cast<std::size_t>(owner)];
  const auto& need = strips[static_cast<std::size_t>(needer)];
  if (own.empty() || need.empty() || owner == needer) return {};
  RowSpan span;
  span.lo = std::max(own.y0, need.y0 - b);
  span.hi = std::min(own.y1, need.y1 + b);
  if (span.hi <= span.lo) return {};
  return span;
}

std::vector<std::pair<int, int>> halo_pairs(
    const std::vector<core::ShardRect>& strips, int b) {
  std::vector<std::pair<int, int>> pairs;
  const int m = static_cast<int>(strips.size());
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      if (!halo_rows(strips, i, j, b).empty() ||
          !halo_rows(strips, j, i, b).empty()) {
        pairs.emplace_back(i, j);
      }
    }
  }
  return pairs;
}

std::vector<std::uint32_t> atoms_in_rows(const core::AtomMapping& mapping,
                                         int lo, int hi) {
  std::vector<std::uint32_t> atoms;
  const int w = mapping.grid_width();
  for (int cy = lo; cy < hi; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      const long a = mapping.atom_at(cx, cy);
      if (a >= 0) atoms.push_back(static_cast<std::uint32_t>(a));
    }
  }
  return atoms;
}

double halo_cycles_per_step(const std::vector<core::ShardRect>& strips, int b,
                            int grid_width, int grid_height,
                            const wse::CostModel& model) {
  double cycles = 0.0;
  for (const auto& s : strips) {
    if (s.empty()) continue;
    // Ghost cores: the (2b+1)-halo of the strip clipped to the physical
    // grid — only cores held by *other* strips cross a boundary. A single
    // full-grid strip therefore has no halo at all.
    const int gx0 = std::max(0, s.x0 - b), gx1 = std::min(grid_width, s.x1 + b);
    const int gy0 = std::max(0, s.y0 - b);
    const int gy1 = std::min(grid_height, s.y1 + b);
    const double ghost = static_cast<double>(gx1 - gx0) * (gy1 - gy0) -
                         static_cast<double>(s.x1 - s.x0) * (s.y1 - s.y0);
    // Two neighborhood exchanges per timestep cross the strip boundary:
    // candidate positions and embedding derivatives (paper phases 1 and 3).
    cycles += 2.0 * ghost * model.ghost_core_cycles();
  }
  return cycles;
}

std::string run_scoped_name(const std::string& kind, long pid) {
  return "wsmd-" + kind + "-" + std::to_string(pid);
}

std::string rank_suffix(const std::string& base, int rank) {
  return base + ".rank" + std::to_string(rank);
}

std::string shm_segment_name(long pid, int rank_i, int rank_j) {
  std::string name = "/";
  name += rank_suffix(run_scoped_name("shm", pid), rank_i);
  name += '-';
  name += std::to_string(rank_j);
  return name;
}

std::string rank_scratch_path(const std::string& dir, const std::string& base,
                              int rank) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += rank_suffix(base, rank);
  return path;
}

ScratchDir::ScratchDir(const std::string& parent) {
  namespace fs = std::filesystem;
  fs::path root = parent.empty() ? fs::temp_directory_path() : fs::path(parent);
  std::string leaf = ".";
  leaf += run_scoped_name("dist", static_cast<long>(::getpid()));
  fs::path dir = root / leaf;
  std::error_code ec;
  fs::create_directories(dir, ec);  // best-effort; ranks fall back to stderr
  path_ = dir.string();
}

ScratchDir::~ScratchDir() {
  if (keep_) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);  // best-effort cleanup
}

std::string ScratchDir::rank_file(const std::string& base, int rank) const {
  return rank_scratch_path(path_, base, rank);
}

}  // namespace wsmd::dist
