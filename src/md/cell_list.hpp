#pragma once

/// \file cell_list.hpp
/// Shared spatial cell list: the O(N) neighbor-search primitive behind the
/// Verlet list (md/neighbor), the structural analysis (md/analysis), and the
/// streaming observables (src/obs).
///
/// Atoms are binned into cells of edge >= `radius`; candidate neighbors of
/// an atom are the atoms in its cell's 27-stencil. The stencil cell ids are
/// deduplicated at build time, so every atom is visited at most once per
/// query even when a periodic axis holds fewer than three cells (the wrap
/// would otherwise fold distinct stencil offsets onto the same cell).
///
/// Layout. `build` gives every atom a *slot*: slots run through the cells
/// in ascending cell id and, within a cell, in ascending atom index, and
/// the positions are copied into three planes (x, y, z) in slot order. A
/// run of consecutive cell ids is then one contiguous slot range, so each
/// cell's stencil is stored as a few *spans* (slot ranges) instead of up to
/// 27 cell ids. Queries walk a span in blocks: first the distances of the
/// block, then the accept test.
///
/// Kept contracts (the probes' byte-identical outputs rest on them; the
/// Verlet list orders its rows itself and needs only the pair set):
/// - for_each_neighbor visits stencil cells by ascending id and the atoms of
///   a cell by ascending index — ascending slot order;
/// - d and r2 carry the bits of Box::minimum_image and norm2: the same
///   per-axis subtraction and min_image_1d (util/box.hpp);
/// - for_each_pair reports each unordered pair once as (i, j) with i < j and
///   d = rj - ri, its distance computed once.
///
/// Non-finite atoms (a NaN or infinite coordinate) get no slot: they neither
/// have nor are neighbors, and they do not widen the binning region. The
/// grid holds at most max(27, 2 x finite atoms) cells: a finite atom flung
/// far out on open axes coarsens the grid instead of growing it.
///
/// Correctness contract, shared with the Verlet list it was extracted from:
/// distances use the minimum-image convention, which is exact only while at
/// most one periodic image of any neighbor lies within `radius` — callers
/// on periodic boxes must keep every periodic box length >= 2 * cutoff.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/box.hpp"
#include "util/vec3.hpp"

namespace wsmd::md {

class CellList {
 public:
  CellList() = default;

  /// Enforce the minimum-image precondition: every periodic box length
  /// must be >= 2 * `cutoff`. Callers validate with the cutoff they
  /// guarantee to their users — which may be smaller than the cell radius
  /// (the Verlet list builds cells at cutoff + skin but only promises
  /// completeness within cutoff), so build() cannot enforce this itself.
  static void require_min_image(const Box& box, double cutoff);

  /// Bin `positions` into cells of edge >= `radius`. For periodic axes the
  /// box bounds are authoritative; open axes bin over the extrema of the
  /// finite atoms (atoms may drift outside the nominal box). The list keeps
  /// its own slot-ordered copy of the positions.
  void build(const Box& box, const std::vector<Vec3d>& positions,
             double radius);

  std::size_t atom_count() const { return atom_cell_.size(); }
  double radius() const { return radius_; }
  std::size_t cell_count() const {
    return cell_start_.empty() ? 0 : cell_start_.size() - 1;
  }

  /// Invoke `f(j, d, r2)` for every atom j != i whose minimum-image
  /// displacement d = rj - ri has |d|^2 = r2 < radius^2. Each such j is
  /// visited exactly once, in ascending slot order (see the file comment).
  template <typename F>
  void for_each_neighbor(std::size_t i, F&& f) const {
    if (any_periodic_) {
      neighbors<true>(i, f);
    } else {
      neighbors<false>(i, f);
    }
  }

  /// Invoke `f(i, j, d, r2)` once per unordered pair i < j within `radius`
  /// (d is the minimum image rj - ri). The atom at slot p walks only the
  /// slots after p, so every pair's distance is computed once.
  template <typename F>
  void for_each_pair(F&& f) const {
    if (any_periodic_) {
      pairs<true>(f);
    } else {
      pairs<false>(f);
    }
  }

 private:
  /// Slots per distance block; the planes carry this much padding so a
  /// block may always be computed in full.
  static constexpr std::uint32_t kBlock = 16;

  struct Span {
    std::uint32_t begin, end;  ///< slot range [begin, end)
  };

  /// Minimum-image displacements and squared lengths of the kBlock slots
  /// from `s` against (xi, yi, zi), with Box::minimum_image's arithmetic.
  template <bool kPeriodic>
  void block_distances(std::uint32_t s, double xi, double yi, double zi,
                       double* dx, double* dy, double* dz, double* r2) const {
    const double* xs = xs_.data() + s;
    const double* ys = ys_.data() + s;
    const double* zs = zs_.data() + s;
    for (std::uint32_t k = 0; k < kBlock; ++k) {
      double ax = xs[k] - xi, ay = ys[k] - yi, az = zs[k] - zi;
      if constexpr (kPeriodic) {
        if (periodic_[0]) ax = min_image_1d(ax, len_[0]);
        if (periodic_[1]) ay = min_image_1d(ay, len_[1]);
        if (periodic_[2]) az = min_image_1d(az, len_[2]);
      }
      dx[k] = ax;
      dy[k] = ay;
      dz[k] = az;
      r2[k] = ax * ax + ay * ay + az * az;
    }
  }

  /// Walk slots [begin, end) against (xi, yi, zi) and call
  /// `emit(slot, d, r2)` for each slot within the radius, except `self`.
  template <bool kPeriodic, typename Emit>
  void walk(std::uint32_t begin, std::uint32_t end, double xi, double yi,
            double zi, std::uint32_t self, Emit&& emit) const {
    alignas(64) double dx[kBlock], dy[kBlock], dz[kBlock], r2[kBlock];
    std::uint32_t hit[kBlock];
    for (std::uint32_t s = begin; s < end; s += kBlock) {
      block_distances<kPeriodic>(s, xi, yi, zi, dx, dy, dz, r2);
      const std::uint32_t n = std::min(kBlock, end - s);
      std::uint32_t hits = 0;
      for (std::uint32_t k = 0; k < n; ++k) {
        hit[hits] = k;
        hits += static_cast<std::uint32_t>(r2[k] < r2max_) &
                static_cast<std::uint32_t>(s + k != self);
      }
      for (std::uint32_t h = 0; h < hits; ++h) {
        const std::uint32_t k = hit[h];
        emit(s + k, Vec3d{dx[k], dy[k], dz[k]}, r2[k]);
      }
    }
  }

  template <bool kPeriodic, typename F>
  void neighbors(std::size_t i, F& f) const {
    // A non-finite atom reads the placeholder slot 0 (the planes are never
    // empty) but walks no span: its span list is empty.
    const std::uint32_t cell = atom_cell_[i];
    const std::uint32_t self = atom_slot_[i];
    const double xi = xs_[self], yi = ys_[self], zi = zs_[self];
    for (std::uint32_t sp = span_start_[cell]; sp < span_start_[cell + 1];
         ++sp) {
      walk<kPeriodic>(spans_[sp].begin, spans_[sp].end, xi, yi, zi, self,
                      [&](std::uint32_t s, const Vec3d& d, double r2) {
                        f(static_cast<std::size_t>(cell_atoms_[s]), d, r2);
                      });
    }
  }

  template <bool kPeriodic, typename F>
  void pairs(F& f) const {
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    const std::uint32_t cells = static_cast<std::uint32_t>(cell_count());
    for (std::uint32_t cell = 0; cell < cells; ++cell) {
      for (std::uint32_t p = cell_start_[cell]; p < cell_start_[cell + 1];
           ++p) {
        const std::size_t a = cell_atoms_[p];
        for (std::uint32_t sp = span_start_[cell];
             sp < span_start_[cell + 1]; ++sp) {
          if (spans_[sp].end <= p + 1) continue;
          walk<kPeriodic>(
              std::max(spans_[sp].begin, p + 1), spans_[sp].end, xs_[p],
              ys_[p], zs_[p], kNone,
              [&](std::uint32_t s, const Vec3d& d, double r2) {
                const std::size_t b = cell_atoms_[s];
                if (a < b) {
                  f(a, b, d, r2);
                } else {
                  // Slot order disagrees with index order: swap the pair
                  // and take 0 - d (not -d, so a zero component stays +0,
                  // as the rj - ri of that orientation gives it).
                  f(b, a, Vec3d{0.0 - d.x, 0.0 - d.y, 0.0 - d.z}, r2);
                }
              });
        }
      }
    }
  }

  double radius_ = 0.0;
  double r2max_ = 0.0;
  bool any_periodic_ = false;
  bool periodic_[3] = {false, false, false};
  double len_[3] = {0, 0, 0};  ///< box lengths, as Box::lengths() gives them

  /// atom -> flat cell id; non-finite atoms get cell_count(), whose span
  /// list is empty.
  std::vector<std::uint32_t> atom_cell_;
  std::vector<std::uint32_t> atom_slot_;   ///< atom -> slot (0 if non-finite)
  std::vector<std::uint32_t> cell_start_;  ///< cell -> first slot (CSR)
  std::vector<std::uint32_t> cell_atoms_;  ///< slot -> atom id
  std::vector<double> xs_, ys_, zs_;       ///< slot -> position, padded
  std::vector<std::uint32_t> span_start_;  ///< cell -> first span (CSR)
  std::vector<Span> spans_;                ///< merged deduped stencils
};

}  // namespace wsmd::md
