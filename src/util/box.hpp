#pragma once

/// \file box.hpp
/// Orthorhombic simulation box with per-axis periodicity.
///
/// The paper's benchmark slabs use open (non-periodic) boundaries so atoms
/// can migrate in and out at the edges (Sec. I), while the PBC machinery of
/// Sec. III-E / V-F needs selectable periodicity per axis. Minimum-image
/// displacement is exact for orthorhombic cells when the cutoff is below
/// half the box length, which all WSMD workloads satisfy.

#include <array>
#include <cmath>

#include "util/error.hpp"
#include "util/vec3.hpp"

namespace wsmd {

/// Minimum image of one displacement component along a periodic axis of
/// length `len`. The one place this rounding lives: Box::minimum_image and
/// md::CellList's distance blocks must agree bit for bit.
inline double min_image_1d(double d, double len) {
  return d - std::round(d / len) * len;
}

struct Box {
  Vec3d lo{0, 0, 0};
  Vec3d hi{0, 0, 0};
  std::array<bool, 3> periodic{false, false, false};

  Box() = default;
  Box(Vec3d lo_, Vec3d hi_, std::array<bool, 3> periodic_ = {false, false, false})
      : lo(lo_), hi(hi_), periodic(periodic_) {
    WSMD_REQUIRE(hi.x > lo.x && hi.y > lo.y && hi.z > lo.z,
                 "box must have positive extent");
  }

  Vec3d lengths() const { return hi - lo; }
  double length(int axis) const { return (hi - lo)[static_cast<std::size_t>(axis)]; }
  double volume() const {
    const Vec3d l = lengths();
    return l.x * l.y * l.z;
  }

  /// Fold a position into the box along periodic axes only.
  Vec3d wrap(Vec3d r) const {
    const Vec3d len = lengths();
    for (std::size_t a = 0; a < 3; ++a) {
      if (!periodic[a]) continue;
      double c = r[a] - lo[a];
      c -= std::floor(c / len[a]) * len[a];
      r[a] = lo[a] + c;
    }
    return r;
  }

  /// Minimum-image displacement rj - ri honoring periodic axes.
  Vec3d minimum_image(const Vec3d& ri, const Vec3d& rj) const {
    Vec3d d = rj - ri;
    const Vec3d len = lengths();
    for (std::size_t a = 0; a < 3; ++a) {
      if (!periodic[a]) continue;
      d[a] = min_image_1d(d[a], len[a]);
    }
    return d;
  }

  /// True when the point lies inside (non-periodic axes only are checked;
  /// periodic axes always contain the wrapped image).
  bool contains(const Vec3d& r) const {
    for (std::size_t a = 0; a < 3; ++a) {
      if (periodic[a]) continue;
      if (r[a] < lo[a] || r[a] > hi[a]) return false;
    }
    return true;
  }
};

}  // namespace wsmd
