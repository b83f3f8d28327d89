#include "md/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "eam/zhou.hpp"
#include "lattice/grain_boundary.hpp"
#include "lattice/lattice.hpp"
#include "util/error.hpp"

namespace wsmd::md {
namespace {

TEST(Centrosymmetry, PerfectBccBulkIsZero) {
  const double a = 3.165;
  const auto s = lattice::replicate(lattice::UnitCell::bcc(a), 5, 5, 5, 0,
                                    {true, true, true});
  const auto out = analyze_structure(s.box, s.positions, 1.2 * a, 8);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(out.centrosymmetry[i], 0.0, 1e-9);
    EXPECT_GE(out.coordination[i], 8);
  }
}

TEST(Centrosymmetry, PerfectFccBulkIsZero) {
  const double a = 3.615;
  const auto s = lattice::replicate(lattice::UnitCell::fcc(a), 4, 4, 4, 0,
                                    {true, true, true});
  const auto out = analyze_structure(s.box, s.positions, 0.9 * a, 12);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(out.centrosymmetry[i], 0.0, 1e-9);
    EXPECT_EQ(out.coordination[i], 12);
  }
}

TEST(Centrosymmetry, SurfaceAtomsAreDefective) {
  // Open boundaries: face atoms lose their opposite partners.
  const double a = 3.165;
  const auto s = lattice::replicate(lattice::UnitCell::bcc(a), 5, 5, 5);
  const auto out = analyze_structure(s.box, s.positions, 1.2 * a, 8);
  const auto defect = defective_atoms(out, 0.5);
  int surface_defects = 0, interior_defects = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Vec3d& r = s.positions[i];
    const bool surface = r.x < 0.6 * a || r.x > 4.0 * a || r.y < 0.6 * a ||
                         r.y > 4.0 * a || r.z < 0.6 * a || r.z > 4.0 * a;
    if (surface && defect[i]) ++surface_defects;
    if (!surface && defect[i]) ++interior_defects;
  }
  EXPECT_GT(surface_defects, 50);
  EXPECT_EQ(interior_defects, 0);
}

TEST(Centrosymmetry, GrainBoundaryBandDetected) {
  // The Fig. 2 classification: atoms near the boundary plane carry high
  // centrosymmetry; grain interiors stay crystalline.
  lattice::GrainBoundaryParams params;
  params.element = "W";
  params.tilt_angle_deg = 16.0;
  params.cells_x = 10;
  params.cells_y = 10;
  params.cells_z = 3;
  const auto gb = lattice::make_grain_boundary(params);
  const double a = eam::zhou_parameters("W").lattice_constant();
  const auto out =
      analyze_structure(gb.structure.box, gb.structure.positions, 1.2 * a, 8);
  const auto defect = defective_atoms(out, 1.0);

  int boundary_defects = 0, boundary_total = 0;
  int interior_defects = 0, interior_total = 0;
  for (std::size_t i = 0; i < gb.structure.size(); ++i) {
    const Vec3d& r = gb.structure.positions[i];
    // Skip the open-surface shell; compare GB band vs grain interior.
    const double lx = params.cells_x * a, lz = params.cells_z * a;
    if (r.x < a || r.x > lx - a || r.z < a || r.z > lz - a) continue;
    const double dy = std::fabs(r.y - gb.boundary_y);
    if (dy < 0.8 * a) {
      ++boundary_total;
      if (defect[i]) ++boundary_defects;
    } else if (dy > 2.5 * a && r.y > a && r.y < params.cells_y * a - a) {
      ++interior_total;
      if (defect[i]) ++interior_defects;
    }
  }
  ASSERT_GT(boundary_total, 20);
  ASSERT_GT(interior_total, 50);
  // Most of the boundary band is defective; grain interiors are clean.
  EXPECT_GT(static_cast<double>(boundary_defects) / boundary_total, 0.5);
  EXPECT_LT(static_cast<double>(interior_defects) / interior_total, 0.05);
}

TEST(Centrosymmetry, NonFiniteAtomIsIsolatedAndLeavesOthersUnchanged) {
  // A NaN atom has no bonds (CSP = rcut^2, coordination 0) and is nobody's
  // bond: every other atom's CSP is bit for bit that of the structure
  // without it, at the start of the list (which once seeded the binning
  // extrema) and in the middle.
  const double a = 3.165;
  const double rcut = 1.2 * a;
  for (const bool periodic : {false, true}) {
    const auto s = lattice::replicate(lattice::UnitCell::bcc(a), 4, 4, 4, 0,
                                      {periodic, periodic, periodic});
    for (const std::size_t bad : {std::size_t{0}, s.size() / 2}) {
      auto pos = s.positions;
      pos[bad].y = std::numeric_limits<double>::quiet_NaN();
      const auto out = analyze_structure(s.box, pos, rcut, 8);
      EXPECT_EQ(out.centrosymmetry[bad], rcut * rcut);
      EXPECT_EQ(out.coordination[bad], 0);

      auto without = pos;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(bad));
      const auto expect = analyze_structure(s.box, without, rcut, 8);
      for (std::size_t i = 0, k = 0; i < pos.size(); ++i) {
        if (i == bad) continue;
        std::uint64_t got_bits, want_bits;
        std::memcpy(&got_bits, &out.centrosymmetry[i], sizeof got_bits);
        std::memcpy(&want_bits, &expect.centrosymmetry[k], sizeof want_bits);
        EXPECT_EQ(got_bits, want_bits) << "atom " << i;
        EXPECT_EQ(out.coordination[i], expect.coordination[k]) << "atom " << i;
        ++k;
      }
    }
  }
}

TEST(Centrosymmetry, RejectsBadArguments) {
  const auto s = lattice::replicate(lattice::UnitCell::bcc(3.0), 3, 3, 3);
  EXPECT_THROW(analyze_structure(s.box, s.positions, 4.0, 7), Error);
  EXPECT_THROW(analyze_structure(s.box, {}, 4.0, 8), Error);
  StructureAnalysis a;
  EXPECT_THROW(defective_atoms(a, 0.0), Error);
}

}  // namespace
}  // namespace wsmd::md
