#include "md/neighbor.hpp"

#include "md/cell_list.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "lattice/lattice.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace wsmd::md {
namespace {

/// Reference brute-force neighbor set.
std::set<std::size_t> brute_force_neighbors(const Box& box,
                                            const std::vector<Vec3d>& pos,
                                            std::size_t i, double radius) {
  std::set<std::size_t> out;
  const double r2 = radius * radius;
  for (std::size_t j = 0; j < pos.size(); ++j) {
    if (j == i) continue;
    if (norm2(box.minimum_image(pos[i], pos[j])) < r2) out.insert(j);
  }
  return out;
}

std::vector<Vec3d> random_gas(Rng& rng, const Box& box, std::size_t n) {
  std::vector<Vec3d> pos(n);
  for (auto& r : pos) {
    r = {rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y),
         rng.uniform(box.lo.z, box.hi.z)};
  }
  return pos;
}

TEST(NeighborList, MatchesBruteForceOpenBox) {
  Rng rng(3);
  const Box box({0, 0, 0}, {20, 20, 20});
  const auto pos = random_gas(rng, box, 300);
  NeighborList nl(3.0, 0.5);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto expected = brute_force_neighbors(box, pos, i, nl.list_radius());
    const auto r = nl.neighbors(i);
    const std::set<std::size_t> actual(r.begin(), r.end());
    EXPECT_EQ(actual, expected) << "atom " << i;
  }
}

TEST(NeighborList, MatchesBruteForcePeriodicBox) {
  Rng rng(4);
  const Box box({0, 0, 0}, {15, 15, 15}, {true, true, true});
  const auto pos = random_gas(rng, box, 250);
  NeighborList nl(3.0, 0.4);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto expected = brute_force_neighbors(box, pos, i, nl.list_radius());
    const auto r = nl.neighbors(i);
    const std::set<std::size_t> actual(r.begin(), r.end());
    EXPECT_EQ(actual, expected) << "atom " << i;
  }
}

TEST(NeighborList, MatchesBruteForceMixedBoundaries) {
  Rng rng(5);
  const Box box({0, 0, 0}, {12, 18, 9}, {true, false, true});
  const auto pos = random_gas(rng, box, 200);
  NeighborList nl(2.5, 0.6);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto expected = brute_force_neighbors(box, pos, i, nl.list_radius());
    const auto r = nl.neighbors(i);
    const std::set<std::size_t> actual(r.begin(), r.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(NeighborList, SmallPeriodicBoxWithFewCells) {
  // Box barely larger than the list radius: periodic wrap puts multiple
  // stencil cells onto the same cell; the list must still be exact.
  Rng rng(6);
  const Box box({0, 0, 0}, {5.5, 5.5, 5.5}, {true, true, true});
  const auto pos = random_gas(rng, box, 60);
  NeighborList nl(2.0, 0.3);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const auto expected = brute_force_neighbors(box, pos, i, nl.list_radius());
    const auto r = nl.neighbors(i);
    const std::set<std::size_t> actual(r.begin(), r.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(NeighborList, ListIsSymmetric) {
  Rng rng(7);
  const Box box({0, 0, 0}, {20, 20, 20}, {true, true, true});
  const auto pos = random_gas(rng, box, 300);
  NeighborList nl(3.5, 0.5);
  nl.build(box, pos);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j : nl.neighbors(i)) {
      const auto r = nl.neighbors(j);
      EXPECT_TRUE(std::find(r.begin(), r.end(), i) != r.end())
          << i << " lists " << j << " but not vice versa";
    }
  }
}

TEST(NeighborList, FccLatticeCoordination) {
  // FCC with list radius between 1st and 2nd shell: every interior atom has
  // exactly 12 neighbors.
  const double a = 4.0;
  const auto s = lattice::replicate(lattice::UnitCell::fcc(a), 5, 5, 5, 0,
                                    {true, true, true});
  NeighborList nl(a / std::sqrt(2.0) + 0.2, 0.0);
  nl.build(s.box, s.positions);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(nl.neighbors(i).size(), 12u);
  }
}

TEST(NeighborList, SkinDelaysRebuilds) {
  Rng rng(8);
  const Box box({0, 0, 0}, {20, 20, 20}, {true, true, true});
  auto pos = random_gas(rng, box, 100);
  NeighborList nl(3.0, 1.0);
  nl.build(box, pos);
  EXPECT_EQ(nl.rebuild_count(), 1u);

  // Tiny motion: no rebuild.
  for (auto& r : pos) r += Vec3d{0.01, 0.0, 0.0};
  EXPECT_FALSE(nl.ensure_current(box, pos));
  EXPECT_EQ(nl.rebuild_count(), 1u);

  // Motion beyond skin/2: rebuild.
  pos[0] += Vec3d{0.6, 0.0, 0.0};
  EXPECT_TRUE(nl.ensure_current(box, pos));
  EXPECT_EQ(nl.rebuild_count(), 2u);
}

TEST(NeighborList, RebuildOnAtomCountChange) {
  Rng rng(9);
  const Box box({0, 0, 0}, {10, 10, 10});
  auto pos = random_gas(rng, box, 50);
  NeighborList nl(2.0, 0.5);
  nl.build(box, pos);
  pos.push_back({5, 5, 5});
  EXPECT_TRUE(nl.ensure_current(box, pos));
  EXPECT_EQ(nl.atom_count(), 51u);
}

TEST(NeighborList, RejectsInvalidConstruction) {
  EXPECT_THROW(NeighborList(0.0, 0.1), Error);
  EXPECT_THROW(NeighborList(1.0, -0.1), Error);
}

TEST(NeighborList, SkinWithinListRadius) {
  NeighborList nl(3.0, 0.7);
  EXPECT_DOUBLE_EQ(nl.list_radius(), 3.7);
  EXPECT_DOUBLE_EQ(nl.cutoff(), 3.0);
  EXPECT_DOUBLE_EQ(nl.skin(), 0.7);
}

TEST(CellList, MatchesBruteForceOnRandomGasAllBoundaryKinds) {
  Rng rng(31);
  // radius 2.5 -> >= 3 cells per axis (the generic stencil); radius 4.0
  // -> exactly 2 cells per axis (box lengths in [2r, 3r)), the regime
  // where periodic wrap folds distinct stencil offsets onto the same cell
  // and only the build-time dedup prevents double-visiting neighbors.
  for (const double radius : {2.5, 4.0}) {
    for (const auto periodic :
         {std::array<bool, 3>{false, false, false},
          std::array<bool, 3>{true, true, true},
          std::array<bool, 3>{true, false, true}}) {
      const Box box({0, 0, 0}, {9, 11, 10}, periodic);
      const auto pos = random_gas(rng, box, 160);
      CellList cl;
      cl.build(box, pos, radius);
      for (std::size_t i = 0; i < pos.size(); ++i) {
        const auto expect = brute_force_neighbors(box, pos, i, radius);
        std::vector<std::size_t> got;
        cl.for_each_neighbor(i,
                             [&](std::size_t j, const Vec3d& d, double r2) {
                               EXPECT_LT(r2, radius * radius);
                               EXPECT_NEAR(norm2(d), r2, 1e-12);
                               got.push_back(j);
                             });
        std::sort(got.begin(), got.end());
        // Duplicate-freeness asserted on the raw list, not a set.
        EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
            << "duplicate neighbor of atom " << i << " at radius " << radius;
        EXPECT_EQ(std::set<std::size_t>(got.begin(), got.end()), expect)
            << "atom " << i << " radius " << radius;
      }
    }
  }
}

TEST(CellList, PairIterationVisitsEachUnorderedPairOnce) {
  Rng rng(77);
  const Box box({0, 0, 0}, {8, 8, 8}, {true, true, true});
  const auto pos = random_gas(rng, box, 120);
  const double radius = 2.0;
  CellList cl;
  cl.build(box, pos, radius);
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  cl.for_each_pair([&](std::size_t i, std::size_t j, const Vec3d&, double) {
    EXPECT_LT(i, j);
    EXPECT_TRUE(pairs.emplace(i, j).second) << "duplicate pair " << i << ","
                                            << j;
  });
  // Cross-check the pair count against the per-atom view (each unordered
  // pair appears in exactly two neighbor lists).
  std::size_t directed = 0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    cl.for_each_neighbor(i,
                         [&](std::size_t, const Vec3d&, double) { ++directed; });
  }
  EXPECT_EQ(directed, 2 * pairs.size());
}

TEST(CellList, NonFiniteAtomsNeitherHaveNorAreNeighbors) {
  // A NaN (or infinite) coordinate must not widen or collapse the binning
  // region, and the atom must not reach the float-to-int cast of binning.
  Rng rng(41);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto periodic :
       {std::array<bool, 3>{false, false, false},
        std::array<bool, 3>{true, true, true}}) {
    const Box box({0, 0, 0}, {12, 13, 11}, periodic);
    const auto clean = random_gas(rng, box, 150);
    for (const std::size_t bad : {std::size_t{0}, std::size_t{75}}) {
      for (const Vec3d poison : {Vec3d{nan, 1.0, 1.0}, Vec3d{2.0, inf, nan}}) {
        auto pos = clean;
        pos[bad] = poison;
        const double radius = 2.5;
        CellList cl;
        cl.build(box, pos, radius);

        auto without = pos;
        without.erase(without.begin() + static_cast<std::ptrdiff_t>(bad));
        CellList reference;
        reference.build(box, without, radius);
        EXPECT_EQ(cl.cell_count(), reference.cell_count())
            << "atom " << bad << " periodic " << periodic[0];

        for (std::size_t i = 0; i < pos.size(); ++i) {
          std::set<std::size_t> got;
          cl.for_each_neighbor(
              i, [&](std::size_t j, const Vec3d&, double) { got.insert(j); });
          if (i == bad) {
            EXPECT_TRUE(got.empty()) << "non-finite atom " << bad;
          } else {
            EXPECT_EQ(got, brute_force_neighbors(box, pos, i, radius))
                << "atom " << i << " next to non-finite atom " << bad;
          }
        }
        cl.for_each_pair([&](std::size_t i, std::size_t j, const Vec3d&,
                             double) {
          EXPECT_NE(i, bad);
          EXPECT_NE(j, bad);
        });
      }
    }
  }
}

TEST(CellList, FarFlungFiniteAtomKeepsBinningBounded) {
  // An atom thrown 1e30 A out on open axes must not ask for ~1e29 cells per
  // axis (a float-to-int overflow) or gigabytes of cell arrays: the grid
  // stays O(N) and the search stays exact.
  Rng rng(43);
  const Box box({0, 0, 0}, {12, 13, 11});
  const auto clean = random_gas(rng, box, 120);
  for (const Vec3d far : {Vec3d{1e30, 5.0, 5.0}, Vec3d{1e30, 1e30, 1e30},
                          Vec3d{-1e30, 1e30, 5.0}}) {
    auto pos = clean;
    pos[60] = far;
    const double radius = 2.5;
    CellList cl;
    cl.build(box, pos, radius);
    EXPECT_LE(cl.cell_count(), 2 * pos.size()) << far;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      std::set<std::size_t> got;
      cl.for_each_neighbor(
          i, [&](std::size_t j, const Vec3d&, double) { got.insert(j); });
      EXPECT_EQ(got, brute_force_neighbors(box, pos, i, radius))
          << far << " atom " << i;
    }
  }
}

}  // namespace
}  // namespace wsmd::md
