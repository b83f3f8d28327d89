#include "core/mapping.hpp"

#include <gtest/gtest.h>

#include <set>

#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "util/error.hpp"

namespace wsmd::core {
namespace {

TEST(FoldCellIndex, IsBijectionOntoInterleavedLine) {
  for (int n : {4, 5, 8, 9, 16, 261}) {
    std::set<int> seen;
    const int columns = 2 * ((n + 1) / 2);
    for (int c = 0; c < n; ++c) {
      const int k = fold_cell_index(c, n);
      EXPECT_GE(k, 0);
      EXPECT_LT(k, columns);
      EXPECT_TRUE(seen.insert(k).second) << "collision at c=" << c;
    }
  }
}

TEST(FoldCellIndex, RingNeighborsStayWithinTwoColumns) {
  // The property behind paper Fig. 5: "communicating workers are two hops
  // away instead of one hop" — ring-adjacent cells land at most 2 apart.
  for (int n : {4, 6, 8, 10, 12, 256}) {
    for (int c = 0; c < n; ++c) {
      const int next = (c + 1) % n;
      const int d = std::abs(fold_cell_index(c, n) - fold_cell_index(next, n));
      EXPECT_LE(d, 2) << "n=" << n << " c=" << c;
    }
  }
}

TEST(FoldCellIndex, WrapPairIsAdjacent) {
  // The two cells across the periodic wrap interleave to distance 1.
  for (int n : {4, 8, 12, 256}) {
    EXPECT_EQ(fold_cell_index(0, n), 0);
    EXPECT_EQ(fold_cell_index(n - 1, n), 1);
  }
}

TEST(FoldCellIndex, RejectsBadInput) {
  EXPECT_THROW(fold_cell_index(0, 0), Error);
  EXPECT_THROW(fold_cell_index(5, 5), Error);
  EXPECT_THROW(fold_cell_index(-1, 5), Error);
}

class TaMappingTest : public ::testing::Test {
 protected:
  TaMappingTest() {
    const auto p = eam::zhou_parameters("Ta");
    structure_ = lattice::replicate(
        lattice::UnitCell::of(p.structure, p.lattice_constant()), 10, 10, 6);
    MappingConfig cfg;
    cfg.cell_size = p.lattice_constant();
    mapping_ = AtomMapping::for_structure(structure_, cfg);
  }
  lattice::Structure structure_;
  AtomMapping mapping_;
};

TEST_F(TaMappingTest, OneAtomPerCore) {
  // Bijectivity: every atom has a core; no core holds two atoms.
  std::set<std::pair<int, int>> used;
  for (std::size_t i = 0; i < structure_.size(); ++i) {
    const CoreCoord c = mapping_.core_of(i);
    EXPECT_TRUE(used.insert({c.x, c.y}).second)
        << "core (" << c.x << "," << c.y << ") assigned twice";
    EXPECT_EQ(mapping_.atom_at(c.x, c.y), static_cast<long>(i));
  }
}

TEST_F(TaMappingTest, CoreGridIsLargerThanAtomCount) {
  // "the number of cores is slightly larger than the number of atoms"
  EXPECT_GE(mapping_.core_count(), structure_.size());
  EXPECT_LT(mapping_.core_count(), 2 * structure_.size());
}

TEST_F(TaMappingTest, AssignmentCostIsBounded) {
  // The per-column construction keeps every atom within its cell's block
  // footprint: cost well under two lattice constants.
  const double cost = mapping_.assignment_cost(structure_.positions);
  const double a = eam::zhou_parameters("Ta").lattice_constant();
  EXPECT_LT(cost, 2.0 * a);
  EXPECT_GT(cost, 0.0);
}

TEST_F(TaMappingTest, RequiredBCoversCutoffInteractions) {
  const double rcut = eam::zhou_parameters("Ta").paper_cutoff();
  const int b = mapping_.required_b(structure_.positions, rcut);
  // Paper Table I achieves b = 4 for Ta; our greedy mapping must land in
  // the same regime (a square neighborhood of <= 11x11).
  EXPECT_GE(b, 2);
  EXPECT_LE(b, 5);
}

TEST_F(TaMappingTest, RefineDoesNotWorsenCost) {
  const double before = mapping_.assignment_cost(structure_.positions);
  const double after = mapping_.refine(structure_.positions, 3);
  EXPECT_LE(after, before + 1e-12);
}

TEST_F(TaMappingTest, SwapAtomsKeepsInverseConsistent) {
  const CoreCoord a = mapping_.core_of(0);
  const CoreCoord b = mapping_.core_of(1);
  mapping_.swap_atoms(a, b);
  EXPECT_EQ(mapping_.core_of(0), b);
  EXPECT_EQ(mapping_.core_of(1), a);
  EXPECT_EQ(mapping_.atom_at(b.x, b.y), 0);
  EXPECT_EQ(mapping_.atom_at(a.x, a.y), 1);
}

TEST(Mapping, PaperScaleBlocksMatchCandidateRegime) {
  // Scaled-down paper slabs: the measured neighborhood radius b must be in
  // the regime of paper Table I (b=4 Ta; b=7 Cu/W) — small enough that
  // candidate counts stay within ~2x of the paper's 80/224.
  struct Case { const char* el; int b_paper; };
  for (const auto& c : {Case{"Ta", 4}, Case{"Cu", 7}, Case{"W", 7}}) {
    const auto s = lattice::paper_slab(c.el, 24);
    const auto p = eam::zhou_parameters(c.el);
    MappingConfig cfg;
    cfg.cell_size = p.lattice_constant();
    const auto m = AtomMapping::for_structure(s, cfg);
    const int b = m.required_b(s.positions, p.paper_cutoff());
    EXPECT_GE(b, c.b_paper - 2) << c.el;
    EXPECT_LE(b, c.b_paper + 2) << c.el;
  }
}

TEST(Mapping, FoldedPeriodicAxisKeepsWrapPairsLocal) {
  // Periodic x: atoms across the wrap must map to nearby cores (the whole
  // point of the Fig. 5 fold).
  const auto p = eam::zhou_parameters("Ta");
  auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 12, 6, 4, 0,
      {true, false, false});
  MappingConfig cfg;
  cfg.cell_size = p.lattice_constant();
  const auto m = AtomMapping::for_structure(s, cfg);

  // required_b with the periodic minimum image must stay small; without
  // the fold it would be ~the grid width.
  const int b = m.required_b(s.positions, p.paper_cutoff());
  EXPECT_LE(b, 11);  // roughly 2x the open-boundary radius plus slack
  EXPECT_GE(b, 1);
}

TEST(Mapping, FoldedBIsAboutTwiceOpenB) {
  // Paper Sec. III-E: folding doubles the fabric distance between logical
  // neighbors (two hops instead of one).
  const auto p = eam::zhou_parameters("Ta");
  const auto open = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 12, 6, 4, 0,
      {false, false, false});
  auto periodic = open;
  periodic.box.periodic = {true, false, false};

  MappingConfig cfg;
  cfg.cell_size = p.lattice_constant();
  const auto m_open = AtomMapping::for_structure(open, cfg);
  const auto m_fold = AtomMapping::for_structure(periodic, cfg);
  const int b_open = m_open.required_b(open.positions, p.paper_cutoff());
  const int b_fold = m_fold.required_b(periodic.positions, p.paper_cutoff());
  EXPECT_GT(b_fold, b_open);
  EXPECT_LE(b_fold, 2 * b_open + 3);
}

TEST(Mapping, EmptyStructureRejected) {
  lattice::Structure s;
  s.box = Box({0, 0, 0}, {1, 1, 1});
  EXPECT_THROW(AtomMapping::for_structure(s), Error);
}

TEST(Mapping, ChebyshevDistance) {
  EXPECT_EQ(chebyshev({0, 0}, {3, -4}), 4);
  EXPECT_EQ(chebyshev({2, 2}, {2, 2}), 0);
  EXPECT_EQ(chebyshev({-1, 5}, {1, 5}), 2);
}

}  // namespace
}  // namespace wsmd::core
