/// \file test_forces.cpp
/// EAM force evaluation against independent references.
///
/// `EamForces` runs the physics checks (force = -grad E by finite
/// differences, the dimer force, zero force on a perfect lattice, Newton's
/// third law, densities against a direct sum) on the analytic oracle
/// (analytic_eam.hpp): they pin the Zhou and LJ functional forms the
/// profile tables are sampled from. `TableForces` pins the production
/// kernel (md::EamForceKernel over the FP64 profile tables) to that oracle
/// atom by atom, and runs the invariants that hold exactly on tables too.
/// There is no finite-difference check of the table energy: its tables are
/// piecewise linear in r², so a centred difference misses the tabulated
/// force by 1e-3 to 1e-2 eV/A at h = 1e-5.

#include "md/force_eam.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "analytic_eam.hpp"
#include "eam/lennard_jones.hpp"
#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "util/random.hpp"

namespace wsmd::md {
namespace {

using oracle::AnalyticEamKernel;

/// The production evaluation behind the oracle's interface: EamForceKernel
/// over FP64 profile tables built from the system's potential.
class TableKernel {
 public:
  double compute(AtomSystem& sys, const NeighborList& nl) {
    if (!profile_) profile_.emplace(sys.potential());
    return kernel_.compute(sys, nl, *profile_);
  }
  const std::vector<double>& densities() const { return kernel_.densities(); }
  double embedding_energy() const { return kernel_.embedding_energy(); }
  double pair_energy() const { return kernel_.pair_energy(); }

 private:
  std::optional<eam::ProfileF64> profile_;
  EamForceKernel kernel_;
};

AtomSystem make_system(const lattice::Structure& s,
                       std::shared_ptr<const eam::EamPotential> pot) {
  return AtomSystem(s, std::move(pot));
}

/// Total potential energy at the system's current positions.
double energy_of(AtomSystem& sys) {
  NeighborList nl(sys.potential().cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  AnalyticEamKernel k;
  return k.compute(sys, nl);
}

/// Verify analytic forces against the numerical gradient of U for a few
/// atoms and directions.
void check_forces_match_gradient(AtomSystem& sys, double h, double tol) {
  NeighborList nl(sys.potential().cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  AnalyticEamKernel k;
  k.compute(sys, nl);
  const auto forces = sys.forces();

  Rng rng(17);
  const std::size_t n_checks = std::min<std::size_t>(8, sys.size());
  for (std::size_t c = 0; c < n_checks; ++c) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(sys.size()));
    for (std::size_t axis = 0; axis < 3; ++axis) {
      const double orig = sys.positions()[i][axis];
      sys.positions()[i][axis] = orig + h;
      nl.build(sys.box(), sys.positions());
      const double e_plus = k.compute(sys, nl);
      sys.positions()[i][axis] = orig - h;
      nl.build(sys.box(), sys.positions());
      const double e_minus = k.compute(sys, nl);
      sys.positions()[i][axis] = orig;
      const double f_numeric = -(e_plus - e_minus) / (2.0 * h);
      EXPECT_NEAR(forces[i][axis], f_numeric, tol)
          << "atom " << i << " axis " << axis;
    }
  }
  nl.build(sys.box(), sys.positions());
  k.compute(sys, nl);  // restore forces for the caller
}

lattice::Structure jittered_crystal(const std::string& element, int reps,
                                    double jitter, unsigned seed) {
  const auto p = eam::zhou_parameters(element);
  auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), reps, reps,
      reps, 0, {true, true, true});
  Rng rng(seed);
  for (auto& r : s.positions) r += rng.gaussian_vec3(jitter);
  return s;
}

/// The four systems the finite-difference checks use.
lattice::Structure ta_system() { return jittered_crystal("Ta", 4, 0.08, 23); }
lattice::Structure cu_system() { return jittered_crystal("Cu", 3, 0.08, 29); }
lattice::Structure open_w_system() {
  // Surface atoms exercise the incomplete-shell code path.
  const auto p = eam::zhou_parameters("W");
  auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 3, 3, 3, 0,
      {false, false, false});
  Rng rng(31);
  for (auto& r : s.positions) r += rng.gaussian_vec3(0.05);
  return s;
}
lattice::Structure lj_system() { return jittered_crystal("Cu", 4, 0.05, 37); }

/// Two atoms at r: the force along x on each.
template <typename Kernel>
std::pair<AtomSystem, double> dimer(double r) {
  auto pot = std::make_shared<eam::ZhouEam>("Ta");
  lattice::Structure s;
  s.box = Box({-10, -10, -10}, {10, 10, 10});
  s.positions = {{0, 0, 0}, {r, 0, 0}};
  s.types = {0, 0};
  auto sys = make_system(s, pot);
  NeighborList nl(pot->cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  Kernel k;
  k.compute(sys, nl);
  const double rho = pot->density(0, r);
  const double fp = pot->embed_deriv(0, rho);
  const double expected =
      -(pot->pair_deriv(0, 0, r) + 2.0 * fp * pot->density_deriv(0, r));
  return {std::move(sys), expected};
}

template <typename Kernel>
void expect_perfect_lattice_has_zero_force() {
  auto pot = std::make_shared<eam::ZhouEam>("W");
  const auto p = eam::zhou_parameters("W");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 4, 4, 4, 0,
      {true, true, true});
  auto sys = make_system(s, pot);
  NeighborList nl(pot->cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  Kernel k;
  k.compute(sys, nl);
  for (const Vec3d f : sys.forces()) {
    EXPECT_NEAR(norm(f), 0.0, 1e-8);
  }
}

template <typename Kernel>
void expect_net_force_zero() {
  auto pot = std::make_shared<eam::ZhouEam>("Cu");
  const auto s = jittered_crystal("Cu", 3, 0.1, 11);
  auto sys = make_system(s, pot);
  NeighborList nl(pot->cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  Kernel k;
  k.compute(sys, nl);
  Vec3d net{0, 0, 0};
  for (const Vec3d f : sys.forces()) net += f;
  EXPECT_NEAR(norm(net), 0.0, 1e-7 * static_cast<double>(sys.size()));
}

template <typename Kernel>
void expect_energy_decomposes() {
  auto pot = std::make_shared<eam::ZhouEam>("Ta");
  auto s = jittered_crystal("Ta", 4, 0.05, 41);
  auto sys = make_system(s, pot);
  NeighborList nl(pot->cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  Kernel k;
  const double total = k.compute(sys, nl);
  EXPECT_DOUBLE_EQ(total, k.pair_energy() + k.embedding_energy());
  EXPECT_LT(k.embedding_energy(), 0.0);  // embedding binds the metal
}

/// Largest |rho_i - direct sum| over five random atoms of a jittered W
/// crystal.
template <typename Kernel>
double density_error_vs_direct_sum() {
  auto pot = std::make_shared<eam::ZhouEam>("W");
  auto s = jittered_crystal("W", 4, 0.05, 43);
  auto sys = make_system(s, pot);
  NeighborList nl(pot->cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  Kernel k;
  k.compute(sys, nl);

  // Recompute rho for a few atoms by brute force.
  Rng rng(47);
  double worst = 0.0;
  for (int c = 0; c < 5; ++c) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(sys.size()));
    double rho = 0.0;
    for (std::size_t j = 0; j < sys.size(); ++j) {
      if (j == i) continue;
      const double r = norm(
          sys.box().minimum_image(sys.positions()[i], sys.positions()[j]));
      if (r < pot->cutoff()) rho += pot->density(0, r);
    }
    worst = std::max(worst, std::fabs(k.densities()[i] - rho));
  }
  return worst;
}

/// How far the table kernel lands from the oracle on one configuration:
/// the largest per-component |dF| (eV/A) and |dE|/N (eV).
struct OracleGap {
  double force = 0.0;
  double energy_per_atom = 0.0;
};

OracleGap table_vs_oracle(const lattice::Structure& s,
                          std::shared_ptr<const eam::EamPotential> pot) {
  auto sys = make_system(s, pot);
  NeighborList nl(pot->cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  AnalyticEamKernel oracle;
  const double e_ref = oracle.compute(sys, nl);
  const auto f_ref = sys.forces().to_aos();
  TableKernel table;
  const double e = table.compute(sys, nl);
  const auto f = sys.forces().to_aos();
  OracleGap gap;
  for (std::size_t i = 0; i < f.size(); ++i) {
    for (std::size_t a = 0; a < 3; ++a) {
      gap.force = std::max(gap.force, std::fabs(f[i][a] - f_ref[i][a]));
    }
  }
  gap.energy_per_atom = std::fabs(e - e_ref) / static_cast<double>(f.size());
  return gap;
}

TEST(EamForces, DimerForceMatchesPairDerivative) {
  // Two atoms: force magnitude must equal -(phi' + 2 F' rho') at distance r.
  const auto [sys, expected] = dimer<AnalyticEamKernel>(2.9);
  // Force on atom 0 points along -x when the pair is repulsive at r.
  EXPECT_NEAR(sys.forces()[0].x, -expected, 1e-10);
  EXPECT_NEAR(sys.forces()[1].x, expected, 1e-10);
  EXPECT_NEAR(sys.forces()[0].y, 0.0, 1e-12);
}

TEST(EamForces, PerfectLatticeHasZeroForce) {
  expect_perfect_lattice_has_zero_force<AnalyticEamKernel>();
}

TEST(EamForces, NewtonsThirdLawNetForceZero) {
  expect_net_force_zero<AnalyticEamKernel>();
}

TEST(EamForces, MatchesNumericalGradientTa) {
  auto sys = make_system(ta_system(), std::make_shared<eam::ZhouEam>("Ta"));
  check_forces_match_gradient(sys, 1e-5, 2e-4);
}

TEST(EamForces, MatchesNumericalGradientCu) {
  auto sys = make_system(cu_system(), std::make_shared<eam::ZhouEam>("Cu"));
  check_forces_match_gradient(sys, 1e-5, 2e-4);
}

TEST(EamForces, MatchesNumericalGradientOpenBoundaries) {
  auto sys = make_system(open_w_system(), std::make_shared<eam::ZhouEam>("W"));
  check_forces_match_gradient(sys, 1e-5, 2e-4);
}

TEST(EamForces, MatchesNumericalGradientLennardJones) {
  auto sys = make_system(
      lj_system(),
      std::make_shared<eam::LennardJones>(eam::LennardJones::copper_like()));
  check_forces_match_gradient(sys, 1e-5, 2e-4);
}

TEST(EamForces, EnergyDecomposesIntoPairAndEmbedding) {
  expect_energy_decomposes<AnalyticEamKernel>();
}

TEST(EamForces, DensitiesMatchDirectSum) {
  EXPECT_LE(density_error_vs_direct_sum<AnalyticEamKernel>(), 1e-10);
}

TEST(EamForces, EnergyInvariantUnderRigidTranslation) {
  auto pot = std::make_shared<eam::ZhouEam>("Cu");
  auto s = jittered_crystal("Cu", 3, 0.05, 53);
  auto sys = make_system(s, pot);
  const double e0 = energy_of(sys);
  for (auto r : sys.positions()) r += Vec3d{1.7, -0.3, 0.9};
  const double e1 = energy_of(sys);
  EXPECT_NEAR(e0, e1, 1e-8 * std::fabs(e0));
}

TEST(EamForces, CohesiveEnergyPerAtomReasonable) {
  // Bulk Ta at its equilibrium lattice: E/atom ~ -8 eV.
  auto pot = std::make_shared<eam::ZhouEam>("Ta");
  const auto p = eam::zhou_parameters("Ta");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 4, 4, 4, 0,
      {true, true, true});
  auto sys = make_system(s, pot);
  const double e_per_atom = energy_of(sys) / static_cast<double>(sys.size());
  EXPECT_LT(e_per_atom, -6.5);
  EXPECT_GT(e_per_atom, -9.5);
}

// --- The production table kernel ------------------------------------------
// Bounds are 10x the errors measured on these systems (the test_profile
// convention): per-component |dF| 2.6e-6 (Ta), 2.2e-6 (Cu), 4.2e-6 (open W)
// and 3.8e-5 (LJ) eV/A; |dE|/N 4.8e-7 to 6.0e-7 (Zhou) and 2.8e-6 (LJ) eV;
// densities 5.7e-6; dimer force 1.2e-7 eV/A. The zero-force, third-law and
// decomposition checks keep the oracle's tolerances.

TEST(TableForces, MatchesOracleTa) {
  const auto gap =
      table_vs_oracle(ta_system(), std::make_shared<eam::ZhouEam>("Ta"));
  EXPECT_LE(gap.force, 2.6e-5);
  EXPECT_LE(gap.energy_per_atom, 6.0e-6);
}

TEST(TableForces, MatchesOracleCu) {
  const auto gap =
      table_vs_oracle(cu_system(), std::make_shared<eam::ZhouEam>("Cu"));
  EXPECT_LE(gap.force, 2.2e-5);
  EXPECT_LE(gap.energy_per_atom, 4.8e-6);
}

TEST(TableForces, MatchesOracleOpenBoundaries) {
  const auto gap =
      table_vs_oracle(open_w_system(), std::make_shared<eam::ZhouEam>("W"));
  EXPECT_LE(gap.force, 4.2e-5);
  EXPECT_LE(gap.energy_per_atom, 5.9e-6);
}

TEST(TableForces, MatchesOracleLennardJones) {
  const auto gap = table_vs_oracle(
      lj_system(),
      std::make_shared<eam::LennardJones>(eam::LennardJones::copper_like()));
  EXPECT_LE(gap.force, 3.8e-4);
  EXPECT_LE(gap.energy_per_atom, 2.9e-5);
}

TEST(TableForces, DimerForceMatchesPairDerivative) {
  const auto [sys, expected] = dimer<TableKernel>(2.9);
  EXPECT_NEAR(sys.forces()[0].x, -expected, 1.3e-6);
  EXPECT_NEAR(sys.forces()[1].x, expected, 1.3e-6);
  EXPECT_NEAR(sys.forces()[0].y, 0.0, 1e-12);
}

TEST(TableForces, PerfectLatticeHasZeroForce) {
  expect_perfect_lattice_has_zero_force<TableKernel>();
}

TEST(TableForces, NewtonsThirdLawNetForceZero) {
  expect_net_force_zero<TableKernel>();
}

TEST(TableForces, EnergyDecomposesIntoPairAndEmbedding) {
  expect_energy_decomposes<TableKernel>();
}

TEST(TableForces, DensitiesMatchDirectSum) {
  EXPECT_LE(density_error_vs_direct_sum<TableKernel>(), 5.8e-5);
}

}  // namespace
}  // namespace wsmd::md
