#include "md/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "eam/lennard_jones.hpp"
#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "util/error.hpp"

namespace wsmd::md {
namespace {

/// Periodic Ta block; reps >= 4 keeps the box above twice the Ta physics
/// cutoff so minimum-image is valid (the neighbor list enforces this).
AtomSystem make_ta_block(int reps, std::array<bool, 3> pbc = {true, true, true}) {
  const auto p = eam::zhou_parameters("Ta");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), reps, reps,
      reps, 0, pbc);
  return AtomSystem(s, std::make_shared<eam::ZhouEam>("Ta"));
}

/// Cu block with every axis open, thermalised to 600 K (seeded).
AtomSystem make_hot_cu_slab() {
  const auto p = eam::zhou_parameters("Cu");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 6, 6, 6, 0,
      {false, false, false});
  AtomSystem sys(s, std::make_shared<eam::ZhouEam>("Cu", p.paper_cutoff()));
  Rng rng(62);
  sys.thermalize(600.0, rng);
  return sys;
}

/// Periodic LJ gas of 343 atoms at 2000 K, placed at random at least
/// 2.6 A apart (outside the repulsive core). With `stream` > 0, even atoms
/// also move at +stream A/ps along x and odd atoms at -stream: two
/// interpenetrating streams, whose pairs close in on each other at twice
/// the speed either atom moves.
AtomSystem make_lj_gas(double stream = 0.0) {
  lattice::Structure s;
  s.box = Box({0, 0, 0}, {28, 28, 28}, {true, true, true});
  Rng rng(63);
  while (s.positions.size() < 343) {
    const Vec3d r{rng.uniform(0, 28), rng.uniform(0, 28), rng.uniform(0, 28)};
    const bool clear = std::all_of(
        s.positions.begin(), s.positions.end(), [&](const Vec3d& q) {
          return norm2(s.box.minimum_image(q, r)) >= 2.6 * 2.6;
        });
    if (!clear) continue;
    s.positions.push_back(r);
    s.types.push_back(0);
  }
  AtomSystem sys(s, std::make_shared<eam::LennardJones>(
                        eam::LennardJones::copper_like()));
  sys.thermalize(2000.0, rng);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    sys.velocities().add(i, Vec3d{i % 2 == 0 ? stream : -stream, 0, 0});
  }
  return sys;
}

/// The default configuration at another skin and timestep.
SimulationConfig with_skin(double skin, double dt) {
  SimulationConfig cfg;
  cfg.dt = dt;
  cfg.skin = skin;
  return cfg;
}

/// Every thermo row of a run, then its final positions and velocities.
struct Trace {
  std::vector<Thermo> rows;
  std::vector<Vec3d> positions, velocities;
};

Trace run_trace(Simulation& sim, long steps) {
  Trace t;
  for (long k = 0; k < steps; ++k) t.rows.push_back(sim.run(1));
  t.positions = sim.system().positions().to_aos();
  t.velocities = sim.system().velocities().to_aos();
  return t;
}

/// Byte equality of two traces, reporting the first differing row.
void expect_same_bytes(const Trace& got, const Trace& want,
                       const std::string& what) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << what;
  for (std::size_t k = 0; k < want.rows.size(); ++k) {
    ASSERT_EQ(std::memcmp(&got.rows[k], &want.rows[k], sizeof(Thermo)), 0)
        << what << ": thermo row of step " << want.rows[k].step << " (pe "
        << got.rows[k].potential_energy << " vs "
        << want.rows[k].potential_energy << ")";
  }
  ASSERT_EQ(got.positions.size(), want.positions.size()) << what;
  EXPECT_EQ(std::memcmp(got.positions.data(), want.positions.data(),
                        want.positions.size() * sizeof(Vec3d)),
            0)
      << what << ": positions";
  EXPECT_EQ(std::memcmp(got.velocities.data(), want.velocities.data(),
                        want.velocities.size() * sizeof(Vec3d)),
            0)
      << what << ": velocities";
}

/// Largest minimum-image distance between two configurations.
double max_offset(const Box& box, const std::vector<Vec3d>& a,
                  const std::vector<Vec3d>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, norm(box.minimum_image(a[i], b[i])));
  }
  return worst;
}

/// Small open-boundary block for cheap mechanics-of-the-driver tests.
AtomSystem make_small_open_block() {
  return make_ta_block(3, {false, false, false});
}

TEST(Simulation, StepCounterAdvances) {
  Simulation sim(make_small_open_block());
  EXPECT_EQ(sim.step_count(), 0);
  sim.run(5);
  EXPECT_EQ(sim.step_count(), 5);
  sim.run(3);
  EXPECT_EQ(sim.step_count(), 8);
}

TEST(Simulation, ZeroTemperatureLatticeStaysPut) {
  // A perfect crystal at T=0 has zero forces and zero velocities: nothing
  // moves, potential energy is constant.
  Simulation sim(make_ta_block(4));
  sim.compute_forces();
  const double e0 = sim.thermo().potential_energy;
  const auto r0 = sim.system().positions();
  sim.run(20);
  EXPECT_NEAR(sim.thermo().potential_energy, e0, 1e-9 * std::fabs(e0));
  for (std::size_t i = 0; i < r0.size(); ++i) {
    EXPECT_NEAR(norm(sim.system().positions()[i] - r0[i]), 0.0, 1e-9);
  }
}

TEST(Simulation, NveAfterEquilibrationConservesEnergy) {
  Simulation sim(make_ta_block(4));
  Rng rng(56);
  sim.system().thermalize(290.0, rng);
  sim.run(80);  // kinetic and potential energy settle into equipartition
  const double e0 = sim.thermo().total_energy;
  sim.run(200);
  const double e1 = sim.thermo().total_energy;
  EXPECT_NEAR(e1, e0, 5e-3 * std::fabs(sim.thermo().kinetic_energy) + 1e-6);
}

TEST(Simulation, NeighborListRebuildsAreSparse) {
  // At 290 K with the default 0.6 A skin, rebuilds should be far rarer
  // than steps — the mechanism LAMMPS exploits and paper Table V row
  // "Neighbor list" models (re-examine every ~10th step).
  Simulation sim(make_ta_block(4));
  Rng rng(58);
  sim.system().thermalize(290.0, rng);
  sim.run(50);
  const std::size_t before = sim.neighbor_list().rebuild_count();
  sim.run(200);
  const std::size_t rebuilds = sim.neighbor_list().rebuild_count() - before;
  EXPECT_LT(rebuilds, 40u);  // < 1 per 5 steps
}

TEST(Simulation, TrajectoryIsBitwiseIndependentOfTheSkin) {
  // The sweep meets each ascending row's entries with r < rc in the same
  // order whatever the list radius, so the skin may only change when the
  // list is rebuilt and how many candidates the sieve drops — never a bit
  // of the trajectory. This is what lets the default skin be tuned for
  // speed alone.
  struct Case {
    const char* name;
    AtomSystem (*make)();
    double dt;
  };
  const Case cases[] = {
      {"cu_slab_open", make_hot_cu_slab, SimulationConfig{}.dt},
      {"lj_gas_periodic", [] { return make_lj_gas(); }, 0.001},
  };
  for (const auto& c : cases) {
    Simulation base(c.make(), with_skin(0.3, c.dt));
    const Trace want = run_trace(base, 220);
    EXPECT_GT(base.neighbor_list().rebuild_count(), 2u) << c.name;
    for (const double skin : {0.6, 1.0, 1.5}) {
      Simulation sim(c.make(), with_skin(skin, c.dt));
      expect_same_bytes(run_trace(sim, 220), want,
                        std::string(c.name) + " at skin " +
                            std::to_string(skin));
    }
  }
}

TEST(Simulation, RestoreRebuildsAnAnchorWrittenAtALargerSkin) {
  // A run at a 1.0 A skin saves its state on the last step before its list
  // goes stale: atoms are then up to 0.5 A from where that list was built,
  // past the 0.3 A a 0.6 A skin allows. The counter-streaming gas closes
  // pairs in on each other at twice that. The state resumes at 0.6 A in
  // an engine whose own list was built at step 0, which the saved
  // positions have left behind: restore must rebuild it, or pairs inside
  // the cutoff go missing.
  Simulation writer(make_lj_gas(20.0), with_skin(1.0, 0.001));
  writer.compute_forces();
  const std::size_t first = writer.neighbor_list().rebuild_count();
  long step = 0;
  std::vector<Vec3d> positions, velocities;
  while (writer.neighbor_list().rebuild_count() == first) {
    step = writer.step_count();
    positions = writer.system().positions().to_aos();
    velocities = writer.system().velocities().to_aos();
    writer.run(1);
  }

  Simulation straight(make_lj_gas(20.0), with_skin(0.6, 0.001));
  straight.run(step);
  const Trace want = run_trace(straight, 100);
  Simulation resumed(make_lj_gas(20.0), with_skin(0.6, 0.001));
  resumed.compute_forces();
  ASSERT_GT(max_offset(resumed.system().box(),
                       resumed.system().positions().to_aos(), positions),
            0.3);
  resumed.restore(step, positions, velocities);
  expect_same_bytes(run_trace(resumed, 100), want, "skin 1.0 -> 0.6 resume");
}

TEST(Simulation, OpenBoundarySlabDoesNotExplode) {
  // Thin slab with open boundaries (the paper's geometry): surfaces relax
  // but the crystal must hold together over a short run.
  const auto s = lattice::paper_slab("Ta", 64);
  AtomSystem sys(s, std::make_shared<eam::ZhouEam>("Ta"));
  Rng rng(59);
  sys.thermalize(290.0, rng);
  Simulation sim(std::move(sys));
  sim.run(50);
  // No atom should have flown further than a few lattice constants.
  const auto& pos = sim.system().positions();
  const auto& s0 = s.positions;
  double max_disp = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    max_disp = std::max(max_disp, norm(pos[i] - s0[i]));
  }
  EXPECT_LT(max_disp, 3.0);
}

TEST(Simulation, LennardJonesGasRuns) {
  lattice::Structure s;
  s.box = Box({0, 0, 0}, {30, 30, 30}, {true, true, true});
  Rng rng(60);
  for (int i = 0; i < 200; ++i) {
    s.positions.push_back({rng.uniform(0, 30), rng.uniform(0, 30),
                           rng.uniform(0, 30)});
    s.types.push_back(0);
  }
  AtomSystem sys(s, std::make_shared<eam::LennardJones>(
                        eam::LennardJones::copper_like()));
  sys.thermalize(2000.0, rng);
  SimulationConfig cfg;
  cfg.dt = 0.0005;  // gas with close random pairs: small dt
  Simulation sim(std::move(sys), cfg);
  const auto t = sim.run(50);
  EXPECT_TRUE(std::isfinite(t.total_energy));
  EXPECT_GT(t.temperature, 0.0);
}

TEST(Simulation, RejectsNegativeStepCount) {
  Simulation sim(make_small_open_block());
  EXPECT_THROW(sim.run(-1), Error);
}

TEST(Simulation, ThermoTotalIsSumOfParts) {
  Simulation sim(make_small_open_block());
  Rng rng(61);
  sim.system().thermalize(290.0, rng);
  sim.compute_forces();
  const auto t = sim.thermo();
  EXPECT_DOUBLE_EQ(t.total_energy, t.potential_energy + t.kinetic_energy);
}

}  // namespace
}  // namespace wsmd::md
