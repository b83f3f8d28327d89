#include "md/integrator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "md/simulation.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wsmd::md {
namespace {

Simulation small_ta_simulation(double temperature_K, unsigned seed,
                               SimulationConfig cfg = {}) {
  const auto p = eam::zhou_parameters("Ta");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 4, 4, 4, 0,
      {true, true, true});
  AtomSystem sys(s, std::make_shared<eam::ZhouEam>("Ta"));
  Rng rng(seed);
  sys.thermalize(temperature_K, rng);
  return Simulation(std::move(sys), cfg);
}

TEST(Leapfrog, RejectsNonPositiveTimestep) {
  EXPECT_THROW(LeapfrogIntegrator(0.0), Error);
  EXPECT_THROW(LeapfrogIntegrator(-0.001), Error);
}

TEST(Leapfrog, FreeParticleMovesBallistically) {
  lattice::Structure s;
  s.box = Box({-100, -100, -100}, {100, 100, 100});
  s.positions = {{0, 0, 0}};
  s.types = {0};
  AtomSystem sys(s, std::make_shared<eam::ZhouEam>("Ta"));
  sys.velocities()[0] = {3.0, -1.0, 0.5};
  sys.forces()[0] = {0, 0, 0};
  const LeapfrogIntegrator integ(0.002);
  for (int k = 0; k < 100; ++k) integ.step(sys);
  EXPECT_NEAR(sys.positions()[0].x, 3.0 * 0.2, 1e-12);
  EXPECT_NEAR(sys.positions()[0].y, -1.0 * 0.2, 1e-12);
  EXPECT_NEAR(sys.positions()[0].z, 0.5 * 0.2, 1e-12);
}

TEST(Leapfrog, ConstantForceProducesQuadraticTrajectory) {
  lattice::Structure s;
  s.box = Box({-1000, -1000, -1000}, {1000, 1000, 1000});
  s.positions = {{0, 0, 0}};
  s.types = {0};
  AtomSystem sys(s, std::make_shared<eam::ZhouEam>("Ta"));
  const double f = 0.5;  // eV/A
  const double dt = 0.001;
  const int n = 200;
  const double m = sys.mass(0);
  const double a = f / m * units::kForceToAccel;
  sys.velocities()[0] = {0, 0, 0};
  // Leapfrog: initialize v at t = -dt/2 for exact quadratic tracking.
  sys.velocities()[0].x = -0.5 * a * dt;
  const LeapfrogIntegrator integ(dt);
  for (int k = 0; k < n; ++k) {
    sys.forces()[0] = {f, 0, 0};
    integ.step(sys);
  }
  const double t = n * dt;
  EXPECT_NEAR(sys.positions()[0].x, 0.5 * a * t * t, 1e-9);
}

TEST(Leapfrog, EnergyConservationNVE) {
  // 2 fs steps at 290 K, as in the paper's benchmarks. Drift over 400 steps
  // must be a tiny fraction of the kinetic energy.
  auto sim = small_ta_simulation(290.0, 101);
  sim.compute_forces();
  const Thermo initial = sim.thermo();
  const Thermo final = sim.run(400);
  const double scale = std::fabs(initial.kinetic_energy) + 1e-10;
  EXPECT_LT(std::fabs(final.total_energy - initial.total_energy) / scale,
            2e-3)
      << "E0 = " << initial.total_energy << " E1 = " << final.total_energy;
}

TEST(Leapfrog, EnergyDriftShrinksWithTimestepSquared) {
  // Symplectic second-order scheme: halving dt shrinks the energy error
  // by ~4x. Use a hot system so the signal dominates roundoff.
  auto drift_for = [](double dt) {
    SimulationConfig cfg;
    cfg.dt = dt;
    auto sim = small_ta_simulation(600.0, 202, cfg);
    sim.compute_forces();
    const double e0 = sim.thermo().total_energy;
    const long steps = static_cast<long>(std::lround(0.4 / dt));  // 0.4 ps
    const double e1 = sim.run(steps).total_energy;
    return std::fabs(e1 - e0);
  };
  const double d_coarse = drift_for(0.004);
  const double d_fine = drift_for(0.002);
  EXPECT_LT(d_fine, d_coarse / 2.0);
}

TEST(Leapfrog, MomentumConservedNVE) {
  auto sim = small_ta_simulation(290.0, 103);
  const Vec3d p0 = sim.system().momentum();
  EXPECT_NEAR(norm(p0), 0.0, 1e-8);  // thermalize removes drift
  sim.run(200);
  const Vec3d p1 = sim.system().momentum();
  EXPECT_NEAR(norm(p1 - p0), 0.0, 1e-6);
}

TEST(Leapfrog, TimeReversibility) {
  // Run forward n steps, reverse, run n steps: positions return to the
  // start (to roundoff). This is the discrete time reversibility the
  // paper's Sec. II-A invokes. With kick-drift leapfrog the stored velocity
  // v_{k-1/2} pairs with r_k, so exact reversal applies one more full kick
  // (bringing v to +1/2 ahead) before negating.
  auto sim = small_ta_simulation(290.0, 104);
  sim.compute_forces();
  const auto r0 = sim.system().positions().to_aos();
  sim.run(50);

  const LeapfrogIntegrator integ(sim.config().dt);
  integ.half_kick(sim.system());
  integ.half_kick(sim.system());  // full kick: v now at +1/2 of r_50
  for (auto v : sim.system().velocities()) v *= -1.0;
  sim.run(50);

  const auto r1 = sim.system().positions().to_aos();
  double max_err = 0.0;
  for (std::size_t i = 0; i < r0.size(); ++i) {
    max_err = std::max(
        max_err, norm(sim.system().box().minimum_image(r1[i], r0[i])));
  }
  EXPECT_LT(max_err, 1e-7);
}

TEST(Leapfrog, HalfKickTwiceEqualsFullKick) {
  auto sim = small_ta_simulation(290.0, 105);
  sim.compute_forces();
  auto sys_copy = sim.system();

  const LeapfrogIntegrator integ(0.002);
  integ.half_kick(sys_copy);
  integ.half_kick(sys_copy);

  auto& sys = sim.system();
  // A full kick is what step() applies before the drift; compare velocity
  // updates directly.
  const auto v_before = sys.velocities();
  integ.step(sys);
  for (std::size_t i = 0; i < sys.size(); ++i) {
    EXPECT_NEAR(norm(sys.velocities().get(i) - sys_copy.velocities().get(i)), 0.0,
                1e-12)
        << "half+half != full kick for atom " << i;
    (void)v_before;
  }
}

TEST(AtomSystem, ThermalizeHitsTargetTemperature) {
  const auto p = eam::zhou_parameters("Cu");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 4, 4, 4, 0,
      {true, true, true});
  AtomSystem sys(s, std::make_shared<eam::ZhouEam>("Cu"));
  Rng rng(7);
  sys.thermalize(290.0, rng);
  EXPECT_NEAR(sys.temperature(), 290.0, 1e-9);  // exact after rescale
  EXPECT_NEAR(norm(sys.momentum()), 0.0, 1e-8);
}

TEST(AtomSystem, KineticEnergyMatchesEquipartition) {
  const auto p = eam::zhou_parameters("W");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 5, 5, 5, 0,
      {true, true, true});
  AtomSystem sys(s, std::make_shared<eam::ZhouEam>("W"));
  Rng rng(8);
  sys.thermalize(400.0, rng);
  const double expected =
      1.5 * static_cast<double>(sys.size()) * units::kBoltzmann * 400.0;
  EXPECT_NEAR(sys.kinetic_energy(), expected, 1e-6 * expected);
}

}  // namespace
}  // namespace wsmd::md
