/// \file test_threaded_force.cpp
/// Deterministic threaded force sweep: md::Simulation with threads = 2 or 8
/// must reproduce the serial trajectory *bitwise*, not approximately.
///
/// The sweep tiles atoms at a fixed width (md/force_eam.cpp kForceTile)
/// with static round-robin tile assignment and a serial tile-ordered energy
/// reduction, so worker count changes only who computes a tile, never the
/// FP operation order. These tests are the contract behind the `reference:N`
/// scenario backend and CI's thread-determinism leg.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "md/simulation.hpp"
#include "util/random.hpp"

namespace wsmd::md {
namespace {

lattice::Structure jittered_ta(unsigned seed) {
  const auto p = eam::zhou_parameters("Ta");
  auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 4, 4, 4, 0,
      {true, true, true});
  Rng rng(seed);
  for (auto& r : s.positions) r += rng.gaussian_vec3(0.05);
  return s;
}

Simulation make_sim(const lattice::Structure& s, int threads) {
  SimulationConfig cfg;
  cfg.threads = threads;
  Simulation sim(AtomSystem(s, std::make_shared<eam::ZhouEam>("Ta")), cfg);
  Rng rng(99);
  sim.system().thermalize(300.0, rng);  // same seed -> same velocities
  return sim;
}

void expect_bitwise_equal(Simulation& a, Simulation& b, const char* label) {
  const auto ra = a.system().positions().to_aos();
  const auto rb = b.system().positions().to_aos();
  const auto va = a.system().velocities().to_aos();
  const auto vb = b.system().velocities().to_aos();
  const auto fa = a.system().forces().to_aos();
  const auto fb = b.system().forces().to_aos();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i].x, rb[i].x) << label << ": position x, atom " << i;
    ASSERT_EQ(ra[i].y, rb[i].y) << label << ": position y, atom " << i;
    ASSERT_EQ(ra[i].z, rb[i].z) << label << ": position z, atom " << i;
    ASSERT_EQ(va[i].x, vb[i].x) << label << ": velocity x, atom " << i;
    ASSERT_EQ(fa[i].x, fb[i].x) << label << ": force x, atom " << i;
    ASSERT_EQ(fa[i].y, fb[i].y) << label << ": force y, atom " << i;
    ASSERT_EQ(fa[i].z, fb[i].z) << label << ": force z, atom " << i;
  }
}

class ThreadedForce : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedForce, SingleEvaluationMatchesSerialBitwise) {
  const auto s = jittered_ta(31);
  auto serial = make_sim(s, 1);
  auto threaded = make_sim(s, GetParam());
  const double pe1 = serial.compute_forces();
  const double pen = threaded.compute_forces();
  EXPECT_EQ(pe1, pen);
  expect_bitwise_equal(serial, threaded, "single eval");
}

TEST_P(ThreadedForce, TrajectoryMatchesSerialBitwise) {
  const auto s = jittered_ta(32);
  auto serial = make_sim(s, 1);
  auto threaded = make_sim(s, GetParam());
  const auto t1 = serial.run(12);
  const auto tn = threaded.run(12);
  EXPECT_EQ(t1.potential_energy, tn.potential_energy);
  EXPECT_EQ(t1.total_energy, tn.total_energy);
  EXPECT_EQ(t1.temperature, tn.temperature);
  expect_bitwise_equal(serial, threaded, "12-step trajectory");
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ThreadedForce,
                         ::testing::Values(2, 8),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "threads" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace wsmd::md
