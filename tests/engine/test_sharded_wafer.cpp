/// \file test_sharded_wafer.cpp
/// Sharded/serial parity: the WaferEngine backend must reproduce the
/// serial core::WseMd trajectory *bitwise* (FP32 state, FP64 reductions)
/// at any thread count, including atom-swap steps and shard counts
/// exceeding the grid height. Also covers the per-shard accounting and the
/// modeled halo-exchange cost.

#include "engine/wafer_engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"

namespace wsmd::engine {
namespace {

struct Fixture {
  lattice::Structure structure;
  eam::EamPotentialPtr potential;

  explicit Fixture(std::array<bool, 3> pbc = {false, false, false}) {
    const auto p = eam::zhou_parameters("Ta");
    structure = lattice::replicate(
        lattice::UnitCell::of(p.structure, p.lattice_constant()), 6, 6, 4, 0,
        pbc);
    potential = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  }

  core::WseMdConfig config() const {
    core::WseMdConfig cfg;
    cfg.mapping.cell_size = eam::zhou_parameters("Ta").lattice_constant();
    return cfg;
  }
};

/// Exact comparison: positions()/velocities() widen FP32 state exactly, so
/// double == iff the underlying floats are bitwise equal.
void expect_identical_state(const core::WseMd& serial, const core::WseMd& sharded) {
  const auto rp = serial.positions();
  const auto sp = sharded.positions();
  const auto rv = serial.velocities();
  const auto sv = sharded.velocities();
  ASSERT_EQ(rp.size(), sp.size());
  for (std::size_t i = 0; i < rp.size(); ++i) {
    EXPECT_EQ(rp[i].x, sp[i].x) << "atom " << i;
    EXPECT_EQ(rp[i].y, sp[i].y) << "atom " << i;
    EXPECT_EQ(rp[i].z, sp[i].z) << "atom " << i;
    EXPECT_EQ(rv[i].x, sv[i].x) << "atom " << i;
    EXPECT_EQ(rv[i].y, sv[i].y) << "atom " << i;
    EXPECT_EQ(rv[i].z, sv[i].z) << "atom " << i;
  }
  EXPECT_EQ(serial.potential_energy(), sharded.potential_energy());
  EXPECT_EQ(serial.kinetic_energy(), sharded.kinetic_energy());
}

class ThreadParity : public ::testing::TestWithParam<int> {};

TEST_P(ThreadParity, BitwiseMatchesSerialOver100Steps) {
  const int threads = GetParam();
  Fixture f;

  core::WseMd serial(f.structure, f.potential, f.config());
  WaferEngine sharded(f.structure, f.potential, f.config(), threads);
  EXPECT_EQ(sharded.threads(), threads);

  Rng rng_a(2024), rng_b(2024);
  serial.thermalize(290.0, rng_a);
  sharded.thermalize(290.0, rng_b);

  const int steps = 100;
  const auto serial_stats = serial.run(steps);
  const auto sharded_thermo = sharded.run(steps);

  expect_identical_state(serial, sharded.wafer());
  EXPECT_EQ(sharded_thermo.step, steps);

  // The reduced accounting matches too: same cycles, same reduction order.
  const auto& sharded_stats = sharded.last_step_stats();
  EXPECT_EQ(serial_stats.max_cycles, sharded_stats.max_cycles);
  EXPECT_EQ(serial_stats.mean_cycles, sharded_stats.mean_cycles);
  EXPECT_EQ(serial_stats.stddev_cycles, sharded_stats.stddev_cycles);
  EXPECT_EQ(serial_stats.mean_candidates, sharded_stats.mean_candidates);
  EXPECT_EQ(serial_stats.mean_interactions, sharded_stats.mean_interactions);
}

TEST_P(ThreadParity, ScrambleAndSwapRecoveryMatchesSerial) {
  // Fig. 9 protocol: sub-optimal initial mapping, online swaps every step.
  // The swap phases (parallel select, serial mutual commit) must make the
  // same remapping decisions at every thread count.
  const int threads = GetParam();
  Fixture f;

  core::WseMdConfig cfg = f.config();
  cfg.mapping.refine_rounds = 0;
  cfg.swap_interval = 1;
  cfg.b_override = 6;  // slack for the scrambled mapping

  core::WseMd serial(f.structure, f.potential, cfg);
  WaferEngine sharded(f.structure, f.potential, cfg, threads);

  Rng scramble_a(99), scramble_b(99);
  serial.scramble_mapping(scramble_a, 200);
  sharded.wafer().scramble_mapping(scramble_b, 200);
  Rng rng_a(7), rng_b(7);
  serial.thermalize(150.0, rng_a);
  sharded.thermalize(150.0, rng_b);

  serial.run(100);
  sharded.run(100);

  expect_identical_state(serial, sharded.wafer());
  EXPECT_EQ(serial.assignment_cost(), sharded.wafer().assignment_cost());
  // The mapping itself recovered identically.
  for (std::size_t i = 0; i < serial.atom_count(); ++i) {
    EXPECT_EQ(serial.mapping().core_of(i), sharded.wafer().mapping().core_of(i))
        << "atom " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadParity, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           // snprintf instead of string concatenation: the
                           // latter trips a g++-12 -Wrestrict false positive.
                           char name[16];
                           std::snprintf(name, sizeof name, "t%d", i.param);
                           return std::string(name);
                         });

TEST(ShardedWafer, MoreShardsThanGridRowsStillExact) {
  Fixture f;
  core::WseMd serial(f.structure, f.potential, f.config());
  // Far more shards than grid rows: many empty shards.
  WaferEngine sharded(f.structure, f.potential, f.config(), 64);

  Rng a(5), b(5);
  serial.thermalize(290.0, a);
  sharded.thermalize(290.0, b);
  serial.run(10);
  sharded.run(10);
  expect_identical_state(serial, sharded.wafer());
}

TEST(ShardedWafer, ShardsTileTheGrid) {
  Fixture f;
  WaferEngine sharded(f.structure, f.potential, f.config(), 3);

  const auto& shards = sharded.shards();
  ASSERT_EQ(shards.size(), 3u);
  const int h = sharded.wafer().mapping().grid_height();
  int covered = 0;
  for (std::size_t t = 0; t < shards.size(); ++t) {
    EXPECT_EQ(shards[t].x0, 0);
    EXPECT_EQ(shards[t].x1, sharded.wafer().mapping().grid_width());
    if (t > 0) {
      EXPECT_EQ(shards[t].y0, shards[t - 1].y1);
    }
    covered += shards[t].y1 - shards[t].y0;
  }
  EXPECT_EQ(shards.front().y0, 0);
  EXPECT_EQ(shards.back().y1, h);
  EXPECT_EQ(covered, h);
}

TEST(ShardedWafer, ShardStatsReduceToGlobalStats) {
  Fixture f;
  WaferEngine sharded(f.structure, f.potential, f.config(), 4);
  Rng rng(11);
  sharded.thermalize(290.0, rng);
  sharded.step();

  const auto& global = sharded.last_step_stats();
  double max_cycles = 0.0;
  for (const auto& s : sharded.shard_stats()) {
    max_cycles = std::max(max_cycles, s.max_cycles);
    if (s.mean_cycles > 0.0) {
      EXPECT_GE(global.max_cycles, s.max_cycles);
    }
  }
  EXPECT_EQ(global.max_cycles, max_cycles);
}

TEST(ShardedWafer, HaloCostChargedPerShard) {
  Fixture f;
  WaferEngine serial(f.structure, f.potential, f.config(), 1);
  EXPECT_EQ(serial.halo_cycles_per_step(), 0.0);

  WaferEngine sharded(f.structure, f.potential, f.config(), 4);
  EXPECT_GT(sharded.halo_cycles_per_step(), 0.0);

  // More shards -> more internal boundary -> more halo cost.
  WaferEngine finer(f.structure, f.potential, f.config(), 8);
  EXPECT_GT(finer.halo_cycles_per_step(), sharded.halo_cycles_per_step());
}

TEST(CostModelHalo, GhostRegionArithmetic) {
  const auto model = wse::CostModel::paper_baseline();
  // Free-standing 10x10 shard, b=1: ghost ring = 12*12 - 10*10 = 44 cores.
  const double cycles = model.halo_exchange_cycles(10, 10, 1);
  const double expected_ns = 44.0 * model.components().mcast_per_candidate;
  EXPECT_NEAR(cycles, expected_ns * model.clock_ghz(), 1e-9);
  EXPECT_NEAR(cycles, 44.0 * model.ghost_core_cycles(), 1e-9);
  // b=0 halo is empty.
  EXPECT_EQ(model.halo_exchange_cycles(10, 10, 0), 0.0);
}

TEST(ShardedWafer, HaloClippedToPhysicalGrid) {
  // Two row strips: the only real boundary is the shared edge, so the
  // charged ghost cores are exactly the 2b-deep bands either side of it
  // (x2 for the two exchanges per step) — halo cores hanging off the grid
  // edges are not billed.
  Fixture f;
  WaferEngine sharded(f.structure, f.potential, f.config(), 2);
  const int w = sharded.wafer().mapping().grid_width();
  const int b = sharded.wafer().b();
  const auto& model = sharded.wafer().config().cost_model;
  const double expected =
      2.0 * 2.0 * static_cast<double>(w) * b * model.ghost_core_cycles();
  EXPECT_NEAR(sharded.halo_cycles_per_step(), expected, 1e-9);
}

}  // namespace
}  // namespace wsmd::engine
