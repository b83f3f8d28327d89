/// \file test_distributed_engine.cpp
/// Executed multi-process backend vs the serial wafer engine: per-atom
/// trajectories must match bitwise at any rank count (the halo exchanges
/// transfer exact FP32 values), global reductions within the FP64 partial-
/// sum band, and the whole Engine surface — thermalize, snapshot/restore
/// across differing rank counts, dead-rank failure reporting — must behave
/// like any other backend.

#include "dist/distributed_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "eam/zhou.hpp"
#include "engine/wafer_engine.hpp"
#include "engine/reference_engine.hpp"
#include "lattice/lattice.hpp"

namespace wsmd::dist {
namespace {

struct Fixture {
  lattice::Structure structure;
  eam::EamPotentialPtr potential;

  explicit Fixture(int nx = 6, int ny = 6, int nz = 4) {
    const auto p = eam::zhou_parameters("Ta");
    structure = lattice::replicate(
        lattice::UnitCell::of(p.structure, p.lattice_constant()), nx, ny, nz);
    potential = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  }

  core::WseMdConfig config() const {
    core::WseMdConfig cfg;
    cfg.mapping.cell_size = eam::zhou_parameters("Ta").lattice_constant();
    return cfg;
  }

  DistributedConfig dist_config(int ranks, int threads = 1) const {
    DistributedConfig dc;
    dc.wse = config();
    dc.ranks = ranks;
    dc.threads = threads;
    dc.step_timeout_ms = 60'000;
    return dc;
  }
};

/// Engine-level state comparison, exact: positions()/velocities() widen the
/// ranks' FP32 state exactly, so double == iff bitwise equal floats.
void expect_identical_state(engine::Engine& serial, engine::Engine& dist) {
  const auto rp = serial.positions();
  const auto dp = dist.positions();
  const auto rv = serial.velocities();
  const auto dv = dist.velocities();
  ASSERT_EQ(rp.size(), dp.size());
  for (std::size_t i = 0; i < rp.size(); ++i) {
    ASSERT_EQ(rp[i].x, dp[i].x) << "atom " << i;
    ASSERT_EQ(rp[i].y, dp[i].y) << "atom " << i;
    ASSERT_EQ(rp[i].z, dp[i].z) << "atom " << i;
    ASSERT_EQ(rv[i].x, dv[i].x) << "atom " << i;
    ASSERT_EQ(rv[i].y, dv[i].y) << "atom " << i;
    ASSERT_EQ(rv[i].z, dv[i].z) << "atom " << i;
  }
}

/// Reductions regroup FP64 partial sums across ranks: equal to the serial
/// row-major sum within a tight relative band, not bitwise.
void expect_matching_thermo(const engine::Thermo& a, const engine::Thermo& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_NEAR(a.potential_energy, b.potential_energy,
              1e-9 * std::abs(a.potential_energy));
  EXPECT_NEAR(a.kinetic_energy, b.kinetic_energy,
              1e-9 * std::max(1.0, std::abs(a.kinetic_energy)));
}

class RankParity : public ::testing::TestWithParam<int> {};

TEST_P(RankParity, BitwiseMatchesSerialOver60Steps) {
  const int ranks = GetParam();
  Fixture f;

  engine::WaferEngine serial(f.structure, f.potential, f.config());
  DistributedEngine dist(f.structure, f.potential, f.dist_config(ranks));
  EXPECT_EQ(dist.ranks(), ranks);
  EXPECT_STREQ(dist.backend_name(), "ranks");

  Rng rng_a(2024), rng_b(2024);
  serial.thermalize(290.0, rng_a);
  dist.thermalize(290.0, rng_b);
  expect_matching_thermo(serial.thermo(), dist.thermo());

  const auto st = serial.run(60);
  const auto dt = dist.run(60);
  expect_identical_state(serial, dist);
  expect_matching_thermo(st, dt);
  EXPECT_EQ(dist.step_count(), 60);
}

TEST_P(RankParity, SwapStepsMigrateAtomsIdentically) {
  // Swap phase every step: atoms migrate between cores (and therefore
  // between rank strips at the boundaries). The merged partner commit must
  // make the same remapping decisions as the serial sweep, and migrated
  // atoms must carry bitwise state with them.
  const int ranks = GetParam();
  Fixture f;
  core::WseMdConfig cfg = f.config();
  cfg.mapping.refine_rounds = 0;  // sub-optimal mapping: swaps actually fire
  cfg.swap_interval = 1;
  cfg.b_override = 5;

  engine::WaferEngine serial(f.structure, f.potential, cfg);
  DistributedConfig dc = f.dist_config(ranks);
  dc.wse = cfg;
  DistributedEngine dist(f.structure, f.potential, dc);

  Rng rng_a(7), rng_b(7);
  serial.thermalize(600.0, rng_a);
  dist.thermalize(600.0, rng_b);
  std::size_t swaps = 0;
  for (int k = 0; k < 40; ++k) {
    serial.step();
    swaps += serial.last_step_stats().swaps_applied;
  }
  dist.run(40);
  EXPECT_GT(swaps, 0u) << "fixture no longer triggers migrations";

  expect_identical_state(serial, dist);
  // The mapping mutated by the swaps is identical too — including atoms
  // that crossed a strip boundary mid-run.
  const auto serial_snap = serial.snapshot();
  const auto dist_snap = dist.snapshot();
  ASSERT_EQ(serial_snap.core_atoms.size(), dist_snap.core_atoms.size());
  EXPECT_EQ(serial_snap.core_atoms, dist_snap.core_atoms);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankParity, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& i) {
                           char name[16];
                           std::snprintf(name, sizeof name, "m%d", i.param);
                           return std::string(name);
                         });

TEST(DistributedEngine, RankThreadsKeepBitwiseParity) {
  // ranks:2x2 — two shard threads inside each rank process.
  Fixture f;
  engine::WaferEngine serial(f.structure, f.potential, f.config());
  DistributedEngine dist(f.structure, f.potential, f.dist_config(2, 2));
  EXPECT_EQ(dist.rank_threads(), 2);

  Rng a(11), b(11);
  serial.thermalize(290.0, a);
  dist.thermalize(290.0, b);
  serial.run(30);
  dist.run(30);
  expect_identical_state(serial, dist);
}

TEST(DistributedEngine, GhostRadiusSpanningWholeNeighborStrips) {
  // Small structure, 4 ranks: strip heights shrink to ~b, so halos span
  // entire neighbor strips and the next-nearest-peer exchange paths run.
  Fixture f(3, 3, 3);
  engine::WaferEngine serial(f.structure, f.potential, f.config());
  DistributedEngine dist(f.structure, f.potential, f.dist_config(4));
  const auto& strips = dist.strips();
  bool spans_neighbor = false;
  for (std::size_t t = 0; t + 1 < strips.size(); ++t) {
    if (!strips[t].empty() &&
        strips[t].y1 - strips[t].y0 <= serial.wafer().b()) {
      spans_neighbor = true;
    }
  }
  EXPECT_TRUE(spans_neighbor) << "fixture no longer exercises the edge case";

  Rng a(3), b(3);
  serial.thermalize(290.0, a);
  dist.thermalize(290.0, b);
  serial.run(25);
  dist.run(25);
  expect_identical_state(serial, dist);
}

TEST(DistributedEngine, BitwiseStableAcrossRepeatedRuns) {
  Fixture f;
  auto run_once = [&](std::vector<Vec3d>& pos, engine::Thermo& t) {
    DistributedEngine dist(f.structure, f.potential, f.dist_config(2));
    Rng rng(99);
    dist.thermalize(350.0, rng);
    t = dist.run(20);
    pos = dist.positions();
  };
  std::vector<Vec3d> p1, p2;
  engine::Thermo t1, t2;
  run_once(p1, t1);
  run_once(p2, t2);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].x, p2[i].x);
    EXPECT_EQ(p1[i].y, p2[i].y);
    EXPECT_EQ(p1[i].z, p2[i].z);
  }
  // Fixed rank-order reduction: the global sums are bitwise stable too.
  EXPECT_EQ(t1.potential_energy, t2.potential_energy);
  EXPECT_EQ(t1.kinetic_energy, t2.kinetic_energy);
}

/// /dev/shm entries created for this run (should always be none: segments
/// are unlinked before fork, whatever happens later).
int dev_shm_entries() {
  namespace fs = std::filesystem;
  int n = 0;
  if (!fs::exists("/dev/shm")) return 0;  // tmpfs not mounted here
  for (const auto& e : fs::directory_iterator("/dev/shm")) {
    if (e.path().filename().string().rfind("wsmd-shm-", 0) == 0) ++n;
  }
  return n;
}

TEST(DistributedEngine, ShmSegmentsNeverAppearInDevShm) {
  // Unlink-before-fork: no wsmd shm entry exists even while the engine is
  // alive and exchanging halos, so nothing can be left to leak.
  Fixture f;
  const int before = dev_shm_entries();
  DistributedEngine dist(f.structure, f.potential, f.dist_config(4));
  Rng rng(23);
  dist.thermalize(290.0, rng);
  dist.run(5);
  EXPECT_EQ(dev_shm_entries(), before);
}

TEST(DistributedEngine, ThermalizeAdvancesCallerRngLikeSerial) {
  Fixture f;
  engine::WaferEngine serial(f.structure, f.potential, f.config());
  DistributedEngine dist(f.structure, f.potential, f.dist_config(2));
  Rng rng_a(5), rng_b(5);
  serial.thermalize(290.0, rng_a);
  dist.thermalize(290.0, rng_b);
  // The caller's stream continues from the same point on both backends —
  // seeds drawn after thermalize stay reproducible across backends.
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
  }
}

TEST(DistributedEngine, CheckpointRestoresAcrossRankCounts) {
  // ranks:2 checkpoint -> resumed on ranks:4 and on the serial wafer; both
  // continuations must be bitwise identical (State is backend-global, so
  // re-ranking is just a different strip partition of the same state).
  Fixture f;
  core::WseMdConfig cfg = f.config();
  cfg.swap_interval = 5;

  DistributedConfig two = f.dist_config(2);
  two.wse = cfg;
  DistributedEngine source(f.structure, f.potential, two);
  Rng rng(42);
  source.thermalize(290.0, rng);
  source.run(20);
  const auto checkpoint = source.snapshot();
  EXPECT_EQ(checkpoint.step, 20);
  EXPECT_TRUE(checkpoint.has_wafer);
  source.run(15);  // ground truth continuation

  DistributedConfig four = f.dist_config(4);
  four.wse = cfg;
  DistributedEngine resumed(f.structure, f.potential, four);
  resumed.restore(checkpoint);
  EXPECT_EQ(resumed.step_count(), 20);
  resumed.run(15);
  expect_identical_state(source, resumed);
  expect_matching_thermo(source.thermo(), resumed.thermo());

  engine::WaferEngine serial(f.structure, f.potential, cfg);
  serial.restore(checkpoint);
  serial.run(15);
  expect_identical_state(source, serial);
}

TEST(DistributedEngine, WaferCheckpointRestoresOntoRanks) {
  // The reverse direction: a serial-wafer checkpoint re-ranked onto
  // ranks:2 continues bitwise.
  Fixture f;
  engine::WaferEngine serial(f.structure, f.potential, f.config());
  Rng rng(13);
  serial.thermalize(290.0, rng);
  serial.run(10);
  const auto checkpoint = serial.snapshot();
  serial.run(10);

  DistributedEngine resumed(f.structure, f.potential, f.dist_config(2));
  resumed.restore(checkpoint);
  resumed.run(10);
  expect_identical_state(serial, resumed);
}

TEST(DistributedEngine, RestoreWithWiderRadiusContinuesBitwise) {
  // A restore may raise b past the radius the ranks' shm halo slots were
  // sized for. The ranks must then continue bitwise with a WaferEngine
  // restored from the same state, not overrun a slot.
  Fixture f(8, 8, 16);
  engine::WaferEngine serial(f.structure, f.potential, f.config());
  Rng rng(19);
  serial.thermalize(290.0, rng);
  serial.run(10);
  engine::State wide = serial.snapshot();
  wide.b += 4;
  ASSERT_LE(wide.b, std::max(wide.grid_width, wide.grid_height));

  DistributedEngine dist(f.structure, f.potential, f.dist_config(2));
  const auto& strip = dist.strips()[0];
  ASSERT_GT(strip.y1 - strip.y0, wide.b + 1)
      << "fixture no longer widens the state halo";
  dist.restore(wide);
  serial.restore(wide);
  serial.run(10);
  dist.run(10);
  expect_identical_state(serial, dist);
  expect_matching_thermo(serial.thermo(), dist.thermo());
}

TEST(DistributedEngine, RanksCheckpointTransfersToReference) {
  // Cross-backend: a ranks:2 checkpoint resumes on the FP64 reference
  // engine — a best-effort state transfer, not bitwise; it must load and
  // integrate stably from the transferred state.
  Fixture f;
  DistributedEngine source(f.structure, f.potential, f.dist_config(2));
  Rng rng(21);
  source.thermalize(290.0, rng);
  source.run(10);
  const auto checkpoint = source.snapshot();
  const double e0 = source.thermo().total_energy;

  engine::ReferenceEngine reference(f.structure, f.potential, {});
  reference.restore(checkpoint);
  EXPECT_EQ(reference.step_count(), 10);
  const auto t = reference.run(5);
  EXPECT_EQ(t.step, 15);
  // Same physical system: energies agree to cross-backend tolerance.
  EXPECT_NEAR(t.total_energy, e0, 1e-3 * std::abs(e0));
}

TEST(DistributedEngine, SetPositionsAndVelocitiesPropagate) {
  Fixture f;
  engine::WaferEngine serial(f.structure, f.potential, f.config());
  DistributedEngine dist(f.structure, f.potential, f.dist_config(2));
  Rng rng(8);
  serial.thermalize(290.0, rng);

  dist.set_positions(serial.positions());
  dist.set_velocities(serial.velocities());
  expect_matching_thermo(serial.thermo(), dist.thermo());
  serial.run(10);
  dist.run(10);
  expect_identical_state(serial, dist);
}

TEST(DeadRankDrill, TripsRankFailureAndLeavesNoShmDebris) {
  Fixture f;
  const int shm_before = dev_shm_entries();
  DistributedConfig dc = f.dist_config(2);
  dc.kill_rank = 1;
  dc.kill_step = 3;
  dc.step_timeout_ms = 20'000;
  {
    DistributedEngine dist(f.structure, f.potential, dc);
    Rng rng(4);
    dist.thermalize(290.0, rng);
    dist.run(2);  // steps 1..2 complete

    try {
      dist.step();  // rank 1 dies at the start of step 3
      FAIL() << "expected RankFailureError";
    } catch (const RankFailureError& e) {
      ASSERT_EQ(e.last_known_steps().size(), 2u);
      // Both ranks had completed step 2; nobody finished step 3.
      EXPECT_EQ(e.last_known_steps()[0], 2);
      EXPECT_EQ(e.last_known_steps()[1], 2);
      EXPECT_NE(std::string(e.what()).find("failed"), std::string::npos);
    }
    EXPECT_EQ(dist.last_known_steps()[0], 2);
  }
  // A hard rank death and the abort teardown leak no /dev/shm entries.
  EXPECT_EQ(dev_shm_entries(), shm_before);
}

TEST(DistributedEngine, ModeledHaloCostJoinsSharedFormula) {
  Fixture f;
  DistributedEngine dist(f.structure, f.potential, f.dist_config(2));
  Rng rng(1);
  dist.thermalize(290.0, rng);
  dist.run(10);

  const auto cost = dist.modeled_phase_cost();
  EXPECT_TRUE(cost.valid);
  EXPECT_EQ(cost.steps, 10);
  EXPECT_GT(cost.halo_seconds, 0.0);
  const auto& model = f.config().cost_model;
  const auto snap = dist.snapshot();
  const double cycles = halo_cycles_per_step(dist.strips(), snap.b,
                                             snap.grid_width, snap.grid_height,
                                             model);
  EXPECT_NEAR(cost.halo_seconds,
              cycles * 10.0 / (model.clock_ghz() * 1e9),
              1e-12);
  EXPECT_GT(cost.total_seconds, 0.0);
}

TEST(DistributedEngine, ShardLoadReportsPerRankAccounting) {
  Fixture f;
  DistributedEngine dist(f.structure, f.potential, f.dist_config(2));
  Rng rng(2);
  dist.thermalize(290.0, rng);
  dist.run(5);
  const auto load = dist.shard_load();
  ASSERT_EQ(load.size(), 2u);
  for (const auto& l : load) {
    EXPECT_GT(l.busy_seconds, 0.0);
    EXPECT_GE(l.wait_seconds, 0.0);
  }
}

TEST(DistributedEngine, RejectsBadRankCounts) {
  Fixture f;
  DistributedConfig dc = f.dist_config(0);
  EXPECT_THROW(DistributedEngine(f.structure, f.potential, dc), Error);
  dc.ranks = kMaxRanks + 1;
  EXPECT_THROW(DistributedEngine(f.structure, f.potential, dc), Error);
}

}  // namespace
}  // namespace wsmd::dist
