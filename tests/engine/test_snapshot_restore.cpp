/// \file test_snapshot_restore.cpp
/// Engine::snapshot()/restore(): the checkpoint/restart contract at the
/// engine layer. A snapshot restored into a fresh engine of the same
/// backend over the same structure must continue the trajectory *bitwise*
/// — positions, velocities, and thermo identical to the uninterrupted run
/// at every later step. That must survive the hard cases: a Verlet-list
/// rebuild landing after the restore point (reference), an atom-swap
/// mutated core mapping (wafer), and re-sharding onto a different thread
/// count (a serial-wafer snapshot restored into sharded:N and vice versa).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "eam/zhou.hpp"
#include "engine/engine.hpp"
#include "lattice/lattice.hpp"
#include "util/error.hpp"

namespace wsmd::engine {
namespace {

struct Fixture {
  lattice::Structure structure;
  eam::EamPotentialPtr potential;
  EngineConfig config;

  explicit Fixture(int swap_interval = 0) {
    const auto p = eam::zhou_parameters("Cu");
    structure = lattice::replicate(
        lattice::UnitCell::of(p.structure, p.lattice_constant()), 4, 4, 3);
    potential = std::make_shared<eam::ZhouEam>("Cu", p.paper_cutoff());
    config.wafer.mapping.cell_size = p.lattice_constant();
    config.wafer.swap_interval = swap_interval;
    config.threads = 3;
  }
};

void expect_bitwise_equal(Engine& a, Engine& b, const std::string& label) {
  EXPECT_EQ(a.step_count(), b.step_count()) << label;
  const auto pa = a.positions(), pb = b.positions();
  const auto va = a.velocities(), vb = b.velocities();
  ASSERT_EQ(pa.size(), pb.size()) << label;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t ax = 0; ax < 3; ++ax) {
      ASSERT_EQ(pa[i][ax], pb[i][ax]) << label << ": atom " << i;
      ASSERT_EQ(va[i][ax], vb[i][ax]) << label << ": atom " << i;
    }
  }
  const auto ta = a.thermo(), tb = b.thermo();
  EXPECT_EQ(ta.potential_energy, tb.potential_energy) << label;
  EXPECT_EQ(ta.kinetic_energy, tb.kinetic_energy) << label;
  EXPECT_EQ(ta.temperature, tb.temperature) << label;
}

/// Run `total` steps uninterrupted; in parallel, snapshot a twin at
/// `snapshot_at`, restore into a *fresh* engine — or, with `warm`, into one
/// that already stepped a different trajectory (another seed, its own
/// swaps), whose cached candidate shortlist the restore must not let
/// survive — and finish there. Both must agree bitwise at the end (and at
/// every step via thermo).
void check_restart_parity(Backend backend, int swap_interval,
                          const std::string& label, bool warm = false,
                          int threads = 3) {
  Fixture f(swap_interval);
  f.config.threads = threads;
  const long snapshot_at = 9, total = 25;

  auto straight = make_engine(backend, f.structure, f.potential, f.config);
  Rng rng1(777);
  straight->thermalize(320.0, rng1);
  straight->run(total);

  auto first = make_engine(backend, f.structure, f.potential, f.config);
  Rng rng2(777);
  first->thermalize(320.0, rng2);
  first->run(snapshot_at);
  const State snap = first->snapshot();
  EXPECT_EQ(snap.step, snapshot_at) << label;
  first.reset();  // the "kill": the original process is gone

  auto resumed = make_engine(backend, f.structure, f.potential, f.config);
  if (warm) {
    Rng other(4242);
    resumed->thermalize(500.0, other);
    resumed->run(13);
  }
  resumed->restore(snap);
  EXPECT_EQ(resumed->step_count(), snapshot_at) << label;
  resumed->run(total - snapshot_at);

  expect_bitwise_equal(*straight, *resumed, label);
}

TEST(SnapshotRestore, ReferenceContinuesBitwise) {
  check_restart_parity(Backend::kReference, 0, "reference");
}

TEST(SnapshotRestore, WaferContinuesBitwise) {
  check_restart_parity(Backend::kShardedWafer, 0, "wafer", false, 1);
}

TEST(SnapshotRestore, ShardedContinuesBitwise) {
  check_restart_parity(Backend::kShardedWafer, 0, "sharded");
}

TEST(SnapshotRestore, WaferWithAtomSwapsRestoresTheMutatedMapping) {
  // swap_interval 4 fires swaps both before and after the restore point —
  // the mapping the checkpoint carries is not the constructed one.
  check_restart_parity(Backend::kShardedWafer, 4, "wafer+swaps", false, 1);
  check_restart_parity(Backend::kShardedWafer, 4, "sharded+swaps");
}

TEST(SnapshotRestore, RestoreIntoWarmEngineContinuesBitwise) {
  check_restart_parity(Backend::kShardedWafer, 4, "wafer warm", /*warm=*/true,
                       /*threads=*/1);
  check_restart_parity(Backend::kShardedWafer, 4, "sharded:3 warm",
                       /*warm=*/true);
}

TEST(SnapshotRestore, RejectsCorruptNeighborhoodRadius) {
  // A checkpoint's b sizes the per-atom candidate rows; past
  // max(grid_width, grid_height) the clipped window stops growing, so a
  // larger value is corrupt input and must be a typed rejection, not an
  // allocation failure or a signed overflow at the next step.
  Fixture f(/*swap_interval=*/4);
  for (const Backend backend : {Backend::kShardedWafer, Backend::kRanks}) {
    auto eng = make_engine(backend, f.structure, f.potential, f.config);
    const State good = eng->snapshot();
    const int max_b = std::max(good.grid_width, good.grid_height);
    ASSERT_LT(good.b, max_b);
    for (const int b : {0, max_b + 1, 1 << 30}) {
      State bad = good;
      bad.b = b;
      EXPECT_THROW(eng->restore(bad), wsmd::Error) << "b = " << b;
    }
    // The rejected restores left the engine intact.
    auto twin = make_engine(backend, f.structure, f.potential, f.config);
    eng->run(6);
    twin->run(6);
    expect_bitwise_equal(*eng, *twin, "after rejected restores");
  }
}

TEST(SnapshotRestore, SerialWaferSnapshotReshardsBitwise) {
  // The sharded-restore guarantee: a serial-wafer snapshot restored into
  // sharded:N (re-sharded across threads) continues bitwise identical to
  // the serial engine, extending the existing sharded-parity invariant to
  // restarts. And the reverse direction, for completeness.
  Fixture f(/*swap_interval=*/5);
  const long snapshot_at = 10, total = 24;

  EngineConfig one_shard = f.config;
  one_shard.threads = 1;
  auto serial = make_engine(Backend::kShardedWafer, f.structure, f.potential,
                            one_shard);
  Rng rng(2024);
  serial->thermalize(300.0, rng);
  serial->run(snapshot_at);
  const State snap = serial->snapshot();
  serial->run(total - snapshot_at);

  for (const int threads : {1, 2, 4}) {
    EngineConfig config = f.config;
    config.threads = threads;
    auto sharded = make_engine(Backend::kShardedWafer, f.structure,
                               f.potential, config);
    sharded->restore(snap);
    sharded->run(total - snapshot_at);
    expect_bitwise_equal(*serial, *sharded,
                         "serial->sharded:" + std::to_string(threads));
  }

  // Sharded snapshot back onto the serial engine.
  auto sharded = make_engine(Backend::kShardedWafer, f.structure,
                             f.potential, f.config);
  Rng rng2(2024);
  sharded->thermalize(300.0, rng2);
  sharded->run(snapshot_at);
  const State snap2 = sharded->snapshot();
  auto serial2 = make_engine(Backend::kShardedWafer, f.structure,
                             f.potential, one_shard);
  serial2->restore(snap2);
  serial2->run(total - snapshot_at);
  expect_bitwise_equal(*serial, *serial2, "sharded->serial");
}

TEST(SnapshotRestore, SnapshotIsValidBeforeAnyStep) {
  Fixture f;
  for (const Backend backend : {Backend::kReference, Backend::kShardedWafer}) {
    auto a = make_engine(backend, f.structure, f.potential, f.config);
    const State snap = a->snapshot();
    EXPECT_EQ(snap.step, 0);
    auto b = make_engine(backend, f.structure, f.potential, f.config);
    b->restore(snap);
    expect_bitwise_equal(*a, *b, "pre-step snapshot");
  }
}

TEST(SnapshotRestore, RejectsAtomCountMismatch) {
  Fixture f;
  const auto p = eam::zhou_parameters("Cu");
  const auto small = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 2, 2, 2);
  for (const Backend backend : {Backend::kReference, Backend::kShardedWafer}) {
    auto big = make_engine(backend, f.structure, f.potential, f.config);
    auto tiny = make_engine(backend, small, f.potential, f.config);
    EXPECT_THROW(tiny->restore(big->snapshot()), wsmd::Error)
        << "backend accepted a snapshot of a different structure";
  }
}

TEST(SnapshotRestore, SetPositionsRoundTripsThroughTheSurface) {
  Fixture f;
  for (const Backend backend : {Backend::kReference, Backend::kShardedWafer}) {
    auto eng = make_engine(backend, f.structure, f.potential, f.config);
    auto shifted = eng->positions();
    for (auto& r : shifted) r = r + Vec3d{0.05, -0.03, 0.02};
    eng->set_positions(shifted);
    const auto got = eng->positions();
    for (std::size_t i = 0; i < got.size(); ++i) {
      for (std::size_t ax = 0; ax < 3; ++ax) {
        // Wafer backends round through FP32 — that rounding is the stored
        // state, and positions() widens it exactly.
        const double expect =
            backend == Backend::kReference
                ? shifted[i][ax]
                : static_cast<double>(static_cast<float>(shifted[i][ax]));
        ASSERT_EQ(got[i][ax], expect) << "atom " << i;
      }
    }
  }
}

}  // namespace
}  // namespace wsmd::engine
