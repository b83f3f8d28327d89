/// \file test_engine.cpp
/// The unified Engine interface: adapters report consistent state with the
/// engines they wrap, the per-step callback contract matches
/// md::Simulation::run, and the FP64/FP32 backends stay physically
/// equivalent when driven through the common surface.

#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "eam/zhou.hpp"
#include "engine/reference_engine.hpp"
#include "engine/wafer_engine.hpp"
#include "lattice/lattice.hpp"

namespace wsmd::engine {
namespace {

struct Fixture {
  lattice::Structure structure;
  eam::EamPotentialPtr potential;
  EngineConfig config;

  Fixture() {
    const auto p = eam::zhou_parameters("Ta");
    structure = lattice::replicate(
        lattice::UnitCell::of(p.structure, p.lattice_constant()), 5, 5, 3);
    potential = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
    config.wafer.mapping.cell_size = p.lattice_constant();
    config.threads = 2;
  }
};

TEST(EngineFactory, BuildsEveryBackend) {
  Fixture f;
  const auto ref =
      make_engine(Backend::kReference, f.structure, f.potential, f.config);
  EngineConfig one_shard = f.config;
  one_shard.threads = 1;
  const auto wafer =
      make_engine(Backend::kShardedWafer, f.structure, f.potential, one_shard);
  const auto sharded =
      make_engine(Backend::kShardedWafer, f.structure, f.potential, f.config);

  EXPECT_STREQ(ref->backend_name(), "reference-fp64");
  EXPECT_STREQ(wafer->backend_name(), "sharded-wafer");
  EXPECT_STREQ(sharded->backend_name(), "sharded-wafer");
  for (const Engine* e :
       {ref.get(), wafer.get(), sharded.get()}) {
    EXPECT_EQ(e->atom_count(), f.structure.size());
    EXPECT_EQ(e->step_count(), 0);
    EXPECT_EQ(e->positions().size(), f.structure.size());
  }
  EXPECT_EQ(dynamic_cast<WaferEngine*>(sharded.get())->threads(), 2);
}

TEST(EngineInterface, CallbackFiresEveryStepOnEveryBackend) {
  Fixture f;
  for (const Backend backend : {Backend::kReference, Backend::kShardedWafer}) {
    const auto engine =
        make_engine(backend, f.structure, f.potential, f.config);
    Rng rng(41);
    engine->thermalize(200.0, rng);
    long fired = 0;
    long last_step = -1;
    const auto final_thermo = engine->run(7, [&](const Thermo& t) {
      ++fired;
      EXPECT_GT(t.step, last_step) << engine->backend_name();
      last_step = t.step;
      EXPECT_TRUE(std::isfinite(t.total_energy));
    });
    EXPECT_EQ(fired, 7) << engine->backend_name();
    EXPECT_EQ(last_step, 7) << engine->backend_name();
    EXPECT_EQ(final_thermo.step, 7) << engine->backend_name();
    EXPECT_EQ(engine->step_count(), 7) << engine->backend_name();
  }
}

TEST(EngineInterface, ThermoIsConsistentAcrossBackends) {
  // The same crystal at rest: potential energies agree to FP32 tolerance
  // before any stepping (thermo is valid from construction).
  Fixture f;
  const auto ref =
      make_engine(Backend::kReference, f.structure, f.potential, f.config);
  const auto e_ref = ref->thermo().potential_energy;
  for (const Backend backend : {Backend::kShardedWafer}) {
    auto engine = make_engine(backend, f.structure, f.potential, f.config);
    engine->step();  // wafer engines evaluate energy during the step
    EXPECT_NEAR(engine->thermo().potential_energy, e_ref,
                1e-4 * std::fabs(e_ref) + 1e-6)
        << engine->backend_name();
  }
}

TEST(EngineInterface, WaferTracksReferenceThroughCommonSurface) {
  // The central equivalence claim, exercised through the Engine interface:
  // identical initial velocities -> trajectories agree to FP32 tolerance.
  Fixture f;
  auto ref = make_engine(Backend::kReference, f.structure, f.potential,
                         f.config);
  auto sharded = make_engine(Backend::kShardedWafer, f.structure, f.potential,
                             f.config);
  Rng rng(99);
  ref->thermalize(290.0, rng);
  sharded->set_velocities(ref->velocities());

  ref->run(15);
  sharded->run(15);

  const auto rp = ref->positions();
  const auto sp = sharded->positions();
  double max_err = 0.0;
  for (std::size_t i = 0; i < rp.size(); ++i) {
    max_err = std::max(max_err, norm(rp[i] - sp[i]));
  }
  EXPECT_LT(max_err, 5e-3);
}

TEST(ReferenceEngine, MatchesUnderlyingSimulation) {
  Fixture f;
  ReferenceEngine engine(f.structure, f.potential);
  Rng rng(3);
  engine.thermalize(250.0, rng);
  engine.run(5);
  const auto t = engine.thermo();
  const auto s = engine.simulation().thermo();
  EXPECT_EQ(t.step, s.step);
  EXPECT_EQ(t.potential_energy, s.potential_energy);
  EXPECT_EQ(t.kinetic_energy, s.kinetic_energy);
  EXPECT_EQ(t.temperature, s.temperature);
}

TEST(WaferEngine, ExposesModeledAccounting) {
  Fixture f;
  WaferEngine engine(f.structure, f.potential, f.config.wafer);
  engine.step();
  const auto& stats = engine.last_step_stats();
  EXPECT_EQ(stats.step, 1);
  EXPECT_GT(stats.max_cycles, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(engine.wafer().elapsed_seconds(), 0.0);
}

TEST(EngineInterface, VelocityTransferRoundTrips) {
  Fixture f;
  EngineConfig one_shard = f.config;
  one_shard.threads = 1;
  auto a = make_engine(Backend::kShardedWafer, f.structure, f.potential,
                       one_shard);
  auto b = make_engine(Backend::kShardedWafer, f.structure, f.potential,
                       f.config);
  Rng rng(17);
  a->thermalize(290.0, rng);
  b->set_velocities(a->velocities());
  const auto va = a->velocities();
  const auto vb = b->velocities();
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].x, vb[i].x);
    EXPECT_EQ(va[i].y, vb[i].y);
    EXPECT_EQ(va[i].z, vb[i].z);
  }
}

}  // namespace
}  // namespace wsmd::engine
