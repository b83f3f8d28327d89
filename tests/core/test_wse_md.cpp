#include "core/wse_md.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "../md/analytic_eam.hpp"
#include "eam/zhou.hpp"
#include "lattice/grain_boundary.hpp"
#include "lattice/lattice.hpp"
#include "md/simulation.hpp"

namespace wsmd::core {
namespace {

/// Small Ta slab with the paper-workload (short) cutoff so candidate
/// neighborhoods stay compact.
struct Fixture {
  lattice::Structure structure;
  eam::EamPotentialPtr potential;

  explicit Fixture(int reps_xy = 6, int reps_z = 4,
                   std::array<bool, 3> pbc = {false, false, false}) {
    const auto p = eam::zhou_parameters("Ta");
    structure = lattice::replicate(
        lattice::UnitCell::of(p.structure, p.lattice_constant()), reps_xy,
        reps_xy, reps_z, 0, pbc);
    potential = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  }

  WseMdConfig config() const {
    WseMdConfig cfg;
    cfg.mapping.cell_size = eam::zhou_parameters("Ta").lattice_constant();
    return cfg;
  }
};

/// Fully periodic bulk fixture: no surfaces, so a perfect crystal is a
/// true equilibrium and NVE energy is sharply conserved.
Fixture periodic_fixture() { return Fixture(6, 4, {true, true, true}); }

TEST(WseMd, ConstructsWithDerivedNeighborhood) {
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  EXPECT_GE(engine.b(), 2);
  EXPECT_LE(engine.b(), 6);
  EXPECT_EQ(engine.atom_count(), f.structure.size());
}

TEST(WseMd, PerfectLatticeStaysPut) {
  // Periodic bulk: zero net force on every site (open slabs would relax
  // their surfaces, which is physics, not error).
  Fixture f = periodic_fixture();
  WseMd engine(f.structure, f.potential, f.config());
  const auto r0 = engine.positions();
  engine.run(30);
  const auto r1 = engine.positions();
  for (std::size_t i = 0; i < r0.size(); ++i) {
    // FP32 forces on a perfect lattice are ~1e-6 eV/A of rounding noise.
    EXPECT_NEAR(norm(f.structure.box.minimum_image(r1[i], r0[i])), 0.0, 1e-3)
        << "atom " << i;
  }
}

TEST(WseMd, MatchesReferenceEngineTrajectory) {
  // The central equivalence claim: the wafer-mapped algorithm reproduces
  // the reference FP64 engine's trajectory to FP32 tolerance.
  Fixture f;
  md::AtomSystem ref_sys(f.structure, f.potential);
  Rng rng(2024);
  ref_sys.thermalize(290.0, rng);
  const auto v0 = ref_sys.velocities().to_aos();

  md::Simulation ref(std::move(ref_sys));
  WseMd wse(f.structure, f.potential, f.config());
  wse.set_velocities(v0);

  const int steps = 20;
  ref.run(steps);
  wse.run(steps);

  const auto rp = ref.system().positions().to_aos();
  const auto wp = wse.positions();
  double max_err = 0.0;
  for (std::size_t i = 0; i < rp.size(); ++i) {
    max_err = std::max(max_err, norm(rp[i] - wp[i]));
  }
  // 20 steps of FP32 vs FP64: discrepancy should be far below thermal
  // displacements (~0.1 A) — otherwise the neighborhood missed a pair.
  EXPECT_LT(max_err, 5e-3) << "WSE trajectory diverged from reference";
}

TEST(WseMd, PotentialEnergyMatchesReference) {
  Fixture f;
  md::AtomSystem ref_sys(f.structure, f.potential);
  md::Simulation ref(std::move(ref_sys));
  const double e_ref = ref.compute_forces();

  WseMd wse(f.structure, f.potential, f.config());
  wse.step();  // evaluates energy along the way
  EXPECT_NEAR(wse.potential_energy(), e_ref,
              1e-4 * std::fabs(e_ref) + 1e-6);
}

TEST(WseMd, StepStatsAreSane) {
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  const auto stats = engine.step();
  const double full = wse::CostModel::candidates_for_b(engine.b());
  EXPECT_GT(stats.mean_candidates, 0.2 * full);  // clipped at surfaces
  EXPECT_LE(stats.mean_candidates, full);
  EXPECT_GT(stats.mean_interactions, 5.0);   // bulk Ta has 14
  EXPECT_LT(stats.mean_interactions, 15.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.max_cycles, stats.mean_cycles);
}

TEST(WseMd, CycleAccountingMatchesCostModel) {
  Fixture f;
  WseMdConfig cfg = f.config();
  WseMd engine(f.structure, f.potential, cfg);
  const auto stats = engine.step();
  // The slowest worker is a bulk atom with the full clipped neighborhood;
  // its cycles must equal the cost model at its counts (validated by
  // recomputing the model bound at the maximum possible counts).
  const double upper = cfg.cost_model.timestep_cycles(
      wse::CostModel::candidates_for_b(engine.b()), 14.0);
  EXPECT_LE(stats.max_cycles, upper + 1e-6);
}

TEST(WseMd, ThermalRunConservesEnergyApproximately) {
  Fixture f = periodic_fixture();
  WseMd engine(f.structure, f.potential, f.config());
  Rng rng(7);
  engine.thermalize(150.0, rng);
  engine.step();
  const double e0 = engine.potential_energy() + engine.kinetic_energy();
  engine.run(100);
  const double e1 = engine.potential_energy() + engine.kinetic_energy();
  // FP32 NVE: total energy fluctuates at the meV/atom scale but must not
  // blow up (a runaway indicates missed interactions).
  EXPECT_LT(std::fabs(e1 - e0),
            0.005 * static_cast<double>(engine.atom_count()));
}

TEST(WseMd, SwapsReduceAssignmentCostAfterScramble) {
  // Scramble the mapping, then let the online greedy swaps recover it —
  // the mechanism of paper Fig. 9.
  Fixture f;
  WseMdConfig cfg = f.config();
  cfg.mapping.refine_rounds = 0;
  cfg.swap_interval = 1;
  WseMd engine(f.structure, f.potential, cfg);

  // Scramble: swap random core pairs, then let swaps recover (T = 0, so
  // only the remapping changes anything).
  Rng rng(99);
  engine.scramble_mapping(rng, 200);
  const double scrambled_cost = engine.assignment_cost();
  engine.run(30);
  const double recovered_cost = engine.assignment_cost();
  EXPECT_LT(recovered_cost, scrambled_cost);
}

/// The greedy partner choice of paper Sec. III-D, scored from scratch for
/// every core of the grid: each candidate swap's displacements come
/// straight from AtomMapping::logical_xy and nominal_position. This is the
/// specification WseMd::swap_select must reproduce exactly.
std::vector<int> brute_force_partners(const WseMd& md) {
  const AtomMapping& m = md.mapping();
  const auto pos = md.positions();
  const int w = m.grid_width();
  const int h = m.grid_height();
  const auto disp = [&](long atom, const CoreCoord& c) {
    if (atom < 0) return 0.0;
    const Vec3d nom = m.nominal_position(c);
    const Vec3d lg = m.logical_xy(pos[static_cast<std::size_t>(atom)]);
    return std::max(std::fabs(lg.x - nom.x), std::fabs(lg.y - nom.y));
  };
  std::vector<int> partner(m.core_count(), -1);
  for (int cy = 0; cy < h; ++cy) {
    for (int cx = 0; cx < w; ++cx) {
      const CoreCoord me{cx, cy};
      const long a = m.atom_at(cx, cy);
      double best_gain = 1e-9;
      int best = -1;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int nx = cx + dx, ny = cy + dy;
          if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
          const CoreCoord other{nx, ny};
          const long bt = m.atom_at(nx, ny);
          if (a < 0 && bt < 0) continue;
          const double before = std::max(disp(a, me), disp(bt, other));
          const double after = std::max(disp(a, other), disp(bt, me));
          if (before - after > best_gain) {
            best_gain = before - after;
            best = ny * w + nx;
          }
        }
      }
      partner[static_cast<std::size_t>(cy) * w + cx] = best;
    }
  }
  return partner;
}

TEST(WseMd, SwapSelectMatchesBruteForceOnEveryStrip) {
  // A scrambled mapping over thermally displaced atoms gives many cores a
  // partner. swap_select over the whole grid, and over every row strip of
  // every strip count (1-row strips and the strips at the grid edges
  // included), must choose exactly the brute-force partners, and write
  // only its own strip's slots. Periodic axes exercise the fold.
  lattice::GrainBoundaryParams gb;
  gb.element = "Ta";
  gb.tilt_angle_deg = 16.0;
  const auto gb_structure =
      lattice::make_grain_boundary_with_atom_count(gb, 400).structure;
  Fixture slab(5, 3, {true, true, false});
  const std::vector<const lattice::Structure*> structures{&gb_structure,
                                                          &slab.structure};
  for (const lattice::Structure* s : structures) {
    WseMd md(*s, slab.potential, slab.config());
    Rng rng(17);
    md.thermalize(600.0, rng);
    md.run(3);
    md.scramble_mapping(rng, 150);
    const std::vector<int> expected = brute_force_partners(md);
    ASSERT_GT(std::count_if(expected.begin(), expected.end(),
                            [](int p) { return p >= 0; }),
              10);

    const ShardRect full = md.full_grid();
    constexpr int kUntouched = -2;
    std::vector<int> partner(md.mapping().core_count(), kUntouched);
    md.swap_select(full, partner);
    ASSERT_EQ(partner, expected);

    const int h = full.y1 - full.y0;
    const auto w = static_cast<std::size_t>(full.x1 - full.x0);
    for (int count = 1; count <= h; ++count) {
      for (int k = 0; k < count; ++k) {
        const ShardRect strip = row_strip(full, k, count);
        std::fill(partner.begin(), partner.end(), kUntouched);
        md.swap_select(strip, partner);
        for (int y = 0; y < h; ++y) {
          const bool inside = y >= strip.y0 && y < strip.y1;
          for (std::size_t x = 0; x < w; ++x) {
            const std::size_t c = static_cast<std::size_t>(y) * w + x;
            ASSERT_EQ(partner[c], inside ? expected[c] : kUntouched)
                << "strip " << k << " of " << count << ", core (" << x
                << ", " << y << ")";
          }
        }
      }
    }
  }
}

TEST(WseMd, SwapStatsReported) {
  Fixture f;
  WseMdConfig cfg = f.config();
  cfg.swap_interval = 5;
  WseMd engine(f.structure, f.potential, cfg);
  Rng rng(3);
  engine.thermalize(290.0, rng);
  int swapped_steps = 0;
  for (int k = 0; k < 10; ++k) {
    if (engine.step().swapped) ++swapped_steps;
  }
  EXPECT_EQ(swapped_steps, 2);  // steps 5 and 10
}

TEST(WseMd, MaxInplaneDisplacementGrowsWithTemperature) {
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  EXPECT_DOUBLE_EQ(engine.max_inplane_displacement(), 0.0);
  Rng rng(17);
  engine.thermalize(290.0, rng);
  engine.run(20);
  EXPECT_GT(engine.max_inplane_displacement(), 0.0);
  EXPECT_LT(engine.max_inplane_displacement(), 1.0);  // no runaway atoms
}

TEST(WseMd, ElapsedTimeAccumulates) {
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  engine.run(10);
  const double t10 = engine.elapsed_seconds();
  EXPECT_GT(t10, 0.0);
  engine.run(10);
  EXPECT_NEAR(engine.elapsed_seconds(), 2.0 * t10, 0.2 * t10);
}

TEST(WseMd, RunReturnsTheLastStepStats) {
  // Per-step callbacks belong to engine::Engine::run; WseMd::run only
  // advances.
  Fixture f;
  WseMd engine(f.structure, f.potential, f.config());
  const auto final_stats = engine.run(6);
  EXPECT_EQ(final_stats.step, 6);
  EXPECT_GT(final_stats.max_cycles, 0.0);
  EXPECT_EQ(engine.step_count(), 6);
}

TEST(WseMd, BOverrideRespected) {
  Fixture f;
  WseMdConfig cfg = f.config();
  cfg.b_override = 6;
  WseMd engine(f.structure, f.potential, cfg);
  EXPECT_EQ(engine.b(), 6);
}

TEST(WseMd, AcceptedPairCountMatchesBruteForce) {
  // Regression anchor for the accept test: the engine's accepted count
  // must equal an independent FP32 brute-force pair count at the pre-step
  // positions (the open slab needs no minimum image, and b is wide enough
  // that every in-range pair is a candidate).
  Fixture f;
  WseMd fresh(f.structure, f.potential, f.config());
  fresh.set_velocities(std::vector<Vec3d>(f.structure.size(), Vec3d{}));
  const auto positions = fresh.positions();
  const auto rc2 =
      static_cast<float>(f.potential->cutoff() * f.potential->cutoff());
  std::size_t brute_pairs = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3f ri(positions[i]);
    for (std::size_t j = 0; j < positions.size(); ++j) {
      if (i == j) continue;
      const Vec3f d = Vec3f(positions[j]) - ri;
      if (dot(d, d) < rc2) ++brute_pairs;
    }
  }
  const auto s0 = fresh.step();
  EXPECT_EQ(std::llround(s0.mean_interactions *
                         static_cast<double>(fresh.atom_count())),
            static_cast<long long>(brute_pairs));
}

TEST(WseMd, ProfiledEnergyTracksAnalyticEnergy) {
  // The engine's FP32 table energy against the analytic FP64 oracle at the
  // engine's own FP32-rounded positions: within table-interpolation + FP32
  // noise.
  Fixture f = periodic_fixture();
  WseMd wse(f.structure, f.potential, f.config());
  lattice::Structure held = f.structure;
  held.positions = wse.positions();
  md::AtomSystem sys(held, f.potential);
  md::NeighborList nl(f.potential->cutoff(), 0.5);
  nl.build(sys.box(), sys.positions());
  const double e_ref = md::oracle::AnalyticEamKernel().compute(sys, nl);
  EXPECT_NEAR(wse.potential_energy(), e_ref, 1e-4 * std::fabs(e_ref) + 1e-3);
}

/// One timestep through the public phase-kernel interface (the serial
/// schedule of WseMd::step).
WseStepStats phase_step(WseMd& md, StepWorkspace& ws) {
  const ShardRect all = md.full_grid();
  md.begin_step(ws);
  md.density_phase(all, ws);
  md.force_phase(all, ws);
  const bool swap = md.commit_step(ws);
  std::size_t applied = 0;
  if (swap) {
    md.swap_select(all, ws.partner);
    applied = md.swap_commit(ws.partner);
  }
  return md.finish_step(ws, applied, swap);
}

/// Steps `warm` with one persistent workspace (its candidate shortlist
/// carried across steps) and `cold` with a fresh workspace every step, so
/// `cold` gathers and sieves the full neighborhood each time — the
/// reference. Requires bitwise-equal positions, velocities and PE and
/// equal accounting after every step. Returns how many warm steps rebuilt
/// with the mapping and b unchanged since the last rebuild, i.e. for
/// displacement alone.
int expect_cache_parity(WseMd& warm, StepWorkspace& ws, WseMd& cold,
                        int steps, const std::string& label) {
  int moved_rebuilds = 0;
  for (int k = 0; k < steps; ++k) {
    // The cache key before the step: a rebuild with the same key can only
    // have come from the displacement check.
    const auto key_version = ws.mapping_version;
    const auto key_stride = ws.shortlist_stride;
    const bool same_mapping = key_version == warm.mapping().version();
    const WseStepStats sw = phase_step(warm, ws);
    if (ws.rebuild && key_stride != 0 && same_mapping &&
        key_stride == ws.shortlist_stride) {
      ++moved_rebuilds;
    }
    StepWorkspace fresh;
    const WseStepStats sc = phase_step(cold, fresh);
    EXPECT_TRUE(fresh.rebuild) << label;
    const std::string at = label + " step " + std::to_string(sw.step);
    EXPECT_EQ(sw.step, sc.step) << at;
    EXPECT_EQ(sw.mean_candidates, sc.mean_candidates) << at;
    EXPECT_EQ(sw.mean_interactions, sc.mean_interactions) << at;
    EXPECT_EQ(sw.max_cycles, sc.max_cycles) << at;
    EXPECT_EQ(sw.mean_cycles, sc.mean_cycles) << at;
    EXPECT_EQ(sw.stddev_cycles, sc.stddev_cycles) << at;
    EXPECT_EQ(sw.wall_seconds, sc.wall_seconds) << at;
    EXPECT_EQ(sw.swapped, sc.swapped) << at;
    EXPECT_EQ(sw.swaps_applied, sc.swaps_applied) << at;
    EXPECT_EQ(warm.potential_energy(), cold.potential_energy()) << at;
    const auto pw = warm.positions(), pc = cold.positions();
    const auto vw = warm.velocities(), vc = cold.velocities();
    for (std::size_t i = 0; i < pw.size(); ++i) {
      for (std::size_t a = 0; a < 3; ++a) {
        if (pw[i][a] != pc[i][a] || vw[i][a] != vc[i][a]) {
          ADD_FAILURE() << at << ": atom " << i << " diverged";
          return moved_rebuilds;
        }
      }
    }
  }
  return moved_rebuilds;
}

TEST(WseMdShortlist, GrainBoundaryWithSwapsMatchesFullSieve) {
  // The ta_gb regime: swaps every 10 steps rebuild the shortlist, the
  // steps between reuse it.
  lattice::GrainBoundaryParams gb;
  gb.element = "Ta";
  gb.tilt_angle_deg = 16.0;
  const auto s = lattice::make_grain_boundary_with_atom_count(gb, 400);
  const auto p = eam::zhou_parameters("Ta");
  const auto potential =
      std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  WseMdConfig cfg;
  cfg.mapping.cell_size = p.lattice_constant();
  cfg.swap_interval = 10;
  WseMd warm(s.structure, potential, cfg);
  WseMd cold(s.structure, potential, cfg);
  Rng r1(31), r2(31);
  warm.thermalize(290.0, r1);
  cold.thermalize(290.0, r2);
  StepWorkspace ws;
  expect_cache_parity(warm, ws, cold, 45, "gb");
  EXPECT_GT(warm.cumulative_stats().swap_steps, 0);
}

TEST(WseMdShortlist, HotRunRebuildsOnDisplacementAlone) {
  // No swaps: only thermal motion past half the skin can invalidate the
  // shortlist. A Cu slab far above melting gets there within the run.
  const auto p = eam::zhou_parameters("Cu");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 5, 5, 3);
  const auto potential =
      std::make_shared<eam::ZhouEam>("Cu", p.paper_cutoff());
  WseMdConfig cfg;
  cfg.mapping.cell_size = p.lattice_constant();
  WseMd warm(s, potential, cfg);
  WseMd cold(s, potential, cfg);
  Rng r1(8), r2(8);
  warm.thermalize(2500.0, r1);
  cold.thermalize(2500.0, r2);
  StepWorkspace ws;
  const int moved = expect_cache_parity(warm, ws, cold, 120, "hot cu");
  EXPECT_GE(moved, 1) << "no displacement-triggered rebuild in the run";
  EXPECT_LT(moved, 60) << "the shortlist was almost never reused";
}

TEST(WseMdShortlist, ReusesUpToHalfTheSkinAndRebuildsPastIt) {
  // Move every atom by a fixed distance in a random direction, so pairs
  // close by up to twice that. Below half the skin the shortlist is reused
  // and must still be exact; a little past it, pairs from beyond the skin
  // come within rcut, so the engine must rebuild (a looser limit fails the
  // parity check here).
  Fixture f;
  WseMdConfig cfg = f.config();
  cfg.b_override = 10;  // wide enough that no overwrite below widens b
  for (const double shift : {0.45, 0.85}) {
    WseMd warm(f.structure, f.potential, cfg);
    WseMd cold(f.structure, f.potential, cfg);
    StepWorkspace ws;
    expect_cache_parity(warm, ws, cold, 1, "anchor");
    auto moved = warm.positions();
    Rng dir(21);
    for (auto& r : moved) {
      const Vec3d u = dir.gaussian_vec3(1.0);
      r = r + u * (shift / norm(u));
    }
    warm.set_positions(moved);
    cold.set_positions(moved);
    ASSERT_EQ(warm.b(), 10);
    const std::string label = "shift " + std::to_string(shift);
    expect_cache_parity(warm, ws, cold, 1, label);
    EXPECT_EQ(ws.rebuild, shift > 0.5 * WseMd::kShortlistSkin) << label;
  }
}

TEST(WseMdShortlist, WarmWorkspaceSurvivesMappingAndStateChanges) {
  // Every out-of-step mutation must invalidate (or provably preserve) a
  // warm shortlist: a scrambled mapping, a position overwrite that widens
  // b, and a checkpoint restore.
  // No online swaps here: each mutation below is the only thing that can
  // invalidate the shortlist on the step after it.
  Fixture f;
  WseMd warm(f.structure, f.potential, f.config());
  WseMd cold(f.structure, f.potential, f.config());
  Rng r1(5), r2(5);
  warm.thermalize(400.0, r1);
  cold.thermalize(400.0, r2);
  StepWorkspace ws;
  expect_cache_parity(warm, ws, cold, 5, "initial");
  const WseMd::SavedState snap = warm.save_state();

  Rng s1(11), s2(11);
  warm.scramble_mapping(s1, 60);
  cold.scramble_mapping(s2, 60);
  expect_cache_parity(warm, ws, cold, 4, "scrambled");

  // Rewriting the unchanged positions over the scrambled mapping widens b
  // while no atom moves: only the row-stride trigger can catch it.
  const int b_before = warm.b();
  warm.set_positions(warm.positions());
  cold.set_positions(cold.positions());
  ASSERT_GT(warm.b(), b_before) << "the overwrite should widen b";
  expect_cache_parity(warm, ws, cold, 4, "set_positions widening b");

  // Moving every atom with b unchanged: only the displacement trigger.
  auto moved = warm.positions();
  Rng jitter(12);
  for (auto& r : moved) r = r + jitter.gaussian_vec3(0.3);
  warm.set_positions(moved);
  cold.set_positions(moved);
  expect_cache_parity(warm, ws, cold, 4, "set_positions moving atoms");

  warm.restore_state(snap);
  cold.restore_state(snap);
  expect_cache_parity(warm, ws, cold, 7, "restored");
}

}  // namespace
}  // namespace wsmd::core
