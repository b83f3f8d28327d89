/// \file test_resume.cpp
/// Checkpoint/restart at the scenario level: the invariant this pins is
/// *resume-after-kill reproduces the uninterrupted run* — a run killed
/// mid-stage and resumed from its last checkpoint must produce the same
/// thermo and observable series as the run that never stopped. Exercised
/// on scenarios/cu_gb_mobility.deck (all four probes live) with kill
/// points inside two different stages, on both the reference backend and
/// sharded:3, and on ranks:2 from a kill point on an atom-swap step.
/// Sharded-vs-serial parity is pinned bitwise by the engine tests, so the
/// backends are compared exactly here (stricter than the FP32 acceptance
/// band).
///
/// Also covered: the checkpoint deck keys' eager validation, the
/// embedded-deck round trip (deck_from_scenario), the rejection of
/// resumes whose overrides change the schedule or the structure, and the
/// legacy `potential` key older checkpoints embed.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "io/series.hpp"
#include "io/thermo_log.hpp"
#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "util/error.hpp"

namespace wsmd::scenario {
namespace {

std::string gb_deck_path() {
  return std::string(WSMD_SOURCE_DIR) + "/scenarios/cu_gb_mobility.deck";
}

/// The checkpoint's embedded deck as a parseable Deck (what `wsmd resume`
/// builds).
Deck embedded_deck(const io::CheckpointData& ckpt) {
  return deck_from_entries(ckpt.deck, "<checkpoint>");
}

void expect_rows_equal(const io::Series& straight, const io::Series& resumed,
                       long from_step, const std::string& label) {
  ASSERT_EQ(straight.columns, resumed.columns) << label;
  const bool has_step =
      !straight.columns.empty() && straight.columns[0] == "step";
  std::vector<std::size_t> keep;
  for (std::size_t r = 0; r < straight.rows.size(); ++r) {
    if (!has_step || straight.rows[r][0] >= static_cast<double>(from_step)) {
      keep.push_back(r);
    }
  }
  ASSERT_EQ(keep.size(), resumed.rows.size())
      << label << ": row count from step " << from_step;
  for (std::size_t r = 0; r < keep.size(); ++r) {
    for (std::size_t c = 0; c < straight.columns.size(); ++c) {
      ASSERT_EQ(straight.rows[keep[r]][c], resumed.rows[r][c])
          << label << ": column '" << straight.columns[c] << "' row " << r;
    }
  }
}

/// The resumed thermo log opens with the restored step `at` and must then
/// match the uninterrupted stream sample for sample, bitwise.
void expect_thermo_tail_equal(const std::vector<io::ThermoSample>& straight,
                              const std::string& resumed_path, long at,
                              const std::string& label) {
  const auto resumed = io::read_thermo_csv_file(resumed_path);
  std::size_t k0 = 0;
  while (k0 < straight.size() && straight[k0].step < at) ++k0;
  ASSERT_EQ(straight.size() - k0, resumed.size()) << label;
  for (std::size_t k = 0; k < resumed.size(); ++k) {
    const auto& g = straight[k0 + k];
    const auto& r = resumed[k];
    ASSERT_EQ(g.step, r.step) << label;
    ASSERT_EQ(g.potential_energy, r.potential_energy)
        << label << " step " << g.step;
    ASSERT_EQ(g.kinetic_energy, r.kinetic_energy)
        << label << " step " << g.step;
    ASSERT_EQ(g.temperature, r.temperature) << label << " step " << g.step;
  }
}

TEST(Resume, KillMidStageReproducesTheUninterruptedRun) {
  // `wafer` resumes through its alias: the embedded deck says
  // backend = wafer, which now builds sharded:1.
  for (const std::string backend : {"reference", "sharded:3", "wafer"}) {
    const std::string base =
        ::testing::TempDir() + "wsmd_resume_" + backend.substr(0, 3);

    Deck deck = parse_deck_file(gb_deck_path());
    deck.set("xyz", "");  // trajectory not under test
    deck.set("summary", "");
    deck.set("thermo", base + ".straight.thermo.csv");
    deck.set("thermo_every", "1");
    deck.set("observe.prefix", base + ".straight");
    deck.set("observe.format", "csv");
    deck.set("checkpoint.every", "5");
    deck.set("checkpoint.path", base + ".*.ckpt");

    RunOptions opt;
    opt.backend_override = backend;
    const auto straight = run_scenario(scenario_from_deck(deck), opt);
    // Schedule: thermalize + equilibrate 10 + run 20 = 30 steps,
    // checkpoints at 5,10,...,30.
    ASSERT_EQ(straight.checkpoints_written, 6u) << backend;
    const auto straight_thermo =
        io::read_thermo_csv_file(straight.thermo_path);

    // Kill points: step 5 is mid-equilibrate, step 15 mid-run — the
    // resumed thermostat schedule must continue from the saved stage
    // cursor, not restart the stage.
    for (const long at : {5L, 15L}) {
      const auto ckpt = io::read_checkpoint_file(
          base + "." + std::to_string(at) + ".ckpt");
      EXPECT_EQ(ckpt.engine.step, at);
      EXPECT_EQ(ckpt.probes.size(), 4u) << "all four probes checkpointed";
      // The embedded deck records the *effective* backend — the
      // --backend= override of the original run, not the deck's — so a
      // plain `wsmd resume CKPT` continues where the checkpoint ran.
      for (const auto& [key, value] : ckpt.deck) {
        if (key == "backend") {
          EXPECT_EQ(value, backend);
        }
      }

      Deck rdeck = embedded_deck(ckpt);
      rdeck.set("thermo", base + ".resumed.thermo.csv");
      rdeck.set("observe.prefix", base + ".resumed");
      rdeck.set("checkpoint.every", "0");  // don't overwrite the kill set
      const auto resumed =
          resume_scenario(scenario_from_deck(rdeck), ckpt, opt);
      EXPECT_EQ(resumed.resumed_from_step, at);
      EXPECT_EQ(resumed.final_thermo.step, 30);

      const std::string label =
          backend + " resumed@" + std::to_string(at);
      expect_thermo_tail_equal(straight_thermo, resumed.thermo_path, at,
                               label);

      // Observables: every probe's resumed stream continues the
      // uninterrupted series (rows at steps > kill point), and the
      // finish-time RDF table — accumulated across the kill — matches
      // wholesale.
      ASSERT_EQ(resumed.observables.size(), straight.observables.size());
      for (std::size_t p = 0; p < resumed.observables.size(); ++p) {
        const auto& probe = resumed.observables[p];
        const auto straight_series =
            io::read_series_csv_file(straight.observables[p].path);
        const auto resumed_series = io::read_series_csv_file(probe.path);
        if (probe.kind == "rdf") {
          expect_rows_equal(straight_series, resumed_series, 0,
                            label + " rdf");
        } else {
          expect_rows_equal(straight_series, resumed_series, at + 1,
                            label + " " + probe.kind);
        }
        std::remove(probe.path.c_str());
      }
      std::remove(resumed.thermo_path.c_str());
    }
    for (const auto& o : straight.observables) std::remove(o.path.c_str());
    std::remove(straight.thermo_path.c_str());
    for (long s = 5; s <= 30; s += 5) {
      std::remove((base + "." + std::to_string(s) + ".ckpt").c_str());
    }
  }
}

TEST(Resume, RanksResumeAtASwapStepReproducesTheUninterruptedRun) {
  // ranks: sums each strip's kinetic partial inside the step, and again
  // over the restored state's fresh strips on resume. On a swap step both
  // sums must cover the post-swap atom assignment the checkpoint stores.
  // At swap_interval 5 the step-15 kill point is a swap step.
  const std::string base = ::testing::TempDir() + "wsmd_resume_ranks_swap";
  Deck deck = parse_deck_file(gb_deck_path());
  deck.set("xyz", "");
  deck.set("summary", "");
  deck.set("thermo", base + ".straight.thermo.csv");
  deck.set("thermo_every", "1");
  deck.set("observe.prefix", base + ".straight");
  deck.set("observe.format", "csv");
  deck.set("swap_interval", "5");
  deck.set("checkpoint.every", "5");
  deck.set("checkpoint.path", base + ".*.ckpt");

  RunOptions opt;
  opt.backend_override = "ranks:2";
  const auto straight = run_scenario(scenario_from_deck(deck), opt);
  ASSERT_EQ(straight.checkpoints_written, 6u);
  const auto straight_thermo = io::read_thermo_csv_file(straight.thermo_path);

  const long at = 15;
  const auto ckpt =
      io::read_checkpoint_file(base + "." + std::to_string(at) + ".ckpt");
  ASSERT_EQ(ckpt.engine.step, at);
  Deck rdeck = embedded_deck(ckpt);
  rdeck.set("thermo", base + ".resumed.thermo.csv");
  rdeck.set("observe.prefix", base + ".resumed");
  rdeck.set("checkpoint.every", "0");
  const auto resumed = resume_scenario(scenario_from_deck(rdeck), ckpt, opt);
  EXPECT_EQ(resumed.resumed_from_step, at);
  expect_thermo_tail_equal(straight_thermo, resumed.thermo_path, at,
                           "ranks:2 swap_interval 5 resumed@15");

  for (const auto* run : {&straight, &resumed}) {
    for (const auto& o : run->observables) std::remove(o.path.c_str());
    std::remove(run->thermo_path.c_str());
  }
  for (long s = 5; s <= 30; s += 5) {
    std::remove((base + "." + std::to_string(s) + ".ckpt").c_str());
  }
}

TEST(Resume, RejectsScheduleAndStructureChanges) {
  const std::string base = ::testing::TempDir() + "wsmd_resume_reject";
  Deck deck = parse_deck_file(gb_deck_path());
  deck.set("xyz", "");
  deck.set("summary", "");
  deck.set("thermo", "");
  deck.set("observe.prefix", base + ".straight");
  deck.set("checkpoint.every", "15");
  deck.set("checkpoint.path", base + ".ckpt");
  const auto result = run_scenario(scenario_from_deck(deck));
  ASSERT_EQ(result.checkpoints_written, 2u);  // steps 15 and 30 (overwrite)
  const auto ckpt = io::read_checkpoint_file(base + ".ckpt");

  {
    // A schedule override desynchronizes the saved cursor.
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("run", "50");
    rdeck.set("observe.prefix", base + ".r1");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  {
    // A structure override builds different atoms.
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("gb_atoms", "400");
    rdeck.set("observe.prefix", base + ".r2");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  {
    // An element override is a different material entirely.
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("element", "Ta");
    rdeck.set("observe.prefix", base + ".r3");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  {
    // A same-shape schedule with a different target temperature keeps
    // every step count identical — the cursor arithmetic alone cannot
    // tell, so the stage-for-stage comparison must.
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("thermalize", "300");
    rdeck.set("equilibrate", "500 10");  // deck says 300 K
    rdeck.set("run", "20");
    rdeck.set("observe.prefix", base + ".r4");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  {
    // The thermostat cadence is part of the schedule too.
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("rescale_interval", "3");
    rdeck.set("observe.prefix", base + ".r5");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  {
    // Physics knobs that silently change the continued trajectory: the
    // integration timestep and the wafer atom-swap cadence.
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("dt", "0.004");
    rdeck.set("observe.prefix", base + ".r6");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  {
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("swap_interval", "5");
    rdeck.set("observe.prefix", base + ".r7");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  {
    // Observable *analysis* parameters are part of the accumulated state:
    // an RDF histogram binned over a different range must not merge with
    // the checkpointed one. (observe.prefix/format stay free — every
    // resume in this suite overrides the prefix.)
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("observe.rdf_rcut", "3.0");
    rdeck.set("observe.prefix", base + ".r8");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  {
    Deck rdeck = embedded_deck(ckpt);
    rdeck.set("observe.every", "5");
    rdeck.set("observe.prefix", base + ".r9");
    EXPECT_THROW(resume_scenario(scenario_from_deck(rdeck), ckpt, {}),
                 wsmd::Error);
  }
  for (const auto& o : result.observables) std::remove(o.path.c_str());
  std::remove((base + ".ckpt").c_str());
}

std::string file_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// `ckpt` with a `potential = <value>` entry after `pair_style`, where
/// checkpoints embedded it before the key became legacy.
io::CheckpointData with_potential_key(io::CheckpointData ckpt,
                                      const std::string& value) {
  auto& deck = ckpt.deck;
  auto at = deck.begin();
  while (at != deck.end() && at->first != "pair_style") ++at;
  if (at != deck.end()) ++at;
  deck.insert(at, {"potential", value});
  return ckpt;
}

TEST(Resume, LegacyPotentialKeyInTheCheckpointDeck) {
  // Checkpoints written while `potential` still selected a path embed it.
  // `tabulated` (the only value a production run wrote) must resume with a
  // byte-identical thermo tail; `analytic` names the removed path and must
  // fail with a typed error instead of continuing on the tables.
  const std::string base = ::testing::TempDir() + "wsmd_resume_legacy";
  const char* spec =
      "element = Cu\n"
      "geometry = slab\n"
      "scale = 64\n"
      "thermalize = 120\n"
      "run = 12\n"
      "thermo_every = 1\n";
  Deck deck = parse_deck_string(spec, "<legacy-resume>");
  deck.set("name", "legacy_resume");
  deck.set("thermo", base + ".straight.thermo.csv");
  deck.set("checkpoint.every", "6");
  deck.set("checkpoint.path", base + ".*.ckpt");
  const auto straight = run_scenario(scenario_from_deck(deck));
  ASSERT_GE(straight.checkpoints_written, 2u);

  const auto ckpt = io::read_checkpoint_file(base + ".6.ckpt");
  EXPECT_EQ(embedded_deck(ckpt).get("potential", "absent"), "absent")
      << "new checkpoints no longer embed the legacy key";

  io::write_checkpoint_file(base + ".legacy.ckpt",
                            with_potential_key(ckpt, "tabulated"));
  const auto legacy = io::read_checkpoint_file(base + ".legacy.ckpt");
  ASSERT_EQ(embedded_deck(legacy).get("potential"), "tabulated");
  Deck rdeck = embedded_deck(legacy);
  rdeck.set("thermo", base + ".resumed.thermo.csv");
  rdeck.set("checkpoint.every", "0");
  resume_scenario(scenario_from_deck(rdeck), legacy, {});
  const std::string full = file_text(base + ".straight.thermo.csv");
  const std::string tail = file_text(base + ".resumed.thermo.csv");
  const std::size_t header = tail.find('\n') + 1;
  ASSERT_GT(header, 1u);
  EXPECT_EQ(full.compare(0, header, tail, 0, header), 0) << "thermo header";
  ASSERT_GT(full.size(), tail.size());
  EXPECT_EQ(full.compare(full.size() - (tail.size() - header),
                         std::string::npos, tail, header),
            0)
      << "the resumed thermo rows must be the straight run's last rows, "
         "byte for byte";

  io::write_checkpoint_file(base + ".analytic.ckpt",
                            with_potential_key(ckpt, "analytic"));
  const auto analytic = io::read_checkpoint_file(base + ".analytic.ckpt");
  for (const bool via_runner : {false, true}) {
    try {
      // `wsmd resume` parses the embedded deck; the runner re-parses it
      // to check the resumed scenario against it.
      if (via_runner) {
        Deck fresh = deck;
        fresh.set("thermo", base + ".never.thermo.csv");
        fresh.set("checkpoint.every", "0");
        resume_scenario(scenario_from_deck(fresh), analytic, {});
      } else {
        scenario_from_deck(embedded_deck(analytic));
      }
      ADD_FAILURE() << "an analytic checkpoint must not resume";
    } catch (const wsmd::Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "analytic evaluation path was removed"),
                std::string::npos)
          << e.what();
    }
  }
  for (const auto* suffix :
       {".straight.thermo.csv", ".resumed.thermo.csv", ".never.thermo.csv",
        ".6.ckpt", ".12.ckpt", ".legacy.ckpt", ".analytic.ckpt"}) {
    std::remove((base + suffix).c_str());
  }
}

TEST(Resume, OffGridCheckpointKeepsTheThermoTailAligned) {
  // thermo_every=10 with a checkpoint at step 15: the resumed log must
  // start at step 20, not emit an off-grid overlap row at 15 the
  // uninterrupted log does not have.
  const std::string base = ::testing::TempDir() + "wsmd_resume_offgrid";
  Deck deck = parse_deck_string(
      "name = offgrid\n"
      "element = Cu\n"
      "geometry = slab\n"
      "replicate = 3 3 2\n"
      "seed = 17\n"
      "thermalize = 300\n"
      "run = 30\n",
      "offgrid.deck");
  deck.set("thermo", base + ".straight.csv");
  deck.set("thermo_every", "10");
  deck.set("checkpoint.every", "15");
  deck.set("checkpoint.path", base + ".*.ckpt");
  const auto straight = run_scenario(scenario_from_deck(deck));
  const auto ckpt = io::read_checkpoint_file(base + ".15.ckpt");

  Deck rdeck = embedded_deck(ckpt);
  rdeck.set("thermo", base + ".resumed.csv");
  rdeck.set("checkpoint.every", "0");
  const auto resumed = resume_scenario(scenario_from_deck(rdeck), ckpt, {});

  const auto full = io::read_thermo_csv_file(straight.thermo_path);
  const auto tail = io::read_thermo_csv_file(resumed.thermo_path);
  ASSERT_EQ(tail.size(), 2u);  // steps 20 and 30 only
  EXPECT_EQ(tail[0].step, 20);
  EXPECT_EQ(tail[1].step, 30);
  for (std::size_t k = 0; k < tail.size(); ++k) {
    const auto& g = full[full.size() - tail.size() + k];
    EXPECT_EQ(g.step, tail[k].step);
    EXPECT_EQ(g.total_energy, tail[k].total_energy);
  }
  std::remove(straight.thermo_path.c_str());
  std::remove(resumed.thermo_path.c_str());
  std::remove((base + ".15.ckpt").c_str());
  std::remove((base + ".30.ckpt").c_str());
}

TEST(Resume, StarMayExpandIntoDirectoryComponents) {
  // `checkpoint.path = snaps-*/run.ckpt` puts the step number in a
  // directory name: each expanded parent must be created at write time,
  // and no literal "snaps-*" junk directory may appear.
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir() + "wsmd_resume_stardir";
  fs::remove_all(base);
  Deck deck = parse_deck_string(
      "name = stardir\n"
      "element = Cu\n"
      "geometry = slab\n"
      "replicate = 3 3 2\n"
      "seed = 23\n"
      "thermalize = 300\n"
      "run = 20\n",
      "stardir.deck");
  deck.set("checkpoint.every", "10");
  deck.set("checkpoint.path", base + "/snaps-*/run.ckpt");
  const auto result = run_scenario(scenario_from_deck(deck));
  EXPECT_EQ(result.checkpoints_written, 2u);
  EXPECT_TRUE(fs::exists(base + "/snaps-10/run.ckpt"));
  EXPECT_TRUE(fs::exists(base + "/snaps-20/run.ckpt"));
  EXPECT_FALSE(fs::exists(base + "/snaps-*"));
  const auto ckpt = io::read_checkpoint_file(base + "/snaps-10/run.ckpt");
  EXPECT_EQ(ckpt.engine.step, 10);
  fs::remove_all(base);
}

TEST(Resume, EmbeddedDeckRoundTripsTheScenario) {
  Deck deck = parse_deck_file(gb_deck_path());
  deck.set("backend", "sharded:2");
  deck.set("checkpoint.every", "7");
  const auto sc = scenario_from_deck(deck);
  const auto sc2 = scenario_from_deck(deck_from_scenario(sc));

  EXPECT_EQ(sc2.name, sc.name);
  EXPECT_EQ(sc2.element, sc.element);
  EXPECT_EQ(sc2.geometry, sc.geometry);
  EXPECT_EQ(sc2.tilt_angle_deg, sc.tilt_angle_deg);
  EXPECT_EQ(sc2.gb_target_atoms, sc.gb_target_atoms);
  EXPECT_EQ(sc2.backend, sc.backend);
  EXPECT_EQ(sc2.dt, sc.dt);
  EXPECT_EQ(sc2.seed, sc.seed);
  EXPECT_EQ(sc2.rescale_interval, sc.rescale_interval);
  ASSERT_EQ(sc2.schedule.size(), sc.schedule.size());
  for (std::size_t i = 0; i < sc.schedule.size(); ++i) {
    EXPECT_EQ(sc2.schedule[i].kind, sc.schedule[i].kind);
    EXPECT_EQ(sc2.schedule[i].t0, sc.schedule[i].t0);
    EXPECT_EQ(sc2.schedule[i].t1, sc.schedule[i].t1);
    EXPECT_EQ(sc2.schedule[i].steps, sc.schedule[i].steps);
  }
  EXPECT_EQ(sc2.xyz_path, sc.xyz_path);
  EXPECT_EQ(sc2.xyz_every, sc.xyz_every);
  EXPECT_EQ(sc2.thermo_path, sc.thermo_path);
  EXPECT_EQ(sc2.observe.probes, sc.observe.probes);
  EXPECT_EQ(sc2.observe.every, sc.observe.every);
  EXPECT_EQ(sc2.observe.gb_axis, sc.observe.gb_axis);
  EXPECT_EQ(sc2.observe.csp_threshold, sc.observe.csp_threshold);
  EXPECT_EQ(sc2.checkpoint_every, sc.checkpoint_every);
  EXPECT_EQ(sc2.checkpoint_path, sc.checkpoint_path);
}

TEST(CheckpointKeys, ValidateEagerly) {
  const auto sc_of = [](const std::string& text) {
    return scenario_from_deck(parse_deck_string(text, "test.deck"));
  };
  // Path without a cadence key would silently never checkpoint.
  EXPECT_THROW(sc_of("thermalize = 300\nrun = 5\ncheckpoint.path = x.ckpt"),
               wsmd::Error);
  // Negative cadence.
  EXPECT_THROW(sc_of("run = 5\ncheckpoint.every = -1"), wsmd::Error);
  // Non-numeric cadence.
  EXPECT_THROW(sc_of("run = 5\ncheckpoint.every = soon"), wsmd::Error);
  // Empty path.
  EXPECT_THROW(sc_of("run = 5\ncheckpoint.every = 5\ncheckpoint.path ="),
               wsmd::Error);
  // Defaults: path falls back to <name>.ckpt; explicit 0 disables.
  const auto sc =
      sc_of("name = ck\nthermalize = 300\nrun = 5\ncheckpoint.every = 2");
  EXPECT_EQ(sc.checkpoint_every, 2);
  EXPECT_EQ(sc.checkpoint_path, "ck.ckpt");
  const auto off = sc_of(
      "run = 5\ncheckpoint.every = 2\ncheckpoint.path = x.ckpt\n"
      "checkpoint.every = 0");
  EXPECT_EQ(off.checkpoint_every, 0);
}

}  // namespace
}  // namespace wsmd::scenario
