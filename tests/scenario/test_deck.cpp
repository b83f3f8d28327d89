/// \file test_deck.cpp
/// Deck parsing and the deck -> Scenario translation: order-preserving
/// schedules, last-wins overrides, eager validation (a typo'd deck fails
/// loudly, never silently simulates the default), and deterministic defect
/// generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "io/checkpoint.hpp"
#include "scenario/deck.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/health.hpp"
#include "util/error.hpp"

namespace wsmd::scenario {
namespace {

// A deck error is about the user's input: it leads with the deck location
// and carries no C++ source location or precondition text.
void expect_deck_blame(const std::string& msg, const std::string& where) {
  EXPECT_EQ(msg.rfind(where, 0), 0u) << msg;
  EXPECT_EQ(msg.find("requirement failed"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("scenario.cpp"), std::string::npos) << msg;
}

TEST(Deck, ParsesKeyValueLinesWithComments) {
  const auto deck = parse_deck_string(
      "# full-line comment\n"
      "name = demo\n"
      "\n"
      "element = W   # trailing comment\n"
      "scale=7\n",
      "demo.deck");
  ASSERT_EQ(deck.entries.size(), 3u);
  EXPECT_EQ(deck.get("name"), "demo");
  EXPECT_EQ(deck.get("element"), "W");
  EXPECT_EQ(deck.get("scale"), "7");
  // '#' opens a comment only at line start / after whitespace, so values
  // may contain it — matching CLI-override behavior for the same token.
  const auto hashes = parse_deck_string("summary = out#1.json  # note\n");
  EXPECT_EQ(hashes.get("summary"), "out#1.json");
  EXPECT_EQ(deck.entries[1].line, 4);
  EXPECT_FALSE(deck.has("backend"));
  EXPECT_EQ(deck.get("backend", "reference"), "reference");
}

TEST(Deck, MalformedLinesThrowWithLineNumber) {
  try {
    parse_deck_string("name = ok\nthis is not a pair\n", "bad.deck");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.deck:2"), std::string::npos);
  }
  EXPECT_THROW(parse_deck_string("= value\n"), Error);
}

TEST(Deck, OverridesAppendAndLastWins) {
  auto deck = parse_deck_string("backend = reference\n");
  deck.set("backend", "sharded:4");
  EXPECT_EQ(deck.get("backend"), "sharded:4");
  const auto o = parse_override("thermo=out.csv");
  EXPECT_EQ(o.key, "thermo");
  EXPECT_EQ(o.value, "out.csv");
  EXPECT_THROW(parse_override("no-equals-sign"), Error);
  EXPECT_THROW(parse_override("=value"), Error);
}

TEST(Scenario, SchedulePreservesDeckOrder) {
  const auto sc = scenario_from_deck(parse_deck_string(
      "element = Ta\n"
      "thermalize = 290\n"
      "equilibrate = 290 20\n"
      "ramp = 290 600 50\n"
      "run = 30\n"
      "quench = 10 5\n"));
  ASSERT_EQ(sc.schedule.size(), 5u);
  EXPECT_EQ(sc.schedule[0].kind, Stage::Kind::kThermalize);
  EXPECT_EQ(sc.schedule[1].kind, Stage::Kind::kEquilibrate);
  EXPECT_EQ(sc.schedule[2].kind, Stage::Kind::kRamp);
  EXPECT_DOUBLE_EQ(sc.schedule[2].t0, 290.0);
  EXPECT_DOUBLE_EQ(sc.schedule[2].t1, 600.0);
  EXPECT_EQ(sc.schedule[3].kind, Stage::Kind::kRun);
  EXPECT_EQ(sc.schedule[4].kind, Stage::Kind::kQuench);
  EXPECT_EQ(sc.total_steps(), 20 + 50 + 30 + 5);
}

TEST(Scenario, CliScheduleOverridesReplaceTheDeckSchedule) {
  auto deck = parse_deck_string(
      "element = Cu\nthermalize = 290\nequilibrate = 290 20\nrun = 30\n");
  // Scalar overrides never touch the schedule.
  deck.set("seed", "99");
  EXPECT_EQ(scenario_from_deck(deck).schedule.size(), 3u);
  // A schedule key on the CLI replaces the whole schedule — `run=50`
  // means "run 50 NVE steps", not "append 50 more".
  deck.set("thermalize", "400");
  deck.set("run", "50");
  const auto sc = scenario_from_deck(deck);
  ASSERT_EQ(sc.schedule.size(), 2u);
  EXPECT_EQ(sc.schedule[0].kind, Stage::Kind::kThermalize);
  EXPECT_DOUBLE_EQ(sc.schedule[0].t0, 400.0);
  EXPECT_EQ(sc.schedule[1].kind, Stage::Kind::kRun);
  EXPECT_EQ(sc.schedule[1].steps, 50);
  EXPECT_EQ(sc.total_steps(), 50);
}

TEST(Scenario, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW(scenario_from_deck(parse_deck_string("vacancyfraction = 0.1\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("geometry = sphere\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("dt = 0\n")), Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("dt = fast\n")), Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("run = -5\n")), Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("replicate = 4 4\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("vacancy_fraction = 1.5\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("element = Unobtanium\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("backend = gpu\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("thermo_format = xml\n")),
               Error);
  // A sign typo in a stage temperature must fail at parse time, not
  // surface later as NaN velocities.
  EXPECT_THROW(scenario_from_deck(parse_deck_string("thermalize = -10\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("quench = -150 15\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("ramp = 300 -600 50\n")),
               Error);
  // Thermostatting a motionless system silently runs at 0 K — rejected
  // eagerly unless something earlier could have produced kinetic energy.
  EXPECT_THROW(scenario_from_deck(parse_deck_string("equilibrate = 300 50\n")),
               Error);
  EXPECT_NO_THROW(scenario_from_deck(
      parse_deck_string("thermalize = 290\nequilibrate = 300 50\n")));
  EXPECT_NO_THROW(scenario_from_deck(
      parse_deck_string("run = 10\nequilibrate = 300 50\n")));
  // Quenching toward 0 K needs no prior KE source requirement violation
  // only when targets are positive; quench to exactly 0 from rest is a
  // no-op and allowed.
  EXPECT_NO_THROW(scenario_from_deck(parse_deck_string("quench = 0 5\n")));
  // Vacancies on a fused bicrystal would silently corrupt the seam.
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string(
          "element = Ta\ngeometry = grain_boundary\nvacancy_fraction = 0.01\n")),
      Error);
  // Keys a geometry ignores reject instead of silently simulating the
  // default-size system.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "geometry = grain_boundary\nreplicate = 8 8 8\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "geometry = grain_boundary\nscale = 8\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "geometry = slab\ngb_atoms = 500\n")),
               Error);
}

TEST(Scenario, PotentialAndPairStyleKeysValidateEagerly) {
  // `potential` is a legacy key: `tabulated` (what older checkpoints embed)
  // parses and selects nothing; `analytic` names a removed path and must
  // never run on the tables; anything else is a typo.
  EXPECT_NO_THROW(
      scenario_from_deck(parse_deck_string("potential = tabulated\n")));
  const auto error_of = [](const char* text) {
    try {
      scenario_from_deck(parse_deck_string(text, "p.deck"));
    } catch (const Error& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "expected Error for: " << text;
    return std::string();
  };
  const std::string analytic = error_of("potential = analytic\n");
  expect_deck_blame(analytic, "p.deck:1: ");
  EXPECT_NE(analytic.find("analytic evaluation path was removed"),
            std::string::npos)
      << analytic;
  // Eager validation with file:line blame.
  const std::string typo = error_of("name = x\npotential = spline\n");
  expect_deck_blame(typo, "p.deck:2: ");
  EXPECT_NE(typo.find("want tabulated"), std::string::npos) << typo;
  // An appended CLI override (line 0) is blamed as such.
  Deck cli = parse_deck_string("name = x\n", "p.deck");
  cli.set("potential", "analytic");
  try {
    scenario_from_deck(cli);
    ADD_FAILURE() << "expected Error for a CLI potential=analytic";
  } catch (const Error& e) {
    expect_deck_blame(e.what(), "<cli override>: key 'potential'");
  }

  // Interaction family: eam (default) | lj with its own element table.
  EXPECT_THROW(scenario_from_deck(parse_deck_string("pair_style = morse\n")),
               Error);
  EXPECT_NO_THROW(scenario_from_deck(parse_deck_string(
      "pair_style = lj\nelement = Ar\ngeometry = bulk\nreplicate = 4 4 4\n")));
  // Cu is a Zhou element, not a built-in LJ species.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "pair_style = lj\nelement = Cu\nreplicate = 4 4 4\n")),
               Error);
  // LJ scenarios size their crystal explicitly and have no bicrystal
  // generator.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "pair_style = lj\nelement = Ar\ngeometry = slab\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "pair_style = lj\nelement = Ar\n"
                   "geometry = grain_boundary\n")),
               Error);
}

TEST(Scenario, InputErrorsBlameTheLineAtFault) {
  // Value errors raised outside the key parser (backend specs, element
  // tables) and the cross-key rules each name the deck line of the key at
  // fault, with no C++ location.
  struct Case {
    const char* deck;
    const char* where;
    const char* why;
  };
  const Case cases[] = {
      {"backend = gpu\n", "b.deck:1: ", "unknown backend 'gpu'"},
      {"backend = reference:x\n", "b.deck:1: ", "bad reference thread count"},
      {"backend = sharded:0\n", "b.deck:1: ", "bad sharded thread count"},
      {"backend = sharded:4294967297\n", "b.deck:1: ",
       "bad sharded thread count"},
      {"backend = ranks:17\n", "b.deck:1: ", "bad rank count"},
      {"backend = ranks:2x0\n", "b.deck:1: ", "bad per-rank thread count"},
      {"backend = ranks:2y3\n", "b.deck:1: ", "bad rank spec"},
      {"name = x\nelement = Xx\n", "b.deck:2: ",
       "no Zhou EAM parameters for element 'Xx'"},
      {"pair_style = lj\nelement = Cu\nreplicate = 4 4 4\n", "b.deck:2: ",
       "no built-in LJ parameters for element 'Cu'"},
      // The default element is not an LJ species: the pair style is at
      // fault.
      {"name = x\npair_style = lj\nreplicate = 4 4 4\n", "b.deck:2: ",
       "no built-in LJ parameters"},
      {"pair_style = lj\nelement = Ar\ngeometry = grain_boundary\n",
       "b.deck:3: ", "does not support geometry=grain_boundary"},
      {"pair_style = lj\nelement = Ar\ngeometry = slab\n", "b.deck:1: ",
       "needs an explicit 'replicate'"},
      {"element = Ta\ngeometry = grain_boundary\nvacancy_fraction = 0.01\n",
       "b.deck:3: ", "vacancy_fraction is not supported"},
      {"geometry = grain_boundary\nreplicate = 8 8 8\n", "b.deck:2: ",
       "replicate/scale do not apply"},
      {"geometry = grain_boundary\nscale = 8\n", "b.deck:2: ",
       "replicate/scale do not apply"},
      {"geometry = slab\ngb_atoms = 500\n", "b.deck:2: ",
       "tilt_angle_deg/gb_atoms require"},
      {"element = W\ngeometry = bulk\n", "b.deck:2: ",
       "geometry=bulk needs an explicit 'replicate'"},
      {"thermalize = 0\nequilibrate = 300 50\n", "b.deck:2: ",
       "thermostats a 0 K system"},
      // An int field rejects what it cannot hold instead of wrapping (a
      // wrapped rescale_interval of 0 divided by zero mid-run).
      {"rescale_interval = 4294967296\n", "b.deck:1: ", "must be <= "},
      {"scale = 4294967297\n", "b.deck:1: ", "must be <= "},
      {"replicate = 4 4294967298 4\n", "b.deck:1: ", "must be <= "},
      // The ranks deadline travels in int milliseconds.
      {"backend = ranks:2\ndist.timeout = 3e6\n", "b.deck:2: ",
       "timeout must be <= 2147483 seconds"},
  };
  for (const auto& c : cases) {
    try {
      scenario_from_deck(parse_deck_string(c.deck, "b.deck"));
      ADD_FAILURE() << "expected Error for: " << c.deck;
    } catch (const Error& e) {
      expect_deck_blame(e.what(), c.where);
      EXPECT_NE(std::string(e.what()).find(c.why), std::string::npos)
          << e.what();
    }
  }
  // A bad backend override is blamed as such.
  Deck cli = parse_deck_string("name = x\n", "b.deck");
  cli.set("backend", "gpu");
  try {
    scenario_from_deck(cli);
    ADD_FAILURE() << "expected Error for a CLI backend=gpu";
  } catch (const Error& e) {
    expect_deck_blame(e.what(), "<cli override>: key 'backend' = 'gpu'");
  }
}

TEST(Scenario, LjMaterialFactsDriveStructureAndEngine) {
  // 4 cells per axis keep the periodic box above 2x the 2.5-sigma cutoff.
  const auto sc = scenario_from_deck(parse_deck_string(
      "pair_style = lj\nelement = Ar\ngeometry = bulk\n"
      "replicate = 4 4 4\nthermalize = 40\nrun = 2\n"));
  const auto facts = material_facts(sc);
  EXPECT_EQ(facts.structure, "fcc");
  EXPECT_NEAR(facts.lattice_constant, 5.25, 0.05);  // solid Ar a0 (A)
  const auto s = build_structure(sc);
  EXPECT_EQ(s.size(), 4u * 4u * 4u * 4u);  // FCC: 4 atoms per cell
  auto eng = build_engine(sc, s);
  EXPECT_EQ(eng->atom_count(), s.size());
  // Pure pair potential: the engine runs with a zero density pass.
  EXPECT_LT(eng->thermo().potential_energy, 0.0);  // cohesive LJ crystal
}

TEST(Scenario, BackendSpecParsing) {
  EXPECT_EQ(parse_backend("reference").backend, engine::Backend::kReference);
  // `wafer` is exactly sharded:1 (one shard), not `sharded` (auto threads).
  const auto wafer = parse_backend("wafer");
  EXPECT_EQ(wafer.backend, parse_backend("sharded:1").backend);
  EXPECT_EQ(wafer.threads, parse_backend("sharded:1").threads);
  EXPECT_NE(wafer.threads, parse_backend("sharded").threads);
  const auto sharded = parse_backend("sharded:8");
  EXPECT_EQ(sharded.backend, engine::Backend::kShardedWafer);
  EXPECT_EQ(sharded.threads, 8);
  EXPECT_EQ(parse_backend("sharded").threads, 0);  // auto
  EXPECT_TRUE(sharded.is_wafer());
  EXPECT_FALSE(parse_backend("reference").is_wafer());
  EXPECT_THROW(parse_backend("sharded:0"), Error);
  EXPECT_THROW(parse_backend("sharded:x"), Error);
}

TEST(Scenario, RanksBackendSpecParsing) {
  const auto ranks = parse_backend("ranks:4");
  EXPECT_EQ(ranks.backend, engine::Backend::kRanks);
  EXPECT_EQ(ranks.ranks, 4);
  EXPECT_EQ(ranks.threads, 1);  // one shard thread per rank by default
  EXPECT_TRUE(ranks.is_wafer());

  // ranks:MxN — N shard threads inside each of the M rank processes.
  const auto grid = parse_backend("ranks:2x3");
  EXPECT_EQ(grid.backend, engine::Backend::kRanks);
  EXPECT_EQ(grid.ranks, 2);
  EXPECT_EQ(grid.threads, 3);

  // Bare "ranks" keeps the default rank count.
  EXPECT_EQ(parse_backend("ranks").backend, engine::Backend::kRanks);
  EXPECT_EQ(parse_backend("ranks").ranks, 2);

  EXPECT_THROW(parse_backend("ranks:0"), Error);
  EXPECT_THROW(parse_backend("ranks:x"), Error);
  EXPECT_THROW(parse_backend("ranks:17"), Error);   // > kMaxRanks
  EXPECT_THROW(parse_backend("ranks:2x0"), Error);
  EXPECT_THROW(parse_backend("ranks:2x"), Error);
  EXPECT_THROW(parse_backend("ranks:2y3"), Error);
}

TEST(Scenario, BuildStructureGeometries) {
  // Explicit replication, open slab.
  auto sc = scenario_from_deck(parse_deck_string(
      "element = Cu\ngeometry = slab\nreplicate = 3 3 2\n"));
  StructureInfo info;
  const auto slab = build_structure(sc, &info);
  EXPECT_EQ(slab.size(), 3u * 3u * 2u * 4u);  // FCC: 4 atoms/cell
  EXPECT_EQ(info.atoms, slab.size());
  EXPECT_FALSE(slab.box.periodic[0]);

  // Bulk is periodic.
  sc = scenario_from_deck(parse_deck_string(
      "element = W\ngeometry = bulk\nreplicate = 4 4 4\n"));
  const auto bulk = build_structure(sc);
  EXPECT_EQ(bulk.size(), 4u * 4u * 4u * 2u);  // BCC: 2 atoms/cell
  EXPECT_TRUE(bulk.box.periodic[0] && bulk.box.periodic[2]);

  // Bulk without explicit replication is rejected (paper slabs are open).
  EXPECT_THROW(build_structure(scenario_from_deck(
                   parse_deck_string("element = W\ngeometry = bulk\n"))),
               Error);
  // ...at parse time, blaming the geometry line,
  try {
    scenario_from_deck(
        parse_deck_string("element = W\ngeometry = bulk\n", "bulk.deck"));
    ADD_FAILURE() << "expected Error for geometry=bulk without replicate";
  } catch (const Error& e) {
    expect_deck_blame(e.what(), "bulk.deck:2: ");
  }
  // ...and by build_structure for a Scenario built in C++.
  Scenario direct;
  direct.geometry = "bulk";
  EXPECT_THROW(build_structure(direct), Error);

  // Grain boundary reports seam bookkeeping.
  sc = scenario_from_deck(parse_deck_string(
      "element = Ta\ngeometry = grain_boundary\ngb_atoms = 800\n"
      "tilt_angle_deg = 16\n"));
  const auto gb = build_structure(sc, &info);
  EXPECT_GT(gb.size(), 400u);
  EXPECT_GT(info.gb_fused_atoms, 0u);
}

TEST(Scenario, VacanciesAreDeterministicPerSeed) {
  const char* text =
      "element = W\ngeometry = bulk\nreplicate = 4 4 4\n"
      "vacancy_fraction = 0.05\nseed = 123\n";
  StructureInfo a_info, b_info;
  const auto a = build_structure(
      scenario_from_deck(parse_deck_string(text)), &a_info);
  const auto b = build_structure(
      scenario_from_deck(parse_deck_string(text)), &b_info);
  const std::size_t full = 4u * 4u * 4u * 2u;
  EXPECT_EQ(a_info.vacancies_removed,
            static_cast<std::size_t>(0.05 * full + 0.5));
  EXPECT_EQ(a.size(), full - a_info.vacancies_removed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.positions[i].x, b.positions[i].x);
  }
  // A different seed removes a different set.
  const auto c = build_structure(scenario_from_deck(parse_deck_string(
      "element = W\ngeometry = bulk\nreplicate = 4 4 4\n"
      "vacancy_fraction = 0.05\nseed = 456\n")));
  ASSERT_EQ(c.size(), a.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < a.size() && !any_differs; ++i) {
    any_differs = a.positions[i].x != c.positions[i].x;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Scenario, ObserveKeysParseIntoProbeConfig) {
  const auto sc = scenario_from_deck(parse_deck_string(
      "element = Cu\n"
      "geometry = grain_boundary\n"
      "gb_atoms = 800\n"
      "observe.probes = rdf msd vacf defects\n"
      "observe.every = 5\n"
      "observe.rdf_every = 10\n"
      "observe.format = jsonl\n"
      "observe.prefix = out/obs\n"
      "observe.rdf_rcut = 6.0\n"
      "observe.rdf_bins = 300\n"
      "observe.csp_threshold = 0.75\n"
      "observe.gb_axis = z\n"));
  ASSERT_TRUE(sc.observe.enabled());
  EXPECT_EQ(sc.observe.probes,
            (std::vector<std::string>{"rdf", "msd", "vacf", "defects"}));
  EXPECT_EQ(sc.observe.cadence_for("rdf"), 10);    // per-probe override
  EXPECT_EQ(sc.observe.cadence_for("msd"), 5);     // inherits observe.every
  EXPECT_EQ(sc.observe.format, "jsonl");
  EXPECT_EQ(sc.observe.prefix, "out/obs");
  EXPECT_DOUBLE_EQ(sc.observe.rdf_rcut, 6.0);
  EXPECT_EQ(sc.observe.rdf_bins, 300);
  EXPECT_DOUBLE_EQ(sc.observe.csp_threshold, 0.75);
  EXPECT_EQ(sc.observe.gb_axis, 2);

  // GB tracking defaults to the generator's boundary normal (y) when the
  // deck enables the defect probe on a bicrystal without naming an axis.
  const auto defaulted = scenario_from_deck(parse_deck_string(
      "element = Ta\ngeometry = grain_boundary\nobserve.probes = defects\n"));
  EXPECT_EQ(defaulted.observe.gb_axis, 1);
  // ...and stays off elsewhere.
  const auto slab = scenario_from_deck(
      parse_deck_string("element = Cu\nobserve.probes = defects\n"));
  EXPECT_EQ(slab.observe.gb_axis, -1);
}

TEST(Scenario, ObserveRejectsUnknownKeysWithFileLineContext) {
  // Typo'd observe key: rejected like any unknown key, pointing at the
  // offending line.
  try {
    scenario_from_deck(parse_deck_string(
        "observe.probes = rdf\nobserve.rdf_cutoff = 6\n", "obs.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("obs.deck:2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("observe.probs = rdf\n")), Error);
  // Unknown / duplicate probe names.
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("observe.probes = xrd\n")), Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("observe.probes = rdf rdf\n")),
      Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("observe.probes =\n")),
               Error);
}

TEST(Scenario, ObserveRejectsBadCadences) {
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = msd\nobserve.every = 0\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = msd\nobserve.every = -5\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = msd\nobserve.msd_every = 0\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.rdf_every = x\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.rdf_bins = 1\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.rdf_rcut = 0\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = defects\nobserve.csp_threshold = -1\n")),
               Error);
}

TEST(Scenario, ObserveRejectsCrossKeyAndGeometryMismatches) {
  // observe.* keys without observe.probes: a deck that configures probes it
  // never enables is a typo, not a request for silence.
  try {
    scenario_from_deck(parse_deck_string("observe.every = 5\n", "lone.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("lone.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("observe.probes"),
              std::string::npos);
  }
  // Parameters for probes that are not enabled.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = msd\nobserve.rdf_bins = 100\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.csp_threshold = 1\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "observe.probes = rdf\nobserve.vacf_every = 5\n")),
               Error);
  // GB tracking needs a grain boundary.
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string(
          "geometry = slab\nobserve.probes = defects\nobserve.gb_axis = y\n")),
      Error);
  // Probe-geometry mismatch, caught at parse time: the rdf radius cannot
  // satisfy minimum image in this periodic box.
  try {
    scenario_from_deck(parse_deck_string(
        "element = Cu\ngeometry = bulk\nreplicate = 3 3 3\n"
        "observe.probes = rdf\nobserve.rdf_rcut = 7.0\n",
        "tight.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("tight.deck:5"), std::string::npos)
        << e.what();
  }
  // Same box with a radius that fits is accepted.
  EXPECT_NO_THROW(scenario_from_deck(parse_deck_string(
      "element = Cu\ngeometry = bulk\nreplicate = 4 4 4\n"
      "observe.probes = rdf\nobserve.rdf_rcut = 6.5\n")));
  // The defect probe's derived CSP radius is checked the same way: a 2x2x2
  // periodic cell cannot host the 1.2 a0 search sphere.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "element = Cu\ngeometry = bulk\nreplicate = 2 2 2\n"
                   "observe.probes = defects\n")),
               Error);
}

TEST(Scenario, HealthKeysParseIntoTheWatchdogConfig) {
  // Defaults: NaN detection warns, everything else off.
  const auto base = scenario_from_deck(parse_deck_string(""));
  EXPECT_EQ(base.health.nan, telemetry::HealthAction::kWarn);
  EXPECT_EQ(base.health.energy_drift, telemetry::HealthAction::kOff);
  EXPECT_EQ(base.health.temperature, telemetry::HealthAction::kOff);
  EXPECT_EQ(base.health.stall, telemetry::HealthAction::kOff);
  EXPECT_FALSE(base.health.any_abort());

  const auto sc = scenario_from_deck(parse_deck_string(
      "health.nan = abort\n"
      "health.energy_drift = warn\n"
      "health.energy_band = 0.01\n"
      "health.temperature = abort\n"
      "health.temperature_band = 75\n"
      "health.stall = warn\n"
      "health.stall_timeout = 5\n"
      "health.thermo_tail = 32\n"
      "health.bundle = triage\n"
      "health.inject_nan = 4\n"));
  EXPECT_EQ(sc.health.nan, telemetry::HealthAction::kAbort);
  EXPECT_EQ(sc.health.energy_drift, telemetry::HealthAction::kWarn);
  EXPECT_DOUBLE_EQ(sc.health.energy_band, 0.01);
  EXPECT_EQ(sc.health.temperature, telemetry::HealthAction::kAbort);
  EXPECT_DOUBLE_EQ(sc.health.temperature_band_K, 75.0);
  EXPECT_EQ(sc.health.stall, telemetry::HealthAction::kWarn);
  EXPECT_DOUBLE_EQ(sc.health.stall_timeout_s, 5.0);
  EXPECT_EQ(sc.health.thermo_tail, 32);
  EXPECT_EQ(sc.health.bundle_dir, "triage");
  EXPECT_EQ(sc.health.inject_nan_step, 4);
  EXPECT_TRUE(sc.health.any_enabled());
  EXPECT_TRUE(sc.health.any_abort());

  // The default NaN detector can be switched off explicitly.
  const auto off =
      scenario_from_deck(parse_deck_string("health.nan = off\n"));
  EXPECT_EQ(off.health.nan, telemetry::HealthAction::kOff);
  EXPECT_FALSE(off.health.any_enabled());
}

TEST(Scenario, HealthKeysValidateEagerly) {
  // Action tokens are a closed set with file:line blame.
  try {
    scenario_from_deck(parse_deck_string("health.nan = on\n", "h.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("h.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("off|warn|abort"),
              std::string::npos);
  }
  EXPECT_THROW(scenario_from_deck(parse_deck_string("health.stall = true\n")),
               Error);
  // Bands and timeouts must be positive numbers.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "health.energy_drift = warn\nhealth.energy_band = 0\n")),
               Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string(
          "health.temperature = warn\nhealth.temperature_band = -5\n")),
      Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "health.stall = warn\nhealth.stall_timeout = soon\n")),
               Error);
  // A band/timeout for a disabled detector is dead configuration.
  try {
    scenario_from_deck(
        parse_deck_string("health.energy_band = 0.01\n", "dead.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dead.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("health.energy_drift"),
              std::string::npos);
  }
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.temperature_band = 50\n")),
      Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.stall_timeout = 10\n")),
      Error);
  // The NaN fault drill needs the NaN detector it exercises.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "health.nan = off\nhealth.inject_nan = 3\n")),
               Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.inject_nan = -1\n")),
      Error);
  // The bundle's thermo tail keeps a bounded ring.
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.thermo_tail = 0\n")),
      Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("health.thermo_tail = 200000\n")),
      Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string("health.bundle =\n")),
               Error);
}

TEST(Scenario, SnapshotCadenceImpliesTheMetricsFile) {
  // No cadence by default; no metrics file implied.
  EXPECT_DOUBLE_EQ(scenario_from_deck(parse_deck_string("")).
                   telemetry_snapshot_s, 0.0);

  const auto sc = scenario_from_deck(
      parse_deck_string("name = snapdeck\ntelemetry.snapshot = 0.5\n"));
  EXPECT_DOUBLE_EQ(sc.telemetry_snapshot_s, 0.5);
  // Snapshots stream into the metrics file, so a cadence without an
  // explicit path resolves the same auto default as telemetry.metrics=auto.
  EXPECT_EQ(sc.telemetry_metrics_path, "snapdeck.metrics.jsonl");

  // An explicit path wins over the implied default.
  const auto named = scenario_from_deck(parse_deck_string(
      "telemetry.snapshot = 0.5\ntelemetry.metrics = custom.jsonl\n"));
  EXPECT_EQ(named.telemetry_metrics_path, "custom.jsonl");

  // `off` clears an earlier cadence (resume-time CLI override path).
  const auto off = scenario_from_deck(parse_deck_string(
      "telemetry.snapshot = 0.5\ntelemetry.snapshot = off\n"));
  EXPECT_DOUBLE_EQ(off.telemetry_snapshot_s, 0.0);

  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("telemetry.snapshot = 0\n")),
      Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("telemetry.snapshot = -1\n")),
      Error);
  EXPECT_THROW(
      scenario_from_deck(parse_deck_string("telemetry.snapshot = fast\n")),
      Error);
  // Streaming into an explicitly disabled metrics file is a contradiction.
  try {
    scenario_from_deck(parse_deck_string(
        "telemetry.snapshot = 0.5\ntelemetry.metrics = off\n", "c.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("c.deck:1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("telemetry.metrics is off"),
              std::string::npos);
  }
}

TEST(Scenario, HealthAndSnapshotKeysRoundTripThroughDeckFromScenario) {
  const auto sc = scenario_from_deck(parse_deck_string(
      "name = rt\n"
      "telemetry.snapshot = 0.25\n"
      "health.nan = abort\n"
      "health.energy_drift = warn\n"
      "health.energy_band = 0.05\n"
      "health.stall = abort\n"
      "health.stall_timeout = 30\n"
      "health.thermo_tail = 16\n"
      "health.bundle = rt.triage\n"
      "health.inject_nan = 2\n"));
  const auto again = scenario_from_deck(deck_from_scenario(sc));
  EXPECT_DOUBLE_EQ(again.telemetry_snapshot_s, 0.25);
  EXPECT_EQ(again.health.nan, telemetry::HealthAction::kAbort);
  EXPECT_EQ(again.health.energy_drift, telemetry::HealthAction::kWarn);
  EXPECT_DOUBLE_EQ(again.health.energy_band, 0.05);
  EXPECT_EQ(again.health.stall, telemetry::HealthAction::kAbort);
  EXPECT_DOUBLE_EQ(again.health.stall_timeout_s, 30.0);
  EXPECT_EQ(again.health.thermo_tail, 16);
  EXPECT_EQ(again.health.bundle_dir, "rt.triage");
  EXPECT_EQ(again.health.inject_nan_step, 2);
  // Untouched defaults stay implicit: a default scenario round-trips to a
  // deck with no health.* or telemetry.snapshot keys at all.
  const auto plain = deck_from_scenario(scenario_from_deck(
      parse_deck_string("")));
  for (const auto& e : plain.entries) {
    EXPECT_EQ(e.key.rfind("health.", 0), std::string::npos) << e.key;
    EXPECT_NE(e.key, "telemetry.snapshot");
  }
}

TEST(Scenario, DistKeysValidateEagerlyAndRoundTrip) {
  // dist.* keys are dead configuration off a ranks: backend.
  try {
    scenario_from_deck(
        parse_deck_string("backend = sharded:2\ndist.timeout = 10\n",
                          "d.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("d.deck:2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ranks:M"), std::string::npos);
  }
  // The kill drill is a pair: either half alone would silently never fire.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = ranks:2\ndist.kill_rank = 0\n")),
               Error);
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = ranks:2\ndist.kill_step = 3\n")),
               Error);
  // The killed rank must exist under the configured rank count.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = ranks:2\ndist.kill_rank = 2\n"
                   "dist.kill_step = 3\n")),
               Error);
  // Value validation is eager too.
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = ranks:2\ndist.timeout = 0\n")),
               Error);
  // dist.transport is legacy: both historical carriers parse (and run on
  // the shm rings), anything else is a typed error naming the deck line,
  // and the key is still dead configuration off a ranks: backend.
  for (const char* carrier : {"shm", "socket"}) {
    EXPECT_NO_THROW(scenario_from_deck(parse_deck_string(
        std::string("backend = ranks:2\ndist.transport = ") + carrier +
        "\n")))
        << carrier;
  }
  try {
    scenario_from_deck(parse_deck_string(
        "backend = ranks:2\ndist.transport = tcp\n", "t.deck"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("t.deck:2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("shm|socket"), std::string::npos);
  }
  EXPECT_THROW(scenario_from_deck(parse_deck_string(
                   "backend = sharded:2\ndist.transport = shm\n")),
               Error);

  const auto sc = scenario_from_deck(parse_deck_string(
      "backend = ranks:4\ndist.timeout = 15\n"
      "dist.kill_rank = 3\ndist.kill_step = 5\n"));
  EXPECT_DOUBLE_EQ(sc.dist_timeout_s, 15.0);
  EXPECT_EQ(sc.dist_kill_rank, 3);
  EXPECT_EQ(sc.dist_kill_step, 5);
  const auto round_trip = deck_from_scenario(sc);
  EXPECT_FALSE(round_trip.has("dist.transport"));
  const auto again = scenario_from_deck(round_trip);
  EXPECT_DOUBLE_EQ(again.dist_timeout_s, 15.0);
  EXPECT_EQ(again.dist_kill_rank, 3);
  EXPECT_EQ(again.dist_kill_step, 5);

  // Non-ranks scenarios round-trip without any dist.* keys (byte-stable
  // embedded checkpoint decks).
  const auto plain = deck_from_scenario(scenario_from_deck(
      parse_deck_string("backend = sharded:2\n")));
  for (const auto& e : plain.entries) {
    EXPECT_EQ(e.key.rfind("dist.", 0), std::string::npos) << e.key;
  }
}

// Every deck key round-trips through a checkpoint file: a sample deck that
// sets the key parses, its canonical deck (deck_from_scenario) is written
// into a checkpoint and read back, the key comes back with the sample's
// value, and the re-read deck parses to the same canonical deck. A key added
// to the table without a sample here fails the test.
TEST(DeckKeys, EveryKeyRoundTripsThroughACheckpointFile) {
  struct Sample {
    const char* value;          ///< canonical, and off the key's default
    const char* context = "";   ///< deck lines the key needs
    const char* written_as = nullptr;  ///< alias target; "" = legacy
  };
  const std::map<std::string, Sample> samples = {
      {"name", {"sample"}},
      {"element", {"Ta"}},
      {"pair_style", {"lj", "element = Ar\nreplicate = 4 4 4\n"}},
      {"potential", {"tabulated", "", ""}},
      {"geometry", {"bulk", "replicate = 3 3 3\n"}},
      {"tilt_angle_deg", {"12.5", "geometry = grain_boundary\n"}},
      {"gb_atoms", {"640", "geometry = grain_boundary\n"}},
      {"replicate", {"3 4 5"}},
      {"scale", {"48"}},
      {"vacancy_fraction", {"0.25", "geometry = bulk\nreplicate = 3 3 3\n"}},
      {"backend", {"sharded:3"}},
      {"dt", {"0.00390625"}},
      {"swap_interval", {"10"}},
      {"rescale_interval", {"7"}},
      {"seed", {"77"}},
      {"dist.timeout", {"12.5", "backend = ranks:2\n"}},
      {"dist.kill_rank", {"1", "backend = ranks:2\ndist.kill_step = 3\n"}},
      {"dist.kill_step", {"3", "backend = ranks:2\ndist.kill_rank = 1\n"}},
      {"dist.transport", {"socket", "backend = ranks:2\n", ""}},
      {"thermalize", {"350"}},
      {"equilibrate", {"300 20", "thermalize = 300\n"}},
      {"ramp", {"300 600 50", "thermalize = 300\n"}},
      {"quench", {"10 5", "thermalize = 300\n"}},
      {"run", {"25"}},
      {"nve", {"25", "", "run"}},
      {"xyz", {"t.xyz"}},
      {"xyz_every", {"5", "xyz = t.xyz\n"}},
      {"thermo", {"t.csv"}},
      {"thermo_every", {"4", "thermo = t.csv\n"}},
      {"thermo_format", {"jsonl", "thermo = t.jsonl\n"}},
      {"summary", {"s.json"}},
      {"observe.probes", {"msd vacf"}},
      {"observe.every", {"7", "observe.probes = msd\n"}},
      {"observe.rdf_every", {"3", "observe.probes = rdf\n"}},
      {"observe.msd_every", {"3", "observe.probes = msd\n"}},
      {"observe.vacf_every", {"3", "observe.probes = vacf\n"}},
      {"observe.defects_every", {"3", "observe.probes = defects\n"}},
      {"observe.format", {"jsonl", "observe.probes = msd\n"}},
      {"observe.prefix", {"out/p", "observe.probes = msd\n"}},
      {"observe.rdf_rcut", {"6.5", "observe.probes = rdf\n"}},
      {"observe.rdf_bins", {"120", "observe.probes = rdf\n"}},
      {"observe.csp_threshold", {"0.75", "observe.probes = defects\n"}},
      {"observe.gb_axis",
       {"z", "geometry = grain_boundary\nobserve.probes = defects\n"}},
      {"checkpoint.every", {"9"}},
      {"checkpoint.path", {"c.*.ckpt", "checkpoint.every = 9\n"}},
      {"telemetry.trace", {"t.trace.json"}},
      {"telemetry.metrics", {"t.metrics.jsonl"}},
      {"telemetry.snapshot", {"0.5"}},
      {"health.nan", {"abort"}},
      {"health.energy_drift", {"warn"}},
      {"health.energy_band", {"0.0625", "health.energy_drift = warn\n"}},
      {"health.temperature", {"abort"}},
      {"health.temperature_band", {"75", "health.temperature = warn\n"}},
      {"health.stall", {"warn"}},
      {"health.stall_timeout", {"30", "health.stall = warn\n"}},
      {"health.thermo_tail", {"16"}},
      {"health.bundle", {"triage"}},
      {"health.inject_nan", {"2"}},
  };
  const std::string path = ::testing::TempDir() + "wsmd_deck_keys.ckpt";
  const auto keys = deck_keys();
  for (const auto& [name, sample] : samples) {
    EXPECT_TRUE(std::any_of(keys.begin(), keys.end(),
                            [&](const DeckKey& k) { return k.name == name; }))
        << "sample for '" << name << "', which is not a deck key";
  }
  for (const auto& key : keys) {
    SCOPED_TRACE(key.name);
    EXPECT_FALSE(key.doc.empty());
    const auto it = samples.find(key.name);
    if (it == samples.end()) {
      ADD_FAILURE() << "deck key '" << key.name
                    << "' has no round-trip sample";
      continue;
    }
    const Sample& s = it->second;
    const Scenario sc = scenario_from_deck(parse_deck_string(
        std::string(s.context) + key.name + " = " + s.value + "\n",
        "sample.deck"));
    io::CheckpointData ckpt;
    ckpt.box = Box({0, 0, 0}, {1, 1, 1});  // the reader checks its extent
    for (const auto& e : deck_from_scenario(sc).entries) {
      ckpt.deck.emplace_back(e.key, e.value);
    }
    io::write_checkpoint_file(path, ckpt);
    const auto back = io::read_checkpoint_file(path).deck;
    ASSERT_EQ(back, ckpt.deck);

    const std::string written = s.written_as ? s.written_as : key.name;
    std::vector<std::string> values;
    for (const auto& [k, v] : back) {
      if (k == key.name || k == written) values.push_back(k + " = " + v);
    }
    if (written.empty()) {
      EXPECT_TRUE(values.empty()) << "legacy key written: " << values[0];
    } else {
      ASSERT_EQ(values.size(), 1u);
      EXPECT_EQ(values[0], written + " = " + s.value);
    }
    const Scenario again =
        scenario_from_deck(deck_from_entries(back, "sample.ckpt"));
    std::vector<std::pair<std::string, std::string>> twice;
    for (const auto& e : deck_from_scenario(again).entries) {
      twice.emplace_back(e.key, e.value);
    }
    EXPECT_EQ(twice, back);
  }
  std::remove(path.c_str());
}

TEST(Scenario, BuildEngineHonorsBackendAndOverride) {
  const auto sc = scenario_from_deck(parse_deck_string(
      "element = Ta\ngeometry = slab\nreplicate = 3 3 2\n"
      "backend = wafer\n"));
  const auto structure = build_structure(sc);
  auto wafer = build_engine(sc, structure);
  EXPECT_STREQ(wafer->backend_name(), "sharded-wafer");
  auto ref = build_engine(sc, structure, "reference");
  EXPECT_STREQ(ref->backend_name(), "reference-fp64");
  auto sharded = build_engine(sc, structure, "sharded:2");
  EXPECT_STREQ(sharded->backend_name(), "sharded-wafer");
  auto ranks = build_engine(sc, structure, "ranks:2");
  EXPECT_STREQ(ranks->backend_name(), "ranks");
  EXPECT_EQ(ranks->atom_count(), structure.size());
  EXPECT_EQ(wafer->atom_count(), structure.size());
}

}  // namespace
}  // namespace wsmd::scenario
