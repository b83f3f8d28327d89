/// \file test_scenario_golden.cpp
/// Golden-run regression harness: every checked-in scenario deck under
/// scenarios/ is replayed on the reference and sharded-wafer backends and
/// the thermo stream is compared against the recorded golden log
/// (scenarios/golden/<name>.thermo.csv).
///
/// This is what turns CI from "unit tests pass" into "the physics didn't
/// drift": any change to the potential, integrator, lattice generators,
/// defect streams, thermostat stages, or engine phase kernels that alters
/// the trajectory shows up as a thermo mismatch here.
///
/// Tolerances: the reference replay must match the golden (also recorded
/// on the reference backend) to FP64 replay precision — only compiler
/// codegen differences are allowed through. The sharded-wafer replay runs
/// the same physics in FP32 with half-step kinetic-energy convention
/// (engine/engine.hpp), so it gets a physics-level band; sharded-vs-serial
/// wafer bitwise parity is already pinned by the engine tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "io/series.hpp"
#include "io/thermo_log.hpp"
#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace wsmd::scenario {
namespace {

namespace fs = std::filesystem;

std::string scenarios_dir() { return std::string(WSMD_SOURCE_DIR) + "/scenarios"; }

std::vector<std::string> discover_decks() {
  std::vector<std::string> decks;
  for (const auto& entry : fs::directory_iterator(scenarios_dir())) {
    if (entry.path().extension() == ".deck") {
      decks.push_back(entry.path().string());
    }
  }
  std::sort(decks.begin(), decks.end());
  return decks;
}

struct Tolerance {
  double energy_rel;   ///< pe / total energy, relative to the golden value
  double energy_abs;   ///< absolute floor (eV)
  double temp_abs;     ///< temperature band (K)
};

/// Reference replay: FP64 determinism up to compiler codegen.
constexpr Tolerance kReferenceTol{1e-5, 1e-6, 0.5};
/// Wafer replay: FP32 state + half-step KE convention. Bands sit ~4x above
/// the observed cross-backend spread at CI sizes, far below any real
/// physics drift (wrong potential/integrator shifts energies by eV/atom).
constexpr Tolerance kWaferTol{8e-3, 0.1, 45.0};
/// Wafer replay of pair_style=lj decks: the LJ well (~0.01 eV) is ~40x
/// shallower than EAM cohesion, so the same FP32 state noise decorrelates
/// a chaotic melt trajectory to a larger *relative* energy spread (observed
/// max ~1.3% through the ar_lj_melt ramp; band ~3x that).
constexpr Tolerance kLjWaferTol{4e-2, 0.2, 45.0};

void compare_stream(const std::vector<Thermo>& golden,
                    const std::vector<Thermo>& got,
                    const Tolerance& tol, const std::string& label) {
  ASSERT_EQ(golden.size(), got.size()) << label << ": sample count drifted";
  for (std::size_t k = 0; k < golden.size(); ++k) {
    const auto& g = golden[k];
    const auto& r = got[k];
    ASSERT_EQ(g.step, r.step) << label << ": step sequence drifted at row "
                              << k;
    const auto band = [&](double value) {
      return std::max(tol.energy_abs, tol.energy_rel * std::fabs(value));
    };
    EXPECT_NEAR(r.potential_energy, g.potential_energy,
                band(g.potential_energy))
        << label << ": potential energy drifted at step " << g.step;
    EXPECT_NEAR(r.total_energy, g.total_energy, band(g.total_energy))
        << label << ": total energy drifted at step " << g.step;
    EXPECT_NEAR(r.temperature, g.temperature, tol.temp_abs)
        << label << ": temperature drifted at step " << g.step;
  }
}

/// Per-column tolerance for golden observable series: band =
/// max(abs, rel * |golden|). Two tiers mirror the thermo tolerances —
/// "tight" admits only compiler-codegen divergence of the FP64 replay,
/// "loose" admits the FP32 wafer state (bands ~10x the observed
/// sharded-vs-reference spread at CI sizes, far below physics drift).
struct ColumnTol {
  double rel = 0.0;
  double abs = 0.0;
};

ColumnTol observable_tolerance(const std::string& column, bool tight) {
  if (column == "step") return {0.0, 0.0};
  if (column == "time_ps" || column == "r_A") return {0.0, 1e-9};
  if (column == "msd_A2") return tight ? ColumnTol{1e-3, 1e-4}
                                       : ColumnTol{0.1, 3e-3};
  if (column == "vacf") return tight ? ColumnTol{0.0, 1e-3}
                                     : ColumnTol{0.0, 5e-2};
  if (column == "raw_A2_ps2") return tight ? ColumnTol{1e-3, 1e-2}
                                           : ColumnTol{0.1, 0.1};
  // Integer counts: a few atoms may flip across the CSP threshold (the
  // step-0 lattice is centrosymmetry-degenerate, so even codegen-level
  // position noise can reorder tied bonds).
  if (column == "defect_count") return tight ? ColumnTol{0.0, 4.0}
                                             : ColumnTol{0.0, 10.0};
  if (column == "defect_fraction") return tight ? ColumnTol{0.0, 6e-3}
                                                : ColumnTol{0.0, 1.5e-2};
  if (column == "mean_csp_A2") return tight ? ColumnTol{0.02, 0.5}
                                            : ColumnTol{0.05, 1.5};
  if (column == "gb_position_A") return tight ? ColumnTol{0.0, 0.1}
                                              : ColumnTol{0.0, 0.3};
  if (column == "g") return tight ? ColumnTol{0.02, 0.5}
                                  : ColumnTol{0.1, 1.5};
  ADD_FAILURE() << "no tolerance defined for observable column '" << column
                << "' — teach observable_tolerance() about it";
  return {0.0, 0.0};
}

void compare_series(const io::Series& golden, const io::Series& got,
                    bool tight, const std::string& label) {
  ASSERT_EQ(golden.columns, got.columns) << label << ": column set drifted";
  ASSERT_EQ(golden.rows.size(), got.rows.size())
      << label << ": row count drifted";
  for (std::size_t r = 0; r < golden.rows.size(); ++r) {
    for (std::size_t c = 0; c < golden.columns.size(); ++c) {
      const double g = golden.rows[r][c];
      const double v = got.rows[r][c];
      const auto tol = observable_tolerance(golden.columns[c], tight);
      EXPECT_NEAR(v, g, std::max(tol.abs, tol.rel * std::fabs(g)))
          << label << ": column '" << golden.columns[c] << "' drifted at row "
          << r;
    }
  }
}

class ScenarioGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioGolden, ReplayMatchesGoldenOnReferenceAndSharded) {
  const std::string deck_path = GetParam();
  const auto deck_name = fs::path(deck_path).stem().string();
  const std::string golden_path =
      scenarios_dir() + "/golden/" + deck_name + ".thermo.csv";
  ASSERT_TRUE(fs::exists(golden_path))
      << "no golden recorded for " << deck_name
      << " — run the deck on the reference backend and check in the "
         "thermo CSV";
  const auto golden = io::read_thermo_csv_file(golden_path);
  ASSERT_FALSE(golden.empty());

  // WSMD_GOLDEN_REF_THREADS=N replays the reference leg on the threaded
  // force sweep (backend reference:N). The trajectory is bitwise-identical
  // at any thread count, so the same goldens and tight tolerances apply —
  // CI's thread-determinism leg runs this at 1/2/8 workers.
  std::string ref_backend = "reference";
  if (const char* t = std::getenv("WSMD_GOLDEN_REF_THREADS")) {
    ref_backend += ":";
    ref_backend += t;
  }
  struct BackendCase {
    std::string backend;
    const Tolerance* tol;
  };
  for (const auto& bc : std::vector<BackendCase>{
           {ref_backend, &kReferenceTol}, {"sharded:3", &kWaferTol}}) {
    Deck deck = parse_deck_file(deck_path);
    const std::string tmp_base = ::testing::TempDir() + "wsmd_golden_" +
                                 deck_name + "_" + bc.backend;
    const std::string thermo_path = tmp_base + ".csv";
    // Replay wants only the thermo + observable streams: no
    // trajectory/summary clutter, full thermo sampling so every golden row
    // has a counterpart.
    deck.set("thermo", thermo_path);
    deck.set("thermo_format", "csv");
    deck.set("thermo_every", "1");
    deck.set("xyz", "");
    deck.set("summary", "");
    const auto sc_probe = scenario_from_deck(deck);
    if (sc_probe.observe.enabled()) {
      deck.set("observe.prefix", tmp_base);
      deck.set("observe.format", "csv");
    }
    const Tolerance* tol = bc.tol;
    if (tol == &kWaferTol && sc_probe.pair_style == "lj") tol = &kLjWaferTol;

    RunOptions opt;
    opt.backend_override = bc.backend;
    const auto result = run_scenario(scenario_from_deck(deck), opt);
    EXPECT_EQ(result.total_steps,
              golden.back().step);  // schedule length is part of the golden
    const auto got = io::read_thermo_csv_file(thermo_path);
    compare_stream(golden, got, *tol, deck_name + " on " + bc.backend);
    std::remove(thermo_path.c_str());

    // Observable streams replay against their own goldens — this is the
    // acceptance bar for the obs subsystem: RDF/MSD/VACF/GB-defect series
    // must be stable on the reference *and* wafer backends.
    const bool tight = bc.backend == ref_backend;
    for (const auto& probe : result.observables) {
      const std::string golden_series_path =
          scenarios_dir() + "/golden/" + deck_name + "." + probe.kind +
          ".csv";
      ASSERT_TRUE(fs::exists(golden_series_path))
          << "no golden " << probe.kind << " series recorded for "
          << deck_name;
      compare_series(io::read_series_csv_file(golden_series_path),
                     io::read_series_csv_file(probe.path), tight,
                     deck_name + "." + probe.kind + " on " + bc.backend);
      std::remove(probe.path.c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Decks, ScenarioGolden,
                         ::testing::ValuesIn(discover_decks()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return fs::path(i.param).stem().string();
                         });

/// Distributed acceptance: the golden cu_slab deck replayed on the
/// executed ranks: backend at two rank counts must land inside the same
/// FP32 band the serial wafer replay uses. Per-atom trajectories are
/// bitwise-identical to the serial wafer (pinned by the engine tests); the
/// thermo stream differs only by the fixed-rank-order regrouping of the
/// global FP64 reductions, so any real halo/migration bug blows straight
/// through kWaferTol. One dedicated test instead of a parameterized third
/// leg: forking M processes per deck would triple the suite's cost.
TEST(ScenarioGoldenRanks, CuSlabMatchesGoldenOnTwoAndFourRanks) {
  const std::string deck_path = scenarios_dir() + "/cu_slab.deck";
  ASSERT_TRUE(fs::exists(deck_path));
  const auto golden =
      io::read_thermo_csv_file(scenarios_dir() + "/golden/cu_slab.thermo.csv");
  ASSERT_FALSE(golden.empty());

  for (const std::string backend : {"ranks:2", "ranks:4"}) {
    Deck deck = parse_deck_file(deck_path);
    const std::string thermo_path =
        ::testing::TempDir() + "wsmd_golden_cu_slab_" + backend + ".csv";
    deck.set("thermo", thermo_path);
    deck.set("thermo_format", "csv");
    deck.set("thermo_every", "1");
    deck.set("xyz", "");
    deck.set("summary", "");

    RunOptions opt;
    opt.backend_override = backend;
    const auto result = run_scenario(scenario_from_deck(deck), opt);
    EXPECT_EQ(result.backend_name, "ranks");
    EXPECT_EQ(result.total_steps, golden.back().step);
    const auto got = io::read_thermo_csv_file(thermo_path);
    compare_stream(golden, got, kWaferTol, "cu_slab on " + backend);
    std::remove(thermo_path.c_str());
  }
}

/// The harness is only meaningful while decks exist; catch an empty or
/// mislocated scenarios/ directory instead of vacuously passing.
TEST(ScenarioGoldenSuite, CoversTheCheckedInDecks) {
  const auto decks = discover_decks();
  EXPECT_GE(decks.size(), 3u) << "expected the three paper-derived decks";
  for (const auto& d : decks) {
    const auto name = fs::path(d).stem().string();
    EXPECT_TRUE(fs::exists(scenarios_dir() + "/golden/" + name +
                           ".thermo.csv"))
        << "deck " << name << " has no golden thermo log";
  }
}

}  // namespace
}  // namespace wsmd::scenario
