/// \file test_runner_stages.cpp
/// Runner-side regressions that fell out of the checkpoint work:
///
///   - The thermostat-rescale schedule, pinned per stage kind through
///     stage_rescales_after(): equilibrate, ramp, and *quench* all honor
///     rescale_interval (quench historically rescaled every step) and all
///     fire on the stage's final step; thermalize and run never rescale.
///     An integration check pins the consequence: equilibrate and quench
///     with identical parameters now produce identical thermo streams.
///
///   - resolve_output_path(): absolute paths pass through untouched (the
///     old front()!='/' test missed nothing on POSIX but string
///     concatenation mangled "./"-prefixed paths), relative paths join
///     under --output-dir with proper path semantics, and nested parents
///     are created.
///
///   - A full disk fails the run: thermo rows, the summary, probe streams
///     and the trace and metrics exports that never reach their file raise
///     WriteError, and the `wsmd` CLI (run and analyze) exits 1.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "io/thermo_log.hpp"
#include "scenario/analyze.hpp"
#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace wsmd::scenario {
namespace {

namespace fs = std::filesystem;

Stage stage_of(Stage::Kind kind, long steps) {
  Stage st;
  st.kind = kind;
  st.t0 = 300.0;
  st.t1 = 350.0;
  st.steps = steps;
  return st;
}

TEST(RescaleSchedule, AllFourStageKindsPinned) {
  const int interval = 4;
  // Thermostatted stages: every interval-th step of the stage, plus the
  // final step. 10 steps at interval 4 -> steps 4, 8, 10.
  for (const auto kind : {Stage::Kind::kEquilibrate, Stage::Kind::kRamp,
                          Stage::Kind::kQuench}) {
    const auto st = stage_of(kind, 10);
    std::vector<long> fired;
    for (long k = 1; k <= st.steps; ++k) {
      if (stage_rescales_after(st, k, interval)) fired.push_back(k);
    }
    EXPECT_EQ(fired, (std::vector<long>{4, 8, 10}))
        << "stage kind " << st.name();
  }
  // A stage shorter than the interval still thermostats once, at its end.
  for (const auto kind : {Stage::Kind::kEquilibrate, Stage::Kind::kRamp,
                          Stage::Kind::kQuench}) {
    const auto st = stage_of(kind, 3);
    EXPECT_FALSE(stage_rescales_after(st, 1, interval));
    EXPECT_FALSE(stage_rescales_after(st, 2, interval));
    EXPECT_TRUE(stage_rescales_after(st, 3, interval)) << st.name();
  }
  // Free stages never rescale.
  for (const auto kind : {Stage::Kind::kRun, Stage::Kind::kThermalize}) {
    const auto st = stage_of(kind, 10);
    for (long k = 1; k <= st.steps; ++k) {
      EXPECT_FALSE(stage_rescales_after(st, k, interval)) << st.name();
    }
  }
}

TEST(RescaleSchedule, QuenchAndEquilibrateNowShareOneSchedule) {
  // Same target, steps, seed, interval: the two stage kinds must produce
  // bit-identical thermo streams — the only difference was the rescale
  // cadence, and that difference was the bug.
  const std::string base = ::testing::TempDir() + "wsmd_stage_";
  const auto run_kind = [&](const std::string& stage_line,
                            const std::string& tag) {
    Deck deck = parse_deck_string(
        "name = stage_" + tag +
            "\n"
            "element = Cu\n"
            "geometry = slab\n"
            "replicate = 3 3 2\n"
            "seed = 91\n"
            "rescale_interval = 4\n"
            "thermalize = 300\n" +
            stage_line + "\n",
        "stage_test.deck");
    deck.set("thermo", base + tag + ".thermo.csv");
    deck.set("thermo_every", "1");
    const auto result = run_scenario(scenario_from_deck(deck));
    return result.thermo_path;
  };
  const auto eq_path = run_kind("equilibrate = 200 10", "eq");
  const auto qu_path = run_kind("quench = 200 10", "qu");
  const auto eq = io::read_thermo_csv_file(eq_path);
  const auto qu = io::read_thermo_csv_file(qu_path);
  ASSERT_EQ(eq.size(), qu.size());
  for (std::size_t k = 0; k < eq.size(); ++k) {
    EXPECT_EQ(eq[k].step, qu[k].step);
    EXPECT_EQ(eq[k].total_energy, qu[k].total_energy) << "step "
                                                      << eq[k].step;
    EXPECT_EQ(eq[k].temperature, qu[k].temperature) << "step " << eq[k].step;
  }
  std::remove(eq_path.c_str());
  std::remove(qu_path.c_str());
}

TEST(ResolveOutputPath, AbsolutePathsPassThroughUntouched) {
  const std::string abs = ::testing::TempDir() + "wsmd_paths_abs.csv";
  EXPECT_EQ(resolve_output_path(abs, "somewhere/else"),
            fs::path(abs).lexically_normal().string());
  EXPECT_EQ(resolve_output_path(abs, ""),
            fs::path(abs).lexically_normal().string());
}

TEST(ResolveOutputPath, DotPrefixedRelativePathsJoinCleanly) {
  const std::string dir = ::testing::TempDir() + "wsmd_paths_dot";
  const auto resolved = resolve_output_path("./x.csv", dir);
  EXPECT_EQ(resolved, (fs::path(dir) / "x.csv").lexically_normal().string())
      << "the './' must not survive the join";
  fs::remove_all(dir);
}

TEST(ResolveOutputPath, NestedRelativeOutputsCreateParents) {
  const std::string dir = ::testing::TempDir() + "wsmd_paths_nested";
  fs::remove_all(dir);
  const auto resolved = resolve_output_path("a/b/c.csv", dir);
  EXPECT_EQ(resolved,
            (fs::path(dir) / "a" / "b" / "c.csv").lexically_normal().string());
  EXPECT_TRUE(fs::is_directory(fs::path(dir) / "a" / "b"))
      << "parent directories must exist so the writer can open the file";
  fs::remove_all(dir);
}

TEST(ResolveOutputPath, EmptyStaysEmpty) {
  EXPECT_EQ(resolve_output_path("", "out"), "");
}

bool dev_full_writable() { return std::ofstream("/dev/full").good(); }

TEST(FullDisk, ThermoAndSummaryWritesFailTheRun) {
  if (!dev_full_writable()) GTEST_SKIP() << "/dev/full cannot be opened";
  for (const char* key : {"thermo", "summary"}) {
    Deck deck = parse_deck_string(
        "name = full_disk\n"
        "element = Ta\n"
        "geometry = slab\n"
        "replicate = 3 3 2\n"
        "seed = 5\n"
        "thermalize = 300\n"
        "run = 10\n",
        "full_disk.deck");
    deck.set(key, "/dev/full");
    try {
      run_scenario(scenario_from_deck(deck));
      ADD_FAILURE() << key << " on a full disk must fail the run";
    } catch (const WriteError& ex) {
      EXPECT_EQ(ex.path(), "/dev/full") << key;
    }
  }
}

TEST(FullDisk, WsmdExitsOne) {
  if (!dev_full_writable()) GTEST_SKIP() << "/dev/full cannot be opened";
  // The wsmd binary is built next to the test executables.
  const fs::path wsmd =
      fs::read_symlink("/proc/self/exe").parent_path() / "wsmd";
  if (!fs::exists(wsmd)) GTEST_SKIP() << "no wsmd binary at " << wsmd;
  for (const char* key : {"thermo", "summary"}) {
    const std::string cmd =
        wsmd.string() +
        " --quiet element=Ta geometry=slab 'replicate=3 3 2' seed=5"
        " thermalize=300 run=10 " +
        key + "=/dev/full 2>/dev/null";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << key;
    EXPECT_EQ(WEXITSTATUS(status), 1) << key;
  }
}

TEST(FullDisk, TraceAndMetricsExportsFailTheRun) {
  // Exports small enough to sit in their stream's buffer until the final
  // flush must still fail the run when that flush does not reach the file:
  // a WriteError naming it, and `wsmd` exits 1 without a C++ source line.
  if (!dev_full_writable()) GTEST_SKIP() << "/dev/full cannot be opened";
  const fs::path wsmd =
      fs::read_symlink("/proc/self/exe").parent_path() / "wsmd";
  const fs::path dir = fs::temp_directory_path() / "wsmd_full_export";
  for (const std::string key : {"trace", "metrics"}) {
    const std::string spec =
        "name = full_export\n"
        "element = Ta\n"
        "geometry = slab\n"
        "replicate = 3 3 2\n"
        "seed = 5\n"
        "thermalize = 300\n"
        "run = 5\n"
        "telemetry." +
        key + " = /dev/full\n";
    try {
      run_scenario(scenario_from_deck(parse_deck_string(spec, "export.deck")));
      ADD_FAILURE() << key << " on a full disk must fail the run";
    } catch (const WriteError& ex) {
      EXPECT_EQ(ex.path(), "/dev/full") << key;
    }
    if (!fs::exists(wsmd)) continue;
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string deck = (dir / "export.deck").string();
    const std::string err = (dir / "stderr.txt").string();
    std::ofstream(deck) << spec;
    const int status = std::system(
        (wsmd.string() + " --quiet " + deck + " 2>" + err + " >/dev/null")
            .c_str());
    ASSERT_TRUE(WIFEXITED(status)) << key;
    EXPECT_EQ(WEXITSTATUS(status), 1) << key;
    std::ifstream in(err);
    const std::string message{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
    EXPECT_NE(message.find("/dev/full"), std::string::npos) << message;
    EXPECT_EQ(message.find("requirement failed"), std::string::npos)
        << message;
  }
  fs::remove_all(dir);
}

/// A temp directory whose `<prefix>.rdf.csv` and `<prefix>.analysis.rdf.csv`
/// are symlinks to /dev/full: the rdf probe stream of a run (and of an
/// offline replay) with `observe.prefix = <dir>/fd` opens fine and fails
/// when it flushes its table.
struct FullProbeDir {
  FullProbeDir() : dir(fs::temp_directory_path() / "wsmd_full_probe") {
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::create_symlink("/dev/full", dir / "fd.rdf.csv");
    fs::create_symlink("/dev/full", dir / "fd.analysis.rdf.csv");
  }
  ~FullProbeDir() { fs::remove_all(dir); }
  std::string prefix() const { return (dir / "fd").string(); }
  fs::path dir;
};

constexpr const char* kProbeDeck =
    "name = full_probe\n"
    "element = Ta\n"
    "geometry = slab\n"
    "replicate = 3 3 2\n"
    "seed = 5\n"
    "thermalize = 300\n"
    "run = 10\n"
    "observe.probes = rdf\n"
    "observe.every = 5\n";

TEST(FullDisk, ProbeStreamFailsTheRunAndTheReplay) {
  if (!dev_full_writable()) GTEST_SKIP() << "/dev/full cannot be opened";
  const FullProbeDir full;
  Deck deck = parse_deck_string(kProbeDeck, "full_probe.deck");
  deck.set("observe.prefix", full.prefix());
  deck.set("xyz", (full.dir / "traj.xyz").string());
  deck.set("xyz_every", "5");
  const Scenario sc = scenario_from_deck(deck);
  try {
    run_scenario(sc);
    ADD_FAILURE() << "an rdf stream on a full disk must fail the run";
  } catch (const WriteError& ex) {
    EXPECT_EQ(ex.path(), full.prefix() + ".rdf.csv");
  }
  // The trajectory was written in full before the probes were checked.
  try {
    analyze_trajectory(sc, (full.dir / "traj.xyz").string());
    ADD_FAILURE() << "an rdf stream on a full disk must fail the replay";
  } catch (const WriteError& ex) {
    EXPECT_EQ(ex.path(), full.prefix() + ".analysis.rdf.csv");
  }
}

TEST(FullDisk, WsmdExitsOneOnAFailedProbeStream) {
  if (!dev_full_writable()) GTEST_SKIP() << "/dev/full cannot be opened";
  const fs::path wsmd =
      fs::read_symlink("/proc/self/exe").parent_path() / "wsmd";
  if (!fs::exists(wsmd)) GTEST_SKIP() << "no wsmd binary at " << wsmd;
  const FullProbeDir full;
  const std::string deck = (full.dir / "full_probe.deck").string();
  std::ofstream(deck) << kProbeDeck << "observe.prefix = " << full.prefix()
                      << "\nxyz = " << (full.dir / "traj.xyz").string()
                      << "\nxyz_every = 5\n";
  const int run = std::system((wsmd.string() + " --quiet " + deck +
                               " 2>/dev/null >/dev/null")
                                  .c_str());
  ASSERT_TRUE(WIFEXITED(run));
  EXPECT_EQ(WEXITSTATUS(run), 1);
  const int replay =
      std::system((wsmd.string() + " analyze " + deck + " " +
                   (full.dir / "traj.xyz").string() + " 2>/dev/null >/dev/null")
                      .c_str());
  ASSERT_TRUE(WIFEXITED(replay));
  EXPECT_EQ(WEXITSTATUS(replay), 1);
}

}  // namespace
}  // namespace wsmd::scenario
