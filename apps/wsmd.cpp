/// \file wsmd.cpp
/// `wsmd` — the scenario driver CLI.
///
/// One production binary over the engine library (the ACEMD pattern): a
/// scenario is a declarative deck file and/or `key=value` overrides, and
/// the driver runs it end-to-end on any backend, streaming trajectory and
/// thermo output and finishing with a machine-readable summary.
///
///   $ wsmd scenarios/cu_slab.deck
///   $ wsmd scenarios/cu_slab.deck backend=sharded:4 thermo=out.csv
///   $ wsmd element=Ta geometry=slab scale=32 thermalize=300 run=50
///   $ wsmd --print scenarios/ta_grain_boundary.deck
///
/// The `analyze` subcommand replays a deck's `observe.*` probes offline
/// over a saved XYZ trajectory (no engine run):
///
///   $ wsmd analyze scenarios/cu_gb_mobility.deck run/cu_gb.traj.xyz
///
/// The `resume` subcommand continues a checkpointed run (io/checkpoint)
/// from its saved mid-stage cursor — the checkpoint is self-contained (the
/// effective deck travels inside it), so no deck file is needed:
///
///   $ wsmd scenarios/cu_slab.deck checkpoint.every=10
///   $ wsmd resume cu_slab.ckpt --output-dir=resumed
///
/// The `report` subcommand runs a deck with telemetry armed and prints a
/// measured-vs-modeled per-phase cost table (src/telemetry/report),
/// followed by the wafer engine's shortlist rebuild count:
///
///   $ wsmd report scenarios/cu_gb_mobility.deck
///   $ wsmd report --html scenarios/cu_gb_mobility.deck
///
/// Exit status: 0 on success, 1 on any error (bad deck, unknown key,
/// engine failure, I/O failure), 2 when an abort-configured health
/// detector tripped (the diagnostic bundle was written first; a stall
/// abort exits 3 from the watchdog thread), 130 on SIGINT/SIGTERM (the
/// telemetry exports are finalized before exiting).

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eam/lennard_jones.hpp"
#include "eam/zhou.hpp"
#include "io/checkpoint.hpp"
#include "scenario/analyze.hpp"
#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/dashboard.hpp"
#include "telemetry/health.hpp"
#include "telemetry/report.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "wsmd — wafer-scale MD scenario driver\n"
               "\n"
               "usage: wsmd [options] [deck ...] [key=value ...]\n"
               "       wsmd analyze [options] DECK TRAJECTORY.xyz "
               "[key=value ...]\n"
               "       wsmd resume [options] CHECKPOINT [key=value ...]\n"
               "       wsmd report [options] [deck ...] [key=value ...]\n"
               "\n"
               "Runs each deck (plus overrides) end-to-end on the selected\n"
               "backend. With no deck, a scenario is built from key=value\n"
               "tokens alone. `wsmd analyze` instead replays the deck's\n"
               "observe.* probes offline over a saved XYZ trajectory.\n"
               "`wsmd resume` continues a checkpointed run (written via\n"
               "checkpoint.every / checkpoint.path) from its saved\n"
               "mid-stage cursor; outputs restart at the resume step, so\n"
               "point --output-dir somewhere fresh to keep the partial\n"
               "originals. Output/backend overrides are accepted;\n"
               "schedule or structure overrides are rejected.\n"
               "`wsmd report` runs a deck with telemetry armed and prints\n"
               "a measured-vs-modeled per-phase cost table (wafer cost\n"
               "model; a reference-backend deck is promoted to sharded:2\n"
               "unless --backend= says otherwise) and the wafer\n"
               "candidate-shortlist rebuild count.\n"
               "\n"
               "options:\n"
               "  --set key=value   scenario override (same as a bare\n"
               "                    key=value argument)\n"
               "  --backend=B       backend override for every run\n"
               "                    (reference|reference:N|wafer|sharded|\n"
               "                    sharded:N|ranks:M|ranks:MxN — wafer\n"
               "                    is sharded:1; ranks: forks M rank\n"
               "                    processes with ghost-halo exchange,\n"
               "                    optionally N shard threads each)\n"
               "  --output-dir=DIR  prefix for relative output paths\n"
               "  --print           parse and show the effective scenario,\n"
               "                    do not run\n"
               "  --quiet           suppress progress output\n"
               "  --trace[=PATH]    write a chrome://tracing trace-event\n"
               "                    JSON (default <name>.trace.json); same\n"
               "                    as telemetry.trace=auto|PATH\n"
               "  --metrics[=PATH]  write span/counter aggregates as JSONL\n"
               "                    (default <name>.metrics.jsonl); same\n"
               "                    as telemetry.metrics=auto|PATH\n"
               "  --progress        stderr heartbeat (step/total, ns/day,\n"
               "                    ETA) on a wall-clock interval; only\n"
               "                    when stderr is a TTY (--progress=force\n"
               "                    overrides)\n"
               "  --progress-interval=S\n"
               "                    seconds between heartbeats (default 1;\n"
               "                    0 reports after every step)\n"
               "  --html[=PATH]     (report) also render a self-contained\n"
               "                    HTML dashboard — snapshot time series,\n"
               "                    cost table, shard-load histogram\n"
               "                    (default <name>.dashboard.html)\n"
               "  --list-elements   show available Zhou parameter sets\n"
               "  --help            this text\n"
               "\n"
               "deck keys: name element pair_style geometry scale replicate\n"
               "  vacancy_fraction tilt_angle_deg gb_atoms backend dt\n"
               "  swap_interval rescale_interval seed thermalize\n"
               "  equilibrate ramp quench run xyz xyz_every thermo\n"
               "  thermo_every thermo_format summary checkpoint.every\n"
               "  checkpoint.path telemetry.trace telemetry.metrics\n"
               "  telemetry.snapshot\n"
               "distributed keys (ranks: backends only):\n"
               "  dist.timeout dist.kill_rank dist.kill_step\n"
               "  (dist.transport = shm|socket is a legacy key: accepted,\n"
               "  selects nothing — halos always ride shared memory)\n"
               "legacy keys: potential = tabulated is accepted and selects\n"
               "  nothing (engines evaluate the profile tables only);\n"
               "  potential = analytic is rejected (the path was removed)\n"
               "health keys (run-health watchdog; warn|abort|off):\n"
               "  health.nan health.energy_drift health.energy_band\n"
               "  health.temperature health.temperature_band health.stall\n"
               "  health.stall_timeout health.thermo_tail health.bundle\n"
               "  health.inject_nan\n"
               "observable keys: observe.probes (rdf msd vacf defects)\n"
               "  observe.every observe.<probe>_every observe.format\n"
               "  observe.prefix observe.rdf_rcut observe.rdf_bins\n"
               "  observe.csp_threshold observe.gb_axis\n");
}

void print_scenario(const wsmd::scenario::Scenario& sc) {
  using wsmd::format;
  std::printf("scenario %s:\n", sc.name.c_str());
  std::printf("  element   = %s (%s)\n", sc.element.c_str(),
              sc.pair_style.c_str());
  std::printf("  geometry  = %s\n", sc.geometry.c_str());
  if (sc.replicate[0] > 0) {
    std::printf("  replicate = %d %d %d\n", sc.replicate[0], sc.replicate[1],
                sc.replicate[2]);
  } else if (sc.geometry != "grain_boundary") {
    std::printf("  scale     = %d (paper slab / scale)\n", sc.scale);
  }
  if (sc.geometry == "grain_boundary") {
    std::printf("  tilt      = %.4g deg, ~%zu atoms\n", sc.tilt_angle_deg,
                sc.gb_target_atoms);
  }
  if (sc.vacancy_fraction > 0.0) {
    std::printf("  vacancies = %.4g\n", sc.vacancy_fraction);
  }
  std::printf("  backend   = %s\n", sc.backend.c_str());
  std::printf("  dt        = %.4g ps, seed = %llu\n", sc.dt,
              static_cast<unsigned long long>(sc.seed));
  if (sc.swap_interval > 0) {
    std::printf("  atom swap every %d steps (wafer backends)\n",
                sc.swap_interval);
  }
  std::printf("  schedule  (%ld steps total):\n", sc.total_steps());
  for (const auto& st : sc.schedule) {
    using Kind = wsmd::scenario::Stage::Kind;
    switch (st.kind) {
      case Kind::kThermalize:
        std::printf("    thermalize  %.5g K\n", st.t0);
        break;
      case Kind::kRamp:
        std::printf("    ramp        %.5g -> %.5g K, %ld steps\n", st.t0,
                    st.t1, st.steps);
        break;
      case Kind::kRun:
        std::printf("    run         %ld steps (NVE)\n", st.steps);
        break;
      default:
        std::printf("    %-11s %.5g K, %ld steps\n", st.name(), st.t0,
                    st.steps);
        break;
    }
  }
  if (!sc.xyz_path.empty()) {
    std::printf("  xyz       = %s (every %ld steps)\n", sc.xyz_path.c_str(),
                sc.xyz_every);
  }
  if (!sc.thermo_path.empty()) {
    std::printf("  thermo    = %s (%s, every %ld steps)\n",
                sc.thermo_path.c_str(), sc.thermo_format.c_str(),
                sc.thermo_every);
  }
  if (!sc.summary_path.empty()) {
    std::printf("  summary   = %s\n", sc.summary_path.c_str());
  }
  if (sc.checkpoint_every > 0) {
    std::printf("  checkpoint= %s (every %ld steps)\n",
                sc.checkpoint_path.c_str(), sc.checkpoint_every);
  }
  if (sc.observe.enabled()) {
    std::printf("  observe   =");
    for (const auto& kind : sc.observe.probes) {
      std::printf(" %s(every %ld)", kind.c_str(),
                  sc.observe.cadence_for(kind));
    }
    std::printf(" -> %s.<probe>.%s\n",
                sc.observe.effective_prefix(sc.name).c_str(),
                sc.observe.format.c_str());
  }
}

/// The --progress heartbeat: one \r-rewritten stderr status line per
/// report, finished with a newline on the run's final report so the next
/// shell prompt stays clean.
std::function<void(const wsmd::scenario::ProgressInfo&)> progress_printer() {
  return [](const wsmd::scenario::ProgressInfo& p) {
    const double pct =
        p.total_steps > 0
            ? 100.0 * static_cast<double>(p.step) /
                  static_cast<double>(p.total_steps)
            : 100.0;
    const long eta = static_cast<long>(p.eta_seconds + 0.5);
    std::fprintf(stderr,
                 "\rstep %ld/%ld (%5.1f%%)  %.3g ns/day  ETA %02ld:%02ld:%02ld",
                 p.step, p.total_steps, pct, p.ns_per_day, eta / 3600,
                 (eta / 60) % 60, eta % 60);
    if (p.final) {
      std::fprintf(stderr, "\n");
    } else {
      std::fflush(stderr);
    }
  };
}

/// Parse --progress / --progress=force / --progress-interval=S into
/// RunOptions. The heartbeat is only armed when stderr is a TTY (a
/// redirected run must not fill its log with \r lines) unless forced;
/// the interval is wall-clock seconds between reports.
bool parse_progress_flag(const std::string& arg,
                         wsmd::scenario::RunOptions& opt) {
  if (wsmd::starts_with(arg, "--progress-interval=")) {
    const std::string value = arg.substr(20);
    double seconds = 0.0;
    WSMD_REQUIRE(wsmd::parse_double_strict(value, seconds) && seconds >= 0.0,
                 "bad --progress-interval '" << value
                                             << "' (want seconds >= 0)");
    opt.progress_interval_s = seconds;
    return true;
  }
  if (arg != "--progress" && arg != "--progress=force") return false;
  if (arg == "--progress=force" || isatty(fileno(stderr)) != 0) {
    opt.progress = progress_printer();
  }
  return true;
}

/// SIGINT/SIGTERM request a cooperative stop: the step loop unwinds at
/// the next step boundary after finalizing the telemetry exports
/// (request_interrupt is a relaxed atomic store — async-signal-safe).
/// Re-registering keeps System-V-style signal() semantics from resetting
/// the disposition after the first delivery; a wedged run that never
/// reaches a step boundary is the stall watchdog's job, not the signal's.
extern "C" void handle_stop_signal(int sig) {
  wsmd::scenario::request_interrupt();
  std::signal(sig, handle_stop_signal);
}

/// Parse --trace[=PATH] / --metrics[=PATH] into a telemetry.* deck
/// override (so the flag and the deck key cannot drift).
bool parse_telemetry_flag(const std::string& arg,
                          std::vector<wsmd::scenario::DeckEntry>& overrides) {
  using wsmd::scenario::DeckEntry;
  using wsmd::starts_with;
  if (arg == "--trace") {
    overrides.push_back(DeckEntry{"telemetry.trace", "auto", 0});
  } else if (starts_with(arg, "--trace=")) {
    overrides.push_back(DeckEntry{"telemetry.trace", arg.substr(8), 0});
  } else if (arg == "--metrics") {
    overrides.push_back(DeckEntry{"telemetry.metrics", "auto", 0});
  } else if (starts_with(arg, "--metrics=")) {
    overrides.push_back(DeckEntry{"telemetry.metrics", arg.substr(10), 0});
  } else {
    return false;
  }
  return true;
}

int run_report(int argc, char** argv) {
  using namespace wsmd;
  std::vector<std::string> decks;
  std::vector<scenario::DeckEntry> overrides;
  scenario::RunOptions opt;
  opt.collect_telemetry = true;  // the report needs measured span totals
  bool quiet = false;
  bool html = false;
  std::string html_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--html") {
      html = true;
    } else if (starts_with(arg, "--html=")) {
      html = true;
      html_path = arg.substr(7);
      WSMD_REQUIRE(!html_path.empty(), "--html= needs a file path");
    } else if (arg == "--set") {
      WSMD_REQUIRE(i + 1 < argc, "--set needs a key=value argument");
      overrides.push_back(scenario::parse_override(argv[++i]));
    } else if (starts_with(arg, "--set=")) {
      overrides.push_back(scenario::parse_override(arg.substr(6)));
    } else if (starts_with(arg, "--backend=")) {
      opt.backend_override = arg.substr(10);
      scenario::parse_backend(opt.backend_override);  // validate now
      WSMD_REQUIRE(opt.backend_override != "reference",
                   "wsmd report joins measured time against the wafer cost "
                   "model, which the reference backend does not have — use "
                   "wafer, sharded[:N], or ranks:M[xN]");
    } else if (starts_with(arg, "--output-dir=")) {
      opt.output_dir = arg.substr(13);
    } else if (parse_telemetry_flag(arg, overrides)) {
      // handled
    } else if (parse_progress_flag(arg, opt)) {
      // handled
    } else if (starts_with(arg, "--")) {
      WSMD_REQUIRE(false, "unknown report option '" << arg << "'");
    } else if (arg.find('=') != std::string::npos) {
      overrides.push_back(scenario::parse_override(arg));
    } else {
      decks.push_back(arg);
    }
  }
  WSMD_REQUIRE(!decks.empty() || !overrides.empty(),
               "report wants a deck file or key=value overrides");
  if (!quiet) {
    opt.log = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
  }
  if (decks.empty()) decks.push_back("");
  for (const auto& path : decks) {
    scenario::Deck deck = path.empty()
                              ? scenario::Deck{"<cli>", {}, }
                              : scenario::parse_deck_file(path);
    for (const auto& o : overrides) deck.set(o.key, o.value);
    // Fold --backend= into the deck before validation: dist.* keys are
    // eagerly rejected off a ranks: backend, and the check must see the
    // backend the run will actually use.
    if (!opt.backend_override.empty()) {
      deck.set("backend", opt.backend_override);
    }
    if (html && !deck.has("telemetry.snapshot")) {
      // The dashboard's time series come from interval snapshots; arm a
      // tight cadence so even short report runs chart a few points.
      deck.set("telemetry.snapshot", "0.02");
    }
    const auto sc = scenario::scenario_from_deck(deck);
    scenario::RunOptions run_opt = opt;
    if (run_opt.backend_override.empty() && sc.backend == "reference") {
      // The report needs a backend with a cost model; promote the deck's
      // reference default rather than erroring out.
      run_opt.backend_override = "sharded:2";
      if (!quiet) {
        std::printf(
            "report: deck backend is 'reference' (no cost model); running "
            "on sharded:2 — pass --backend= to choose another\n");
      }
    }
    const auto result = scenario::run_scenario(sc, run_opt);
    WSMD_REQUIRE(result.modeled.valid,
                 "backend '" << result.backend_name
                             << "' produced no cost-model breakdown");
    std::printf("\n%s%s",
                telemetry::format_cost_report(
                    telemetry::build_cost_report(result.modeled))
                    .c_str(),
                telemetry::format_shortlist_summary().c_str());
    if (html) {
      telemetry::DashboardInput din;
      din.title = result.scenario;
      din.backend = result.backend_name;
      din.atoms = result.structure.atoms;
      din.total_steps = result.total_steps;
      din.wall_seconds = result.wall_seconds;
      din.dt_ps = sc.dt;
      din.snapshots = result.snapshots;
      din.cost = telemetry::build_cost_report(result.modeled);
      const std::string out = scenario::resolve_output_path(
          html_path.empty() ? sc.name + ".dashboard.html" : html_path,
          run_opt.output_dir);
      telemetry::write_dashboard_html(out, din);
      std::printf("dashboard -> %s (%zu snapshot%s)\n", out.c_str(),
                  result.snapshots.size(),
                  result.snapshots.size() == 1 ? "" : "s");
    }
  }
  return 0;
}

int run_analyze(int argc, char** argv) {
  using namespace wsmd;
  std::vector<std::string> paths;
  std::vector<scenario::DeckEntry> overrides;
  scenario::AnalyzeOptions opt;
  bool quiet = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--set") {
      WSMD_REQUIRE(i + 1 < argc, "--set needs a key=value argument");
      overrides.push_back(scenario::parse_override(argv[++i]));
    } else if (starts_with(arg, "--set=")) {
      overrides.push_back(scenario::parse_override(arg.substr(6)));
    } else if (starts_with(arg, "--output-dir=")) {
      opt.output_dir = arg.substr(13);
    } else if (starts_with(arg, "--")) {
      WSMD_REQUIRE(false, "unknown analyze option '" << arg << "'");
    } else if (arg.find('=') != std::string::npos) {
      overrides.push_back(scenario::parse_override(arg));
    } else {
      paths.push_back(arg);
    }
  }
  WSMD_REQUIRE(paths.size() == 2,
               "analyze wants exactly a deck and a trajectory, got "
                   << paths.size() << " path argument(s)");
  if (!quiet) {
    opt.log = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
  }
  scenario::Deck deck = scenario::parse_deck_file(paths[0]);
  for (const auto& o : overrides) deck.set(o.key, o.value);
  scenario::analyze_trajectory(scenario::scenario_from_deck(deck), paths[1],
                               opt);
  return 0;
}

int run_resume(int argc, char** argv) {
  using namespace wsmd;
  std::vector<std::string> paths;
  std::vector<scenario::DeckEntry> overrides;
  scenario::RunOptions opt;
  bool quiet = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--set") {
      WSMD_REQUIRE(i + 1 < argc, "--set needs a key=value argument");
      overrides.push_back(scenario::parse_override(argv[++i]));
    } else if (starts_with(arg, "--set=")) {
      overrides.push_back(scenario::parse_override(arg.substr(6)));
    } else if (starts_with(arg, "--backend=")) {
      opt.backend_override = arg.substr(10);
      scenario::parse_backend(opt.backend_override);  // validate now
    } else if (starts_with(arg, "--output-dir=")) {
      opt.output_dir = arg.substr(13);
    } else if (starts_with(arg, "--")) {
      WSMD_REQUIRE(false, "unknown resume option '" << arg << "'");
    } else if (arg.find('=') != std::string::npos) {
      overrides.push_back(scenario::parse_override(arg));
    } else {
      paths.push_back(arg);
    }
  }
  WSMD_REQUIRE(paths.size() == 1,
               "resume wants exactly one checkpoint file, got "
                   << paths.size() << " path argument(s)");
  if (!quiet) {
    opt.log = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
  }
  const auto ckpt = io::read_checkpoint_file(paths[0]);
  // The checkpoint's embedded deck (the original run's effective
  // scenario, CLI overrides included) plus this invocation's overrides.
  scenario::Deck deck =
      scenario::deck_from_entries(ckpt.deck, paths[0] + " (embedded deck)");
  for (const auto& o : overrides) deck.set(o.key, o.value);
  // Fold --backend= into the deck before validation, as run and report
  // do: dist.* keys are rejected off a ranks: backend, and the check must
  // see the backend the resumed run will use.
  if (!opt.backend_override.empty()) {
    deck.set("backend", opt.backend_override);
  }
  // A ranks: checkpoint resumes on any backend: off ranks:, drop the
  // embedded dist.* entries (they configured the ranks that wrote it). A
  // dist.* override (line 0) stays and keeps its typed error.
  if (scenario::parse_backend(deck.get("backend", "reference")).backend !=
      engine::Backend::kRanks) {
    std::erase_if(deck.entries, [](const scenario::DeckEntry& e) {
      return e.line > 0 && starts_with(e.key, "dist.");
    });
  }
  scenario::resume_scenario(scenario::scenario_from_deck(deck), ckpt, opt);
  return 0;
}

/// Shared subcommand guard, mapping the runner's structured failures to
/// distinct exit codes: 2 = health abort (bundle already on disk),
/// 130 = interrupted by SIGINT/SIGTERM (exports finalized), 1 = any
/// other error.
template <typename Fn>
int guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const wsmd::telemetry::HealthAbortError& ex) {
    std::fprintf(stderr, "wsmd: %s\n", ex.what());
    return 2;
  } catch (const wsmd::scenario::InterruptedError& ex) {
    std::fprintf(stderr, "wsmd: %s\n", ex.what());
    return 130;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "wsmd: error: %s\n", ex.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsmd;

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  if (argc > 1 && std::strcmp(argv[1], "analyze") == 0) {
    return guarded([&] { return run_analyze(argc - 2, argv + 2); });
  }
  if (argc > 1 && std::strcmp(argv[1], "resume") == 0) {
    return guarded([&] { return run_resume(argc - 2, argv + 2); });
  }
  if (argc > 1 && std::strcmp(argv[1], "report") == 0) {
    return guarded([&] { return run_report(argc - 2, argv + 2); });
  }

  std::vector<std::string> decks;
  std::vector<scenario::DeckEntry> overrides;
  scenario::RunOptions opt;
  bool print_only = false;
  bool quiet = false;

  return guarded([&] {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        print_usage(stdout);
        return 0;
      } else if (arg == "--list-elements") {
        for (const auto& el : eam::zhou_available_elements()) {
          const auto p = eam::zhou_parameters(el);
          std::printf("%-3s %s  a = %.4f A  (pair_style=eam)\n", el.c_str(),
                      p.structure.c_str(), p.lattice_constant());
        }
        for (const auto& el : eam::lj_available_elements()) {
          const auto m = eam::lj_parameters(el);
          std::printf("%-3s %s  a = %.4f A  (pair_style=lj)\n", el.c_str(),
                      m.structure.c_str(), m.lattice_constant());
        }
        return 0;
      } else if (arg == "--print") {
        print_only = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else if (arg == "--set") {
        WSMD_REQUIRE(i + 1 < argc, "--set needs a key=value argument");
        overrides.push_back(scenario::parse_override(argv[++i]));
      } else if (starts_with(arg, "--set=")) {
        overrides.push_back(scenario::parse_override(arg.substr(6)));
      } else if (starts_with(arg, "--backend=")) {
        opt.backend_override = arg.substr(10);
        scenario::parse_backend(opt.backend_override);  // validate now
      } else if (starts_with(arg, "--output-dir=")) {
        opt.output_dir = arg.substr(13);
      } else if (parse_telemetry_flag(arg, overrides)) {
        // handled
      } else if (parse_progress_flag(arg, opt)) {
        // handled
      } else if (starts_with(arg, "--")) {
        WSMD_REQUIRE(false, "unknown option '" << arg << "'");
      } else if (arg.find('=') != std::string::npos) {
        overrides.push_back(scenario::parse_override(arg));
      } else {
        decks.push_back(arg);
      }
    }

    if (decks.empty() && overrides.empty()) {
      print_usage(stderr);
      return 1;
    }
    if (!quiet) {
      opt.log = [](const std::string& line) {
        std::printf("%s\n", line.c_str());
      };
    }

    // No deck file: the overrides alone are the deck.
    if (decks.empty()) decks.push_back("");

    for (const auto& path : decks) {
      scenario::Deck deck =
          path.empty() ? scenario::Deck{"<cli>", {}, }
                       : scenario::parse_deck_file(path);
      for (const auto& o : overrides) deck.set(o.key, o.value);
      // Fold --backend= into the deck before validation: dist.* keys are
      // eagerly rejected off a ranks: backend, and the check must see the
      // backend the run will actually use. This also makes --print show
      // the effective scenario directly.
      if (!opt.backend_override.empty()) {
        deck.set("backend", opt.backend_override);
      }
      auto sc = scenario::scenario_from_deck(deck);
      if (print_only) {
        print_scenario(sc);
        continue;
      }
      scenario::run_scenario(sc, opt);
    }
    return 0;
  });
}
