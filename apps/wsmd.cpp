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
               "  --print           print the canonical deck (the one a\n"
               "                    checkpoint embeds; save it and it\n"
               "                    runs), do not run\n"
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
               "deck keys, in canonical-deck order (`key = value` lines,\n"
               "or key=value overrides):\n");
  for (const auto& key : wsmd::scenario::deck_keys()) {
    std::fprintf(out, "  %-23s %s\n", key.name.c_str(), key.doc.c_str());
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
    if (!wsmd::parse_double_strict(value, seconds) || seconds < 0.0) {
      throw wsmd::Error(wsmd::format(
          "bad --progress-interval '%s' (want seconds >= 0)", value.c_str()));
    }
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

/// The options a subcommand takes beyond the shared ones (--help, --quiet,
/// --set, --output-dir=, key=value and positional arguments).
enum Accepts : unsigned {
  kBackendFlag = 1u << 0,    ///< --backend=
  kTelemetryFlags = 1u << 1, ///< --trace[=PATH], --metrics[=PATH]
  kProgressFlags = 1u << 2,  ///< --progress[=force], --progress-interval=
  kPrintFlags = 1u << 3,     ///< --print, --list-elements
  kHtmlFlag = 1u << 4,       ///< --html[=PATH]
};

/// One parsed command line.
struct Cli {
  /// --backend=, --output-dir=, --progress*; `log` prints unless --quiet.
  wsmd::scenario::RunOptions run;
  /// key=value, --set, --trace, --metrics, in command-line order.
  std::vector<wsmd::scenario::DeckEntry> overrides;
  std::vector<std::string> paths;  ///< positional arguments
  bool quiet = false;
  bool help = false;           ///< --help: print the usage, nothing else
  bool list_elements = false;  ///< --list-elements: likewise
  bool print = false;
  bool html = false;
  std::string html_path;
};

/// The one argument loop of every subcommand. `command` prefixes the
/// unknown-option error ("report ", "" for a plain run); an option outside
/// `accepts` is unknown.
Cli parse_cli(int argc, char** argv, const char* command, unsigned accepts) {
  using namespace wsmd;
  Cli cli;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
      return cli;
    } else if ((accepts & kPrintFlags) && arg == "--list-elements") {
      cli.list_elements = true;
      return cli;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (arg == "--set") {
      if (i + 1 >= argc) throw Error("--set needs a key=value argument");
      cli.overrides.push_back(scenario::parse_override(argv[++i]));
    } else if (starts_with(arg, "--set=")) {
      cli.overrides.push_back(scenario::parse_override(arg.substr(6)));
    } else if (starts_with(arg, "--output-dir=")) {
      cli.run.output_dir = arg.substr(13);
    } else if ((accepts & kBackendFlag) && starts_with(arg, "--backend=")) {
      // Validated with the deck it is folded into (assemble_deck).
      cli.run.backend_override = arg.substr(10);
    } else if ((accepts & kTelemetryFlags) &&
               parse_telemetry_flag(arg, cli.overrides)) {
      // handled
    } else if ((accepts & kProgressFlags) && parse_progress_flag(arg, cli.run)) {
      // handled
    } else if ((accepts & kPrintFlags) && arg == "--print") {
      cli.print = true;
    } else if ((accepts & kHtmlFlag) && arg == "--html") {
      cli.html = true;
    } else if ((accepts & kHtmlFlag) && starts_with(arg, "--html=")) {
      cli.html = true;
      cli.html_path = arg.substr(7);
      if (cli.html_path.empty()) throw Error("--html= needs a file path");
    } else if (starts_with(arg, "--")) {
      throw Error(format("unknown %soption '%s'", command, arg.c_str()));
    } else if (arg.find('=') != std::string::npos) {
      cli.overrides.push_back(scenario::parse_override(arg));
    } else {
      cli.paths.push_back(arg);
    }
  }
  if (!cli.quiet) {
    cli.run.log = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
  }
  return cli;
}

/// The deck a subcommand validates and runs: `base`, then the overrides,
/// then --backend= folded in before validation — dist.* keys are eagerly
/// rejected off a ranks: backend, and the check must see the backend the
/// run will actually use. A bad --backend= is blamed as a CLI override.
wsmd::scenario::Deck assemble_deck(wsmd::scenario::Deck base,
                                   const Cli& cli) {
  for (const auto& o : cli.overrides) base.set(o.key, o.value);
  if (!cli.run.backend_override.empty()) {
    base.set("backend", cli.run.backend_override);
  }
  return base;
}

/// A deck file, or for "" the empty deck the overrides alone fill.
wsmd::scenario::Deck read_deck(const std::string& path) {
  return path.empty() ? wsmd::scenario::Deck{"<cli>", {}}
                      : wsmd::scenario::parse_deck_file(path);
}

int run_report(int argc, char** argv) {
  using namespace wsmd;
  Cli cli = parse_cli(argc, argv, "report ",
                      kBackendFlag | kTelemetryFlags | kProgressFlags |
                          kHtmlFlag);
  if (cli.help) {
    print_usage(stdout);
    return 0;
  }
  if (cli.run.backend_override == "reference") {
    throw Error(
        "wsmd report joins measured time against the wafer cost model, "
        "which the reference backend does not have — use wafer, "
        "sharded[:N], or ranks:M[xN]");
  }
  if (cli.paths.empty() && cli.overrides.empty()) {
    throw Error("report wants a deck file or key=value overrides");
  }
  cli.run.collect_telemetry = true;  // the report needs measured span totals
  if (cli.paths.empty()) cli.paths.push_back("");
  for (const auto& path : cli.paths) {
    scenario::Deck deck = assemble_deck(read_deck(path), cli);
    if (cli.html && !deck.has("telemetry.snapshot")) {
      // The dashboard's time series come from interval snapshots; arm a
      // tight cadence so even short report runs chart a few points.
      deck.set("telemetry.snapshot", "0.02");
    }
    const auto sc = scenario::scenario_from_deck(deck);
    scenario::RunOptions run_opt = cli.run;
    if (run_opt.backend_override.empty() && sc.backend == "reference") {
      // The report needs a backend with a cost model; promote the deck's
      // reference default rather than erroring out.
      run_opt.backend_override = "sharded:2";
      if (!cli.quiet) {
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
    if (cli.html) {
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
          cli.html_path.empty() ? sc.name + ".dashboard.html" : cli.html_path,
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
  const Cli cli = parse_cli(argc, argv, "analyze ", 0);
  if (cli.help) {
    print_usage(stdout);
    return 0;
  }
  if (cli.paths.size() != 2) {
    throw Error(format("analyze wants exactly a deck and a trajectory, got "
                       "%zu path argument(s)",
                       cli.paths.size()));
  }
  scenario::AnalyzeOptions opt;
  opt.output_dir = cli.run.output_dir;
  opt.log = cli.run.log;
  scenario::analyze_trajectory(
      scenario::scenario_from_deck(
          assemble_deck(scenario::parse_deck_file(cli.paths[0]), cli)),
      cli.paths[1], opt);
  return 0;
}

int run_resume(int argc, char** argv) {
  using namespace wsmd;
  const Cli cli = parse_cli(argc, argv, "resume ", kBackendFlag);
  if (cli.help) {
    print_usage(stdout);
    return 0;
  }
  if (cli.paths.size() != 1) {
    throw Error(format("resume wants exactly one checkpoint file, got %zu "
                       "path argument(s)",
                       cli.paths.size()));
  }
  const auto ckpt = io::read_checkpoint_file(cli.paths[0]);
  // The checkpoint's embedded deck (the original run's effective
  // scenario, CLI overrides included) plus this invocation's overrides.
  scenario::Deck deck = assemble_deck(
      scenario::deck_from_entries(ckpt.deck,
                                  cli.paths[0] + " (embedded deck)"),
      cli);
  // A ranks: checkpoint resumes on any backend: off ranks:, drop the
  // embedded dist.* entries (they configured the ranks that wrote it). A
  // dist.* override (line 0) stays and keeps its typed error.
  const bool on_ranks = [&deck] {
    try {
      return scenario::parse_backend(deck.get("backend", "reference"))
                 .backend == engine::Backend::kRanks;
    } catch (const Error&) {
      return true;  // scenario_from_deck blames the bad backend's line
    }
  }();
  if (!on_ranks) {
    std::erase_if(deck.entries, [](const scenario::DeckEntry& e) {
      return e.line > 0 && starts_with(e.key, "dist.");
    });
  }
  scenario::resume_scenario(scenario::scenario_from_deck(deck), ckpt, cli.run);
  return 0;
}

/// A plain run: every deck (or the overrides alone) end-to-end, or with
/// --print its canonical deck.
int run_decks(int argc, char** argv) {
  using namespace wsmd;
  Cli cli = parse_cli(argc, argv, "",
                      kBackendFlag | kTelemetryFlags | kProgressFlags |
                          kPrintFlags);
  if (cli.help) {
    print_usage(stdout);
    return 0;
  }
  if (cli.list_elements) {
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
  }
  if (cli.paths.empty() && cli.overrides.empty()) {
    print_usage(stderr);
    return 1;
  }
  // No deck file: the overrides alone are the deck.
  if (cli.paths.empty()) cli.paths.push_back("");
  for (std::size_t i = 0; i < cli.paths.size(); ++i) {
    const auto sc =
        scenario::scenario_from_deck(assemble_deck(read_deck(cli.paths[i]), cli));
    if (!cli.print) {
      scenario::run_scenario(sc, cli.run);
      continue;
    }
    // The canonical deck, the same text a checkpoint embeds: it parses
    // back to the same scenario, so the output can be saved and run.
    if (i > 0) std::printf("\n");
    for (const auto& e : scenario::deck_from_scenario(sc).entries) {
      std::printf("%s = %s\n", e.key.c_str(), e.value.c_str());
    }
  }
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
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "analyze") {
    return guarded([&] { return run_analyze(argc - 2, argv + 2); });
  }
  if (command == "resume") {
    return guarded([&] { return run_resume(argc - 2, argv + 2); });
  }
  if (command == "report") {
    return guarded([&] { return run_report(argc - 2, argv + 2); });
  }
  return guarded([&] { return run_decks(argc - 1, argv + 1); });
}
