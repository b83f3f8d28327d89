#include "scenario/analyze.hpp"

#include "io/xyz.hpp"
#include "util/bench_json.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::scenario {

namespace {

/// Pull the step number out of a frame comment ("... step=N ..."), as
/// written by the runner's trajectory stream. Returns false for foreign
/// trajectories without the token.
bool parse_step_token(const std::string& comment, long& step) {
  for (const auto& token : split_whitespace(comment)) {
    if (starts_with(token, "step=")) {
      return parse_long_strict(token.substr(5), step);
    }
  }
  return false;
}

}  // namespace

AnalyzeResult analyze_trajectory(const Scenario& sc,
                                 const std::string& xyz_path,
                                 const AnalyzeOptions& opt) {
  const auto say = [&opt](const std::string& line) {
    if (opt.log) opt.log(line);
  };
  WSMD_REQUIRE(sc.observe.enabled(),
               "deck configures no observables — add observe.probes");

  AnalyzeResult result;
  result.scenario = sc.name;
  result.trajectory_path = xyz_path;

  // The deck rebuilds what the trajectory lacks: box and material.
  const auto structure = build_structure(sc);

  auto obs_config = sc.observe;
  obs_config.prefix =
      resolve_output_path(obs_config.effective_prefix(sc.name),
                          opt.output_dir) +
      ".analysis";
  auto bus = obs::make_observer_bus(obs_config, material_for(sc),
                                    /*with_velocities=*/false,
                                    &result.skipped_probes);
  for (const auto& kind : result.skipped_probes) {
    say(format("  warning: skipping probe '%s' — it needs velocities, and "
               "an XYZ trajectory stores only positions",
               kind.c_str()));
  }

  const auto frames = io::read_xyz_file(xyz_path);
  WSMD_REQUIRE(!frames.empty(), "trajectory '" << xyz_path << "' is empty");
  say(format("%s: replaying %zu frames of %s over %zu probes",
             sc.name.c_str(), frames.size(), xyz_path.c_str(), bus->size()));

  long prev_step = -1;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const auto& frame = frames[k];
    WSMD_REQUIRE(frame.size() == structure.size(),
                 "frame " << k << " has " << frame.size()
                          << " atoms but the scenario builds "
                          << structure.size()
                          << " — trajectory/deck mismatch");
    if (k == 0) {
      for (std::size_t i = 0; i < frame.species.size(); ++i) {
        WSMD_REQUIRE(frame.species[i] == sc.element,
                     "trajectory species '" << frame.species[i]
                                            << "' does not match deck "
                                               "element '"
                                            << sc.element << "'");
      }
    }
    long step = 0;
    if (!parse_step_token(frame.comment, step)) {
      // Foreign trajectory without step markers: assume the deck's xyz
      // cadence so the time axis stays physically scaled.
      step = static_cast<long>(k) * sc.xyz_every;
    }
    WSMD_REQUIRE(step > prev_step, "trajectory steps are not increasing ("
                                       << prev_step << " -> " << step
                                       << " at frame " << k << ")");
    prev_step = step;

    obs::Frame f;
    f.step = step;
    f.time_ps = static_cast<double>(step) * sc.dt;
    f.box = &structure.box;
    f.positions = &frame.positions;
    f.velocities = nullptr;
    // Stored frames are the sampling: every probe sees every frame.
    bus->observe_all(f);
  }
  result.frames = frames.size();

  bus->finish();
  result.observables = collect_probe_outputs(*bus, opt.log);
  bus->require_outputs();

  result.summary_path = obs_config.prefix + ".summary.json";
  BenchJson summary("analyze_" + sc.name);
  summary.meta()
      .set("scenario", sc.name)
      .set("trajectory", xyz_path)
      .set("element", sc.element)
      .set("geometry", sc.geometry)
      .set("atoms", structure.size())
      .set("frames", result.frames)
      .set("dt_ps", sc.dt);
  if (!result.skipped_probes.empty()) {
    std::string joined;
    for (const auto& kind : result.skipped_probes) {
      joined += (joined.empty() ? "" : " ") + kind;
    }
    summary.meta().set("skipped_probes", joined);
  }
  bus->summarize(summary.meta());
  summary.write_to(result.summary_path);
  say("  summary -> " + result.summary_path);
  return result;
}

}  // namespace wsmd::scenario
