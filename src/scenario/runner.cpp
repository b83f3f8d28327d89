#include "scenario/runner.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>

#include "dist/distributed_engine.hpp"
#include "io/checkpoint.hpp"
#include "io/thermo_log.hpp"
#include "io/trajectory.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bench_json.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::scenario {

namespace {
std::atomic<bool> g_interrupt{false};
}  // namespace

InterruptedError::InterruptedError(long step)
    : Error(format("run interrupted at step %ld (telemetry exports "
                   "finalized)",
                   step)),
      step_(step) {}

void request_interrupt() {
  g_interrupt.store(true, std::memory_order_relaxed);
}

bool interrupt_requested() {
  return g_interrupt.load(std::memory_order_relaxed);
}

void reset_interrupt() { g_interrupt.store(false, std::memory_order_relaxed); }

std::string join_output_path(const std::string& path,
                             const std::string& dir) {
  if (path.empty()) return path;
  namespace fs = std::filesystem;
  fs::path resolved(path);
  if (!dir.empty() && !resolved.is_absolute()) {
    resolved = fs::path(dir) / resolved;
  }
  return resolved.lexically_normal().string();
}

std::string resolve_output_path(const std::string& path,
                                const std::string& dir) {
  const std::string resolved = join_output_path(path, dir);
  // Create the target directory up front: `wsmd --output-dir=out deck`
  // must work without a manual mkdir.
  if (!resolved.empty()) {
    const auto parent = std::filesystem::path(resolved).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
  }
  return resolved;
}

bool stage_rescales_after(const Stage& st, long steps_done,
                          int rescale_interval) {
  switch (st.kind) {
    case Stage::Kind::kEquilibrate:
    case Stage::Kind::kRamp:
    case Stage::Kind::kQuench:
      // Interval cadence plus a guaranteed final-step rescale: the stage
      // thermostats at least once even when steps < rescale_interval, and
      // a ramp ends at t1 even when steps is not an interval multiple.
      return steps_done % rescale_interval == 0 || steps_done == st.steps;
    case Stage::Kind::kThermalize:
    case Stage::Kind::kRun:
      return false;
  }
  return false;
}

std::vector<ProbeOutput> collect_probe_outputs(
    const obs::ObserverBus& bus,
    const std::function<void(const std::string&)>& log) {
  std::vector<ProbeOutput> outputs;
  for (std::size_t k = 0; k < bus.size(); ++k) {
    const auto& probe = bus.probe(k);
    outputs.push_back(
        {probe.kind(), probe.output_path(), probe.samples_taken()});
    if (log) {
      log(format("  %s: %zu samples -> %s", probe.kind(),
                 probe.samples_taken(), probe.output_path().c_str()));
    }
  }
  return outputs;
}

namespace {

/// Berendsen-style hard rescale toward `target_K` through the generic
/// Engine surface.
void rescale_to(engine::Engine& eng, double target_K) {
  const double current = eng.thermo().temperature;
  if (current <= 1e-12) return;  // no thermal motion to scale
  const double f = std::sqrt(target_K / current);
  auto v = eng.velocities();
  for (auto& vi : v) vi = f * vi;
  eng.set_velocities(v);
}

std::string stage_label(const Stage& st) {
  switch (st.kind) {
    case Stage::Kind::kThermalize:
      return format("thermalize %.5g K", st.t0);
    case Stage::Kind::kEquilibrate:
      return format("equilibrate %.5g K / %ld steps", st.t0, st.steps);
    case Stage::Kind::kRamp:
      return format("ramp %.5g -> %.5g K / %ld steps", st.t0, st.t1,
                    st.steps);
    case Stage::Kind::kQuench:
      return format("quench %.5g K / %ld steps", st.t0, st.steps);
    case Stage::Kind::kRun:
      return format("run %ld steps (NVE)", st.steps);
  }
  return "?";
}

/// Static-literal span name per stage kind (telemetry span names must
/// outlive the session, so no format()-built strings).
const char* stage_span_name(Stage::Kind kind) {
  switch (kind) {
    case Stage::Kind::kThermalize: return "stage.thermalize";
    case Stage::Kind::kEquilibrate: return "stage.equilibrate";
    case Stage::Kind::kRamp: return "stage.ramp";
    case Stage::Kind::kQuench: return "stage.quench";
    case Stage::Kind::kRun: return "stage.run";
  }
  return "stage.unknown";
}

/// Expand the `*` placeholder in a checkpoint path with the step number
/// (keeps every checkpoint; without a placeholder the latest overwrites).
std::string checkpoint_file_for(const std::string& pattern, long step) {
  const auto star = pattern.find('*');
  if (star == std::string::npos) return pattern;
  return pattern.substr(0, star) + std::to_string(step) +
         pattern.substr(star + 1);
}

/// Validate a checkpoint against the scenario it is about to resume: same
/// structure (atom types), same box, the same schedule stage-for-stage as
/// the one the checkpoint was written under (the cursor is meaningless
/// against a different schedule — and a swapped-in stage of equal length
/// would pass any step-count check while silently changing the physics),
/// and a cursor consistent with that schedule. Catches resumes with
/// incompatible overrides before any state is touched.
void validate_resume(const Scenario& sc, const lattice::Structure& structure,
                     const io::CheckpointData& ckpt) {
  WSMD_REQUIRE(ckpt.element == sc.element,
               "resume: checkpoint element '"
                   << ckpt.element << "' does not match scenario element '"
                   << sc.element << "'");
  WSMD_REQUIRE(ckpt.types == structure.types,
               "resume: checkpoint atom set ("
                   << ckpt.types.size()
                   << " atoms) does not match the structure this scenario "
                      "builds ("
                   << structure.types.size()
                   << " atoms) — geometry/replicate/seed changed?");
  for (std::size_t a = 0; a < 3; ++a) {
    WSMD_REQUIRE(std::fabs(ckpt.box.lo[a] - structure.box.lo[a]) < 1e-9 &&
                     std::fabs(ckpt.box.hi[a] - structure.box.hi[a]) < 1e-9 &&
                     ckpt.box.periodic[a] == structure.box.periodic[a],
                 "resume: checkpoint box does not match the scenario's "
                 "structure (axis "
                     << a << ")");
  }
  // Rebuild the schedule the checkpoint was written under from its
  // embedded deck and require the resumed scenario's schedule to match it
  // stage for stage.
  const Scenario saved = scenario_from_deck(
      deck_from_entries(ckpt.deck, "<checkpoint deck>"));
  WSMD_REQUIRE(saved.schedule.size() == sc.schedule.size(),
               "resume: schedule overrides are not supported (checkpoint "
               "was written under "
                   << saved.schedule.size() << " stage(s), resuming with "
                   << sc.schedule.size() << ")");
  for (std::size_t i = 0; i < sc.schedule.size(); ++i) {
    const auto& a = saved.schedule[i];
    const auto& b = sc.schedule[i];
    WSMD_REQUIRE(a.kind == b.kind && a.t0 == b.t0 && a.t1 == b.t1 &&
                     a.steps == b.steps,
                 "resume: schedule overrides are not supported (stage "
                     << i << " changed from '" << a.name() << "' to '"
                     << b.name() << "' parameters)");
  }
  WSMD_REQUIRE(saved.pair_style == sc.pair_style,
               "resume: pair_style changed (" << saved.pair_style << " -> "
                                              << sc.pair_style
                                              << ") — the interaction "
                                                 "family is part of the "
                                                 "trajectory");
  WSMD_REQUIRE(saved.rescale_interval == sc.rescale_interval,
               "resume: rescale_interval changed ("
                   << saved.rescale_interval << " -> " << sc.rescale_interval
                   << ") — the thermostat cadence is part of the schedule");
  WSMD_REQUIRE(saved.dt == sc.dt,
               "resume: dt changed (" << saved.dt << " -> " << sc.dt
                                      << ") — the timestep is part of the "
                                         "trajectory, not an output option");
  WSMD_REQUIRE(saved.swap_interval == sc.swap_interval,
               "resume: swap_interval changed ("
                   << saved.swap_interval << " -> " << sc.swap_interval
                   << ") — the atom-swap cadence changes the wafer "
                      "trajectory");
  if (!ckpt.probes.empty() && sc.observe.enabled()) {
    // The saved accumulators were measured under the checkpointed
    // analysis parameters; merging them with samples taken under
    // different ones corrupts silently (e.g. an RDF histogram binned
    // over two different ranges). Output keys (observe.prefix /
    // observe.format) remain free, and a scenario with observables
    // disabled outright (C++ API — deck syntax cannot express it) takes
    // the warn-and-discard path in the runner instead.
    const auto& a = saved.observe;
    const auto& b = sc.observe;
    WSMD_REQUIRE(
        a.probes == b.probes && a.every == b.every &&
            a.rdf_every == b.rdf_every && a.msd_every == b.msd_every &&
            a.vacf_every == b.vacf_every &&
            a.defects_every == b.defects_every &&
            a.rdf_rcut == b.rdf_rcut && a.rdf_bins == b.rdf_bins &&
            a.csp_threshold == b.csp_threshold && a.gb_axis == b.gb_axis,
        "resume: observe.* analysis parameters changed — the checkpointed "
        "probe accumulators were measured under the saved settings (only "
        "observe.prefix / observe.format may change on resume)");
  }
  WSMD_REQUIRE(ckpt.stage_index < sc.schedule.size(),
               "resume: checkpoint stage cursor "
                   << ckpt.stage_index << " is outside the schedule ("
                   << sc.schedule.size() << " stage(s))");
  const auto& st = sc.schedule[ckpt.stage_index];
  WSMD_REQUIRE(ckpt.stage_steps_done >= 0 &&
                   ckpt.stage_steps_done <= st.steps,
               "resume: checkpoint cursor ("
                   << ckpt.stage_steps_done << " steps into a " << st.steps
                   << "-step '" << st.name() << "' stage) is out of range");
  long expected_step = ckpt.stage_steps_done;
  for (std::size_t i = 0; i < ckpt.stage_index; ++i) {
    expected_step += sc.schedule[i].steps;
  }
  WSMD_REQUIRE(expected_step == ckpt.engine.step,
               "resume: schedule does not line up with the checkpoint "
               "(cursor implies step "
                   << expected_step << ", engine state is at step "
                   << ckpt.engine.step
                   << ") — schedule overrides are not supported on resume");
}

ScenarioResult run_impl(const Scenario& sc, const RunOptions& opt,
                        const io::CheckpointData* resume) {
  const auto say = [&opt](const std::string& line) {
    if (opt.log) opt.log(line);
  };

  ScenarioResult result;
  result.scenario = sc.name;

  const auto structure = build_structure(sc, &result.structure);
  if (resume != nullptr) validate_resume(sc, structure, *resume);
  auto eng = opt.engine_factory
                 ? opt.engine_factory(sc, structure)
                 : build_engine(sc, structure, opt.backend_override,
                                opt.output_dir);
  WSMD_REQUIRE(eng != nullptr, "engine factory returned no engine");
  result.backend_name = eng->backend_name();
  say(format("%s: %zu atoms (%s %s), backend %s", sc.name.c_str(),
             result.structure.atoms, sc.element.c_str(), sc.geometry.c_str(),
             result.backend_name.c_str()));
  if (result.structure.vacancies_removed > 0) {
    say(format("  %zu vacancies introduced", result.structure.vacancies_removed));
  }
  if (result.structure.gb_fused_atoms > 0) {
    say(format("  %zu seam atoms fused at the grain boundary",
               result.structure.gb_fused_atoms));
  }
  if (resume != nullptr) {
    eng->restore(resume->engine);
    result.resumed_from_step = resume->engine.step;
    say(format("  resumed at step %ld (stage %zu, %ld step(s) done; "
               "checkpoint written by backend %s)",
               resume->engine.step,
               static_cast<std::size_t>(resume->stage_index),
               resume->stage_steps_done, resume->backend.c_str()));
  }

  // Outputs.
  result.xyz_path = resolve_output_path(sc.xyz_path, opt.output_dir);
  result.thermo_path = resolve_output_path(sc.thermo_path, opt.output_dir);
  result.summary_path = resolve_output_path(sc.summary_path, opt.output_dir);

  // Telemetry session: armed when the scenario exports a trace/metrics
  // file or the caller wants the measured span totals (`wsmd report`).
  // Individual trace events are only captured when a trace file is
  // requested; aggregates/counters are always collected while armed.
  result.trace_path =
      resolve_output_path(sc.telemetry_trace_path, opt.output_dir);
  result.metrics_path =
      resolve_output_path(sc.telemetry_metrics_path, opt.output_dir);
  // An abort-configured health detector also arms the session (with trace
  // capture): its diagnostic bundle includes a trace, and arming must be
  // decided up front, not when the detector trips. Decks without health
  // overrides keep the default warn-only config, so the telemetry-off
  // byte-identical goldens are unaffected.
  const bool telemetry_on = opt.collect_telemetry ||
                            !result.trace_path.empty() ||
                            !result.metrics_path.empty() ||
                            sc.health.any_abort();
  if (telemetry_on) {
    telemetry::SessionConfig tcfg;
    tcfg.capture_trace =
        !result.trace_path.empty() || sc.health.any_abort();
    telemetry::begin_session(tcfg);
  }
  // The metrics file is written through a SnapshotStream: interval rows
  // while the run is live (cadence > 0), the PR 6 aggregate rows on
  // finalize — which the unwind path below reaches even when the run
  // aborts, so partial runs still leave artifacts.
  std::unique_ptr<telemetry::SnapshotStream> metrics_stream;
  if (!result.metrics_path.empty()) {
    metrics_stream = std::make_unique<telemetry::SnapshotStream>(
        result.metrics_path, sc.telemetry_snapshot_s, sc.dt);
  }

  // Run-health watchdog (telemetry/health.hpp). The bundle directory is
  // resolved now — the stall handler on the watchdog thread must not
  // touch the filesystem layout lazily.
  const std::string bundle_dir = join_output_path(
      sc.health.bundle_dir.empty() ? sc.name + ".health"
                                   : sc.health.bundle_dir,
      opt.output_dir);
  std::unique_ptr<telemetry::HealthMonitor> health;
  if (sc.health.any_enabled()) {
    health = std::make_unique<telemetry::HealthMonitor>(
        sc.health, [&say](const telemetry::HealthEvent& ev) {
          say("  health: WARNING: " + ev.detector + " — " + ev.message);
        });
  }
  // The diagnostic bundle of every abort path: the thermo tail and
  // health.json always, plus what the caller can add safely — a checkpoint
  // (runner thread only: a healthy earlier state can be resumed from it
  // even when the final velocities are NaN), the trace (never from the
  // watchdog thread) and, for a rank failure, each rank's last-known step
  // and stderr capture (`ranks` holds the capture's source path). A rank
  // failure is the one event the monitor never saw. Throws on I/O failure.
  const auto write_bundle =
      [&](const telemetry::HealthEvent& ev, const io::CheckpointData* ckpt,
          bool with_trace,
          std::optional<std::vector<telemetry::RankStatus>> ranks) {
        namespace fs = std::filesystem;
        fs::create_directories(bundle_dir);
        const auto in_bundle = [&bundle_dir](const fs::path& name) {
          return (fs::path(bundle_dir) / name).string();
        };
        telemetry::HealthArtifacts art;
        art.dir = bundle_dir;
        art.metrics = result.metrics_path;
        if (ckpt != nullptr) {
          art.checkpoint = in_bundle("checkpoint.ckpt");
          io::write_checkpoint_file(art.checkpoint, *ckpt);
        }
        if (health) {
          art.thermo_tail = in_bundle("thermo_tail.csv");
          telemetry::write_thermo_tail_csv(art.thermo_tail, health->tail());
        }
        if (with_trace) {
          art.trace = in_bundle("trace.json");
          telemetry::write_trace_json(art.trace);
        }
        auto events =
            health ? health->events() : std::vector<telemetry::HealthEvent>{};
        std::string cause = ev.detector;
        if (ranks) {
          events.push_back(ev);
          cause += format(": rank %d failed", static_cast<int>(ev.value));
          // The engine's scratch dir is about to go with it: copy each
          // capture out under its rank-suffixed name.
          for (auto& rs : *ranks) {
            const fs::path src(rs.log);
            rs.log.clear();
            if (fs::exists(src)) {
              rs.log = in_bundle(src.filename());
              fs::copy_file(src, rs.log, fs::copy_options::overwrite_existing);
            }
          }
        }
        telemetry::write_health_json(
            in_bundle("health.json"), sc.name, result.backend_name, events,
            &ev, art, ranks ? *ranks : std::vector<telemetry::RankStatus>{});
        say("  health: ABORT (" + cause + ") — bundle -> " + bundle_dir);
      };
  if (health && sc.health.stall == telemetry::HealthAction::kAbort) {
    health->set_stall_handler(
        opt.stall_handler
            ? opt.stall_handler
            : telemetry::HealthMonitor::EventSink(
                  // By copy: the monitor, declared first, outlives the
                  // write_bundle local.
                  [write_bundle](const telemetry::HealthEvent& ev) {
                    // The runner thread is wedged mid-step, so the engine
                    // state is unreachable: the bundle carries what the
                    // watchdog can safely write, then the process exits.
                    try {
                      write_bundle(ev, nullptr, false, std::nullopt);
                    } catch (...) {
                    }
                    std::_Exit(3);
                  }));
  }
  std::unique_ptr<io::XyzTrajectoryWriter> trajectory;
  if (!result.xyz_path.empty()) {
    trajectory = std::make_unique<io::XyzTrajectoryWriter>(
        result.xyz_path, std::vector<std::string>{sc.element});
  }
  std::optional<io::ThermoLogger> thermo_log;
  if (!result.thermo_path.empty()) {
    thermo_log.emplace(result.thermo_path,
                       io::thermo_format_from_name(sc.thermo_format));
  }

  // Streaming observables (src/obs): one probe per configured kind, all
  // driven through the generic Engine surface so they behave identically on
  // every backend.
  std::unique_ptr<obs::ObserverBus> bus;
  if (sc.observe.enabled()) {
    auto obs_config = sc.observe;
    obs_config.prefix = resolve_output_path(
        obs_config.effective_prefix(sc.name), opt.output_dir);
    bus = obs::make_observer_bus(obs_config, material_for(sc));
    for (std::size_t k = 0; k < bus->size(); ++k) {
      say(format("  probe: %s every %ld steps -> %s",
                 bus->probe(k).kind(), bus->cadence(k),
                 bus->probe(k).output_path().c_str()));
    }
  }
  long last_frame_step = -1;
  long last_sample_step = -1;

  // Restore the run-side state the checkpoint carries beyond the engine:
  // probe accumulators, output cursors, and the thermostat RNG stream.
  Rng rng(sc.seed);
  if (resume != nullptr) {
    rng.set_state(resume->rng);
    last_frame_step = resume->last_frame_step;
    last_sample_step = resume->last_sample_step;
    if (bus && !resume->probes.empty()) {
      bus->restore_probe_states(resume->probes, "resume");
    } else if (bus) {
      // Probes configured now but not checkpointed: they re-prime at the
      // resume point, so their series and summaries cover only the
      // resumed portion (MSD/VACF origins restart here).
      say("  warning: checkpoint carries no probe state — observables "
          "re-prime at the resume step");
    } else if (!resume->probes.empty()) {
      say("  warning: checkpointed probe state discarded (observe.* "
          "disabled by override)");
    }
  }

  const auto emit_frame = [&](const engine::Thermo& t,
                              const std::vector<Vec3d>& positions) {
    telemetry::ScopedSpan span("io.xyz");
    trajectory->append(structure.box, positions, structure.types,
                       format("step=%ld E=%.8g T=%.6g", t.step,
                              t.total_energy, t.temperature));
    last_frame_step = t.step;
  };
  const auto emit_sample = [&](const engine::Thermo& t) {
    if (!thermo_log) return;
    // The logger rejects non-finite rows by design; after a blow-up the
    // health monitor's thermo tail is the record of the bad rows, and a
    // warn-configured run must keep running rather than die on its log.
    if (!std::isfinite(t.total_energy) || !std::isfinite(t.temperature) ||
        !std::isfinite(t.potential_energy) ||
        !std::isfinite(t.kinetic_energy)) {
      return;
    }
    telemetry::ScopedSpan span("io.thermo");
    thermo_log->write(t);
    last_sample_step = t.step;
  };
  // Position-dependent outputs (trajectory frame + observables) share one
  // snapshot per sampling step: eng->positions() widens the whole FP32
  // state to FP64, so it is taken at most once, and velocities only when
  // some probe actually reads them.
  const auto stream_state = [&](const engine::Thermo& t, bool final_state) {
    const bool want_frame =
        trajectory && (final_state ? t.step != last_frame_step
                                   : t.step % sc.xyz_every == 0);
    const bool want_obs =
        bus && (final_state ? bus->has_pending(t.step) : bus->due(t.step));
    if (!want_frame && !want_obs) return;
    const bool with_positions =
        want_frame ||
        (want_obs && bus->needs_positions_at(t.step, final_state));
    std::vector<Vec3d> positions;
    if (with_positions) positions = eng->positions();
    if (want_frame) emit_frame(t, positions);
    if (want_obs) {
      const bool with_velocities =
          bus->needs_velocities_at(t.step, final_state);
      std::vector<Vec3d> velocities;
      if (with_velocities) velocities = eng->velocities();
      obs::Frame frame;
      frame.step = t.step;
      frame.time_ps = static_cast<double>(t.step) * sc.dt;
      frame.box = &structure.box;
      frame.positions = with_positions ? &positions : nullptr;
      frame.velocities = with_velocities ? &velocities : nullptr;
      if (final_state) {
        bus->observe_all(frame);
      } else {
        bus->observe(frame);
      }
    }
  };

  // Periodic checkpoint write (atomic: tmp + rename). The checkpoint
  // captures the post-thermostat state of the step just finished plus the
  // schedule cursor pointing at it, so a resumed run continues with the
  // very next step. The pattern is only joined here — its `*` may expand
  // into directory components, so write_checkpoint_file creates the
  // expanded file's parent per write instead.
  result.checkpoint_path =
      join_output_path(sc.checkpoint_path, opt.output_dir);
  const auto make_checkpoint_data = [&](std::size_t stage_index,
                                        long steps_done) {
    io::CheckpointData ck;
    ck.element = sc.element;
    ck.backend = result.backend_name;
    ck.box = structure.box;
    ck.types = structure.types;
    // The embedded deck must record the *effective* scenario: fold a
    // --backend= override into it, or a plain `wsmd resume CKPT` would
    // silently continue on the deck's backend instead of the one that
    // wrote the checkpoint (breaking the bitwise-continuation promise).
    Scenario effective = sc;
    if (!opt.backend_override.empty()) {
      effective.backend = opt.backend_override;
    }
    for (const auto& e : deck_from_scenario(effective).entries) {
      ck.deck.emplace_back(e.key, e.value);
    }
    ck.engine = eng->snapshot();
    ck.stage_index = stage_index;
    ck.stage_steps_done = steps_done;
    ck.rng = rng.state();
    ck.last_frame_step = last_frame_step;
    ck.last_sample_step = last_sample_step;
    if (bus) ck.probes = bus->save_probe_states();
    return ck;
  };
  const auto maybe_checkpoint = [&](std::size_t stage_index, long steps_done,
                                    const engine::Thermo& t) {
    if (sc.checkpoint_every <= 0 || t.step % sc.checkpoint_every != 0) {
      return;
    }
    const io::CheckpointData ck = make_checkpoint_data(stage_index, steps_done);
    const std::string file =
        checkpoint_file_for(result.checkpoint_path, t.step);
    {
      telemetry::ScopedSpan span("io.checkpoint");
      io::write_checkpoint_file(file, ck);
    }
    ++result.checkpoints_written;
    say(format("  checkpoint -> %s (step %ld)", file.c_str(), t.step));
  };

  // Feed one thermo row through the watchdog; throws HealthAbortError
  // (bundle written first) when an abort-action detector trips.
  const auto check_health = [&](const engine::Thermo& t,
                                std::size_t stage_index, long steps_done,
                                double target_K, bool has_target) {
    if (!health) return;
    const telemetry::HealthSample hs{t, target_K, has_target};
    health->record(hs);
    if (auto fatal = health->check(hs)) {
      const auto ckpt = make_checkpoint_data(stage_index, steps_done);
      write_bundle(*fatal, &ckpt, telemetry_on, std::nullopt);
      throw telemetry::HealthAbortError(*fatal, bundle_dir);
    }
  };

  if (resume == nullptr) {
    // Initial state: frame + sample + observables before any stage runs.
    stream_state(eng->thermo(), /*final_state=*/false);
    emit_sample(eng->thermo());
  } else {
    // The restored state opens the resumed outputs (the probes already
    // sampled this step before the checkpoint — only the thermo log gets
    // the overlap row, as the fresh run's pre-run emission does). The
    // row stays on the thermo_every grid: off-grid checkpoint steps emit
    // nothing, or the resumed tail would hold a row the uninterrupted
    // log does not and the byte-identical-tail guarantee would break.
    const auto restored = eng->thermo();
    if (restored.step % sc.thermo_every == 0) emit_sample(restored);
  }

  const std::size_t start_stage = resume ? resume->stage_index : 0;
  const long start_steps = resume ? resume->stage_steps_done : 0;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_now = [&wall_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  // --progress heartbeat: fired on a wall-clock interval (long-gap stages
  // still show a live ETA) plus once at the end.
  const long total_steps_all = sc.total_steps();
  const long progress_start_step = resume != nullptr ? resume->engine.step : 0;
  double last_progress_s = 0.0;
  const auto report_progress = [&](long step, bool final_report) {
    if (!opt.progress) return;
    ProgressInfo p;
    p.step = step;
    p.total_steps = total_steps_all;
    p.final = final_report;
    p.wall_seconds = wall_now();
    last_progress_s = p.wall_seconds;
    const long executed = step - progress_start_step;
    if (p.wall_seconds > 0.0 && executed > 0) {
      const double steps_per_s =
          static_cast<double>(executed) / p.wall_seconds;
      // dt is in ps; 1000 ps per ns, 86400 s per day.
      p.ns_per_day = steps_per_s * sc.dt * 1e-3 * 86400.0;
      p.eta_seconds =
          static_cast<double>(total_steps_all - step) / steps_per_s;
    }
    opt.progress(p);
  };

  // Finalize the telemetry exports: disarm the session, write the trace,
  // and close out the metrics stream (snapshot rows -> aggregate rows).
  // Idempotent, and reached from the unwind path too — a health abort or
  // an interrupt still leaves the artifacts of the partial run.
  bool exports_finalized = false;
  const auto finalize_exports = [&] {
    if (exports_finalized) return;
    exports_finalized = true;
    if (!telemetry_on) return;
    telemetry::end_session();
    if (!result.trace_path.empty()) {
      telemetry::write_trace_json(result.trace_path);
      say("  trace -> " + result.trace_path);
    }
    if (metrics_stream) {
      metrics_stream->finalize();
      result.snapshots = metrics_stream->rows();
      say("  metrics -> " + result.metrics_path);
    }
  };

  bool nan_injected = false;
  try {
    for (std::size_t si = start_stage; si < sc.schedule.size(); ++si) {
      const auto& st = sc.schedule[si];
      telemetry::ScopedSpan stage_span(stage_span_name(st.kind));
      StageResult sr;
      sr.label = stage_label(st);
      sr.kind = st.name();
      sr.steps = st.steps;
      const long k0 = si == start_stage ? start_steps : 0;
      say("  stage: " + sr.label +
          (k0 > 0 ? format(" (resuming after %ld step(s))", k0) : ""));
      const bool thermostatted = st.kind == Stage::Kind::kEquilibrate ||
                                 st.kind == Stage::Kind::kRamp ||
                                 st.kind == Stage::Kind::kQuench;
      if (health) {
        health->begin_stage(st.kind == Stage::Kind::kRun, thermostatted,
                            st.t0);
      }

      if (st.kind == Stage::Kind::kThermalize) {
        eng->thermalize(st.t0, rng);
        sr.end = eng->thermo();
        check_health(sr.end, si, 0, st.t0, /*has_target=*/false);
        emit_sample(sr.end);
        result.stages.push_back(std::move(sr));
        continue;
      }

      for (long k = k0; k < st.steps; ++k) {
        // NaN fault drill (health.inject_nan): poison one velocity
        // component right before the configured step so the nan detector
        // path is rehearsable end-to-end from a plain deck.
        if (sc.health.inject_nan_step > 0 && !nan_injected &&
            eng->step_count() + 1 >= sc.health.inject_nan_step) {
          nan_injected = true;
          auto v = eng->velocities();
          if (!v.empty()) {
            v[0].x = std::numeric_limits<double>::quiet_NaN();
            eng->set_velocities(v);
          }
          say(format("  health: fault drill — NaN injected before step %ld",
                     eng->step_count() + 1));
        }
        engine::Thermo t = eng->step();
        if (health) health->step_completed();
        // Runner-level step counter: backends count their own work (wse.*,
        // md.*) but only when it happens inside the session — this one
        // guarantees every telemetry-on run exports at least one counter,
        // which the metrics schema checker requires.
        telemetry::count("run.steps");
        // One shared rescale schedule for every thermostatted stage kind
        // (stage_rescales_after — quench included, which historically
        // rescaled every step while the others honored rescale_interval);
        // ramp slides the target toward t1, the others hold t0.
        const bool rescaled =
            stage_rescales_after(st, k + 1, sc.rescale_interval);
        const double target =
            st.kind == Stage::Kind::kRamp
                ? st.t0 + (st.t1 - st.t0) * static_cast<double>(k + 1) /
                              static_cast<double>(st.steps)
                : st.t0;
        if (rescaled) rescale_to(*eng, target);
        // Outputs record the state after the step's full processing —
        // thermostat action included — so the log's last row, the final
        // trajectory frame, and the summary all describe the same state.
        if (rescaled) t = eng->thermo();
        // The watchdog sees the row before any output consumes it: on an
        // abort the bundle, not a half-written log, is the record.
        check_health(t, si, k + 1, target, thermostatted);
        if (t.step % sc.thermo_every == 0) emit_sample(t);
        stream_state(t, /*final_state=*/false);
        maybe_checkpoint(si, k + 1, t);
        // Wall-clock-driven work, sharing one clock read per step:
        // interval snapshots and the progress heartbeat.
        if (opt.progress ||
            (metrics_stream && metrics_stream->cadence_seconds() > 0.0)) {
          const double wall = wall_now();
          if (metrics_stream && metrics_stream->snapshot_due(wall)) {
            std::vector<double> busy, wait;
            for (const auto& load : eng->shard_load()) {
              busy.push_back(load.busy_seconds);
              wait.push_back(load.wait_seconds);
            }
            metrics_stream->take_snapshot(t.step, wall, busy, wait);
          }
          if (opt.progress &&
              wall - last_progress_s >= opt.progress_interval_s) {
            report_progress(t.step, /*final_report=*/false);
          }
        }
        if (interrupt_requested()) throw InterruptedError(t.step);
      }
      sr.end = eng->thermo();
      result.stages.push_back(std::move(sr));
    }
  } catch (const dist::RankFailureError& ex) {
    // A rank process died or stopped answering its deadline: the run can
    // never make progress again, which is exactly the condition the stall
    // detector guards — so a dead rank always takes the stall-abort path
    // (diagnostic bundle + exit code 2), health.stall configured or not.
    // Unlike the runner-thread bundle above there is no checkpoint: the
    // atom state lives sharded across the ranks and part of it died with
    // the failed one.
    telemetry::HealthEvent ev;
    ev.detector = "stall";
    ev.action = telemetry::HealthAction::kAbort;
    ev.step = eng->step_count();
    ev.value = static_cast<double>(ex.failed_rank());
    ev.message = ex.what();
    // Per-rank post-mortem: last-known step counters from the failure
    // itself and each rank's stderr capture.
    std::vector<telemetry::RankStatus> ranks;
    if (auto* de = dynamic_cast<dist::DistributedEngine*>(eng.get())) {
      const auto logs = de->rank_log_paths();
      const auto& steps = ex.last_known_steps();
      for (std::size_t r = 0; r < logs.size(); ++r) {
        ranks.push_back({static_cast<int>(r),
                         r < steps.size() ? steps[r] : -1, logs[r]});
      }
    }
    try {
      write_bundle(ev, nullptr, telemetry_on, std::move(ranks));
    } catch (...) {
      // Bundle writing is best-effort; the rank failure is the error.
    }
    if (health) health->stop();
    finalize_exports();
    throw telemetry::HealthAbortError(ev, bundle_dir);
  } catch (...) {
    if (health) health->stop();
    finalize_exports();
    throw;
  }
  const auto wall_end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.total_steps = sc.total_steps();
  const long steps_executed =
      result.total_steps - (resume != nullptr ? resume->engine.step : 0);
  result.final_thermo = eng->thermo();
  report_progress(result.final_thermo.step, /*final_report=*/true);

  // Close every output at the final step, unless that exact step was
  // already written (the step loop on a multiple of the interval, a
  // trailing thermalize's emission, or the pre-run emission when nothing
  // stepped) — the trajectory, thermo log, and summary must agree on
  // where the run ended.
  stream_state(result.final_thermo, /*final_state=*/true);
  if (thermo_log && result.final_thermo.step != last_sample_step) {
    emit_sample(result.final_thermo);
  }
  result.xyz_frames = trajectory ? trajectory->frames_written() : 0;
  result.thermo_samples = thermo_log ? thermo_log->samples_written() : 0;
  if (bus) {
    bus->finish();
    result.observables = collect_probe_outputs(*bus, opt.log);
  }

  // Disarm telemetry and export before the summary: the collected data
  // stays readable (span_stats / counters) for `wsmd report` after the
  // run returns, and the exports must not record their own writes.
  result.modeled = eng->modeled_phase_cost();
  if (health) {
    health->stop();
    result.health_events = health->events().size();
    if (result.health_events > 0) {
      say(format("  health: %zu warning event(s) — see the summary",
                 result.health_events));
    }
  }
  finalize_exports();
  // The thermo rows are buffered: a full disk shows only when they flush.
  // The probes flushed at bus->finish(); a stream that failed fails the run.
  if (thermo_log) thermo_log->finish();
  if (bus) bus->require_outputs();

  if (!result.summary_path.empty()) {
    BenchJson summary("scenario_" + sc.name);
    summary.meta()
        .set("scenario", sc.name)
        .set("element", sc.element)
        .set("geometry", sc.geometry)
        .set("backend", result.backend_name)
        .set("atoms", result.structure.atoms)
        .set("vacancies_removed", result.structure.vacancies_removed)
        .set("gb_fused_atoms", result.structure.gb_fused_atoms)
        .set("dt_ps", sc.dt)
        .set("seed", static_cast<long long>(sc.seed))
        .set("total_steps", static_cast<long long>(result.total_steps))
        .set("wall_seconds", result.wall_seconds)
        // Throughput counts the steps *this process* executed: a resumed
        // run only stepped the post-checkpoint remainder, and crediting
        // it the full schedule would fabricate a speedup in the trend
        // tooling the BENCH envelope feeds.
        .set("steps_executed", static_cast<long long>(steps_executed))
        .set("steps_per_s", result.wall_seconds > 0.0
                                ? static_cast<double>(steps_executed) /
                                      result.wall_seconds
                                : 0.0)
        .set("final_total_eV", result.final_thermo.total_energy)
        .set("final_temperature_K", result.final_thermo.temperature)
        .set("xyz_frames", result.xyz_frames)
        .set("thermo_samples", result.thermo_samples);
    if (result.checkpoints_written > 0) {
      summary.meta()
          .set("checkpoints_written", result.checkpoints_written)
          .set("checkpoint", result.checkpoint_path);
    }
    if (result.resumed_from_step >= 0) {
      summary.meta().set("resumed_from_step",
                         static_cast<long long>(result.resumed_from_step));
    }
    if (!result.trace_path.empty()) {
      summary.meta().set("trace", result.trace_path);
    }
    if (!result.metrics_path.empty()) {
      summary.meta().set("metrics", result.metrics_path);
      if (!result.snapshots.empty()) {
        summary.meta().set("snapshots", result.snapshots.size());
      }
    }
    if (result.health_events > 0) {
      summary.meta().set("health_events", result.health_events);
    }
    // Observable summaries (first peaks, diffusion, GB mobility, ...) ride
    // in the same BENCH envelope so trend tooling sees physics and
    // throughput side by side.
    if (bus) bus->summarize(summary.meta());
    for (const auto& sr : result.stages) {
      summary.add_row()
          .set("stage", sr.kind)
          .set("label", sr.label)
          .set("steps", static_cast<long long>(sr.steps))
          .set("end_step", static_cast<long long>(sr.end.step))
          .set("end_total_eV", sr.end.total_energy)
          .set("end_temperature_K", sr.end.temperature);
    }
    summary.write_to(result.summary_path);
    say("  summary -> " + result.summary_path);
  }
  say(format("  done: %ld steps on %s, final E = %.6g eV, T = %.4g K",
             result.total_steps, result.backend_name.c_str(),
             result.final_thermo.total_energy,
             result.final_thermo.temperature));
  return result;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& sc, const RunOptions& opt) {
  return run_impl(sc, opt, nullptr);
}

ScenarioResult resume_scenario(const Scenario& sc,
                               const io::CheckpointData& ckpt,
                               const RunOptions& opt) {
  return run_impl(sc, opt, &ckpt);
}

}  // namespace wsmd::scenario
