#pragma once

/// \file runner.hpp
/// Executes a Scenario end-to-end on any Engine backend.
///
/// The runner is backend-agnostic: thermostat stages are implemented purely
/// through the Engine surface (thermo + velocities + set_velocities), so
/// equilibrate/ramp/quench behave identically on the FP64 reference and the
/// FP32 wafer backends — which is what makes golden-run replay across
/// backends meaningful. While running it streams XYZ trajectory frames and
/// a thermo log (src/io), and finishes by writing a machine-readable
/// summary in the BENCH_*.json envelope (util/bench_json).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "lattice/lattice.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/health.hpp"
#include "telemetry/snapshot.hpp"

namespace wsmd::io {
struct CheckpointData;
}  // namespace wsmd::io

namespace wsmd::scenario {

/// Periodic progress snapshot delivered on a wall-clock interval while the
/// step loop runs (RunOptions::progress) — the `wsmd --progress`
/// heartbeat. Decoupled from the thermo cadence so a stage with sparse
/// thermo rows still shows a live ETA.
struct ProgressInfo {
  long step = 0;           ///< engine step just completed
  long total_steps = 0;    ///< schedule total
  double wall_seconds = 0.0;
  double ns_per_day = 0.0; ///< simulated time throughput at the current rate
  double eta_seconds = 0.0;
  bool final = false;      ///< last report of the run
};

struct RunOptions {
  /// Non-empty: run on this backend instead of the deck's
  /// (reference|reference:N|wafer|sharded|sharded:N).
  std::string backend_override;
  /// Directory prefixed to relative output paths ("" = current directory).
  std::string output_dir;
  /// Progress sink (one human-readable line per event); empty = silent.
  /// A stall-warn event is reported through this sink from the watchdog
  /// thread — the sink must be thread-safe when health.stall is enabled.
  std::function<void(const std::string&)> log;
  /// Progress heartbeat, fired every `progress_interval_s` of wall-clock
  /// plus once at the end.
  std::function<void(const ProgressInfo&)> progress;
  /// Wall-clock seconds between progress heartbeats (<= 0 fires after
  /// every step).
  double progress_interval_s = 1.0;
  /// Arm a telemetry session (aggregates only) even when the scenario
  /// writes no trace/metrics file — `wsmd report` needs the measured span
  /// totals without forcing an export path.
  bool collect_telemetry = false;
  /// Non-empty: build the engine through this hook instead of
  /// build_engine — the watchdog tests inject fault-wrapped engines here.
  std::function<std::unique_ptr<engine::Engine>(const Scenario&,
                                                const lattice::Structure&)>
      engine_factory;
  /// Override for the stall-abort path (called on the watchdog thread;
  /// the runner thread is wedged). Default: write the partial diagnostic
  /// bundle (thermo tail + health.json) and terminate the process with
  /// exit code 3. Tests install a capture hook.
  telemetry::HealthMonitor::EventSink stall_handler;
};

struct StageResult {
  std::string label;      ///< e.g. "equilibrate 290 K / 20 steps"
  const char* kind = "";  ///< stage keyword
  long steps = 0;
  engine::Thermo end;     ///< thermo after the stage's last step
};

/// One streaming observable's output bookkeeping.
struct ProbeOutput {
  std::string kind;      ///< rdf | msd | vacf | defects
  std::string path;      ///< resolved output file
  std::size_t samples = 0;
};

struct ScenarioResult {
  std::string scenario;
  std::string backend_name;   ///< as reported by the engine
  StructureInfo structure;
  long total_steps = 0;
  double wall_seconds = 0.0;  ///< host wall time of the stepping loop
  engine::Thermo final_thermo;
  std::vector<StageResult> stages;
  std::size_t xyz_frames = 0;
  std::size_t thermo_samples = 0;
  std::vector<ProbeOutput> observables;  ///< one per configured probe
  // Resolved output paths ("" = output disabled).
  std::string xyz_path;
  std::string thermo_path;
  std::string summary_path;
  // Checkpoint/restart bookkeeping.
  std::string checkpoint_path;           ///< resolved pattern ("" = off)
  std::size_t checkpoints_written = 0;
  long resumed_from_step = -1;           ///< -1 = fresh run
  // Telemetry exports ("" = not written) and the engine's cost-model
  // breakdown of the run (valid only on wafer backends).
  std::string trace_path;
  std::string metrics_path;
  engine::ModeledPhaseCost modeled;
  /// Interval snapshots streamed into the metrics file (empty unless
  /// telemetry.snapshot > 0) — the dashboard's time series.
  std::vector<telemetry::SnapshotRow> snapshots;
  /// Health-watchdog events that fired during the run (warns; an abort
  /// raises HealthAbortError instead of returning).
  std::size_t health_events = 0;
};

/// Thrown when the run is interrupted via request_interrupt() (the SIGINT/
/// SIGTERM path): the step loop stops at a step boundary after finalizing
/// the telemetry exports, so a killed run still leaves its artifacts.
class InterruptedError : public Error {
 public:
  explicit InterruptedError(long step);
  long step() const { return step_; }

 private:
  long step_ = 0;
};

/// Async-signal-safe interrupt request: the step loop checks the flag at
/// every step boundary and unwinds with InterruptedError (after
/// finalizing telemetry exports). The driver's signal handlers call this.
void request_interrupt();
bool interrupt_requested();
/// Clear the flag (tests; a new run after a handled interrupt).
void reset_interrupt();

/// Run the scenario: build structure + engine, execute the schedule, stream
/// outputs. Throws wsmd::Error on invalid configuration or I/O failure,
/// telemetry::HealthAbortError when an abort-configured health detector
/// trips (diagnostic bundle already written), and InterruptedError when
/// request_interrupt() fired. On every one of those paths the telemetry
/// exports (trace + metrics, snapshots included) are finalized first.
ScenarioResult run_scenario(const Scenario& sc, const RunOptions& opt = {});

/// Continue a checkpointed run: rebuild the structure, restore engine /
/// probe / RNG state from `ckpt`, and execute the remaining schedule from
/// the saved mid-stage cursor. `sc` must be the scenario rebuilt from the
/// checkpoint's embedded deck (scenario_from_deck over its entries), plus
/// any compatible overrides — outputs and backend may change freely (the
/// state transfers across backends); schedule or structure changes are
/// rejected. Output files restart at the resume step: the thermo log and
/// probe streams cover [resume step, end], finish-time tables (RDF) and
/// summaries cover the whole trajectory, so point --output-dir somewhere
/// fresh to keep the original partial outputs. Resuming on the backend
/// that wrote the checkpoint continues the trajectory bit-for-bit.
ScenarioResult resume_scenario(const Scenario& sc,
                               const io::CheckpointData& ckpt,
                               const RunOptions& opt = {});

/// Join a path under a run's output directory (relative paths are
/// prefixed, absolute ones pass through; no filesystem side effects).
/// Used directly for the checkpoint pattern, whose `*` placeholder
/// expands to directory components only at write time.
std::string join_output_path(const std::string& path,
                             const std::string& dir);

/// join_output_path plus eager parent-directory creation. Shared by the
/// runner and the offline analyzer so both lay files out identically.
std::string resolve_output_path(const std::string& path,
                                const std::string& dir);

/// The thermostat-rescale schedule, factored out so tests can pin it per
/// stage kind: a thermostatted stage (equilibrate / ramp / quench)
/// rescales after every `rescale_interval`-th step of the stage and
/// always after the stage's final step (so short stages thermostat at
/// least once and ramps end exactly at t1); thermalize and run never
/// rescale. `steps_done` counts completed steps within the stage (1-based).
bool stage_rescales_after(const Stage& st, long steps_done,
                          int rescale_interval);

/// Collect each probe's {kind, path, samples} from a finished bus and log
/// one line per probe via `log` (when set). Shared by the runner and the
/// offline analyzer so their reports cannot drift.
std::vector<ProbeOutput> collect_probe_outputs(
    const obs::ObserverBus& bus,
    const std::function<void(const std::string&)>& log);

}  // namespace wsmd::scenario
