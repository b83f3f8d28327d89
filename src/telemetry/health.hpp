#pragma once

/// \file health.hpp
/// Run-health watchdog: latched detectors over the thermo stream plus a
/// stalled-progress timer.
///
/// The paper's runs live for days of wall-clock; ACEMD-style
/// microsecond-barrier practice (PAPERS.md) is that such runs are babysat
/// by machines, not humans. The HealthMonitor is that machine: the
/// scenario runner feeds it every thermo sample, and four latched
/// detectors watch for the classic ways a long MD run dies quietly —
///
///   - `nan`           — non-finite PE/KE/total/T (integrator blow-up);
///   - `energy_drift`  — |E - E0| beyond a relative band during
///                       energy-conserving (`run`) stages;
///   - `temperature`   — T beyond an absolute band around the active
///                       thermostat target during thermostatted stages;
///   - `stall`         — no step completed within a timeout (watchdog
///                       thread; the only detector that fires off the
///                       runner thread).
///
/// Each detector is independently configured per deck (`health.*` keys) to
/// `off`, `warn` (log and keep running) or `abort` (the runner writes a
/// diagnostic bundle — checkpoint, thermo tail, trace, health.json — and
/// exits nonzero). Detectors latch: a run that crosses a band emits one
/// event, not one per step. The monitor also keeps the last-K thermo ring
/// the bundle's thermo tail is written from; unlike io::ThermoLogger it
/// accepts non-finite values — the whole point is capturing the rows
/// around a blow-up.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thermo.hpp"

namespace wsmd::telemetry {

enum class HealthAction {
  kOff,    ///< detector disabled
  kWarn,   ///< emit a warning event, keep running
  kAbort,  ///< write the diagnostic bundle and terminate the run
};

/// Parse "off" / "warn" / "abort"; returns false on any other token so the
/// deck parser can raise its own file:line error.
bool parse_health_action(const std::string& token, HealthAction* out);
const char* health_action_name(HealthAction action);

/// Per-deck watchdog configuration (`health.*` keys, eager-validated by
/// the deck parser). Defaults: NaN detection warns — it costs a few
/// isfinite() per thermo row and a silent NaN run is never useful — and
/// everything else is off.
struct HealthConfig {
  HealthAction nan = HealthAction::kWarn;
  HealthAction energy_drift = HealthAction::kOff;
  /// Relative |E - E0| / max(|E0|, eps) band for energy_drift.
  double energy_band = 0.02;
  HealthAction temperature = HealthAction::kOff;
  /// Absolute |T - target| band in K for the temperature detector.
  double temperature_band_K = 250.0;
  HealthAction stall = HealthAction::kOff;
  double stall_timeout_s = 120.0;  ///< no completed step within this -> stall
  long thermo_tail = 64;           ///< bundle: last-K thermo rows kept
  std::string bundle_dir;          ///< bundle directory ("" = <name>.health)
  /// Fault drill: poison one velocity component with quiet_NaN before this
  /// 1-based step of the first stage (0 = off). Exists so decks can
  /// rehearse the NaN path deterministically end-to-end.
  long inject_nan_step = 0;

  bool any_enabled() const {
    return nan != HealthAction::kOff || energy_drift != HealthAction::kOff ||
           temperature != HealthAction::kOff || stall != HealthAction::kOff;
  }
  bool any_abort() const {
    return nan == HealthAction::kAbort ||
           energy_drift == HealthAction::kAbort ||
           temperature == HealthAction::kAbort ||
           stall == HealthAction::kAbort;
  }
};

/// One thermo row as the runner sees it, plus the active thermostat
/// target (has_target during thermostatted stages).
struct HealthSample {
  Thermo thermo;
  double target_K = 0.0;
  bool has_target = false;
};

/// A tripped detector. `value` is the observed quantity, `limit` the
/// configured threshold it crossed (both 0 where meaningless, e.g. nan).
struct HealthEvent {
  std::string detector;  ///< "nan" | "energy_drift" | "temperature" | "stall"
  std::string message;
  long step = 0;
  double value = 0.0;
  double limit = 0.0;
  HealthAction action = HealthAction::kWarn;
};

/// Thrown by the runner when an abort-configured detector trips; carries
/// the verdict and where the diagnostic bundle was written.
class HealthAbortError : public Error {
 public:
  HealthAbortError(HealthEvent event, std::string bundle_dir);
  const HealthEvent& event() const { return event_; }
  const std::string& bundle_dir() const { return bundle_dir_; }

 private:
  HealthEvent event_;
  std::string bundle_dir_;
};

class HealthMonitor {
 public:
  using EventSink = std::function<void(const HealthEvent&)>;

  /// `on_warn` fires for every warn-action event — and, for stall events,
  /// on the watchdog thread. The stall timer (when configured) starts
  /// immediately: engine construction time counts as progress only via
  /// begin_stage()/step_completed() heartbeats.
  HealthMonitor(HealthConfig config, EventSink on_warn);
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Handler for a stall event with abort action, called on the watchdog
  /// thread (the runner thread is by definition wedged). The runner
  /// installs a bundle-writer that terminates the process; tests install
  /// a capture hook.
  void set_stall_handler(EventSink handler);

  /// Start-of-stage reset: re-arms the energy-drift baseline (taken from
  /// the first sample of the stage) and refreshes the stall heartbeat.
  /// `conserves_energy` marks `run` stages (drift is meaningless while a
  /// thermostat injects energy); `thermostatted` stages check temperature
  /// against `target_K`.
  void begin_stage(bool conserves_energy, bool thermostatted,
                   double target_K);

  /// Stall heartbeat; call after every completed step.
  void step_completed();

  /// Feed one thermo sample through the latched detectors. Returns the
  /// event when an abort-action detector trips (the caller unwinds);
  /// warn-action trips go to the on_warn sink and return nullopt.
  std::optional<HealthEvent> check(const HealthSample& sample);

  /// Append to the last-K thermo ring the bundle tail is written from.
  void record(const HealthSample& sample);

  std::vector<HealthSample> tail() const;
  /// Every event emitted so far (warns and the fatal one, in trip order).
  std::vector<HealthEvent> events() const;
  const HealthConfig& config() const { return config_; }

  /// Stop and join the stall watchdog thread (idempotent; the destructor
  /// calls it).
  void stop();

 private:
  void watchdog_loop();
  std::uint64_t now_ns() const;
  std::optional<HealthEvent> emit(HealthEvent event);

  HealthConfig config_;
  EventSink on_warn_;
  EventSink stall_handler_;

  // Stage context (runner thread only).
  bool stage_conserves_ = false;
  bool stage_thermostatted_ = false;
  double stage_target_K_ = 0.0;
  bool have_baseline_ = false;
  double baseline_total_ = 0.0;

  // Latches (runner thread only, except stall).
  bool nan_latched_ = false;
  bool drift_latched_ = false;
  bool temperature_latched_ = false;

  mutable std::mutex mu_;  ///< guards events_, tail_, stall_handler_
  std::vector<HealthEvent> events_;
  std::deque<HealthSample> tail_;

  // Stall watchdog.
  std::atomic<std::uint64_t> last_beat_ns_{0};
  std::atomic<bool> stall_latched_{false};
  std::atomic<bool> stop_{false};
  std::mutex stall_mu_;
  std::condition_variable stall_cv_;
  std::thread watchdog_;
};

/// Paths recorded in health.json's "artifacts" block; empty members are
/// emitted as "" (artifact not produced).
struct HealthArtifacts {
  std::string dir;
  std::string checkpoint;
  std::string thermo_tail;
  std::string trace;
  std::string metrics;
};

/// Write the thermo-tail ring as raw CSV (header
/// step,pe_eV,ke_eV,total_eV,temperature_K). Unlike io::SeriesWriter this
/// prints non-finite values verbatim — the blow-up rows are the payload.
void write_thermo_tail_csv(const std::string& path,
                           const std::vector<HealthSample>& samples);

/// Per-rank status of a distributed (ranks:) run at bundle time: the step
/// the rank last reported completing and where its stderr capture was
/// copied inside the bundle. Empty list = not a distributed run.
struct RankStatus {
  int rank = 0;
  long last_step = 0;
  std::string log;  ///< bundle-relative or absolute stderr path ("" = none)
};

/// Write the bundle verdict: {"schema": 1, "scenario", "backend",
/// "verdict": "abort"|"warn"|"ok", "fatal": {...}|null, "events": [...],
/// "artifacts": {...}}. A non-empty `ranks` adds a "ranks" array (one
/// {"rank","last_step","log"} object per rank process) — schema 1 readers
/// that predate it ignore unknown keys.
void write_health_json(const std::string& path, const std::string& scenario,
                       const std::string& backend,
                       const std::vector<HealthEvent>& events,
                       const HealthEvent* fatal,
                       const HealthArtifacts& artifacts,
                       const std::vector<RankStatus>& ranks = {});

}  // namespace wsmd::telemetry
