#include "telemetry/health.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/bench_json.hpp"

namespace wsmd::telemetry {

namespace {

std::string describe(const HealthEvent& e) {
  std::ostringstream os;
  os << "health: " << e.detector << " at step " << e.step << ": "
     << e.message << " [" << health_action_name(e.action) << "]";
  return os.str();
}

/// Encode one event as a JSON object (shared by the "events" array and
/// the "fatal" member of health.json).
std::string encode_event(const HealthEvent& e) {
  JsonObject obj;
  obj.set("detector", e.detector)
      .set("action", health_action_name(e.action))
      .set("step", static_cast<long long>(e.step))
      .set("value", e.value)
      .set("limit", e.limit)
      .set("message", e.message);
  return obj.encode();
}

}  // namespace

bool parse_health_action(const std::string& token, HealthAction* out) {
  if (token == "off") {
    *out = HealthAction::kOff;
  } else if (token == "warn") {
    *out = HealthAction::kWarn;
  } else if (token == "abort") {
    *out = HealthAction::kAbort;
  } else {
    return false;
  }
  return true;
}

const char* health_action_name(HealthAction action) {
  switch (action) {
    case HealthAction::kOff:
      return "off";
    case HealthAction::kWarn:
      return "warn";
    case HealthAction::kAbort:
      return "abort";
  }
  return "off";
}

HealthAbortError::HealthAbortError(HealthEvent event, std::string bundle_dir)
    : Error(describe(event) + " — diagnostic bundle in '" + bundle_dir +
            "'"),
      event_(std::move(event)),
      bundle_dir_(std::move(bundle_dir)) {}

HealthMonitor::HealthMonitor(HealthConfig config, EventSink on_warn)
    : config_(std::move(config)), on_warn_(std::move(on_warn)) {
  last_beat_ns_.store(now_ns(), std::memory_order_relaxed);
  if (config_.stall != HealthAction::kOff) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

HealthMonitor::~HealthMonitor() { stop(); }

void HealthMonitor::set_stall_handler(EventSink handler) {
  std::lock_guard<std::mutex> lk(mu_);
  stall_handler_ = std::move(handler);
}

void HealthMonitor::begin_stage(bool conserves_energy, bool thermostatted,
                                double target_K) {
  stage_conserves_ = conserves_energy;
  stage_thermostatted_ = thermostatted;
  stage_target_K_ = target_K;
  have_baseline_ = false;
  last_beat_ns_.store(now_ns(), std::memory_order_relaxed);
}

void HealthMonitor::step_completed() {
  last_beat_ns_.store(now_ns(), std::memory_order_relaxed);
}

std::optional<HealthEvent> HealthMonitor::emit(HealthEvent event) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(event);
  }
  if (event.action == HealthAction::kAbort) return event;
  if (on_warn_) on_warn_(event);
  return std::nullopt;
}

std::optional<HealthEvent> HealthMonitor::check(const HealthSample& s) {
  const Thermo& t = s.thermo;
  if (config_.nan != HealthAction::kOff && !nan_latched_ &&
      (!std::isfinite(t.potential_energy) ||
       !std::isfinite(t.kinetic_energy) || !std::isfinite(t.total_energy) ||
       !std::isfinite(t.temperature))) {
    nan_latched_ = true;
    HealthEvent e;
    e.detector = "nan";
    e.step = t.step;
    e.action = config_.nan;
    std::ostringstream msg;
    msg << "non-finite thermo (pe=" << t.potential_energy
        << " ke=" << t.kinetic_energy << " total=" << t.total_energy
        << " T=" << t.temperature << ")";
    e.message = msg.str();
    if (auto fatal = emit(std::move(e))) return fatal;
  }
  // The remaining detectors compare magnitudes; skip them on non-finite
  // rows (the nan detector owns those).
  if (!std::isfinite(t.total_energy) || !std::isfinite(t.temperature)) {
    return std::nullopt;
  }
  if (config_.energy_drift != HealthAction::kOff && stage_conserves_) {
    if (!have_baseline_) {
      have_baseline_ = true;
      baseline_total_ = t.total_energy;
    } else if (!drift_latched_) {
      const double scale = std::max(std::abs(baseline_total_), 1e-9);
      const double drift = std::abs(t.total_energy - baseline_total_) / scale;
      if (drift > config_.energy_band) {
        drift_latched_ = true;
        HealthEvent e;
        e.detector = "energy_drift";
        e.step = t.step;
        e.value = drift;
        e.limit = config_.energy_band;
        e.action = config_.energy_drift;
        std::ostringstream msg;
        msg << "relative energy drift " << drift << " exceeds band "
            << config_.energy_band << " (E0=" << baseline_total_
            << " eV, E=" << t.total_energy << " eV)";
        e.message = msg.str();
        if (auto fatal = emit(std::move(e))) return fatal;
      }
    }
  }
  if (config_.temperature != HealthAction::kOff && !temperature_latched_ &&
      stage_thermostatted_ && s.has_target) {
    const double deviation = std::abs(t.temperature - s.target_K);
    if (deviation > config_.temperature_band_K) {
      temperature_latched_ = true;
      HealthEvent e;
      e.detector = "temperature";
      e.step = t.step;
      e.value = t.temperature;
      e.limit = config_.temperature_band_K;
      e.action = config_.temperature;
      std::ostringstream msg;
      msg << "temperature " << t.temperature << " K is " << deviation
          << " K from thermostat target " << s.target_K << " K (band "
          << config_.temperature_band_K << " K)";
      e.message = msg.str();
      if (auto fatal = emit(std::move(e))) return fatal;
    }
  }
  return std::nullopt;
}

void HealthMonitor::record(const HealthSample& s) {
  std::lock_guard<std::mutex> lk(mu_);
  tail_.push_back(s);
  while (static_cast<long>(tail_.size()) > std::max<long>(config_.thermo_tail, 1)) {
    tail_.pop_front();
  }
}

std::vector<HealthSample> HealthMonitor::tail() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {tail_.begin(), tail_.end()};
}

std::vector<HealthEvent> HealthMonitor::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

void HealthMonitor::stop() {
  {
    std::lock_guard<std::mutex> lk(stall_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  stall_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

std::uint64_t HealthMonitor::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void HealthMonitor::watchdog_loop() {
  // Poll at a fraction of the timeout so short test timeouts still detect
  // promptly, clamped to [10 ms, 1 s].
  const double poll_s =
      std::min(1.0, std::max(0.01, config_.stall_timeout_s / 4.0));
  const auto poll = std::chrono::duration<double>(poll_s);
  std::unique_lock<std::mutex> lk(stall_mu_);
  while (!stop_.load(std::memory_order_relaxed)) {
    stall_cv_.wait_for(lk, poll);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (stall_latched_.load(std::memory_order_relaxed)) continue;
    const std::uint64_t beat = last_beat_ns_.load(std::memory_order_relaxed);
    const double idle_s = static_cast<double>(now_ns() - beat) * 1e-9;
    if (idle_s < config_.stall_timeout_s) continue;
    stall_latched_.store(true, std::memory_order_relaxed);
    HealthEvent e;
    e.detector = "stall";
    e.value = idle_s;
    e.limit = config_.stall_timeout_s;
    e.action = config_.stall;
    std::ostringstream msg;
    msg << "no step completed for " << idle_s << " s (timeout "
        << config_.stall_timeout_s << " s)";
    e.message = msg.str();
    EventSink handler;
    {
      std::lock_guard<std::mutex> elk(mu_);
      events_.push_back(e);
      handler = stall_handler_;
    }
    if (e.action == HealthAction::kAbort) {
      // The runner thread is wedged: the abort must happen here, on the
      // watchdog thread, via the installed handler.
      if (handler) handler(e);
    } else if (on_warn_) {
      on_warn_(e);
    }
  }
}

void write_thermo_tail_csv(const std::string& path,
                           const std::vector<HealthSample>& samples) {
  std::ofstream os(path);
  WSMD_REQUIRE(os.good(), "cannot open thermo tail file '" << path << "'");
  os << "step,pe_eV,ke_eV,total_eV,temperature_K\n";
  char buf[256];
  for (const auto& s : samples) {
    const Thermo& t = s.thermo;
    std::snprintf(buf, sizeof buf, "%ld,%.10g,%.10g,%.10g,%.10g\n", t.step,
                  t.potential_energy, t.kinetic_energy, t.total_energy,
                  t.temperature);
    os << buf;
  }
  WSMD_REQUIRE(os.good(), "failed writing thermo tail file '" << path << "'");
}

void write_health_json(const std::string& path, const std::string& scenario,
                       const std::string& backend,
                       const std::vector<HealthEvent>& events,
                       const HealthEvent* fatal,
                       const HealthArtifacts& artifacts,
                       const std::vector<RankStatus>& ranks) {
  std::string events_json = "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) events_json += ", ";
    events_json += encode_event(events[i]);
  }
  events_json += "]";

  JsonObject artifacts_obj;
  artifacts_obj.set("dir", artifacts.dir)
      .set("checkpoint", artifacts.checkpoint)
      .set("thermo_tail", artifacts.thermo_tail)
      .set("trace", artifacts.trace)
      .set("metrics", artifacts.metrics);

  JsonObject obj;
  obj.set("schema", 1)
      .set("scenario", scenario)
      .set("backend", backend)
      .set("verdict",
           fatal != nullptr ? "abort" : (events.empty() ? "ok" : "warn"))
      .set_raw("fatal", fatal != nullptr ? encode_event(*fatal) : "null")
      .set_raw("events", events_json)
      .set_raw("artifacts", artifacts_obj.encode());
  if (!ranks.empty()) {
    std::string ranks_json = "[";
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (i > 0) ranks_json += ", ";
      JsonObject r;
      r.set("rank", ranks[i].rank)
          .set("last_step", static_cast<long long>(ranks[i].last_step))
          .set("log", ranks[i].log);
      ranks_json += r.encode();
    }
    ranks_json += "]";
    obj.set_raw("ranks", ranks_json);
  }

  std::ofstream os(path);
  WSMD_REQUIRE(os.good(), "cannot open health file '" << path << "'");
  os << obj.encode() << '\n';
  WSMD_REQUIRE(os.good(), "failed writing health file '" << path << "'");
}

}  // namespace wsmd::telemetry
