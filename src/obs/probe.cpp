#include "obs/probe.hpp"

#include <cstring>
#include <sstream>

#include "io/checkpoint.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wsmd::obs {

namespace {

/// Telemetry span names must be static literals outliving the session, so
/// a probe's kind tag maps onto a fixed table.
const char* probe_span_name(const char* kind) {
  if (std::strcmp(kind, "rdf") == 0) return "obs.rdf";
  if (std::strcmp(kind, "msd") == 0) return "obs.msd";
  if (std::strcmp(kind, "vacf") == 0) return "obs.vacf";
  if (std::strcmp(kind, "defects") == 0) return "obs.defects";
  return "obs.probe";
}

}  // namespace

void Probe::save_state(io::BinaryWriter& w) const { w.u64(samples_); }

void Probe::restore_state(io::BinaryReader& r) {
  samples_ = static_cast<std::size_t>(r.u64());
}

void ObserverBus::add(std::unique_ptr<Probe> probe, long every) {
  WSMD_REQUIRE(probe != nullptr, "null probe");
  WSMD_REQUIRE(every >= 1, "probe cadence must be >= 1, got " << every);
  WSMD_REQUIRE(!finished_, "cannot add probes to a finished bus");
  slots_.push_back(Slot{std::move(probe), every, -1});
}

bool ObserverBus::has_pending(long step) const {
  for (const auto& s : slots_) {
    if (s.pending_at(step)) return true;
  }
  return false;
}

bool ObserverBus::needs_positions_at(long step, bool final_state) const {
  for (const auto& s : slots_) {
    if (!s.probe->wants_positions()) continue;
    if (final_state ? s.pending_at(step) : s.fires_at(step)) return true;
  }
  return false;
}

bool ObserverBus::needs_velocities_at(long step, bool final_state) const {
  for (const auto& s : slots_) {
    if (!s.probe->wants_velocities()) continue;
    if (final_state ? s.pending_at(step) : s.fires_at(step)) return true;
  }
  return false;
}

bool ObserverBus::due(long step) const {
  for (const auto& s : slots_) {
    if (s.fires_at(step)) return true;
  }
  return false;
}

void ObserverBus::observe(const Frame& frame) {
  WSMD_REQUIRE(!finished_, "observe() after finish()");
  for (auto& s : slots_) {
    if (!s.fires_at(frame.step)) continue;
    telemetry::ScopedSpan span(probe_span_name(s.probe->kind()));
    s.probe->sample(frame);
    s.last_step = frame.step;
  }
}

void ObserverBus::observe_all(const Frame& frame) {
  WSMD_REQUIRE(!finished_, "observe_all() after finish()");
  for (auto& s : slots_) {
    if (!s.pending_at(frame.step)) continue;  // already saw this state
    telemetry::ScopedSpan span(probe_span_name(s.probe->kind()));
    s.probe->sample(frame);
    s.last_step = frame.step;
  }
}

void ObserverBus::finish() {
  WSMD_REQUIRE(!finished_, "finish() called twice");
  for (auto& s : slots_) s.probe->finish();
  finished_ = true;
}

void ObserverBus::require_outputs() const {
  WSMD_REQUIRE(finished_, "require_outputs() before finish()");
  for (const auto& s : slots_) {
    if (!s.probe->output_ok()) {
      throw WriteError(s.probe->output_path(),
                       std::string(s.probe->kind()) + " probe stream");
    }
  }
}

void ObserverBus::summarize(JsonObject& meta) const {
  WSMD_REQUIRE(finished_, "summarize() before finish()");
  for (const auto& s : slots_) s.probe->summarize(meta);
}

std::vector<std::pair<std::string, std::string>>
ObserverBus::save_probe_states() const {
  std::vector<std::pair<std::string, std::string>> blobs;
  blobs.reserve(slots_.size());
  for (const auto& s : slots_) {
    std::ostringstream os(std::ios::binary);
    io::BinaryWriter w(os);
    w.i64(s.last_step);
    s.probe->save_state(w);
    blobs.emplace_back(s.probe->kind(), os.str());
  }
  return blobs;
}

void ObserverBus::restore_probe_states(
    const std::vector<std::pair<std::string, std::string>>& blobs,
    const std::string& context) {
  WSMD_REQUIRE(!finished_, "restore_probe_states() after finish()");
  WSMD_REQUIRE(blobs.size() == slots_.size(),
               context << ": checkpoint holds " << blobs.size()
                       << " probe state(s), the scenario configures "
                       << slots_.size()
                       << " — observe.* changed since the checkpoint");
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    WSMD_REQUIRE(blobs[k].first == slots_[k].probe->kind(),
                 context << ": probe " << k << " is '"
                         << slots_[k].probe->kind()
                         << "' but the checkpoint saved '" << blobs[k].first
                         << "' — observe.probes changed since the "
                            "checkpoint");
    std::istringstream is(blobs[k].second, std::ios::binary);
    io::BinaryReader r(is, context + " (probe '" + blobs[k].first + "')");
    slots_[k].last_step = static_cast<long>(r.i64());
    slots_[k].probe->restore_state(r);
  }
}

}  // namespace wsmd::obs
