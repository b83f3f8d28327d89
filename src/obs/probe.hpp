#pragma once

/// \file probe.hpp
/// Streaming observables: the Probe interface and the ObserverBus.
///
/// The paper's headline result is science per wall-clock — grain-boundary
/// motion and defect evolution observed over long trajectories (Fig. 2) —
/// not raw steps/second. Production long-timescale MD computes observables
/// *while running* rather than post-hoc (the ACEMD model), so WSMD streams
/// them: a Probe consumes state snapshots (`Frame`) at a per-probe cadence
/// and writes its time series through src/io as the run advances.
///
/// Probes are driven purely through the Engine surface (positions /
/// velocities widened to FP64), so the same probe works identically on the
/// reference, wafer, and sharded backends — which is what lets golden CI
/// replay observable streams across backends. The same probes also replay
/// offline over a saved XYZ trajectory (`wsmd analyze`), where velocities
/// are unavailable and `Frame::velocities` is null.

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/bench_json.hpp"
#include "util/box.hpp"
#include "util/vec3.hpp"

namespace wsmd::io {
class BinaryWriter;
class BinaryReader;
}  // namespace wsmd::io

namespace wsmd::obs {

/// One state snapshot handed to probes. Pointers are borrowed for the
/// duration of the call only.
struct Frame {
  long step = 0;
  double time_ps = 0.0;  ///< step * dt
  const Box* box = nullptr;
  const std::vector<Vec3d>* positions = nullptr;
  /// Null when replaying a position-only trajectory (`wsmd analyze`).
  const std::vector<Vec3d>* velocities = nullptr;
};

/// One streaming observable. A probe owns its output (it opens its
/// SeriesWriter at construction, so a bad path fails before the run
/// starts), accumulates whatever state it needs across samples, and at
/// finish() writes any end-of-run artifacts and closes the stream.
class Probe {
 public:
  virtual ~Probe() = default;

  /// Probe kind tag ("rdf", "msd", "vacf", "defects").
  virtual const char* kind() const = 0;

  /// What sample() actually reads from the Frame. Drivers use these to
  /// skip the O(N) state widening/copy for snapshots no due probe reads.
  virtual bool wants_positions() const { return true; }
  virtual bool wants_velocities() const { return false; }

  /// Path of the probe's primary output file.
  virtual const std::string& output_path() const = 0;

  /// Consume one frame.
  virtual void sample(const Frame& frame) = 0;

  /// Close the output; called exactly once, after the last sample.
  virtual void finish() = 0;

  /// Fold end-of-run summary statistics into `meta`, keys prefixed
  /// "obs_<kind>_" (the runner splices this into the BENCH envelope).
  /// Valid only after finish().
  virtual void summarize(JsonObject& meta) const = 0;

  /// Health of the probe's output stream: false once a write/flush failed
  /// (io::SeriesWriter latched a failure) — the output file is incomplete.
  /// Meaningful any time; ObserverBus::require_outputs() turns a failure
  /// into a WriteError after finish().
  virtual bool output_ok() const { return true; }

  /// Serialize / restore the probe's accumulators (checkpoint/restart).
  /// A restored probe continues its series and finish-time summary as if
  /// the run had never stopped; only the *output file* restarts at the
  /// resume point (SeriesWriter truncates on construction), so a resumed
  /// run's streams cover [resume step, end] while finish-time tables
  /// (RDF) and summaries cover the whole trajectory. Implementations
  /// must call the base class first, in both directions.
  virtual void save_state(io::BinaryWriter& w) const;
  virtual void restore_state(io::BinaryReader& r);

  std::size_t samples_taken() const { return samples_; }

 protected:
  std::size_t samples_ = 0;  ///< concrete probes bump this in sample()
};

/// Dispatches frames to a set of probes, each at its own sampling cadence
/// (probe p fires when step % every_p == 0).
class ObserverBus {
 public:
  /// Register a probe with sampling period `every` (steps, >= 1).
  void add(std::unique_ptr<Probe> probe, long every);

  std::size_t size() const { return slots_.size(); }
  const Probe& probe(std::size_t k) const { return *slots_[k].probe; }
  long cadence(std::size_t k) const { return slots_[k].every; }

  /// True when any probe is due at `step` — lets the driver skip the
  /// positions()/velocities() snapshot entirely on non-sampling steps.
  bool due(long step) const;

  /// True when any probe has not yet sampled `step` — i.e. observe_all()
  /// would do work. Lets the driver skip the final-state snapshot when
  /// the schedule already ended on every probe's cadence.
  bool has_pending(long step) const;

  /// True when a probe reading that part of the state would fire for this
  /// dispatch — i.e. it is due at `step` (or, for the final-state
  /// top-off, has not yet sampled it). Lets the driver skip each O(N)
  /// snapshot copy on steps where no firing probe reads it.
  bool needs_positions_at(long step, bool final_state) const;
  bool needs_velocities_at(long step, bool final_state) const;

  /// Dispatch to every probe due at frame.step.
  void observe(const Frame& frame);

  /// Dispatch to every probe that has not yet sampled this exact step,
  /// cadence regardless. Used for the final state of a run (so every series
  /// ends where the run ended) and for offline trajectory replay (where the
  /// stored frames *are* the sampling).
  void observe_all(const Frame& frame);

  /// Finish every probe; valid once. Summaries are available afterwards via
  /// summarize().
  void finish();

  /// Throw WriteError naming the first probe whose output stream failed
  /// (output_ok() == false); call after finish(), so every probe has
  /// flushed its file first.
  void require_outputs() const;

  /// Fold every probe's summary into `meta`.
  void summarize(JsonObject& meta) const;

  /// Serialize every probe's accumulators (plus the bus's own dispatch
  /// cursor) into (kind, blob) pairs for a checkpoint.
  std::vector<std::pair<std::string, std::string>> save_probe_states() const;

  /// Restore from checkpointed pairs. The bus must hold the same probe
  /// set in the same order as when the checkpoint was written (the
  /// factory is deterministic for a given config); throws with `context`
  /// in the message otherwise.
  void restore_probe_states(
      const std::vector<std::pair<std::string, std::string>>& blobs,
      const std::string& context);

 private:
  struct Slot {
    std::unique_ptr<Probe> probe;
    long every = 1;
    long last_step = -1;

    // The two dispatch predicates, defined exactly once: every method
    // (due/observe/observe_all/has_pending/needs_velocities_at) goes
    // through these, so the runner's "will velocities be read?" query can
    // never drift from what observe()/observe_all() actually dispatch.
    bool fires_at(long step) const { return step % every == 0; }
    bool pending_at(long step) const { return last_step != step; }
  };
  std::vector<Slot> slots_;
  bool finished_ = false;
};

}  // namespace wsmd::obs
