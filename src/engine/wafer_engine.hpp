#pragma once

/// \file wafer_engine.hpp
/// Engine adapter for the wafer-scale engine (core::WseMd), over per-thread
/// row shards.
///
/// Mirrors how wafer-scale stencil codes decompose the fabric into
/// rectangular regions with halo exchange: the core grid splits into
/// `threads` row strips, and each worker thread runs the step schedule's
/// phase sweeps over its own strip (core::WseMd::step with the pool as its
/// parallel-for). Barriers sit exactly where the real machine synchronizes
/// — after the candidate/embedding exchange (F' of every neighborhood must
/// be published before forces) and after integration (before the serial
/// commit + reduction). One thread runs the serial sweep; the `wafer` deck
/// backend is exactly `sharded:1`.
///
/// Determinism: the phase kernels keep per-worker candidate arrival order
/// identical to the serial sweep, every per-atom value is written by
/// exactly one shard, and all cross-worker reductions run serially in
/// row-major core order. The trajectory is therefore *bitwise* the serial
/// core::WseMd one at any thread count.
///
/// Cost accounting: the canonical WseStepStats (max/mean/stddev cycles over
/// all workers) is unchanged. The modeled cost of refreshing each shard's
/// (2b+1)-deep ghost halo is charged from the cost model
/// (halo_exchange_cycles) — the price a region-decomposed wafer pays that
/// the idealized global machine does not.

#include <functional>
#include <vector>

#include "core/wse_md.hpp"
#include "engine/engine.hpp"
#include "engine/shard_pool.hpp"

namespace wsmd::engine {

/// The wafer backends' one checkpoint conversion: a State carrying `saved`
/// as its wafer block...
State wafer_state(core::WseMd::SavedState saved);
/// ...and its inverse: a wafer-written state restores bitwise (validated
/// before anything changes); a reference-written one transfers positions
/// and velocities onto md's mapping (core::WseMd::transfer_state).
void restore_wafer(core::WseMd& md, const State& state);

/// The wafer backends' one cost attribution: md's run so far through the
/// wse::CostModel Table V terms, plus the modeled halo between `strips`.
ModeledPhaseCost wafer_phase_cost(const core::WseMd& md,
                                  const std::vector<core::ShardRect>& strips);

class WaferEngine final : public Engine {
 public:
  /// `threads` row-strip shards, one worker thread each (0 = one per
  /// hardware thread).
  WaferEngine(const lattice::Structure& s, eam::EamPotentialPtr potential,
              core::WseMdConfig config = {}, int threads = 1);
  // The schedule's parallel-for holds `this`.
  WaferEngine(const WaferEngine&) = delete;
  WaferEngine& operator=(const WaferEngine&) = delete;

  core::WseMd& wafer() { return md_; }
  const core::WseMd& wafer() const { return md_; }

  /// Accounting of the most recent step (zeroed before the first step).
  const core::WseStepStats& last_step_stats() const { return last_; }

  int threads() const { return pool_.size(); }
  const std::vector<core::ShardRect>& shards() const { return shards_; }
  /// Per-shard accounting of the most recent step (the global reduction
  /// restricted to each shard's cores under the current mapping; empty
  /// shards report zeroes).
  std::vector<core::WseStepStats> shard_stats() const;
  /// Modeled cycles per step spent refreshing the shards' ghost halos (two
  /// neighborhood exchanges per step: positions and F'). Zero for a single
  /// shard — the whole grid has no internal boundary.
  double halo_cycles_per_step() const;

  const char* backend_name() const override { return "sharded-wafer"; }
  /// Cost-model phase breakdown (wafer_phase_cost over the shards).
  ModeledPhaseCost modeled_phase_cost() const override;
  /// Cumulative per-worker busy/wait seconds, accumulated while telemetry
  /// is armed (zeros otherwise) — the raw series behind the snapshot
  /// stream's imbalance rows.
  std::vector<ShardLoad> shard_load() const override { return cum_load_; }
  std::size_t atom_count() const override { return md_.atom_count(); }
  long step_count() const override { return md_.step_count(); }
  std::vector<Vec3d> positions() const override { return md_.positions(); }
  std::vector<Vec3d> velocities() const override { return md_.velocities(); }
  void set_velocities(const std::vector<Vec3d>& v) override {
    md_.set_velocities(v);
  }
  void set_positions(const std::vector<Vec3d>& r) override {
    md_.set_positions(r);
  }
  State snapshot() const override { return wafer_state(md_.save_state()); }
  void restore(const State& state) override { restore_wafer(md_, state); }
  void thermalize(double temperature_K, Rng& rng) override {
    md_.thermalize(temperature_K, rng);
  }
  Thermo step() override;
  Thermo thermo() const override;

 private:
  /// pool_.run with telemetry: times each worker's busy span and folds the
  /// round's aggregate barrier wait (round wall time minus per-worker busy
  /// time) into the "shard.barrier_wait" span — the imbalance instrument.
  /// Falls back to a plain pool_.run when telemetry is disabled.
  void run_sharded(const std::function<void(int)>& task);

  core::WseMd md_;
  core::WseStepStats last_;
  ShardPool pool_;
  std::vector<core::ShardRect> shards_;
  std::vector<double> busy_seconds_;  ///< run_sharded scratch, per worker
  std::vector<ShardLoad> cum_load_;   ///< cumulative busy/wait, per worker
  core::StepSchedule schedule_;
};

}  // namespace wsmd::engine
