#pragma once

/// \file distributed_engine.hpp
/// Executed multi-process wafer backend: `ranks:M[xN]`.
///
/// The coordinator constructs one template WseMd (structure, potential
/// tables, mapping), then forks M rank processes that inherit it bitwise
/// by copy-on-write — no construction-time serialization. Each rank owns
/// a horizontal strip of the core grid (dist::row_strips, the same
/// partition engine::WaferEngine uses for threads) and advances only its
/// strip through the one step schedule (core::WseMd::step_region),
/// exchanging ghost-halo planes with peer ranks through one shared-memory
/// link per halo pair (see rank_worker.hpp for the in-step protocol).
/// Sockets carry only the coordinator <-> rank control plane and each
/// link's death canary. Optionally each rank runs N shard threads over
/// sub-strips (`ranks:MxN`).
///
/// The template stays the run's full-grid twin minus the atoms: it applies
/// every swap commit, and it finishes every step with the serial engine's
/// own accounting (core::WseMd::finish_region_step) from the ranks'
/// combined partials, so the step counter, committed energy, modeled
/// clock, cost attribution (engine::wafer_phase_cost) and checkpoint
/// conversion (engine::wafer_state / restore_wafer) are the wafer
/// engine's. A restore or set_positions adopts the new state into the
/// template and re-forks the ranks from it, so their halo segments always
/// fit the current neighborhood radius.
///
/// Determinism contract:
///   - Per-atom trajectories are bitwise identical to the serial wafer
///     engine: every input an atom's update reads is the exact FP32 value
///     the serial sweep would read (halo values are bitwise transfers).
///   - Global reductions (PE, KE, step statistics) combine per-rank
///     partials in fixed rank order: bitwise-stable across repeated runs
///     at fixed M, within the FP32 tolerance band of the serial engine
///     across different M (the partials regroup a long FP64 sum).
///   - Thermostat rescales feed the combined temperature back into the
///     velocities, so thermostatted trajectories drift ulp-level from
///     serial while NVE segments stay bitwise.
///
/// The coordinator drives ranks in lockstep — one command, M replies — so
/// positions()/snapshot() gathers at step boundaries are always
/// consistent, and the Engine surface (runner, probes, streaming,
/// checkpoints) works unchanged. Teardown sends kShutdown, waits, then
/// SIGKILLs stragglers; the destructor path also covers coordinator
/// aborts, and a vanished coordinator EOFs every rank into a quiet exit.

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "core/wse_md.hpp"
#include "dist/domain.hpp"
#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "engine/engine.hpp"

namespace wsmd::dist {

/// Most ranks the backend accepts. Each rank is a forked process, and
/// links exist only for halo pairs: a chain of M - 1 on a typical grid,
/// but up to all M(M - 1)/2 pairs once strips grow thinner than the halo
/// radius (halos spanning whole neighbor strips need no forwarding) — 16
/// ranks is 120 links, far past the per-host scaling this backend targets.
constexpr int kMaxRanks = 16;

struct DistributedConfig {
  core::WseMdConfig wse;  ///< underlying wafer-engine configuration
  int ranks = 2;          ///< rank processes (1..kMaxRanks)
  int threads = 1;        ///< shard threads per rank (ranks:MxN)
  /// Deadline for a rank to answer a command. A rank that stops
  /// heartbeating (hung, not dead) trips this and surfaces as a
  /// RankFailureError, which the runner converts into a health.stall
  /// abort. Deck key: dist.timeout (seconds).
  int step_timeout_ms = 300'000;
  /// Dead-rank drill (deck keys dist.kill_rank / dist.kill_step): rank
  /// kill_rank calls _Exit at the start of step kill_step.
  int kill_rank = -1;
  long kill_step = 0;
  /// Parent directory for the per-rank scratch files (stderr captures);
  /// empty uses the system temp dir. The runner points this at
  /// --output-dir so diagnostics land next to the run's artifacts without
  /// rank-vs-rank or run-vs-run collisions (pid-suffixed subdir,
  /// rank-suffixed names, removed atomically on clean teardown).
  std::string scratch_parent;
};

/// A rank process died or stopped responding. Carries the per-rank
/// last-known step counters so the run-health bundle can record how far
/// each rank got.
class RankFailureError : public Error {
 public:
  RankFailureError(int rank, std::vector<long> last_steps,
                   const std::string& what)
      : Error(what), rank_(rank), last_steps_(std::move(last_steps)) {}
  int failed_rank() const { return rank_; }
  const std::vector<long>& last_known_steps() const { return last_steps_; }

 private:
  int rank_;
  std::vector<long> last_steps_;
};

class DistributedEngine final : public engine::Engine {
 public:
  DistributedEngine(const lattice::Structure& s,
                    eam::EamPotentialPtr potential, DistributedConfig config);
  ~DistributedEngine() override;

  const char* backend_name() const override { return "ranks"; }
  engine::ModeledPhaseCost modeled_phase_cost() const override;
  std::vector<engine::ShardLoad> shard_load() const override {
    return cum_load_;
  }
  std::size_t atom_count() const override { return template_.atom_count(); }
  long step_count() const override { return template_.step_count(); }
  std::vector<Vec3d> positions() const override;
  std::vector<Vec3d> velocities() const override;
  void set_velocities(const std::vector<Vec3d>& v) override;
  void set_positions(const std::vector<Vec3d>& r) override;
  engine::State snapshot() const override;
  void restore(const engine::State& state) override;
  void thermalize(double temperature_K, Rng& rng) override;
  engine::Thermo step() override;
  engine::Thermo thermo() const override;

  int ranks() const { return config_.ranks; }
  int rank_threads() const { return config_.threads; }
  const std::vector<core::ShardRect>& strips() const { return strips_; }
  /// Step each rank last reported completing (for diagnostic bundles).
  const std::vector<long>& last_known_steps() const { return last_steps_; }
  /// Per-rank stderr capture files (diagnostic bundles copy these).
  std::vector<std::string> rank_log_paths() const;
  /// Keep the scratch dir (and the rank logs in it) past teardown.
  void keep_scratch() { scratch_.keep(); }

 private:
  /// (Re)create the ranks from the template: fork them, with one halo link
  /// per halo pair sized for the template's b, and handshake.
  void start_ranks();
  /// Broadcast a frame to every live rank, in rank order.
  void broadcast(Tag tag, const void* payload, std::size_t size) const;
  /// Collect one POD reply from every rank, in rank order; a transport
  /// failure is rethrown as RankFailureError with rank attribution.
  template <typename T>
  std::vector<T> collect(Tag tag) const;
  /// Gather owned pos+vel slices from every rank into full FP64 arrays.
  void gather_state(std::vector<Vec3d>& pos, std::vector<Vec3d>& vel) const;
  /// Recompute the PE (adopted by the template) / the cached KE from rank
  /// partials (fixed rank order).
  void refresh_potential_energy();
  void refresh_kinetic_energy();
  [[noreturn]] void rank_failed(int rank, const std::string& why) const;
  void shutdown_ranks() noexcept;

  DistributedConfig config_;
  core::WseMd template_;  ///< coordinator's full-grid twin (see above)
  ScratchDir scratch_;
  std::vector<core::ShardRect> strips_;
  std::vector<Channel> control_;  ///< coordinator end, per rank
  std::vector<pid_t> pids_;

  double ke_ = 0.0;  ///< kinetic energy (the ranks hold the velocities)
  std::vector<long> last_steps_;
  std::vector<StepRecord> prev_;  ///< last cumulative accounting, per rank
  std::vector<engine::ShardLoad> cum_load_;
};

}  // namespace wsmd::dist
