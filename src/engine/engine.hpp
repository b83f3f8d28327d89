#pragma once

/// \file engine.hpp
/// Unified MD engine interface (backends: reference FP64, wafer, ranks).
///
/// The repo grows three ways of advancing the same physical system:
///
///   - md::Simulation          — FP64 reference ("LAMMPS role"), ground
///                               truth;
///   - WaferEngine             — the functional one-atom-per-core wafer
///                               engine (core::WseMd, FP32, modeled cycle
///                               accounting) over N per-thread row shards
///                               (see wafer_engine.hpp);
///   - dist::DistributedEngine — the same wafer step in M forked rank
///                               processes with ghost-halo exchange.
///
/// `Engine` is the small common surface the scenario runner, benchmarks,
/// examples, and cross-engine tests drive: thermalize, step/run with a
/// per-step callback, and a thermodynamic snapshot. With the runner it is
/// the only driver: stages, thermostats and checkpoints live there, not in
/// the backends. Adapters live next to this header; the `make_engine`
/// factory builds any backend from a structure + potential.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/wse_md.hpp"
#include "eam/potential.hpp"
#include "lattice/lattice.hpp"
#include "md/simulation.hpp"
#include "util/random.hpp"
#include "util/thermo.hpp"
#include "util/vec3.hpp"

namespace wsmd::engine {

/// Thermodynamic snapshot, common to every backend (util/thermo.hpp).
/// For wafer backends the kinetic energy uses the stored half-step
/// leap-frog velocities (the FP32 state the workers hold); the reference
/// backend reports synchronized full-step values. Cross-engine comparisons
/// should therefore allow the O(dt) sawtooth between the two conventions.
using Thermo = ::wsmd::Thermo;

using StepCallback = std::function<void(const Thermo&)>;

/// Complete dynamic state of an engine, FP64-widened (float -> double is
/// exact, so FP32 wafer state round-trips bitwise). This is what a
/// checkpoint stores (io/checkpoint): restoring it into a fresh engine of
/// the same backend over the same structure continues the trajectory
/// bit-for-bit.
///
///   - Reference backend: step, positions and velocities are the whole
///     state. The Verlet list is rebuilt on restore when it is stale for
///     the restored positions; any complete list gives the same bits
///     (md/neighbor.hpp).
///   - Wafer block: the wafer engine's own core::WseMd::SavedState, which
///     State extends (so a wafer snapshot converts by copy, not field by
///     field): the atom-to-core mapping as mutated by online atom swaps,
///     the neighborhood radius b (derived from the *initial* structure,
///     not recoverable mid-run), the committed potential energy (the wafer
///     thermo convention reports the pre-step PE, which a recompute from
///     current positions would not reproduce), the modeled clock, and the
///     displacement-diagnostic baseline. Unused when has_wafer is false.
///
/// Cross-backend restore (reference checkpoint into a wafer engine or vice
/// versa) is supported as a best-effort state transfer: positions and
/// velocities carry over, the missing auxiliaries are rebuilt, and the
/// trajectory continues within cross-backend tolerance rather than
/// bitwise.
struct State : core::WseMd::SavedState {
  /// The wafer block is set (wafer and ranks backends).
  bool has_wafer = false;
};

/// Cost-model prediction of where a finished run's modeled wafer time went,
/// phase by phase, in the same units the telemetry spans measure (seconds).
/// Produced by the wafer backends from their cumulative per-step counters
/// (mean candidates/interactions per worker) pushed through wse::CostModel;
/// `wsmd report` joins it against the measured span totals. The component
/// seconds use *mean* per-worker counts while `total_seconds` is the
/// engine's modeled clock (max-cycles, slowest worker), so components
/// summing below the total is expected — the gap is load imbalance.
struct ModeledPhaseCost {
  bool valid = false;  ///< false: backend has no cost model (reference)
  long steps = 0;
  double mean_candidates = 0.0;    ///< per worker per step, run average
  double mean_interactions = 0.0;  ///< per worker per step, run average
  long swap_steps = 0;
  double density_seconds = 0.0;  ///< candidate multicast + r^2 filtering
  double force_seconds = 0.0;    ///< pair interactions (embedding + force)
  double fixed_seconds = 0.0;    ///< per-step fixed overhead
  double swap_seconds = 0.0;     ///< atom-swap steps (~1 extra step each)
  double halo_seconds = 0.0;     ///< halo between row strips (N > 1)
  double total_seconds = 0.0;    ///< modeled clock (max-cycles basis)
};

/// Cumulative wall-clock accounting of one shard worker: time spent inside
/// the phase kernels (busy) vs waiting at the inter-phase barriers for the
/// slowest worker of each round (wait). Only accumulated while a telemetry
/// session is armed — the disabled path takes no clock reads — so deltas
/// between two reads give the per-interval load-imbalance picture the
/// snapshot stream exports.
struct ShardLoad {
  double busy_seconds = 0.0;
  double wait_seconds = 0.0;
};

class Engine {
 public:
  virtual ~Engine() = default;

  virtual const char* backend_name() const = 0;

  /// Cost-model breakdown of the run so far. Default: invalid (backends
  /// without modeled accounting, i.e. the FP64 reference).
  virtual ModeledPhaseCost modeled_phase_cost() const { return {}; }

  /// Per-worker cumulative busy/wait accounting (see ShardLoad). Default:
  /// empty (backends without a worker pool, or telemetry never armed).
  virtual std::vector<ShardLoad> shard_load() const { return {}; }
  virtual std::size_t atom_count() const = 0;
  virtual long step_count() const = 0;

  /// Atom state, widened to FP64 for inspection and cross-engine transfer.
  virtual std::vector<Vec3d> positions() const = 0;
  virtual std::vector<Vec3d> velocities() const = 0;
  /// Overwrite velocities (e.g. copied from another engine so both
  /// integrate the same trajectory).
  virtual void set_velocities(const std::vector<Vec3d>& v) = 0;
  /// Overwrite positions (checkpoint restore, state transfer). Derived
  /// state (forces, neighbor lists, cached energies) is invalidated.
  virtual void set_positions(const std::vector<Vec3d>& r) = 0;

  /// Full dynamic state for checkpoint/restart (see State above).
  virtual State snapshot() const = 0;
  /// Restore a snapshot taken from the same structure. Same-backend
  /// restores continue the trajectory bitwise; cross-backend restores
  /// transfer positions/velocities and rebuild the rest. Throws on atom
  /// count or (for wafer backends) core-grid mismatch.
  virtual void restore(const State& state) = 0;

  /// Maxwell-Boltzmann initialization at T with zero net momentum.
  virtual void thermalize(double temperature_K, Rng& rng) = 0;

  /// Advance one timestep.
  virtual Thermo step() = 0;

  /// Advance n timesteps by looping step(); `callback`, when set, fires
  /// after every step. The one stepping loop with a callback: md::Simulation
  /// and core::WseMd only advance.
  Thermo run(long n, const StepCallback& callback = {});

  /// Snapshot of the current state (valid from construction on).
  virtual Thermo thermo() const = 0;
};

/// Backend selector for the factory.
enum class Backend {
  kReference,     ///< md::Simulation, FP64
  kShardedWafer,  ///< WaferEngine: the wafer step over per-thread shards
  kRanks,         ///< dist::DistributedEngine, M forked rank processes
};

struct EngineConfig {
  md::SimulationConfig reference;  ///< used by kReference
  core::WseMdConfig wafer;         ///< used by kShardedWafer / kRanks
  int threads = 1;                 ///< kShardedWafer worker count (0 = auto)

  // kRanks only (see dist::DistributedConfig for semantics).
  int ranks = 2;                ///< rank processes (ranks:M)
  int rank_threads = 1;         ///< shard threads per rank (ranks:MxN)
  int dist_timeout_ms = 300'000;  ///< rank-response deadline
  int dist_kill_rank = -1;        ///< dead-rank drill: rank to kill...
  long dist_kill_step = 0;        ///< ...at the start of this step
  std::string dist_scratch;       ///< per-rank scratch parent (""=temp dir)
};

std::unique_ptr<Engine> make_engine(Backend backend,
                                    const lattice::Structure& s,
                                    eam::EamPotentialPtr potential,
                                    const EngineConfig& config = {});

}  // namespace wsmd::engine
