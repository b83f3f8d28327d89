#pragma once

/// \file wse_md.hpp
/// The wafer-scale MD engine: one atom per core (paper Secs. III-A..III-D).
///
/// Each core is a worker owning at most one atom (id, position, velocity,
/// FP32 — the paper's wafer kernels run single precision) plus local copies
/// of the potential tables: the phase kernels evaluate the potential only
/// through one FP32 r²-indexed profile (eam/profile.hpp), never through its
/// functional form. A timestep executes the paper's five phases:
///
///   1. Candidate exchange — multicast positions through the (2b+1)^2
///      neighborhood (systolic marching multicast; the wavelet-level
///      schedule is validated in src/wse, and this engine performs the
///      equivalent gather functionally while charging cycles from the
///      calibrated cost model);
///   2. Neighbor list — r^2 against rcut^2, candidates arriving in
///      deterministic order. The host keeps a per-atom Verlet shortlist:
///      a rebuild step gathers the neighborhood and keeps the candidates
///      within rcut + skin in arrival order; every other step sieves only
///      that shortlist, which yields exactly the rows the full gather
///      would (see StepWorkspace). The cost model still charges every
///      multicast candidate — the modeled machine has no such cache;
///   3. Embedding — accumulate rho_i, evaluate F_i and F'_i, and exchange
///      F' with the neighborhood (it enters the force on other atoms);
///   4. Force + leap-frog integration (paper Eqs. 4-5);
///   5. Atom swap — optional greedy remapping every `swap_interval` steps
///      (paper Sec. III-D), with empty tiles ("atoms at infinity")
///      participating so atoms can migrate across cores.
///
/// Physics equivalence with the FP64 reference engine (src/md) is enforced
/// by the integration tests; performance comes from wse::CostModel.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/mapping.hpp"
#include "eam/potential.hpp"
#include "eam/profile.hpp"
#include "lattice/lattice.hpp"
#include "md/simd.hpp"
#include "util/random.hpp"
#include "util/soa.hpp"
#include "util/stats.hpp"
#include "wse/cost_model.hpp"

namespace wsmd::core {

struct WseMdConfig {
  double dt = 0.002;  ///< ps (paper: 2 fs)
  /// Perform the greedy atom-swap remap every this many steps (0 = never).
  int swap_interval = 0;
  /// Mapping construction parameters (cell size defaults to ~8 atoms per
  /// column when zero; pass the lattice constant for crystal workloads).
  MappingConfig mapping;
  /// Cycle/time accounting model.
  wse::CostModel cost_model = wse::CostModel::paper_baseline();
  /// Neighborhood radius override; 0 derives the radius from the mapping
  /// (required_b plus one hop of slack for thermal motion).
  int b_override = 0;
};

/// Per-step accounting, mirroring the counters the paper reports.
struct WseStepStats {
  long step = 0;                   ///< step index this snapshot belongs to
  double mean_candidates = 0.0;    ///< exchanged candidate atoms per worker
  double mean_interactions = 0.0;  ///< neighbor-list entries per worker
  double max_cycles = 0.0;         ///< slowest worker (sets the step time)
  double mean_cycles = 0.0;
  double stddev_cycles = 0.0;
  double wall_seconds = 0.0;       ///< modeled step time (max worker)
  bool swapped = false;
  std::size_t swaps_applied = 0;
};

/// Rectangular core region, half-open: x in [x0, x1), y in [y0, y1).
/// The phase kernels below operate on one region at a time; the step
/// schedule tiles its rows into disjoint shards and runs them on
/// concurrent workers.
struct ShardRect {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
  bool empty() const { return x1 <= x0 || y1 <= y0; }
  friend bool operator==(const ShardRect&, const ShardRect&) = default;
};

/// Row strip k of `count` near-equal strips of `region` (its rows
/// [h*k/count, h*(k+1)/count)), empty when the region has fewer rows than
/// strips. The one partition every decomposition uses: the schedule's
/// worker shards, and the ranks: backend's rank strips (dist::row_strips).
ShardRect row_strip(const ShardRect& region, int k, int count);

/// The halo a region executor trades with the executors of neighboring
/// regions during a step.
enum class Halo {
  kFprime,  ///< F' after the density phase, radius b (the force rows read it)
  kState,   ///< committed positions + velocities, radius b + 1
};

/// Parameters of the one step schedule (WseMd::step, step_region,
/// region_energy). The default is the serial sweep: one worker, no hooks.
struct StepSchedule {
  /// Each phase sweep splits its rows into this many row strips.
  int workers = 1;
  /// Runs task(k) for every k in [0, workers) and returns once all have
  /// finished — the barrier between phases. Null runs them in order on
  /// the calling thread.
  std::function<void(const std::function<void(int)>&)> parallel_for;
  /// Halo hooks of a region with peers (a ranks: process); null
  /// elsewhere. `publish` sends the region's halo rows, `consume` receives
  /// the peers' ghost rows.
  std::function<void(Halo)> publish;
  std::function<void(Halo)> consume;
  /// Replaces the region's partner choices with every region's, merged.
  std::function<void(std::vector<int>&)> merge_partners;
};

/// Reusable per-step buffers for the phase kernels. Every array is indexed
/// by atom id except `partner` (indexed by core id, used by the atom-swap
/// phase). Each atom is owned by exactly one core, so kernels running on
/// disjoint shards never write the same slot — the workspace is safe to
/// share across threads within one step.
///
/// The workspace also carries the Verlet shortlist across steps. A rebuild
/// step gathers each atom's clipped (2b+1)² window and keeps the
/// candidates within rcut + WseMd::kShortlistSkin, in arrival order, in
/// one flat fixed-stride buffer (row i at shortlist_idx[i *
/// shortlist_stride], length shortlist_count[i]); every other step sieves
/// only that row against rcut. begin_step decides, once per step and
/// before any shard runs, whether to rebuild: when the mapping version or
/// the row stride (i.e. b) changed, or when an atom the step can gather
/// moved more than half the skin (minus an FP32 margin) from its anchor.
/// Short of that, no pair outside the shortlist can come within rcut, so
/// the accepted rows — and the trajectory — are bitwise those of the full
/// gather. A default-constructed workspace always rebuilds first. Only
/// indices are stored: the density and force phases each sieve the
/// shortlist once into per-call scratch (indices, displacements, r2), and
/// the force row reads the displacements from there, so no second
/// full-stride row is kept.
struct StepWorkspace {
  // Verlet shortlist (phases 1-2), kept across steps.
  std::vector<std::uint32_t> shortlist_idx;    ///< rc + skin rows, flat
  std::vector<std::uint32_t> shortlist_count;  ///< shortlisted per atom
  std::size_t shortlist_stride = 0;  ///< row capacity (incl. pad); 0 = none
  Vec3fPlanes anchor;                ///< positions at the last rebuild
  ShardRect anchored;                ///< core rows whose atoms are anchored
  std::uint64_t mapping_version = 0;  ///< AtomMapping::version() at rebuild
  bool rebuild = true;  ///< this step gathers (set by begin_step)
  /// Gathered candidates per worker: the multicast the cost model charges,
  /// counted on a rebuild step and unchanged until the next one.
  std::vector<std::uint32_t> candidates;
  // Phase 1-3 outputs.
  std::vector<std::uint32_t> neighbor_count;  ///< accepted (r < rcut)
  std::vector<double> pe_embed;               ///< F(rho_i) per atom
  // Phase 4 outputs.
  std::vector<float> pair_half;   ///< sum_j phi_ij before the 1/2 factor
  std::vector<double> cycles;     ///< cost-model cycles per worker
  Vec3fPlanes new_positions;
  Vec3fPlanes new_velocities;
  // Phase 5 (atom swap) scratch: chosen partner core id or -1, per core.
  std::vector<int> partner;
  // Full-grid accounting reduced by commit_step (before any swap perturbs
  // the row-major reduction order); finalized by finish_step.
  WseStepStats reduced;
};

class WseMd {
 public:
  /// Verlet skin of the candidate shortlist (A): wide enough that swaps,
  /// not thermal motion, set the rebuild cadence of a solid near room
  /// temperature; 0.5, 1.0 and 1.5 A measured alike on the Ta grain
  /// boundary deck.
  static constexpr double kShortlistSkin = 1.0;

  WseMd(const lattice::Structure& s, eam::EamPotentialPtr potential,
        WseMdConfig config = {});

  std::size_t atom_count() const { return positions_.size(); }
  const AtomMapping& mapping() const { return mapping_; }
  int b() const { return b_; }
  const WseMdConfig& config() const { return config_; }

  /// FP32-held atom state, widened for inspection.
  std::vector<Vec3d> positions() const;
  std::vector<Vec3d> velocities() const;
  /// Overwrite velocities (e.g. copied from the reference engine so both
  /// integrate the same trajectory).
  void set_velocities(const std::vector<Vec3d>& v);
  /// Overwrite positions (FP32-rounded); invalidates the cached potential
  /// energy. When the new positions have drifted from the mapping (e.g. a
  /// cross-backend state transfer), widen b so the candidate exchange
  /// still covers every interacting pair.
  void set_positions(const std::vector<Vec3d>& r);

  /// Complete dynamic state for checkpoint/restart: the FP32 atom state
  /// (widened exactly to FP64), the step counter and modeled clock, the
  /// atom-to-core assignment as mutated by online swaps, the neighborhood
  /// radius (derived from the initial structure, not recoverable mid-run),
  /// the committed potential energy (thermo reports the *pre-step* PE — a
  /// recompute from current positions would not reproduce it), and the
  /// displacement-diagnostic baseline.
  struct SavedState {
    long step = 0;
    double elapsed_seconds = 0.0;
    double potential_energy = 0.0;
    std::vector<Vec3d> positions;
    std::vector<Vec3d> velocities;
    int grid_width = 0;
    int grid_height = 0;
    int b = 0;
    std::vector<long> core_atoms;
    std::vector<Vec3d> initial_positions;
  };

  SavedState save_state() const;

  /// Restore a snapshot taken from an identically-built engine (same
  /// structure, potential, mapping config). The continued trajectory is
  /// bitwise identical to the uninterrupted run at any shard count.
  /// Throws on atom-count or core-grid mismatch, and on a neighborhood
  /// radius outside [1, max(grid_width, grid_height)] (past that the
  /// clipped window stops growing, so a larger b is corrupt input).
  void restore_state(const SavedState& state);

  /// Cross-backend transfer (a reference-written checkpoint): adopt
  /// positions and velocities onto the constructed mapping as
  /// set_positions / set_velocities do (b widens as needed), set the step
  /// counter and restart the modeled clock. The potential energy is
  /// evaluated lazily from the transferred configuration.
  void transfer_state(long step, const std::vector<Vec3d>& positions,
                      const std::vector<Vec3d>& velocities);

  /// Maxwell-Boltzmann initialization at T (FP32-rounded).
  void thermalize(double temperature_K, Rng& rng);

  /// --- The step schedule ------------------------------------------------
  /// Every backend advances a timestep through one schedule over a row
  /// region of the core grid:
  ///
  ///   begin -> density -> F' halo -> force -> commit -> state halo ->
  ///   swap select -> partner merge -> swap commit -> accounting
  ///
  /// Its parameters are the region and a StepSchedule (worker count,
  /// parallel-for, optional hooks). The serial engine is the whole grid
  /// with one worker and no hooks; engine::WaferEngine is the whole grid
  /// split into N row strips on its thread pool; a ranks: process is its
  /// own strip split across its threads, plus halo hooks and the
  /// coordinator's partner merge. A region with peers runs its rows within
  /// b of an internal strip edge (the rows peers read, and the rows that
  /// read ghost rows) around each halo exchange, so the interior computes
  /// while the halo is in flight. The phase kernels are bitwise independent
  /// of the decomposition, so every configuration integrates the same
  /// trajectory. The schedule runs on the engine's own StepWorkspace.

  /// Advance the whole grid one timestep and finish its accounting.
  WseStepStats step(const StepSchedule& schedule = {});

  /// Partial FP64 energy sums over one region, each accumulated in
  /// row-major core order (embedding and pair kept separate so a
  /// coordinator can combine partials in a fixed rank order).
  struct RegionEnergy {
    double embed = 0.0;
    double pair = 0.0;
  };
  /// Raw (unnormalized) accounting partials, combinable across disjoint
  /// regions without loss: sums, sum of squares, max and occupied-core
  /// count instead of the means reduce_region reports.
  struct RegionAccounting {
    double candidate_total = 0.0;
    double interaction_total = 0.0;
    double cycles_sum = 0.0;
    double cycles_sq_sum = 0.0;
    double cycles_max = 0.0;
    std::uint64_t occupied = 0;
  };
  /// A region executor's share of one step: reductions over its region,
  /// row-major within it, for a coordinator to combine across regions in
  /// fixed order. All but `kinetic` are taken before any atom swap;
  /// `kinetic` sums the region's atoms after it.
  struct RegionReport {
    RegionEnergy pe;
    RegionAccounting acc;
    double kinetic = 0.0;
    std::size_t swaps_applied = 0;
    bool swapped = false;
  };

  /// Advance one timestep over `region` only (a ranks: process; ghost rows
  /// arrive through the schedule's halo hooks) and report its partials;
  /// the coordinator finishes the accounting (finish_region_step).
  RegionReport step_region(const ShardRect& region,
                           const StepSchedule& schedule);

  /// The schedule's force half over `region` (begin, density, F' halo,
  /// force) and the region's energy partials, committing nothing: the
  /// potential energy of the current configuration.
  RegionEnergy region_energy(const ShardRect& region,
                             const StepSchedule& schedule);

  /// Advance n steps; returns the last step's stats.
  WseStepStats run(int n);

  /// --- Phase kernels ----------------------------------------------------
  /// The steps of the schedule, public for benchmarks that time them one
  /// by one over a caller-owned workspace:
  ///
  ///   begin_step(ws);
  ///   density_phase(shard, ws)   for disjoint shards covering the grid;
  ///   --- barrier (F' of every neighborhood must be published) ---
  ///   force_phase(shard, ws)     for disjoint shards covering the grid;
  ///   --- barrier ---
  ///   bool swap = commit_step(ws);
  ///   if (swap) { swap_select(shard, ws.partner)  for disjoint shards;
  ///               --- barrier ---
  ///               applied = swap_commit(ws.partner); }
  ///   stats = finish_step(ws, applied, swap);
  ///
  /// The kernels write only per-atom workspace slots (and fprime_) owned by
  /// cores inside `shard`, so disjoint shards may run on concurrent
  /// threads. Candidate arrival order per worker is a row-major sweep of
  /// its neighborhood regardless of sharding, and all cross-worker
  /// reductions happen serially in commit/finish in row-major core order —
  /// results are bitwise independent of the shard decomposition.

  /// The whole grid as one region (the serial decomposition).
  ShardRect full_grid() const;

  /// Size workspace buffers and decide whether this step rebuilds the
  /// shortlist (ws.rebuild; the check covers every atom). Every slot a
  /// kernel reads is written earlier in the same step.
  void begin_step(StepWorkspace& ws) const;

  /// Phases 1-3: candidate exchange (on a rebuild step; otherwise the
  /// shortlist), neighbor list, embedding density; publishes fprime_ for
  /// the region's atoms.
  void density_phase(const ShardRect& shard, StepWorkspace& ws);

  /// Phase 4: force evaluation + leap-frog integration into the workspace
  /// (requires fprime_ of all neighborhoods, i.e. a barrier after the
  /// density phase). Sieves each atom's shortlist against rcut once and
  /// feeds the accepted displacements straight to the force row.
  void force_phase(const ShardRect& shard, StepWorkspace& ws) const;

  /// Swap in the integrated state, accumulate the potential energy, and
  /// advance the step counter. Returns true when this step is an atom-swap
  /// step (phase 5 still pending).
  bool commit_step(StepWorkspace& ws);

  /// Phase 5a: each core in the region picks its best greedy swap partner
  /// (reads committed positions; writes only the region's partner slots).
  /// `partner` must be sized core_count().
  void swap_select(const ShardRect& shard, std::vector<int>& partner) const;

  /// Phase 5b: mutual choices commit (serial; mutates the mapping).
  std::size_t swap_commit(const std::vector<int>& partner);

  /// Reduce per-worker accounting over a core region in row-major order.
  /// Fills the candidate/interaction/cycle fields only (no clock update).
  WseStepStats reduce_region(const ShardRect& shard,
                             const StepWorkspace& ws) const;
  RegionAccounting reduce_region_raw(const ShardRect& shard,
                                     const StepWorkspace& ws) const;

  /// Final serial reduction: full-grid stats, modeled wall time (doubled on
  /// swap steps, paper Sec. V-E), and the cumulative clock.
  WseStepStats finish_step(const StepWorkspace& ws, std::size_t swaps_applied,
                           bool swapped);

  /// The ranks: coordinator's end of a region step. Its twin holds the
  /// mapping but not the atoms: it adopts the potential energy the
  /// regions' partials combine to, advances the step counter, and finishes
  /// the accounting as finish_step does, from the regions' combined
  /// reductions in `reduced`.
  WseStepStats finish_region_step(double potential_energy,
                                  WseStepStats reduced);

  /// Adopt a potential energy evaluated elsewhere (the ranks: coordinator
  /// combining its regions' partials) as the committed one.
  void adopt_potential_energy(double pe);

  /// reduce_region over the schedule's own workspace: the last sweep's
  /// per-worker accounting within `shard` (zeroes before any sweep).
  WseStepStats reduce_region(const ShardRect& shard) const {
    return ws_.cycles.empty() ? WseStepStats{} : reduce_region(shard, ws_);
  }

  /// Kinetic energy partial over the region's atoms, row-major core order.
  double kinetic_energy_region(const ShardRect& shard) const;

  /// Displacement baseline (what save_state stores), without forcing the
  /// lazy energy evaluation save_state performs.
  const std::vector<Vec3d>& initial_positions() const {
    return initial_positions_;
  }

  /// Embedding-derivative plane, exchanged across rank halos between the
  /// density and force phases (mutable derived state, republished every
  /// step).
  std::vector<float>& fprime() { return fprime_; }
  /// FP32 atom state planes, written directly by the halo unpack (the
  /// exchanged values are exactly the FP32 state the owner holds, so this
  /// is a bitwise transfer, not a round-trip through FP64).
  Vec3fPlanes& positions_f32() { return positions_; }
  Vec3fPlanes& velocities_f32() { return velocities_; }

  /// Total potential energy (eV, FP32 sums). Valid from construction on:
  /// before the first step it is evaluated lazily from the current
  /// positions (mirroring md::Simulation's on-demand forces); afterwards
  /// it is the value reduced by the last commit.
  double potential_energy() const;

  /// Kinetic energy of the current (half-step) velocities (eV).
  double kinetic_energy() const;

  /// Current assignment cost C(g) in Angstrom (paper Fig. 9 metric).
  double assignment_cost() const;

  /// Degrade the mapping with `count` random local swaps. Fig. 9-style
  /// experiments start "from a sub-optimal initial mapping" and watch the
  /// online atom swaps recover it.
  void scramble_mapping(Rng& rng, int count);

  /// Largest in-plane (max-norm) displacement of any atom from its initial
  /// position (the black curve of paper Fig. 9).
  double max_inplane_displacement() const;

  long step_count() const { return step_count_; }

  /// Cumulative modeled wall time (s) and cycles since construction.
  double elapsed_seconds() const { return elapsed_seconds_; }

  /// Run totals accumulated by finish_step, for cost-model breakdowns of a
  /// whole run (engine::ModeledPhaseCost): sums over steps of the per-step
  /// mean per-worker candidate/interaction counts, plus how many steps
  /// applied an atom swap.
  struct CumulativeStats {
    double candidate_step_sum = 0.0;    ///< sum of mean_candidates
    double interaction_step_sum = 0.0;  ///< sum of mean_interactions
    long swap_steps = 0;
  };
  const CumulativeStats& cumulative_stats() const { return cum_; }

 private:
  /// Candidate exchange for the atom on occupied core (cx, cy): writes the
  /// ids of its window's other atoms to `out` in arrival order and returns
  /// their count. `out` needs room for every cell of the (2b+1)² window.
  std::size_t gather_neighborhood(int cx, int cy, std::uint32_t* out) const;
  /// Shared rebuild decision of the step begins: the shortlist of the
  /// atoms in `anchored` (every core whose atom a kernel of the step may
  /// gather) is stale when the mapping version or the row stride changed,
  /// the anchored rows differ, or one of those atoms moved past the
  /// displacement limit. A rebuild re-anchors them.
  void plan_shortlist(const ShardRect& anchored, StepWorkspace& ws) const;
  /// begin_step for a region: the rebuild check covers only the atoms the
  /// region's kernels can gather (its rows ± b, which a ranks: process's
  /// b+1-row state halo keeps current), and buffers are sized without
  /// seeding, so the cost stays O(region).
  void begin_step_region(const ShardRect& region, StepWorkspace& ws) const;

  /// The schedule: the force half alone, or a whole step. A whole-grid
  /// step commits and reduces for finish_step; a region step commits its
  /// own atoms and reports partials instead.
  void force_half(const ShardRect& region, const StepSchedule& schedule);
  RegionReport run_schedule(const ShardRect& region,
                            const StepSchedule& schedule, bool whole_grid);
  /// Run `phase` over `rows` split into the schedule's worker strips.
  template <typename Phase>
  void sweep(const StepSchedule& schedule, const ShardRect& rows,
             Phase&& phase);
  /// Commit the integrated state for the region's atoms only (copy, not
  /// commit_step's full-array swap), reduce the region's energy into `pe`,
  /// and advance the step counter; true on an atom-swap step.
  bool commit_region(const ShardRect& shard, StepWorkspace& ws,
                     RegionEnergy& pe);
  RegionEnergy reduce_region_energy(const ShardRect& shard,
                                    const StepWorkspace& ws) const;
  /// The accounting every backend shares: stamps the step, charges the
  /// modeled wall time, and advances the clock, the run totals and the
  /// wse.* counters.
  WseStepStats account_step(WseStepStats stats);

  /// FP32 minimum-image displacement rj - ri for the shortlist
  /// displacement check (an atom's offset from its anchor; the phase
  /// kernels run the batched sieve instead). It runs for every anchored
  /// atom each step, so it stays entirely in FP32. nearbyint — not round —
  /// so the correction matches the SIMD kernels' round-half-even
  /// `_mm256_round_ps` convention.
  Vec3f minimum_image_f(const Vec3f& ri, const Vec3f& rj) const {
    Vec3f d = rj - ri;
    for (std::size_t a = 0; a < 3; ++a) {
      if (!box_periodic_[a]) continue;
      d[a] -= std::nearbyint(d[a] * box_inv_len_f_[a]) * box_len_f_[a];
    }
    return d;
  }

  WseMdConfig config_;
  eam::EamPotentialPtr potential_;
  /// The paper's per-core table copies: one flattened FP32 r²-indexed
  /// profile (eam/profile.hpp) every worker reads. The host holds one copy;
  /// the real machine replicates it into each tile's SRAM.
  eam::ProfileF32 profile_;
  Box box_;
  // FP32 copies of the box geometry for the anchor displacement check.
  Vec3f box_len_f_{0, 0, 0};
  Vec3f box_inv_len_f_{0, 0, 0};
  std::array<bool, 3> box_periodic_{false, false, false};
  /// Branch-free box view for the SIMD sieve (inv_len = 0 on open axes).
  simd::BoxF32 sbox_{{0, 0, 0}, {0, 0, 0}};
  AtomMapping mapping_;
  int b_ = 1;
  double rcut_ = 0.0;
  /// Squared displacement (A^2) past which an atom forces a shortlist
  /// rebuild: (skin/2 - margin)^2, the margin covering FP32 rounding of
  /// the sieve's r^2 and of the check itself at this box's coordinates.
  float shortlist_limit2_ = 0.0f;

  // FP32 per-atom state, split into x/y/z planes for the batched kernels.
  Vec3fPlanes positions_;
  Vec3fPlanes velocities_;
  std::vector<int> types_;
  /// Per type: 1/m in force-to-acceleration units, FP32 (the force phase's
  /// integration factor).
  std::vector<float> inv_mass_;
  // Embedding derivative, exchanged per step. Mutable: the lazy initial
  // potential_energy() evaluation republishes it from a const context
  // (it is derived state, recomputed every step from positions).
  mutable std::vector<float> fprime_;
  std::vector<Vec3d> initial_positions_;

  // Lazily evaluated before the first step (potential_energy() const).
  mutable double pe_ = 0.0;
  mutable bool pe_current_ = false;
  long step_count_ = 0;
  double elapsed_seconds_ = 0.0;
  CumulativeStats cum_;

  /// The schedule's workspace, shared by every step and the lazy energy
  /// evaluation (so the shortlist that evaluation builds serves the first
  /// step too).
  mutable StepWorkspace ws_;
};

}  // namespace wsmd::core
