#pragma once

/// \file scenario.hpp
/// The declarative simulation description the `wsmd` driver executes.
///
/// A Scenario names everything needed to run one workload end-to-end on any
/// backend: structure (element, geometry, replication, defects), thermostat
/// schedule, backend selection, and outputs. It is built from a deck
/// (scenario/deck.hpp) — unknown keys are rejected so a typo'd deck fails
/// loudly instead of silently simulating the default — and the same
/// `key=value` tokens work as CLI overrides.
///
/// Recognized keys:
///   name, element                  — identification / parameter-set lookup
///   pair_style = eam|lj            — interaction family: Zhou EAM metals
///                                    (default) or built-in noble-gas LJ
///                                    (pure pair potential; the engines
///                                    skip the density pass)
///   potential = tabulated          — legacy: parsed so older decks and
///                                    checkpoints still load, but selects
///                                    nothing (both engines evaluate the
///                                    r²-indexed profile tables only);
///                                    `analytic` is rejected, the path
///                                    was removed
///   geometry  = slab|bulk|grain_boundary
///   scale     = N                  — paper_slab divisor (geometry=slab,
///                                    when no explicit `replicate`)
///   replicate = NX NY NZ           — explicit unit-cell replication
///   vacancy_fraction = F           — random vacancies (slab/bulk)
///   tilt_angle_deg = D, gb_atoms = N — bicrystal controls (grain_boundary)
///   backend  = reference|reference:N|wafer|sharded|sharded:N|
///              ranks:M|ranks:MxN   — wafer is sharded:1; ranks: forks M
///                                    rank processes, each owning a row
///                                    slab of the core grid (N shard
///                                    threads per rank; see src/dist/)
///   dt, swap_interval, rescale_interval, seed
///   dist.transport = shm|socket    — legacy (ranks: backends only):
///                                    parsed and validated so older decks
///                                    and checkpoints still load, but
///                                    selects nothing — halos always ride
///                                    the per-pair shared-memory rings
///   dist.timeout = S               — ranks: backends only: per-message
///                                    send/recv deadline in seconds before
///                                    a rank is declared dead (default 300)
///   dist.kill_rank = R             — fault drill (ranks: only): rank R
///   dist.kill_step = K               exits hard before its K-th step, so
///                                    the dead-rank path is rehearsable
///                                    from a plain deck (both or neither)
///   thermalize = T                 — schedule stages, in deck order:
///   equilibrate = T STEPS            one-shot MB velocities; velocity-
///   ramp = T0 T1 STEPS               rescale toward T; linear target;
///   quench = T STEPS                 rescale toward a cold T; free NVE
///   run = STEPS                      (all rescaling stages honor
///                                    rescale_interval + final step)
///   xyz = PATH, xyz_every = N      — trajectory output
///   thermo = PATH, thermo_every = N, thermo_format = csv|jsonl
///   summary = PATH                 — machine-readable run summary (JSON)
///   observe.probes = P...          — streaming observables (src/obs):
///   observe.every = N                any of rdf msd vacf defects; sampled
///   observe.<probe>_every = N        every N steps (per-probe override);
///   observe.format = csv|jsonl       each probe writes PREFIX.<probe>.csv
///   observe.prefix = PREFIX          (default PREFIX = scenario name)
///   observe.rdf_rcut = R           — g(r) range (default 1.8 a0)
///   observe.rdf_bins = N           — histogram bins
///   observe.csp_threshold = X      — defect CSP threshold (A^2)
///   observe.gb_axis = x|y|z        — GB mean-plane tracking axis
///                                    (geometry=grain_boundary only)
///   checkpoint.every = N           — write a restart checkpoint every N
///                                    steps (io/checkpoint; resume with
///                                    `wsmd resume CKPT`)
///   checkpoint.path = PATH         — checkpoint file (default
///                                    <name>.ckpt); a `*` is replaced by
///                                    the step number (keeps every
///                                    checkpoint instead of overwriting)
///   telemetry.trace = PATH|auto|off — chrome://tracing timeline of the
///                                    run (src/telemetry); `auto` writes
///                                    <name>.trace.json, `off` disables
///                                    (for resume overrides)
///   telemetry.metrics = PATH|auto|off — span/counter aggregates as JSON
///                                    lines; `auto` = <name>.metrics.jsonl
///   telemetry.snapshot = S|off     — interval snapshots: every S seconds
///                                    of wall-clock, stream a throughput +
///                                    per-shard-load row into the metrics
///                                    file (implies telemetry.metrics)
///   health.nan = warn|abort|off    — run-health watchdog (telemetry/
///   health.energy_drift = ...        health.hpp). Detectors: non-finite
///   health.energy_band = F           thermo; relative |E-E0| > F during
///   health.temperature = ...         `run` stages; |T-target| > K during
///   health.temperature_band = K      thermostatted stages; no completed
///   health.stall = ...               step within S seconds. `abort`
///   health.stall_timeout = S         writes a diagnostic bundle
///   health.thermo_tail = K           (checkpoint, last-K thermo rows,
///   health.bundle = DIR              trace, health.json) into DIR
///                                    (default <name>.health) and exits
///                                    nonzero. Defaults: nan=warn, all
///                                    other detectors off.
///   health.inject_nan = STEP       — fault drill: poison one velocity
///                                    component before this 1-based step
///                                    of the first stepped stage

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "lattice/lattice.hpp"
#include "obs/factory.hpp"
#include "scenario/deck.hpp"
#include "telemetry/health.hpp"

namespace wsmd::scenario {

/// One thermostat-schedule stage.
struct Stage {
  enum class Kind {
    kThermalize,   ///< one-shot Maxwell-Boltzmann at t0 (no steps)
    kEquilibrate,  ///< velocity rescale toward t0 every rescale_interval
    kRamp,         ///< rescale toward a target sliding t0 -> t1
    kQuench,       ///< rescale toward a (cold) t0, same cadence
    kRun,          ///< free NVE
  };
  Kind kind = Kind::kRun;
  double t0 = 0.0;  ///< target temperature (K); start of ramp
  double t1 = 0.0;  ///< end-of-ramp temperature (K)
  long steps = 0;

  const char* name() const;
};

/// Parsed backend selector ("reference[:N]" | "wafer" (= "sharded:1") |
/// "sharded[:N]" | "ranks:M[xN]").
struct BackendSpec {
  engine::Backend backend = engine::Backend::kReference;
  int threads = 1;  ///< worker count (reference/sharded; 0 = auto) or, for
                    ///< ranks:MxN, shard threads per rank process
  int ranks = 2;    ///< rank-process count (ranks: backends only)

  bool is_wafer() const { return backend != engine::Backend::kReference; }
};

BackendSpec parse_backend(const std::string& spec);

struct Scenario {
  std::string name = "scenario";
  std::string element = "Cu";
  std::string pair_style = "eam";       ///< eam | lj
  std::string geometry = "slab";  ///< slab | bulk | grain_boundary
  int scale = 64;                 ///< paper_slab divisor
  std::array<int, 3> replicate = {0, 0, 0};  ///< 0 = use paper slab / scale
  double vacancy_fraction = 0.0;
  double tilt_angle_deg = 16.0;     ///< grain_boundary only
  std::size_t gb_target_atoms = 3000;  ///< grain_boundary only

  std::string backend = "reference";
  double dt = 0.002;        ///< ps
  int swap_interval = 0;    ///< wafer backends: atom-swap cadence (0 = off)
  int rescale_interval = 10;
  std::uint64_t seed = 2024;

  /// Distributed (ranks:) backend knobs; ignored elsewhere. The kill pair
  /// is the dead-rank fault drill (dist::DistributedConfig): rank
  /// `dist_kill_rank` exits hard before its `dist_kill_step`-th step.
  /// The one ranks: halo carrier, for provenance rows (the legacy
  /// dist.transport key selects nothing).
  static constexpr const char* dist_transport = "shm";
  double dist_timeout_s = 300.0;  ///< per-message deadline before a rank
                                  ///< is declared dead
  int dist_kill_rank = -1;        ///< -1 = drill off
  long dist_kill_step = 0;

  std::vector<Stage> schedule;

  std::string xyz_path;       ///< empty = no trajectory
  long xyz_every = 10;
  std::string thermo_path;    ///< empty = no thermo log
  long thermo_every = 1;
  std::string thermo_format = "csv";
  std::string summary_path;   ///< empty = no summary file

  obs::ProbeSetConfig observe;  ///< empty probes = no observables

  /// Checkpoint/restart (io/checkpoint): write a restart file every
  /// `checkpoint_every` steps (0 = off) to `checkpoint_path` (defaults to
  /// "<name>.ckpt"; a `*` in the path is replaced with the step number so
  /// every checkpoint is kept instead of overwritten).
  std::string checkpoint_path;
  long checkpoint_every = 0;

  /// Telemetry exports (src/telemetry); empty = not written. The runner
  /// arms a collection session whenever either is set (trace-event capture
  /// only when `telemetry_trace_path` is).
  std::string telemetry_trace_path;
  std::string telemetry_metrics_path;

  /// Interval-snapshot cadence in wall-clock seconds (0 = end-of-run
  /// aggregates only). A positive cadence implies telemetry.metrics — the
  /// snapshots stream into the metrics file (telemetry/snapshot.hpp).
  double telemetry_snapshot_s = 0.0;

  /// Run-health watchdog configuration (telemetry/health.hpp). Default:
  /// NaN detection warns, every other detector off.
  telemetry::HealthConfig health;

  long total_steps() const;
};

/// Crystal facts of the scenario's material, resolved through its
/// pair_style (Zhou table for eam, built-in noble-gas table for lj) — the
/// single lookup the structure generators, probes, and engine mapping all
/// share.
struct MaterialFacts {
  std::string structure;          ///< "fcc" | "bcc"
  double lattice_constant = 0.0;  ///< conventional cubic a0 (A)
};
MaterialFacts material_facts(const Scenario& sc);

/// Material facts the probes derive defaults from (lattice constant,
/// FCC/BCC CSP coordination), looked up from the scenario's element.
obs::Material material_for(const Scenario& sc);

/// Build a Scenario from a deck; throws on unknown keys or invalid values.
/// Scalar keys are last-wins. Schedule keys are order-accumulating within
/// one source, so they get whole-schedule replacement instead: when any
/// schedule key appears as a CLI override (DeckEntry::line == 0), the
/// overrides define the entire schedule and the file's stages are dropped.
Scenario scenario_from_deck(const Deck& deck);

/// The inverse: emit a Scenario as a canonical deck whose entries carry
/// file-style line numbers (so later CLI overrides behave exactly as they
/// do against a deck file). Round-trips: scenario_from_deck applied to the
/// result reproduces the scenario. Checkpoints embed this deck, which is
/// what makes `wsmd resume CKPT` self-contained — the effective scenario
/// (original CLI overrides included) travels inside the checkpoint.
Deck deck_from_scenario(const Scenario& sc);

/// Structure generation bookkeeping the driver reports.
struct StructureInfo {
  std::size_t atoms = 0;
  std::size_t vacancies_removed = 0;
  std::size_t gb_fused_atoms = 0;
};

/// Generate the scenario's atomic configuration (deterministic for a given
/// scenario: defects draw from a seed-derived RNG stream).
lattice::Structure build_structure(const Scenario& sc, StructureInfo* info = nullptr);

/// Construct the scenario's engine over `s`. `backend_override`, when
/// non-empty, replaces the deck's backend selection. `scratch_dir` is the
/// parent for per-run scratch files (the ranks: backend's rank-suffixed
/// stderr logs live in a pid-suffixed subdirectory of it, so concurrent
/// runs sharing an --output-dir never collide); empty = system temp.
std::unique_ptr<engine::Engine> build_engine(
    const Scenario& sc, const lattice::Structure& s,
    const std::string& backend_override = "",
    const std::string& scratch_dir = "");

}  // namespace wsmd::scenario
