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
/// The accepted keys are the table in scenario.cpp, one row per key with
/// its one-line doc, parse step and canonical-deck rule; `wsmd --help`
/// lists them (deck_keys()), and `wsmd --print` shows a deck's canonical
/// form.

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

/// One accepted deck key: its name and one-line doc.
struct DeckKey {
  std::string name;
  std::string doc;
};

/// Every key scenario_from_deck accepts, in the order deck_from_scenario
/// writes them.
std::vector<DeckKey> deck_keys();

/// Build a Scenario from a deck; throws on unknown keys or invalid values,
/// naming the deck line (or `<cli override>`) at fault.
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
