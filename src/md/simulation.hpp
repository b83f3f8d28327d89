#pragma once

/// \file simulation.hpp
/// Reference MD driver: owns the system, neighbor list, force kernel, and
/// integrator; runs timesteps and reports thermodynamic state.
///
/// This is the "LAMMPS role" in the reproduction: ground-truth FP64
/// trajectories, equilibration, and the CPU-side baseline whose per-step
/// cost the platform models (src/baseline) are calibrated against. Forces
/// come from the FP64 PotentialProfile tables built at construction, the
/// same representation the wafer engine evaluates in FP32.

#include <functional>
#include <memory>
#include <optional>

#include "md/atom_system.hpp"
#include "md/force_eam.hpp"
#include "md/integrator.hpp"
#include "md/neighbor.hpp"

namespace wsmd::engine {
class ShardPool;
}

namespace wsmd::md {

struct SimulationConfig {
  double dt = 0.002;         ///< ps (paper: 2 fs)
  /// Verlet skin (A). Trajectories do not depend on it (md/neighbor.hpp):
  /// it trades sieve candidates per step against rebuilds.
  double skin = 0.6;
  /// Berendsen-style velocity rescale toward this temperature when set
  /// (equilibration); unset = NVE.
  std::optional<double> rescale_temperature_K;
  /// Rescale interval in steps (when rescale_temperature_K is set).
  int rescale_interval = 10;
  /// Worker threads for the force sweep (scenario backend `reference:N`).
  /// 1 = serial (no pool), 0 = hardware concurrency. Any value produces
  /// bitwise-identical trajectories: the sweep tiles atoms at a fixed width
  /// with a deterministic reduction order (see md/force_eam.hpp).
  int threads = 1;
};

/// Thermodynamic snapshot after a step.
struct ThermoState {
  long step = 0;
  double potential_energy = 0.0;  ///< eV
  double kinetic_energy = 0.0;    ///< eV
  double total_energy = 0.0;      ///< eV
  double temperature = 0.0;       ///< K
};

/// Complete dynamic state for checkpoint/restart. `neighbor_anchor` is the
/// Verlet list's last-build positions: restoring builds the list from the
/// anchor (not the current positions), which reproduces the writer's
/// displacement-triggered rebuild schedule. The FP summation order does not
/// hang on it: any complete list gives the same bits (md/neighbor.hpp).
struct SimulationState {
  long step = 0;
  std::vector<Vec3d> positions;
  std::vector<Vec3d> velocities;
  std::vector<Vec3d> neighbor_anchor;  ///< empty = rebuild from positions
};

class Simulation {
 public:
  Simulation(AtomSystem system, SimulationConfig config = {});
  ~Simulation();
  Simulation(Simulation&&) noexcept;
  Simulation& operator=(Simulation&&) noexcept;

  AtomSystem& system() { return system_; }
  const AtomSystem& system() const { return system_; }
  const SimulationConfig& config() const { return config_; }
  long step_count() const { return step_; }

  /// Compute forces for the current positions (builds the neighbor list on
  /// demand). Called automatically by run(); exposed for tests.
  double compute_forces();

  /// Run n timesteps; returns the thermo state after the last one.
  /// `callback`, when set, fires after every step.
  ThermoState run(long n,
                  const std::function<void(const ThermoState&)>& callback = {});

  /// Equilibrate: thermalize at T then run with periodic velocity rescaling.
  void equilibrate(double temperature_K, long steps, Rng& rng);

  /// Snapshot the dynamic state (checkpoint).
  SimulationState save_state() const;

  /// Restore a snapshot: sets positions/velocities/step, rebuilds the
  /// Verlet list from the saved anchor (again from the positions when the
  /// anchor lies more than skin/2 from them), and recomputes forces so
  /// thermo() is immediately valid. The continued trajectory is bitwise
  /// identical to the uninterrupted run.
  void restore_state(const SimulationState& state);

  /// Thermo snapshot. Kinetic energy / temperature are *synchronized*: the
  /// stored leapfrog velocities live at half steps, so they are advanced by
  /// a half kick (v + a dt/2) before the KE sum. Without this the reported
  /// total energy carries an O(dt) sawtooth that masks true drift.
  ThermoState thermo() const;

  const NeighborList& neighbor_list() const { return neighbors_; }

 private:
  AtomSystem system_;
  SimulationConfig config_;
  NeighborList neighbors_;
  EamForceKernel kernel_;
  /// The flattened r²-indexed evaluation tables, built once from the
  /// system's potential (eam/profile.hpp).
  eam::ProfileF64 profile_;
  /// Force-sweep worker pool (null when config_.threads resolves to 1).
  std::unique_ptr<engine::ShardPool> pool_;
  long step_ = 0;
  double last_pe_ = 0.0;
  bool forces_current_ = false;
};

}  // namespace wsmd::md
