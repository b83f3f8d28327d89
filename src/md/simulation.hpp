#pragma once

/// \file simulation.hpp
/// Reference MD physics: owns the system, neighbor list, force kernel, and
/// integrator; advances timesteps and reports thermodynamic state.
///
/// This is the "LAMMPS role" in the reproduction: ground-truth FP64
/// trajectories and the CPU-side baseline whose per-step cost the platform
/// models (src/baseline) are calibrated against. Forces come from the FP64
/// PotentialProfile tables built at construction, the same representation
/// the wafer engine evaluates in FP32. Driving it (stages, thermostats,
/// per-step callbacks, checkpoints) is the engine layer's job
/// (engine::ReferenceEngine, scenario::run_scenario).
///
/// Restart state is step, positions and velocities only. The Verlet list
/// is derived state: any complete list gives the same bits
/// (md/neighbor.hpp), so a restore rebuilds it exactly when it is stale for
/// the restored positions.

#include <memory>
#include <vector>

#include "md/atom_system.hpp"
#include "md/force_eam.hpp"
#include "md/integrator.hpp"
#include "md/neighbor.hpp"
#include "util/thermo.hpp"

namespace wsmd::engine {
class ShardPool;
}

namespace wsmd::md {

struct SimulationConfig {
  double dt = 0.002;         ///< ps (paper: 2 fs)
  /// Verlet skin (A). Trajectories do not depend on it (md/neighbor.hpp):
  /// it trades sieve candidates per step against rebuilds.
  double skin = 0.6;
  /// Worker threads for the force sweep (scenario backend `reference:N`).
  /// 1 = serial (no pool), 0 = hardware concurrency. Any value produces
  /// bitwise-identical trajectories: the sweep tiles atoms at a fixed width
  /// with a deterministic reduction order (see md/force_eam.hpp).
  int threads = 1;
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

  /// Run n timesteps (NVE); returns the thermo state after the last one.
  Thermo run(long n);

  /// Restore a saved state: sets the step counter, positions and
  /// velocities, then recomputes forces (compute_forces rebuilds the
  /// Verlet list when it is stale for the new positions), so thermo() is
  /// immediately valid. The continued trajectory is bitwise identical to
  /// the uninterrupted run.
  void restore(long step, const std::vector<Vec3d>& positions,
               const std::vector<Vec3d>& velocities);

  /// Thermo snapshot. Kinetic energy / temperature are *synchronized*: the
  /// stored leapfrog velocities live at half steps, so they are advanced by
  /// a half kick (v + a dt/2) before the KE sum. Without this the reported
  /// total energy carries an O(dt) sawtooth that masks true drift.
  Thermo thermo() const;

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
