#pragma once

/// \file reference_engine.hpp
/// Engine adapter for the FP64 reference simulator (md::Simulation).
///
/// The "LAMMPS role" backend: Verlet-list FP64 trajectories, used as ground
/// truth by the cross-engine equivalence tests and as the CPU baseline the
/// platform models calibrate against. The adapter keeps md::Simulation's
/// semantics — forces are computed on demand, thermo() reports the
/// synchronized (half-kick corrected) kinetic energy.

#include "engine/engine.hpp"
#include "md/simulation.hpp"

namespace wsmd::engine {

class ReferenceEngine final : public Engine {
 public:
  ReferenceEngine(const lattice::Structure& s, eam::EamPotentialPtr potential,
                  md::SimulationConfig config = {});

  md::Simulation& simulation() { return sim_; }
  const md::Simulation& simulation() const { return sim_; }

  const char* backend_name() const override { return "reference-fp64"; }
  std::size_t atom_count() const override { return sim_.system().size(); }
  long step_count() const override { return sim_.step_count(); }
  std::vector<Vec3d> positions() const override;
  std::vector<Vec3d> velocities() const override;
  void set_velocities(const std::vector<Vec3d>& v) override;
  void set_positions(const std::vector<Vec3d>& r) override;
  State snapshot() const override;
  void restore(const State& state) override;
  void thermalize(double temperature_K, Rng& rng) override;
  Thermo step() override { return sim_.run(1); }
  Thermo thermo() const override { return sim_.thermo(); }

 private:
  md::Simulation sim_;
};

}  // namespace wsmd::engine
