#include "engine/reference_engine.hpp"

#include "util/error.hpp"

namespace wsmd::engine {

namespace {

Thermo to_thermo(const md::ThermoState& t) {
  Thermo out;
  out.step = t.step;
  out.potential_energy = t.potential_energy;
  out.kinetic_energy = t.kinetic_energy;
  out.total_energy = t.total_energy;
  out.temperature = t.temperature;
  return out;
}

}  // namespace

ReferenceEngine::ReferenceEngine(const lattice::Structure& s,
                                 eam::EamPotentialPtr potential,
                                 md::SimulationConfig config)
    : sim_(md::AtomSystem(s, std::move(potential)), config) {
  sim_.compute_forces();  // thermo() is meaningful from construction on
}

std::vector<Vec3d> ReferenceEngine::positions() const {
  return sim_.system().positions().to_aos();
}

std::vector<Vec3d> ReferenceEngine::velocities() const {
  return sim_.system().velocities().to_aos();
}

void ReferenceEngine::set_velocities(const std::vector<Vec3d>& v) {
  WSMD_REQUIRE(v.size() == sim_.system().size(), "velocity count mismatch");
  sim_.system().velocities().from_aos(v);
}

void ReferenceEngine::set_positions(const std::vector<Vec3d>& r) {
  WSMD_REQUIRE(r.size() == sim_.system().size(), "position count mismatch");
  sim_.system().positions().from_aos(r);
  sim_.compute_forces();  // keep the thermo()-valid-always contract
}

State ReferenceEngine::snapshot() const {
  State st;
  const auto sim_state = sim_.save_state();
  st.step = sim_state.step;
  st.positions = sim_state.positions;
  st.velocities = sim_state.velocities;
  st.neighbor_anchor = sim_state.neighbor_anchor;
  return st;
}

void ReferenceEngine::restore(const State& state) {
  md::SimulationState sim_state;
  sim_state.step = state.step;
  sim_state.positions = state.positions;
  sim_state.velocities = state.velocities;
  // A wafer-written snapshot carries no Verlet anchor; restore_state then
  // rebuilds the list from the positions themselves (cross-backend
  // transfer — exactness is a same-backend guarantee).
  sim_state.neighbor_anchor = state.neighbor_anchor;
  sim_.restore_state(sim_state);
}

void ReferenceEngine::thermalize(double temperature_K, Rng& rng) {
  sim_.system().thermalize(temperature_K, rng);
}

Thermo ReferenceEngine::step() { return to_thermo(sim_.run(1)); }

Thermo ReferenceEngine::run(long n, const StepCallback& callback) {
  if (!callback) return to_thermo(sim_.run(n));
  return to_thermo(sim_.run(
      n, [&](const md::ThermoState& t) { callback(to_thermo(t)); }));
}

Thermo ReferenceEngine::thermo() const { return to_thermo(sim_.thermo()); }

}  // namespace wsmd::engine
