#include "engine/reference_engine.hpp"

#include "util/error.hpp"

namespace wsmd::engine {

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
  st.step = sim_.step_count();
  st.positions = positions();
  st.velocities = velocities();
  return st;
}

void ReferenceEngine::restore(const State& state) {
  // A wafer-written state transfers the same way: its wafer block holds
  // nothing the reference physics uses.
  sim_.restore(state.step, state.positions, state.velocities);
}

void ReferenceEngine::thermalize(double temperature_K, Rng& rng) {
  sim_.system().thermalize(temperature_K, rng);
}

}  // namespace wsmd::engine
