#include "md/simulation.hpp"

#include <cmath>
#include <thread>

#include "engine/shard_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace wsmd::md {

Simulation::Simulation(AtomSystem system, SimulationConfig config)
    : system_(std::move(system)),
      config_(config),
      neighbors_(system_.potential().cutoff(), config.skin),
      profile_(system_.potential()) {
  WSMD_REQUIRE(config_.dt > 0.0, "timestep must be positive");
  WSMD_REQUIRE(config_.threads >= 0, "threads must be >= 0 (0 = auto)");
  int workers = config_.threads;
  if (workers == 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers < 1) workers = 1;
  }
  if (workers > 1) {
    pool_ = std::make_unique<engine::ShardPool>(workers);
  }
}

Simulation::~Simulation() = default;
Simulation::Simulation(Simulation&&) noexcept = default;
Simulation& Simulation::operator=(Simulation&&) noexcept = default;

double Simulation::compute_forces() {
  {
    telemetry::ScopedSpan span("md.neighbor");
    if (neighbors_.ensure_current(system_.box(), system_.positions())) {
      telemetry::count("md.neighbor_rebuilds");
    }
  }
  telemetry::ScopedSpan span("md.force");
  last_pe_ = kernel_.compute(system_, neighbors_, profile_, pool_.get());
  forces_current_ = true;
  return last_pe_;
}

ThermoState Simulation::run(
    long n, const std::function<void(const ThermoState&)>& callback) {
  WSMD_REQUIRE(n >= 0, "negative step count");
  if (!forces_current_) compute_forces();
  for (long k = 0; k < n; ++k) {
    {
      telemetry::ScopedSpan span("md.integrate");
      LeapfrogIntegrator(config_.dt).step(system_);
    }
    ++step_;
    compute_forces();
    if (config_.rescale_temperature_K &&
        step_ % config_.rescale_interval == 0) {
      system_.scale_to_temperature(*config_.rescale_temperature_K);
    }
    if (callback) callback(thermo());
  }
  return thermo();
}

void Simulation::equilibrate(double temperature_K, long steps, Rng& rng) {
  system_.thermalize(temperature_K, rng);
  const auto saved = config_.rescale_temperature_K;
  config_.rescale_temperature_K = temperature_K;
  run(steps);
  config_.rescale_temperature_K = saved;
}

SimulationState Simulation::save_state() const {
  SimulationState st;
  st.step = step_;
  st.positions = system_.positions().to_aos();
  st.velocities = system_.velocities().to_aos();
  st.neighbor_anchor = neighbors_.reference_positions();
  return st;
}

void Simulation::restore_state(const SimulationState& state) {
  WSMD_REQUIRE(state.positions.size() == system_.size() &&
                   state.velocities.size() == system_.size(),
               "restore_state: atom count mismatch ("
                   << state.positions.size() << " positions / "
                   << state.velocities.size() << " velocities vs "
                   << system_.size() << " atoms)");
  WSMD_REQUIRE(state.step >= 0, "restore_state: negative step counter");
  WSMD_REQUIRE(state.neighbor_anchor.empty() ||
                   state.neighbor_anchor.size() == system_.size(),
               "restore_state: neighbor anchor size mismatch");
  system_.positions().from_aos(state.positions);
  system_.velocities().from_aos(state.velocities);
  step_ = state.step;
  // Rebuild the Verlet list from the saved anchor so the next
  // displacement-triggered rebuild matches the run that wrote the snapshot.
  // An anchor more than skin/2 from the positions (written at a larger
  // skin, or damaged) would leave the list incomplete: ensure_current then
  // rebuilds from the positions. A same-build resume never trips it.
  neighbors_.build(system_.box(), state.neighbor_anchor.empty()
                                      ? state.positions
                                      : state.neighbor_anchor);
  neighbors_.ensure_current(system_.box(), system_.positions());
  last_pe_ = kernel_.compute(system_, neighbors_, profile_, pool_.get());
  forces_current_ = true;
}

ThermoState Simulation::thermo() const {
  ThermoState t;
  t.step = step_;
  t.potential_energy = last_pe_;

  // Synchronize the half-step leapfrog velocities to the current positions
  // with a half kick before measuring kinetic energy.
  const auto& vel = system_.velocities();
  const auto& frc = system_.forces();
  double mv2 = 0.0;
  for (std::size_t i = 0; i < system_.size(); ++i) {
    const double m = system_.mass(i);
    const Vec3d v_sync =
        vel[i] + frc[i] * (units::kForceToAccel / m * 0.5 * config_.dt);
    mv2 += m * norm2(v_sync);
  }
  t.kinetic_energy = 0.5 * mv2 * units::kMv2ToEnergy;
  t.total_energy = t.potential_energy + t.kinetic_energy;
  t.temperature = 2.0 * t.kinetic_energy /
                  (3.0 * static_cast<double>(system_.size()) *
                   units::kBoltzmann);
  return t;
}

}  // namespace wsmd::md
