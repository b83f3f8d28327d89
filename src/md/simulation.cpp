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

Thermo Simulation::run(long n) {
  WSMD_REQUIRE(n >= 0, "negative step count");
  if (!forces_current_) compute_forces();
  for (long k = 0; k < n; ++k) {
    {
      telemetry::ScopedSpan span("md.integrate");
      LeapfrogIntegrator(config_.dt).step(system_);
    }
    ++step_;
    compute_forces();
  }
  return thermo();
}

void Simulation::restore(long step, const std::vector<Vec3d>& positions,
                         const std::vector<Vec3d>& velocities) {
  WSMD_REQUIRE(positions.size() == system_.size() &&
                   velocities.size() == system_.size(),
               "restore: atom count mismatch ("
                   << positions.size() << " positions / " << velocities.size()
                   << " velocities vs " << system_.size() << " atoms)");
  WSMD_REQUIRE(step >= 0, "restore: negative step counter");
  system_.positions().from_aos(positions);
  system_.velocities().from_aos(velocities);
  step_ = step;
  compute_forces();
}

Thermo Simulation::thermo() const {
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
  return thermo_of(step_, last_pe_, 0.5 * mv2 * units::kMv2ToEnergy,
                   system_.size());
}

}  // namespace wsmd::md
