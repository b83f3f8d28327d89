#include "md/atom_system.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/thermo.hpp"
#include "util/units.hpp"

namespace wsmd::md {

AtomSystem::AtomSystem(const lattice::Structure& s,
                       eam::EamPotentialPtr potential)
    : box_(s.box),
      potential_(std::move(potential)),
      positions_(s.positions),
      velocities_(s.positions.size()),
      forces_(s.positions.size()),
      types_(s.types) {
  WSMD_REQUIRE(potential_ != nullptr, "AtomSystem needs a potential");
  WSMD_REQUIRE(!positions_.empty(), "AtomSystem needs at least one atom");
  WSMD_REQUIRE(types_.size() == positions_.size(), "type/position mismatch");
  const int nt = potential_->num_types();
  masses_by_type_.resize(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    masses_by_type_[static_cast<std::size_t>(t)] = potential_->mass(t);
  }
  for (int t : types_) {
    WSMD_REQUIRE(t >= 0 && t < nt, "atom type " << t << " unknown to potential");
  }
}

double AtomSystem::kinetic_energy() const {
  double mv2 = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    mv2 += mass(i) * norm2(velocities_[i]);
  }
  return 0.5 * mv2 * units::kMv2ToEnergy;
}

double AtomSystem::temperature() const {
  return temperature_of(kinetic_energy(), size());
}

Vec3d AtomSystem::momentum() const {
  Vec3d p{0, 0, 0};
  for (std::size_t i = 0; i < size(); ++i) p += velocities_[i] * mass(i);
  return p;
}

void AtomSystem::thermalize(double temperature_K, Rng& rng) {
  WSMD_REQUIRE(temperature_K >= 0.0, "temperature must be non-negative");
  for (std::size_t i = 0; i < size(); ++i) {
    // sigma_v = sqrt(kB T / m) in A/ps with the metal-units conversion.
    const double sigma =
        std::sqrt(units::kBoltzmann * temperature_K / mass(i) *
                  units::kForceToAccel);
    velocities_[i] = rng.gaussian_vec3(sigma);
  }
  zero_momentum();
  if (temperature_K > 0.0) scale_to_temperature(temperature_K);
}

void AtomSystem::scale_to_temperature(double temperature_K) {
  const double t_now = temperature();
  WSMD_REQUIRE(t_now > 0.0, "cannot rescale a zero-temperature system");
  const double s = std::sqrt(temperature_K / t_now);
  for (auto v : velocities_) v *= s;
}

void AtomSystem::zero_momentum() {
  Vec3d p = momentum();
  double total_mass = 0.0;
  for (std::size_t i = 0; i < size(); ++i) total_mass += mass(i);
  const Vec3d v_cm = p / total_mass;
  for (auto v : velocities_) v -= v_cm;
}

}  // namespace wsmd::md
