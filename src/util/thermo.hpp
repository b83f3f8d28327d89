#pragma once

/// \file thermo.hpp
/// The one thermodynamic record: what every engine reports after a step,
/// what the thermo log writes and reads back, and what the health
/// watchdog checks. It depends on nothing but the unit constants, so the
/// md, engine, io and telemetry layers share it without depending on each
/// other.

#include <cstddef>

#include "util/units.hpp"

namespace wsmd {

/// Thermodynamic state after a step. The reference engine reports
/// synchronized full-step kinetic energy, the wafer engines their stored
/// half-step leap-frog velocities (md/simulation.hpp, engine/engine.hpp).
struct Thermo {
  long step = 0;
  double potential_energy = 0.0;  ///< eV
  double kinetic_energy = 0.0;    ///< eV
  double total_energy = 0.0;      ///< eV
  double temperature = 0.0;       ///< K
};

/// Instantaneous temperature (K) of `atoms` atoms holding `kinetic_energy`
/// (eV) over 3N degrees of freedom: T = 2 KE / (3 N k_B).
inline double temperature_of(double kinetic_energy, std::size_t atoms) {
  return 2.0 * kinetic_energy /
         (3.0 * static_cast<double>(atoms) * units::kBoltzmann);
}

/// The record of `atoms` atoms at `step`: total energy and temperature
/// follow from the potential and kinetic energies.
inline Thermo thermo_of(long step, double potential_energy,
                        double kinetic_energy, std::size_t atoms) {
  return {step, potential_energy, kinetic_energy,
          potential_energy + kinetic_energy,
          temperature_of(kinetic_energy, atoms)};
}

}  // namespace wsmd
