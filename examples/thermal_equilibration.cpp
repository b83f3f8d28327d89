/// \file thermal_equilibration.cpp
/// Materials-science example: prepare the paper's thin-slab benchmark
/// configuration the way Sec. IV-B describes — "equilibrated ... for 20k
/// timesteps with a 2 fs timestep at 290 K" — as a scenario run through
/// scenario::run_scenario: thermalize, equilibrate under the runner's
/// velocity-rescale thermostat, then an NVE run whose energy drift shows
/// the equilibrated state is stable. The runner's stages are the one
/// thermostat every backend shares.
///
///   $ ./thermal_equilibration [element] [scale]
///   element: Cu, W, Ta, ... (default Ta); scale divides the slab x-y size
///   (default 48 -> a few hundred atoms so the example runs in seconds).
///
/// Writes thermal_equilibration.thermo.csv to the current directory and
/// prints its rows.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "io/thermo_log.hpp"
#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

int main(int argc, char** argv) {
  using namespace wsmd;

  const std::string element = argc > 1 ? argv[1] : "Ta";
  const std::string scale = argc > 2 ? argv[2] : "48";
  const long equilibrate_steps = 400;

  std::ostringstream deck;
  deck << "name = thermal_equilibration\n"
       << "element = " << element << "\n"
       << "geometry = slab\n"
       << "scale = " << scale << "\n"
       << "seed = 1\n"
       << "dt = 0.002\n"  // the paper's 2 fs
       << "thermalize = 290\n"
       << "equilibrate = 290 " << equilibrate_steps << "\n"
       << "run = 400\n"
       << "thermo = thermal_equilibration.thermo.csv\n"
       << "thermo_every = 100\n";
  const scenario::Scenario sc = scenario::scenario_from_deck(
      scenario::parse_deck_string(deck.str(), "thermal_equilibration.deck"));
  const scenario::ScenarioResult result = scenario::run_scenario(sc);
  std::printf("%s thin slab: %zu atoms, open boundaries\n", element.c_str(),
              result.structure.atoms);

  // Surfaces relax and release potential energy during the equilibrate
  // stage; the rescale thermostat carries it away, the role of the
  // paper's LAMMPS pre-equilibration. The NVE stage then conserves total
  // energy under the symplectic leapfrog (paper Eq. 5).
  std::printf("\n stage       | step |   T (K) |    PE (eV) | E total (eV)\n");
  for (const Thermo& t : io::read_thermo_csv_file(result.thermo_path)) {
    const char* stage = t.step == 0                   ? "setup"
                        : t.step <= equilibrate_steps ? "equilibrate"
                                                      : "NVE";
    std::printf(" %-11s | %4ld | %7.1f | %10.3f | %12.4f\n", stage, t.step,
                t.temperature, t.potential_energy, t.total_energy);
  }

  const Thermo& start = result.stages[1].end;  // equilibrate's last row
  const Thermo& end = result.final_thermo;
  std::printf(
      "\nNVE drift over the benchmark window: %.2e eV (%.1e of kinetic)\n",
      end.total_energy - start.total_energy,
      std::fabs(end.total_energy - start.total_energy) / end.kinetic_energy);
  std::printf("Cohesive energy at 290 K: %.3f eV/atom\n",
              end.potential_energy /
                  static_cast<double>(result.structure.atoms));
  return 0;
}
