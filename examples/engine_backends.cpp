/// \file engine_backends.cpp
/// The unified Engine interface: run the same tantalum crystal on the FP64
/// reference and the sharded wafer backend through one code path, then
/// compare trajectories and look at the wafer backend's decomposition.
///
///   $ ./engine_backends [threads]
///
/// Demonstrates:
///   1. building any backend with make_engine,
///   2. transferring velocities between engines (identical trajectories),
///   3. the per-step callback shared by every backend,
///   4. shard layout, per-shard stats, and the modeled halo-exchange cost.

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "eam/zhou.hpp"
#include "engine/engine.hpp"
#include "engine/wafer_engine.hpp"
#include "lattice/lattice.hpp"

int main(int argc, char** argv) {
  using namespace wsmd;

  const int threads = argc > 1 ? std::atoi(argv[1]) : 2;

  const auto params = eam::zhou_parameters("Ta");
  auto potential =
      std::make_shared<eam::ZhouEam>("Ta", params.paper_cutoff());
  const auto crystal = lattice::replicate(
      lattice::UnitCell::of(params.structure, params.lattice_constant()),
      6, 6, 4);

  engine::EngineConfig config;
  config.wafer.mapping.cell_size = params.lattice_constant();
  config.threads = threads;

  // 1. One construction path for every backend.
  auto reference = engine::make_engine(engine::Backend::kReference, crystal,
                                       potential, config);
  auto sharded = engine::make_engine(engine::Backend::kShardedWafer, crystal,
                                     potential, config);
  std::printf("Backends: %s (%zu atoms) vs %s (%d threads)\n",
              reference->backend_name(), reference->atom_count(),
              sharded->backend_name(), threads);

  // 2. Same initial conditions on both engines.
  Rng rng(2024);
  reference->thermalize(290.0, rng);
  sharded->set_velocities(reference->velocities());

  // 3. Drive both through the identical interface; the callback sees every
  //    step of either backend.
  const int steps = 50;
  const auto report = [](const engine::Thermo& t) {
    if (t.step % 25 == 0) {
      std::printf("  step %3ld: E = %10.4f eV, T = %5.1f K\n", t.step,
                  t.total_energy, t.temperature);
    }
  };
  std::printf("%s:\n", reference->backend_name());
  reference->run(steps, report);
  std::printf("%s:\n", sharded->backend_name());
  sharded->run(steps, report);

  double max_err = 0.0;
  const auto rp = reference->positions();
  const auto sp = sharded->positions();
  for (std::size_t i = 0; i < rp.size(); ++i) {
    max_err = std::max(max_err, norm(rp[i] - sp[i]));
  }
  std::printf("Trajectory agreement after %d steps: max |dr| = %.2e A\n",
              steps, max_err);

  // 4. The sharded backend's decomposition and accounting.
  const auto* sw = dynamic_cast<engine::WaferEngine*>(sharded.get());
  std::printf("Shard layout (%dx%d core grid, b = %d):\n",
              sw->wafer().mapping().grid_width(),
              sw->wafer().mapping().grid_height(), sw->wafer().b());
  for (std::size_t t = 0; t < sw->shards().size(); ++t) {
    const auto& s = sw->shards()[t];
    const auto stats = sw->shard_stats()[t];
    std::printf("  shard %zu: rows [%3d, %3d)  mean %.0f cycles, "
                "max %.0f cycles\n",
                t, s.y0, s.y1, stats.mean_cycles, stats.max_cycles);
  }
  std::printf("Modeled halo exchange: %.0f cycles/step "
              "(0 on a single shard)\n",
              sw->halo_cycles_per_step());
  std::printf("Modeled wafer rate: %.0f timesteps/s — identical at any "
              "thread count.\n",
              1.0 / sw->last_step_stats().wall_seconds);
  return 0;
}
