/// \file bench_table1_800k.cpp
/// Reproduces paper Table I: predicted and measured timesteps/s for the
/// 801,792-atom Cu/W/Ta slabs on the WSE versus Frontier (GPU) and Quartz
/// (CPU).
///
/// "Predicted" uses the calibrated linear cost model at the paper's
/// candidate/interaction counts. "Measured (sim)" runs the functional
/// wafer-scale engine on a scaled-down replica of the same slab geometry
/// (identical thickness, same per-worker workload) and reports the modeled
/// array rate from its per-worker cycle counters — the per-tile cost is
/// size-independent, which Fig. 8's weak-scaling bench demonstrates
/// explicitly. Frontier/Quartz columns come from the calibrated
/// strong-scaling platform models.
///
///   bench_table1_800k [--threads=N] [--scale=S]
///
/// --scale divides the slab's x-y replication (default 16); --threads runs
/// the emulator on N sharded host threads (trajectories are identical at
/// any thread count). Results also land in BENCH_table1_800k.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "baseline/platform_model.hpp"
#include "eam/tabulated.hpp"
#include "eam/zhou.hpp"
#include "engine/wafer_engine.hpp"
#include "lattice/lattice.hpp"
#include "perf/workload.hpp"
#include "util/bench_json.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "wse/cost_model.hpp"

namespace {

using namespace wsmd;

struct Result {
  double predicted, measured_sim, frontier, quartz;
  double mean_inter, mean_cand;
  double max_cycles = 0.0;
  double host_steps_per_s = 0.0;
  std::size_t sim_atoms = 0;
  int threads = 1;  ///< resolved worker count (--threads=0 means auto)
  int b;
};

Result run_element(const perf::PaperWorkload& w, int scale, int threads) {
  Result r{};

  const auto model = wse::CostModel::paper_baseline();
  r.predicted = model.steps_per_second(w.candidates, w.interactions);

  // Scaled replica of the slab (1/scale of the x-y extent, same
  // thickness), equilibrated at 290 K like the paper's benchmark
  // configurations. The sharded backend keeps larger replicas tractable.
  const auto p = eam::zhou_parameters(w.element);
  const auto slab = lattice::paper_slab(w.element, scale);
  auto analytic =
      std::make_shared<eam::ZhouEam>(w.element, p.paper_cutoff());
  auto pot = std::make_shared<eam::TabulatedEam>(
      eam::TabulatedEam::from_potential(*analytic, 2000, 2000));

  core::WseMdConfig cfg;
  cfg.mapping.cell_size = p.lattice_constant();
  cfg.b_override = w.b;  // the paper's neighborhood radius
  engine::WaferEngine engine(slab, pot, cfg, threads);
  Rng rng(12345);
  engine.thermalize(290.0, rng);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run(25);
  const auto t1 = std::chrono::steady_clock::now();
  const auto& stats = engine.last_step_stats();

  // The slowest (bulk, full-neighborhood) worker synchronizes the array,
  // so its cycle count sets the step time — the scaled slab has a larger
  // surface fraction than the full problem, which would skew an
  // array-mean rate optimistic. Thermal fluctuation of its interaction
  // count gives the few-percent measured-vs-predicted scatter the paper
  // also reports.
  r.measured_sim = 1.0 / stats.wall_seconds;
  r.mean_inter = stats.mean_interactions;
  r.mean_cand = stats.mean_candidates;
  r.max_cycles = stats.max_cycles;
  r.host_steps_per_s =
      25.0 / std::chrono::duration<double>(t1 - t0).count();
  r.sim_atoms = engine.atom_count();
  r.threads = engine.threads();
  r.b = engine.wafer().b();

  r.frontier = baseline::FrontierModel(w.element).best_steps_per_second();
  r.quartz = baseline::QuartzModel(w.element).best_steps_per_second();
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  int threads = 1;
  int scale = 16;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atoi(arg.c_str() + 8);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }
  std::printf(
      "Table I — 800,000-atom models: predicted and measured performance\n"
      "(timesteps per second) on the WSE compared with Frontier (GPU) and\n"
      "Quartz (CPU). 'paper' columns quote the published values.\n\n");

  TablePrinter t({"Element", "Replication", "Atoms", "Inter/Cand", "b",
                  "Predicted", "Measured(sim)", "paper pred", "paper meas",
                  "Frontier", "paper", "Quartz", "paper", "WSE/GPU",
                  "WSE/CPU"});

  BenchJson json("table1_800k");
  json.meta().set("scale", scale);

  for (const auto& w : perf::all_paper_workloads()) {
    const Result r = run_element(w, scale, threads);
    json.add_row()
        .set("element", w.element)
        .set("atoms", static_cast<long long>(w.atoms))
        .set("sim_atoms", r.sim_atoms)
        .set("threads", r.threads)
        .set("steps_per_s", r.measured_sim)
        .set("predicted_steps_per_s", r.predicted)
        .set("paper_measured_steps_per_s", w.measured_steps_per_s)
        .set("max_cycles", r.max_cycles)
        .set("host_steps_per_s", r.host_steps_per_s)
        .set("b", r.b);
    t.add_row({
        w.element,
        format("%dx%dx%d", w.repl_x, w.repl_y, w.repl_z),
        with_commas(w.atoms),
        format("%d/ %d", w.interactions, w.candidates),
        format("%d", r.b),
        with_commas(static_cast<long long>(r.predicted)),
        with_commas(static_cast<long long>(r.measured_sim)),
        with_commas(static_cast<long long>(w.predicted_steps_per_s)),
        with_commas(static_cast<long long>(w.measured_steps_per_s)),
        with_commas(static_cast<long long>(r.frontier)),
        with_commas(static_cast<long long>(w.frontier_steps_per_s)),
        with_commas(static_cast<long long>(r.quartz)),
        with_commas(static_cast<long long>(w.quartz_steps_per_s)),
        format("%.0fx", r.measured_sim / r.frontier),
        format("%.0fx", r.measured_sim / r.quartz),
    });
  }
  t.print();
  const std::string path = json.write();
  std::printf("\nMachine-readable results: %s\n", path.c_str());

  std::printf(
      "\nNotes: the simulated 'measured' rate comes from per-worker cycle\n"
      "counters of the functional wafer engine on a 1/%d-scale slab of the\n"
      "same thickness (per-tile cost is size-independent; see Fig. 8\n"
      "bench; larger replicas via --scale, host threads via --threads).\n"
      "Thermal motion transiently reduces interaction counts, the same\n"
      "effect the paper reports as measured rates 1-3%% above prediction.\n",
      scale);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
