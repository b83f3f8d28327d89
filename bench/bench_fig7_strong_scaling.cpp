/// \file bench_fig7_strong_scaling.cpp
/// Reproduces paper Fig. 7: (a) timesteps/s versus node count for the WSE
/// point and the Frontier/Quartz scaling curves; (b) timesteps/s versus
/// timesteps/Joule; (c) WSE-normalized speedup and energy-efficiency
/// factors (the Pareto plot). Series print in CSV-like blocks, one per
/// sub-figure.
///
/// Additionally runs a *host-side* strong-scaling sweep of the sharded
/// wafer emulator (engine::WaferEngine) and emits the results to
/// BENCH_fig7_strong_scaling.json so the perf trajectory is tracked across
/// PRs.
///
///   bench_fig7_strong_scaling [--threads=1,2,4] [--scale=8] [--steps=4]
///
/// --scale divides the paper's 801,792-atom slab replication (scale=1 is
/// the full problem; sharding makes such sizes reachable on a host).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/platform_model.hpp"
#include "eam/tabulated.hpp"
#include "eam/zhou.hpp"
#include "engine/wafer_engine.hpp"
#include "lattice/lattice.hpp"
#include "perf/workload.hpp"
#include "util/bench_json.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

struct Options {
  std::vector<int> threads = {1, 2, 4};
  int scale = 8;
  int steps = 4;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--threads=", 0) == 0) {
      opt.threads.clear();
      for (const std::string& tok : wsmd::split(arg.substr(10), ',')) {
        opt.threads.push_back(std::atoi(tok.c_str()));
      }
    } else if (arg.rfind("--scale=", 0) == 0) {
      opt.scale = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--steps=", 0) == 0) {
      opt.steps = std::atoi(arg.c_str() + 8);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Host strong scaling: same Ta slab, growing thread counts; reports host
/// steps/s (what sharding buys the emulator) next to the modeled wafer
/// accounting (which is decomposition-invariant).
void run_host_scaling(const Options& opt) {
  using namespace wsmd;
  std::printf(
      "\nHost strong scaling — sharded wafer emulator (Ta slab, scale %d,"
      "\n%d measured steps per point; modeled wafer stats are"
      " thread-invariant).\n\n",
      opt.scale, opt.steps);

  const auto p = eam::zhou_parameters("Ta");
  const auto slab = lattice::paper_slab("Ta", opt.scale);
  auto analytic = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  auto pot = std::make_shared<eam::TabulatedEam>(
      eam::TabulatedEam::from_potential(*analytic, 2000, 2000));

  BenchJson json("fig7_strong_scaling");
  json.meta()
      .set("element", "Ta")
      .set("atoms", slab.size())
      .set("scale", opt.scale)
      .set("steps", opt.steps);

  TablePrinter t({"Threads", "Host steps/s", "Speedup", "Modeled steps/s",
                  "Max cycles", "Halo cycles/step"});
  double base_rate = 0.0;
  for (const int threads : opt.threads) {
    core::WseMdConfig cfg;
    cfg.mapping.cell_size = p.lattice_constant();
    engine::WaferEngine engine(slab, pot, cfg, threads);
    Rng rng(12345);
    engine.thermalize(290.0, rng);
    engine.step();  // warm-up: first-touch allocation of the workspace

    const auto t0 = std::chrono::steady_clock::now();
    engine.run(opt.steps);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    const double host_rate = opt.steps / seconds;
    if (base_rate == 0.0) base_rate = host_rate;

    const auto& stats = engine.last_step_stats();
    const double modeled_rate = 1.0 / stats.wall_seconds;
    // Report the pool's resolved size: threads=0 means "auto" and would
    // otherwise mislabel the perf-trend rows.
    t.add_row({format("%d", engine.threads()), format("%.3f", host_rate),
               format("%.2fx", host_rate / base_rate),
               with_commas(static_cast<long long>(modeled_rate)),
               format("%.0f", stats.max_cycles),
               format("%.0f", engine.halo_cycles_per_step())});

    json.add_row()
        .set("threads", engine.threads())
        .set("host_steps_per_s", host_rate)
        .set("speedup", host_rate / base_rate)
        .set("modeled_steps_per_s", modeled_rate)
        .set("max_cycles", stats.max_cycles)
        .set("halo_cycles_per_step", engine.halo_cycles_per_step());
  }
  t.print();
  const std::string path = json.write();
  std::printf("\nMachine-readable results: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace wsmd;
  const Options opt = parse_options(argc, argv);

  std::printf(
      "Fig. 7a — timesteps per second vs node count (801,792 atoms).\n\n");
  for (const char* el : {"Ta", "Cu", "W"}) {
    const baseline::FrontierModel gpu(el);
    const baseline::QuartzModel cpu(el);
    const auto wse = baseline::wse_point(el);

    std::printf("# %s: series nodes,steps_per_second\n", el);
    std::printf("Frontier(GPU):");
    for (const auto& p : gpu.sweep()) {
      std::printf(" %.3g,%.0f", p.nodes, p.steps_per_second);
    }
    std::printf("\nQuartz(CPU):");
    for (const auto& p : cpu.sweep()) {
      std::printf(" %.3g,%.0f", p.nodes, p.steps_per_second);
    }
    std::printf("\nCS-2(WSE): 1,%.0f\n", wse.steps_per_second);

    const double best_gpu = gpu.best_steps_per_second();
    const double best_cpu = cpu.best_steps_per_second();
    std::printf("%s speedups: %.0fx vs best GPU, %.0fx vs best CPU "
                "(paper: %s)\n\n",
                el, wse.steps_per_second / best_gpu,
                wse.steps_per_second / best_cpu,
                el == std::string("Ta") ? "179x / 55x"
                : el == std::string("Cu") ? "109x / 34x" : "96x / 26x");
  }

  std::printf(
      "Fig. 7b — timesteps per second vs timesteps per Joule.\n\n");
  for (const char* el : {"Ta", "Cu", "W"}) {
    const baseline::FrontierModel gpu(el);
    const baseline::QuartzModel cpu(el);
    const auto wse = baseline::wse_point(el);
    std::printf("# %s: series steps_per_joule,steps_per_second\n", el);
    std::printf("Frontier(GPU):");
    for (const auto& p : gpu.sweep()) {
      std::printf(" %.3g,%.0f", p.steps_per_joule, p.steps_per_second);
    }
    std::printf("\nQuartz(CPU):");
    for (const auto& p : cpu.sweep()) {
      std::printf(" %.3g,%.0f", p.steps_per_joule, p.steps_per_second);
    }
    std::printf("\nCS-2(WSE): %.3g,%.0f\n\n", wse.steps_per_joule,
                wse.steps_per_second);
  }

  std::printf(
      "Fig. 7c — relative energy efficiency and performance vs the WSE\n"
      "(WSE normalized to 1,1; larger factors = WSE advantage).\n\n");
  TablePrinter t({"Element", "Platform", "Nodes", "WSE speedup factor",
                  "WSE energy factor"});
  for (const char* el : {"Ta", "Cu", "W"}) {
    const auto wse = baseline::wse_point(el);
    const baseline::FrontierModel gpu(el);
    const baseline::QuartzModel cpu(el);
    for (double gcds : {1.0, 8.0, 32.0, 256.0}) {
      const auto p = gpu.at(gcds);
      t.add_row({el, "Frontier", format("%.3g", p.nodes),
                 format("%.1f", wse.steps_per_second / p.steps_per_second),
                 format("%.1f", wse.steps_per_joule / p.steps_per_joule)});
    }
    for (double nodes : {1.0, 64.0, 400.0, 1600.0}) {
      const auto p = cpu.at(nodes);
      t.add_row({el, "Quartz", format("%.3g", p.nodes),
                 format("%.1f", wse.steps_per_second / p.steps_per_second),
                 format("%.1f", wse.steps_per_joule / p.steps_per_joule)});
    }
  }
  t.print();
  std::printf(
      "\nEvery factor exceeds 1 on both axes: the WSE Pareto-dominates\n"
      "(paper Fig. 7c).\n");

  run_host_scaling(opt);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
