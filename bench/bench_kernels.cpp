/// \file bench_kernels.cpp
/// google-benchmark microbenchmarks for the library's hot kernels:
/// potential evaluation, force passes, neighbor-list builds, the
/// wavelet-level marching multicast, and full WSE-MD steps. These measure
/// *host* performance of the simulator itself (not modeled WSE time) and
/// guard against performance regressions in the reproduction code.
///
/// Besides the microbenches, the binary self-times the production force
/// paths against three frozen reference loops and emits
/// `BENCH_kernels.json` (pairs/sec per {kernel, path}) for the CI bench
/// gate: `tools/check_bench_regression.py` checks the rows against
/// bench/baseline.json and enforces the speedup ratios, so the table-driven
/// batched kernels can never silently regress. Two `soa_alloy` rows, not
/// gated, time the production FP64 and FP32 paths on a two-type table.
///
/// The engines evaluate only their profile tables, so the denominators of
/// the ratio floors live here, as bench-owned copies of the loops the
/// engines used to carry (the pattern of bench/e2e/host_speed.cpp: a
/// yardstick must not move when the product or a test helper changes):
///   * `analytic` (FP64): the two-pass analytic loop, serial — virtual
///     potential calls and one sqrt per pair;
///   * `profile` (FP64): the scalar one-pair-at-a-time profile-table loop;
///   * `analytic` (FP32 wafer): the wafer's analytic density and force
///     rows over rcut + skin candidate rows, without the step's gather,
///     commit and accounting work.
/// Do not edit them: a changed yardstick changes what every floor means.

#include <benchmark/benchmark.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "core/wse_md.hpp"
#include "eam/profile.hpp"
#include "eam/tabulated.hpp"
#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "md/simd.hpp"
#include "md/simulation.hpp"
#include "util/bench_json.hpp"
#include "util/cpu_pin.hpp"
#include "util/soa.hpp"
#include "util/spline.hpp"
#include "util/units.hpp"
#include "wse/multicast.hpp"

namespace {

using namespace wsmd;

void BM_ZhouAnalyticPair(benchmark::State& state) {
  const eam::ZhouEam ta("Ta");
  double r = 2.5, acc = 0.0;
  for (auto _ : state) {
    acc += ta.pair(0, 0, r);
    r = 2.5 + (r * 1.0001 - static_cast<int>(r * 1.0001 / 2.0) * 2.0) * 0.5;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ZhouAnalyticPair);

void BM_TabulatedPair(benchmark::State& state) {
  const eam::ZhouEam ta("Ta");
  const auto tab = eam::TabulatedEam::from_potential(ta, 2000, 2000);
  double r = 2.5, acc = 0.0;
  for (auto _ : state) {
    acc += tab.pair(0, 0, r);
    r = 2.5 + (r * 1.0001 - static_cast<int>(r * 1.0001 / 2.0) * 2.0) * 0.5;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TabulatedPair);

void BM_ProfilePairLookup(benchmark::State& state) {
  // The r²-indexed bundle lookup the hot loops actually run: pair energy
  // plus force kernel in one fetch, no sqrt.
  const eam::ZhouEam ta("Ta");
  const eam::ProfileF64 prof(ta);
  const double rc2 = prof.cutoff_sq();
  double r2 = 0.4 * rc2, acc = 0.0;
  for (auto _ : state) {
    double phi, pf;
    prof.pair(0, 0, r2, phi, pf);
    acc += phi + pf;
    r2 = 0.2 * rc2 + (r2 * 1.0001 - static_cast<int>(r2 * 1.0001 / (0.7 * rc2)) *
                                        (0.7 * rc2));
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ProfilePairLookup);

void BM_CubicSplineEval(benchmark::State& state) {
  const auto sp = CubicSplineTable::sample(
      [](double x) { return std::exp(-x) * x * x; }, 0.0, 6.0, 2000);
  double x = 1.0, acc = 0.0;
  for (auto _ : state) {
    acc += sp.value(x);
    x = 0.5 + (x * 1.001 - static_cast<int>(x * 1.001 / 5.0) * 5.0);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CubicSplineEval);

void BM_NeighborListBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto p = eam::zhou_parameters("Ta");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), n, n, n, 0,
      {true, true, true});
  md::NeighborList nl(p.paper_cutoff(), 1.0);
  for (auto _ : state) {
    nl.build(s.box, s.positions);
    benchmark::DoNotOptimize(nl.total_entries());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_NeighborListBuild)->Arg(6)->Arg(10);

void BM_EamForceStep(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto p = eam::zhou_parameters("Ta");
  const auto s = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), n, n, n, 0,
      {true, true, true});
  auto pot = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  md::AtomSystem sys(s, pot);
  Rng rng(3);
  sys.thermalize(290.0, rng);
  md::Simulation sim(std::move(sys));  // default: profiled evaluation
  sim.compute_forces();
  for (auto _ : state) {
    sim.run(1);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_EamForceStep)->Arg(6)->Arg(10);

void BM_WseMdStep(benchmark::State& state) {
  const auto scale = static_cast<int>(state.range(0));
  const auto p = eam::zhou_parameters("Ta");
  const auto slab = lattice::paper_slab("Ta", scale);
  auto pot = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  core::WseMdConfig cfg;
  cfg.mapping.cell_size = p.lattice_constant();
  core::WseMd engine(slab, pot, cfg);  // default: FP32 profile tables
  Rng rng(5);
  engine.thermalize(290.0, rng);
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(engine.atom_count()));
}
BENCHMARK(BM_WseMdStep)->Arg(64)->Arg(32);

void BM_MarchingMulticast(benchmark::State& state) {
  const auto b = static_cast<int>(state.range(0));
  const int W = 16, H = 16;
  std::vector<std::vector<std::uint32_t>> payloads(
      static_cast<std::size_t>(W) * H, std::vector<std::uint32_t>{1, 2, 3});
  for (auto _ : state) {
    const auto result = wse::neighborhood_exchange(W, H, b, payloads);
    benchmark::DoNotOptimize(result.total_cycles());
  }
}
BENCHMARK(BM_MarchingMulticast)->Arg(1)->Arg(2)->Arg(4);

/// --- Frozen reference loops (the ratio-floor denominators) --------------

/// FP64 analytic sweep: the two-pass loop through the potential's virtual
/// functional form, serial, in 256-atom tiles with tile-ordered energy
/// sums. Scratch persists across calls.
class FrozenAnalyticF64 {
 public:
  double compute(md::AtomSystem& system, const md::NeighborList& neighbors) {
    constexpr std::size_t kTile = 256;
    const auto& pot = system.potential();
    const auto& pos = system.positions();
    const auto& types = system.types();
    const Box& box = system.box();
    const std::size_t n = system.size();

    const double rc = pot.cutoff();
    const double rc2 = rc * rc;
    const bool pairwise_only = pot.is_pairwise_only();

    auto& forces = system.forces();
    forces.resize(n);

    const std::size_t ntiles = (n + kTile - 1) / kTile;
    tile_embed_.assign(ntiles, 0.0);
    tile_pair_.assign(ntiles, 0.0);

    rho_.assign(n, 0.0);
    fprime_.assign(n, 0.0);
    if (!pairwise_only) {
      for (std::size_t t = 0; t < ntiles; ++t) {
        const std::size_t i0 = t * kTile;
        const std::size_t i1 = i0 + kTile < n ? i0 + kTile : n;
        double embed_acc = 0.0;
        for (std::size_t i = i0; i < i1; ++i) {
          double rho = 0.0;
          for (std::size_t j : neighbors.neighbors(i)) {
            const Vec3d d = box.minimum_image(pos[i], pos[j]);
            const double r2 = norm2(d);
            if (r2 >= rc2) continue;
            rho += pot.density(types[j], std::sqrt(r2));
          }
          rho_[i] = rho;
          embed_acc += pot.embed(types[i], rho);
          fprime_[i] = pot.embed_deriv(types[i], rho);
        }
        tile_embed_[t] = embed_acc;
      }
    }

    for (std::size_t t = 0; t < ntiles; ++t) {
      const std::size_t i0 = t * kTile;
      const std::size_t i1 = i0 + kTile < n ? i0 + kTile : n;
      double pair_acc = 0.0;
      for (std::size_t i = i0; i < i1; ++i) {
        Vec3d f{0, 0, 0};
        for (std::size_t j : neighbors.neighbors(i)) {
          const Vec3d d = box.minimum_image(pos[i], pos[j]);  // rj - ri
          const double r2 = norm2(d);
          if (r2 >= rc2) continue;
          const double r = std::sqrt(r2);
          pair_acc += pot.pair(types[i], types[j], r);
          double fmag = pot.pair_deriv(types[i], types[j], r);
          if (!pairwise_only) {
            fmag += fprime_[i] * pot.density_deriv(types[j], r) +
                    fprime_[j] * pot.density_deriv(types[i], r);
          }
          f += d * (fmag / r);
        }
        forces[i] = f;
      }
      tile_pair_[t] = pair_acc;
    }

    double e_embed = 0.0;
    for (double e : tile_embed_) e_embed += e;
    double pair_sum = 0.0;
    for (double e : tile_pair_) pair_sum += e;
    return 0.5 * pair_sum + e_embed;
  }

 private:
  std::vector<double> rho_, fprime_, tile_embed_, tile_pair_;
};

/// FP64 per-pair profile sweep: one r²-indexed table lookup per accepted
/// pair, no sqrt, no batching. Scratch persists across calls.
class FrozenProfileF64 {
 public:
  double compute(md::AtomSystem& system, const md::NeighborList& neighbors,
                 const eam::ProfileF64& prof) {
    const auto& pos = system.positions();
    const auto& types = system.types();
    const Box& box = system.box();
    const std::size_t n = system.size();

    const double rc2 = prof.cutoff_sq();
    const bool pairwise_only = prof.pairwise_only();

    auto& forces = system.forces();
    forces.assign(n, Vec3d{0, 0, 0});

    double e_embed = 0.0;
    double e_pair = 0.0;

    rho_.assign(n, 0.0);
    fprime_.assign(n, 0.0);
    if (!pairwise_only) {
      for (std::size_t i = 0; i < n; ++i) {
        double rho = 0.0;
        for (std::size_t j : neighbors.neighbors(i)) {
          const Vec3d d = box.minimum_image(pos[i], pos[j]);
          const double r2 = norm2(d);
          if (r2 >= rc2) continue;
          rho += prof.density(types[j], r2);
        }
        rho_[i] = rho;
        double f, fp;
        prof.embed(types[i], rho, f, fp);
        e_embed += f;
        fprime_[i] = fp;
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      Vec3d f{0, 0, 0};
      double pair_acc = 0.0;
      const double fprime_i = fprime_[i];
      const int ti = types[i];
      for (std::size_t j : neighbors.neighbors(i)) {
        const Vec3d d = box.minimum_image(pos[i], pos[j]);  // rj - ri
        const double r2 = norm2(d);
        if (r2 >= rc2) continue;
        double phi, phi_force;
        prof.pair(ti, types[j], r2, phi, phi_force);
        pair_acc += phi;
        double fmag_over_r = phi_force;
        if (!pairwise_only) {
          fmag_over_r += fprime_i * prof.density_force(types[j], r2) +
                         fprime_[j] * prof.density_force(ti, r2);
        }
        f += d * fmag_over_r;
      }
      forces[i] = f;
      e_pair += 0.5 * pair_acc;
    }
    return e_pair + e_embed;
  }

 private:
  std::vector<double> rho_, fprime_;
};

/// FP32 analytic wafer sweep: the wafer's per-candidate density and force
/// rows through the potential's virtual functional form (FP32 minimum
/// image, `r2 < rc2`, sqrt in double) plus the leap-frog update, over
/// candidate rows from one Verlet list at rcut + WseMd::kShortlistSkin.
/// The state never advances (the update lands in scratch), so every sweep
/// is the same work. No gather, commit or cost-model accounting.
class FrozenAnalyticWafer {
 public:
  FrozenAnalyticWafer(const core::WseMd& md, const lattice::Structure& s,
                      eam::EamPotentialPtr potential)
      : pot_(std::move(potential)),
        box_(s.box),
        types_(s.types),
        rcut_(pot_->cutoff()),
        dt_(static_cast<float>(md.config().dt)),
        nl_(pot_->cutoff(), core::WseMd::kShortlistSkin) {
    const auto r = md.positions();
    const auto v = md.velocities();
    nl_.build(box_, r);
    positions_.resize(r.size());
    velocities_.resize(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      positions_.set(i, Vec3f(r[i]));
      velocities_.set(i, Vec3f(v[i]));
    }
    new_positions_.resize(r.size());
    new_velocities_.resize(r.size());
    fprime_.assign(r.size(), 0.0f);
    pe_embed_.assign(r.size(), 0.0);
    pair_half_.assign(r.size(), 0.0f);
    box_len_f_ = Vec3f(box_.lengths());
    for (std::size_t a = 0; a < 3; ++a) {
      box_periodic_[a] = box_.periodic[a];
      box_inv_len_f_[a] = 1.0f / box_len_f_[a];
    }
    for (int t = 0; t < pot_->num_types(); ++t) {
      inv_mass_.push_back(
          static_cast<float>(1.0 / pot_->mass(t) * units::kForceToAccel));
    }
  }

  /// One density + force sweep; returns the accepted (r < rcut) pairs.
  std::size_t sweep() {
    const auto& pot = *pot_;
    const auto rc2 = static_cast<float>(rcut_ * rcut_);
    const bool pairwise_only = pot.is_pairwise_only();
    const std::size_t n = positions_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3f ri = positions_.get(i);
      float rho = 0.0f;
      for (const std::uint32_t j : nl_.neighbors(i)) {
        const Vec3f d = minimum_image_f(ri, positions_.get(j));
        const float r2 = dot(d, d);
        if (r2 >= rc2) continue;
        if (pairwise_only) continue;
        rho += static_cast<float>(
            pot.density(types_[j], std::sqrt(static_cast<double>(r2))));
      }
      if (pairwise_only) {
        pe_embed_[i] = 0.0;
        fprime_[i] = 0.0f;
      } else {
        pe_embed_[i] = pot.embed(types_[i], rho);
        fprime_[i] = static_cast<float>(pot.embed_deriv(types_[i], rho));
      }
    }
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3f ri = positions_.get(i);
      const float fprime_i = fprime_[i];
      const int ti = types_[i];
      Vec3f force{0, 0, 0};
      float pair_acc = 0.0f;
      for (const std::uint32_t j : nl_.neighbors(i)) {
        const Vec3f d = minimum_image_f(ri, positions_.get(j));
        const float r2 = dot(d, d);
        if (r2 >= rc2) continue;
        ++accepted;
        const double rd = std::sqrt(static_cast<double>(r2));
        pair_acc += static_cast<float>(pot.pair(ti, types_[j], rd));
        float fmag = static_cast<float>(pot.pair_deriv(ti, types_[j], rd));
        if (!pairwise_only) {
          fmag += fprime_i * static_cast<float>(
                                 pot.density_deriv(types_[j], rd)) +
                  fprime_[j] *
                      static_cast<float>(pot.density_deriv(ti, rd));
        }
        force += d * (fmag / static_cast<float>(rd));
      }
      pair_half_[i] = pair_acc;
      const Vec3f a = force * inv_mass_[static_cast<std::size_t>(ti)];
      const Vec3f v_new = velocities_.get(i) + a * dt_;
      new_velocities_.set(i, v_new);
      new_positions_.set(i, Vec3f(box_.wrap(Vec3d(ri + v_new * dt_))));
    }
    return accepted;
  }

 private:
  Vec3f minimum_image_f(const Vec3f& ri, const Vec3f& rj) const {
    Vec3f d = rj - ri;
    for (std::size_t a = 0; a < 3; ++a) {
      if (!box_periodic_[a]) continue;
      d[a] -= std::nearbyint(d[a] * box_inv_len_f_[a]) * box_len_f_[a];
    }
    return d;
  }

  eam::EamPotentialPtr pot_;
  Box box_;
  std::vector<int> types_;
  double rcut_;
  float dt_;
  md::NeighborList nl_;
  Vec3fPlanes positions_, velocities_, new_positions_, new_velocities_;
  std::vector<float> fprime_, pair_half_, inv_mass_;
  std::vector<double> pe_embed_;
  Vec3f box_len_f_{0, 0, 0};
  Vec3f box_inv_len_f_{0, 0, 0};
  std::array<bool, 3> box_periodic_{false, false, false};
};

/// --- BENCH_kernels.json: production paths vs the frozen loops -----------

/// Evaluations per second of each of `fns`, interleaved: one warmup call
/// each (touch tables, fault pages, warm the branch predictors), then seven
/// rounds in which every function runs one ~0.15 s trial in turn; each
/// reports its median trial. The ratio floors divide two of these rates,
/// and interleaving puts both sides of a ratio into the same stretches of
/// host time, so a host that speeds up or slows down mid-run moves both
/// alike. On a 4-vCPU KVM guest whose speed swung by up to 1.5x within one
/// run, paths timed one after another (best of three 0.25 s trials each)
/// once halved a numerator and failed its floor, and a best-of-seven rate
/// still jumped when one trial caught a fast stretch; in 12 runs with the
/// median of interleaved trials no floor failed.
std::vector<double> evals_per_second(
    const std::vector<std::function<void()>>& fns) {
  using clock = std::chrono::steady_clock;
  constexpr int kRounds = 7;
  constexpr double kTrialSeconds = 0.15;
  for (const auto& fn : fns) fn();  // warmup
  std::vector<std::vector<double>> rates(fns.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t f = 0; f < fns.size(); ++f) {
      long iters = 0;
      const auto start = clock::now();
      double elapsed = 0.0;
      while (elapsed < kTrialSeconds) {
        fns[f]();
        ++iters;
        elapsed =
            std::chrono::duration<double>(clock::now() - start).count();
      }
      rates[f].push_back(static_cast<double>(iters) / elapsed);
    }
  }
  std::vector<double> median(fns.size());
  for (std::size_t f = 0; f < fns.size(); ++f) {
    std::nth_element(rates[f].begin(), rates[f].begin() + kRounds / 2,
                     rates[f].end());
    median[f] = rates[f][kRounds / 2];
  }
  return median;
}

void emit_pairs_bench() {
  // Stay on the core this starts on, as the e2e harness does: no trial
  // pays for a migration, and every path of a ratio runs on the same core.
  const CpuPin pin(sched_getcpu());
  const auto p = eam::zhou_parameters("Ta");

  // FP64 reference force kernel: same system, same neighbor list, the
  // production path and the two frozen FP64 loops. pairs = full-list
  // entries per sweep (every path walks the identical list).
  const auto crystal = lattice::replicate(
      lattice::UnitCell::of(p.structure, p.lattice_constant()), 8, 8, 8, 0,
      {true, true, true});
  auto pot = std::make_shared<eam::ZhouEam>("Ta", p.paper_cutoff());
  md::AtomSystem sys(crystal, pot);
  Rng rng(11);
  sys.thermalize(290.0, rng);
  md::NeighborList nl(pot->cutoff(), 1.0);
  nl.build(sys.box(), sys.positions());
  const auto ref_pairs = static_cast<double>(nl.total_entries());
  const eam::ProfileF64 prof64(*pot);
  double sink = 0.0;
  FrozenAnalyticF64 analytic64;
  // The de-virtualized per-pair profile loop: the soa-vs-profile ratio
  // below is the measured win of batching alone.
  FrozenProfileF64 profile64;
  // The production hot path: SoA pair batches through the dispatched
  // simd kernels, on the active tier and forced to the scalar tier — and,
  // when the active tier is wider than AVX2, forced to AVX2 too, so the
  // gain of the wider tier is a same-run ratio.
  md::EamForceKernel kernel;
  const auto soa_on = [&](simd::Tier tier) {
    return [&, tier] {
      simd::set_tier_override(tier);
      sink += kernel.compute(sys, nl, prof64);
    };
  };
  const simd::Tier active = simd::active_tier();
  const bool wider_than_avx2 =
      static_cast<int>(active) > static_cast<int>(simd::Tier::kAvx2) &&
      simd::tier_supported(simd::Tier::kAvx2);
  std::vector<std::function<void()>> ref_paths = {
      [&] { sink += analytic64.compute(sys, nl); },
      [&] { sink += profile64.compute(sys, nl, prof64); },
      soa_on(active), soa_on(simd::Tier::kScalar)};
  if (wider_than_avx2) ref_paths.push_back(soa_on(simd::Tier::kAvx2));
  const std::vector<double> ref_rates = evals_per_second(ref_paths);
  simd::clear_tier_override();
  const double ref_analytic = ref_pairs * ref_rates[0];
  const double ref_profile = ref_pairs * ref_rates[1];
  const double ref_soa = ref_pairs * ref_rates[2];
  const double ref_soa_scalar = ref_pairs * ref_rates[3];
  const double ref_soa_avx2 = wider_than_avx2 ? ref_pairs * ref_rates[4] : 0.0;

  // FP32 wafer step (phases 1-4): serial WseMd on a paper-slab miniature,
  // running the batched SoA phase kernels; pairs = accepted interactions
  // per step. The frozen analytic wafer sweep starts from the same state
  // and counts its own accepted pairs.
  const auto slab = lattice::paper_slab("Ta", 48);
  core::WseMdConfig cfg;
  cfg.mapping.cell_size = p.lattice_constant();
  core::WseMd tab(slab, pot, cfg);
  Rng wrng(13);
  tab.thermalize(290.0, wrng);
  FrozenAnalyticWafer ana(tab, slab, pot);
  const double wafer_pairs =
      tab.step().mean_interactions * static_cast<double>(tab.atom_count());
  const auto ana_pairs = static_cast<double>(ana.sweep());
  const auto step_on = [&](simd::Tier tier) {
    return [&, tier] {
      simd::set_tier_override(tier);
      sink += tab.step().max_cycles;
    };
  };
  const std::vector<double> wafer_rates = evals_per_second(
      {step_on(active), step_on(simd::Tier::kScalar),
       [&] { sink += static_cast<double>(ana.sweep()); }});
  simd::clear_tier_override();
  const double wafer_soa = wafer_pairs * wafer_rates[0];
  const double wafer_soa_scalar = wafer_pairs * wafer_rates[1];
  const double wafer_analytic = ana_pairs * wafer_rates[2];

  // Two-type rows, reported and not gated: the crystal and the slab above
  // with each atom's type drawn from a two-type table. The table lists Ta
  // twice, so the dynamics match the one-type rows while every lookup
  // takes the multi-type index path (the type gather and both rho'
  // bundles) that a real alloy takes.
  const auto ta2 = std::make_shared<eam::ZhouEam>(
      std::vector<eam::ZhouParams>{p, p}, p.paper_cutoff());
  Rng trng(17);
  const auto two_types = [&](lattice::Structure s) {
    for (int& t : s.types) t = trng.uniform() < 0.5 ? 0 : 1;
    return s;
  };
  md::AtomSystem sys2(two_types(crystal), ta2);
  const eam::ProfileF64 prof64_2(*ta2);
  core::WseMd tab2(two_types(slab), ta2, cfg);
  Rng wrng2(13);
  tab2.thermalize(290.0, wrng2);
  const double wafer_pairs2 =
      tab2.step().mean_interactions * static_cast<double>(tab2.atom_count());
  const std::vector<double> alloy_rates = evals_per_second(
      {[&] { sink += kernel.compute(sys2, nl, prof64_2); },
       [&] { sink += tab2.step().max_cycles; }});
  const double ref_alloy = ref_pairs * alloy_rates[0];
  const double wafer_alloy = wafer_pairs2 * alloy_rates[1];

  BenchJson out("kernels");
  out.meta()
      .set("element", "Ta")
      .set("ref_atoms", sys.size())
      .set("ref_pairs_per_sweep", ref_pairs)
      .set("wafer_atoms", tab.atom_count())
      .set("wafer_pairs_per_step", wafer_pairs)
      .set("profile_table_bytes_fp32",
           eam::ProfileF32(*pot).table_bytes())
      .set("simd_tier", simd::tier_name(active))
      .set("sink", sink);  // defeat dead-code elimination
  out.add_row()
      .set("kernel", "reference")
      .set("path", "analytic")
      .set("precision", "fp64")
      .set("pairs_per_s", ref_analytic);
  out.add_row()
      .set("kernel", "reference")
      .set("path", "profile")
      .set("precision", "fp64")
      .set("pairs_per_s", ref_profile)
      .set("speedup_vs_analytic", ref_profile / ref_analytic);
  out.add_row()
      .set("kernel", "reference")
      .set("path", "soa")
      .set("precision", "fp64")
      .set("pairs_per_s", ref_soa)
      .set("speedup_vs_profile", ref_soa / ref_profile);
  out.add_row()
      .set("kernel", "reference")
      .set("path", "soa_scalar")
      .set("precision", "fp64")
      .set("pairs_per_s", ref_soa_scalar);
  if (wider_than_avx2) {
    out.add_row()
        .set("kernel", "reference")
        .set("path", "soa_avx2")
        .set("precision", "fp64")
        .set("pairs_per_s", ref_soa_avx2);
  }
  out.add_row()
      .set("kernel", "reference")
      .set("path", "soa_alloy")
      .set("precision", "fp64")
      .set("types", 2)
      .set("pairs_per_s", ref_alloy);
  out.add_row()
      .set("kernel", "wafer")
      .set("path", "analytic")
      .set("precision", "fp32")
      .set("pairs_per_s", wafer_analytic);
  out.add_row()
      .set("kernel", "wafer")
      .set("path", "soa")
      .set("precision", "fp32")
      .set("pairs_per_s", wafer_soa)
      .set("speedup_vs_analytic", wafer_soa / wafer_analytic);
  out.add_row()
      .set("kernel", "wafer")
      .set("path", "soa_scalar")
      .set("precision", "fp32")
      .set("pairs_per_s", wafer_soa_scalar);
  out.add_row()
      .set("kernel", "wafer")
      .set("path", "soa_alloy")
      .set("precision", "fp32")
      .set("types", 2)
      .set("pairs_per_s", wafer_alloy);
  const auto path = out.write(".");
  std::printf("\n[simd tier: %s]\n", simd::tier_name(active));
  std::printf("pairs/sec (FP64 reference): analytic %.3g, profile %.3g "
              "(%.2fx), soa %.3g (%.2fx vs profile), soa_scalar %.3g\n",
              ref_analytic, ref_profile, ref_profile / ref_analytic,
              ref_soa, ref_soa / ref_profile, ref_soa_scalar);
  if (wider_than_avx2) {
    std::printf("pairs/sec (FP64 reference): soa_avx2 %.3g (%s %.2fx)\n",
                ref_soa_avx2, simd::tier_name(active), ref_soa / ref_soa_avx2);
  }
  std::printf("pairs/sec (FP32 wafer):     analytic %.3g, soa %.3g "
              "(%.2fx), soa_scalar %.3g\n",
              wafer_analytic, wafer_soa, wafer_soa / wafer_analytic,
              wafer_soa_scalar);
  std::printf("pairs/sec (two types):      FP64 soa %.3g, FP32 wafer soa "
              "%.3g\n",
              ref_alloy, wafer_alloy);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_pairs_bench();
  return 0;
}
