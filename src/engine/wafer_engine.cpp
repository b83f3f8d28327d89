#include "engine/wafer_engine.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "dist/domain.hpp"
#include "telemetry/telemetry.hpp"

namespace wsmd::engine {

namespace {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

State wafer_state(core::WseMd::SavedState saved) {
  State st;
  static_cast<core::WseMd::SavedState&>(st) = std::move(saved);
  st.has_wafer = true;
  return st;
}

void restore_wafer(core::WseMd& md, const State& state) {
  if (state.has_wafer) {
    md.restore_state(state);
  } else {
    md.transfer_state(state.step, state.positions, state.velocities);
  }
}

ModeledPhaseCost wafer_phase_cost(const core::WseMd& md,
                                  const std::vector<core::ShardRect>& strips) {
  ModeledPhaseCost cost;
  cost.steps = md.step_count();
  if (cost.steps <= 0) return cost;
  cost.valid = true;
  const core::WseMd::CumulativeStats& cum = md.cumulative_stats();
  const auto steps = static_cast<double>(cost.steps);
  cost.mean_candidates = cum.candidate_step_sum / steps;
  cost.mean_interactions = cum.interaction_step_sum / steps;
  cost.swap_steps = cum.swap_steps;

  const wse::CostModel& model = md.config().cost_model;
  const wse::CostModel::Components& c = model.components();
  const wse::CostModel::Factors& f = model.factors();
  const double cand = cum.candidate_step_sum;
  const double inter = cum.interaction_step_sum;
  // Phase attribution of the Table V terms: multicast + miss filtering land
  // in the density phase (candidate exchange / neighbor build), the
  // per-interaction term in the force phase, the fixed term in the
  // begin/commit bookkeeping.
  cost.density_seconds = (c.mcast_per_candidate * f.mcast * cand +
                          c.miss_per_reject * f.miss * (cand - inter)) *
                         1e-9;
  cost.force_seconds = c.per_interaction * f.interaction * inter * 1e-9;
  cost.fixed_seconds = c.fixed * f.fixed * steps * 1e-9;
  // A swap step costs roughly one extra timestep (paper Sec. V-E): charge
  // the run-average modeled step time once per swap step.
  cost.total_seconds = md.elapsed_seconds();
  const double mean_step_seconds =
      cost.total_seconds /
      (steps + static_cast<double>(cost.swap_steps));
  cost.swap_seconds = mean_step_seconds * static_cast<double>(cost.swap_steps);
  // What the cost model says the strips' ghost halos cost — the row a
  // measured halo (the ranks: backend's dist.halo_* spans) is joined to.
  cost.halo_seconds =
      dist::halo_cycles_per_step(strips, md.b(), md.mapping().grid_width(),
                                 md.mapping().grid_height(), model) *
      steps / (model.clock_ghz() * 1e9);
  return cost;
}

WaferEngine::WaferEngine(const lattice::Structure& s,
                         eam::EamPotentialPtr potential,
                         core::WseMdConfig config, int threads)
    : md_(s, std::move(potential), config), pool_(resolve_threads(threads)) {
  // Same partition the distributed backend uses for rank strips — one
  // function, one modeled ghost-cost formula (dist::domain).
  shards_ = dist::row_strips(md_.mapping().grid_width(),
                             md_.mapping().grid_height(), pool_.size());
  cum_load_.resize(shards_.size());
  schedule_.workers = pool_.size();
  schedule_.parallel_for = [this](const std::function<void(int)>& task) {
    run_sharded(task);
  };
}

void WaferEngine::run_sharded(const std::function<void(int)>& task) {
  if (!telemetry::enabled()) {
    pool_.run(task);
    return;
  }
  busy_seconds_.assign(static_cast<std::size_t>(pool_.size()), 0.0);
  const auto round_start = std::chrono::steady_clock::now();
  pool_.run([&](int t) {
    const auto busy_start = std::chrono::steady_clock::now();
    task(t);
    busy_seconds_[static_cast<std::size_t>(t)] = seconds_since(busy_start);
  });
  const double round = seconds_since(round_start);
  // Each worker waits from the end of its own work until the slowest one
  // finishes the round (the implicit barrier between pool_.run calls).
  double wait = 0.0;
  for (std::size_t t = 0; t < busy_seconds_.size(); ++t) {
    const double busy = busy_seconds_[t];
    const double worker_wait = std::max(0.0, round - busy);
    cum_load_[t].busy_seconds += busy;
    cum_load_[t].wait_seconds += worker_wait;
    wait += worker_wait;
  }
  telemetry::add_span_time("shard.barrier_wait", wait,
                           static_cast<std::uint64_t>(pool_.size()));
}

Thermo WaferEngine::step() {
  last_ = md_.step(schedule_);
  return thermo();
}

std::vector<core::WseStepStats> WaferEngine::shard_stats() const {
  std::vector<core::WseStepStats> stats;
  for (const auto& shard : shards_) stats.push_back(md_.reduce_region(shard));
  return stats;
}

double WaferEngine::halo_cycles_per_step() const {
  return dist::halo_cycles_per_step(shards_, md_.b(),
                                    md_.mapping().grid_width(),
                                    md_.mapping().grid_height(),
                                    md_.config().cost_model);
}

ModeledPhaseCost WaferEngine::modeled_phase_cost() const {
  return wafer_phase_cost(md_, shards_);
}

Thermo WaferEngine::thermo() const {
  return thermo_of(md_.step_count(), md_.potential_energy(),
                   md_.kinetic_energy(), md_.atom_count());
}

}  // namespace wsmd::engine
