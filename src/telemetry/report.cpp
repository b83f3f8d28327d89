#include "telemetry/report.hpp"

#include <sstream>

#include "telemetry/telemetry.hpp"
#include "util/string_util.hpp"

namespace wsmd::telemetry {

namespace {

PhaseRow make_row(std::string phase, double measured, bool has_modeled,
                  double modeled) {
  PhaseRow row;
  row.phase = std::move(phase);
  row.measured_seconds = measured;
  row.has_modeled = has_modeled;
  row.modeled_seconds = modeled;
  if (has_modeled && modeled > 0.0) row.ratio = measured / modeled;
  return row;
}

}  // namespace

std::vector<PhaseRow> build_cost_report(
    const engine::ModeledPhaseCost& modeled) {
  const bool m = modeled.valid;
  const double density = span_total_seconds("wse.density");
  const double force = span_total_seconds("wse.force");
  const double commit =
      span_total_seconds("wse.begin") + span_total_seconds("wse.commit");
  const double swap = span_total_seconds("wse.swap_select") +
                      span_total_seconds("wse.swap_commit");
  const double barrier = span_total_seconds("shard.barrier_wait");
  // Distributed (ranks:) runs measure the ghost-halo exchange directly:
  // pack/exchange/unpack spans plus a lockstep-coordination span. When
  // present, the halo measurement joins against the model's
  // halo_exchange_cycles prediction in its own row; a threads-only run
  // keeps the historical barrier-vs-halo join (the barrier wait is where
  // the halo cost surfaces for shard threads in shared memory).
  const double halo = span_total_seconds("dist.halo_pack") +
                      span_total_seconds("dist.halo_exchange") +
                      span_total_seconds("dist.halo_unpack");
  const double dist_barrier = span_total_seconds("dist.barrier");
  // Compute each rank kept running while its halos were in flight — time
  // that would otherwise sit inside halo_exchange. Reported as its own row
  // so the overlap win is visible next to the residual halo cost.
  const double overlap = span_total_seconds("dist.overlap_compute");
  const bool distributed = halo > 0.0 || dist_barrier > 0.0;

  std::vector<PhaseRow> rows;
  rows.push_back(make_row("density", density, m, modeled.density_seconds));
  rows.push_back(make_row("force", force, m, modeled.force_seconds));
  rows.push_back(make_row("commit", commit, m, modeled.fixed_seconds));
  rows.push_back(make_row("swap", swap, m, modeled.swap_seconds));
  if (distributed) {
    rows.push_back(make_row("halo", halo, m, modeled.halo_seconds));
    if (overlap > 0.0) rows.push_back(make_row("overlap", overlap, false, 0.0));
    rows.push_back(make_row("barrier", barrier + dist_barrier, false, 0.0));
  } else {
    rows.push_back(make_row("barrier", barrier, m, modeled.halo_seconds));
  }
  rows.push_back(make_row("total",
                          density + force + commit + swap + barrier + halo +
                              dist_barrier,
                          m, modeled.total_seconds));
  return rows;
}

std::string format_cost_report(const std::vector<PhaseRow>& rows) {
  std::ostringstream os;
  os << format("%-13s %14s %14s %10s\n", "phase", "measured (s)",
               "modeled (s)", "ratio");
  os << format("%-13s %14s %14s %10s\n", "-------------", "------------",
               "-----------", "-----");
  for (const PhaseRow& r : rows) {
    if (r.has_modeled) {
      os << format("%-13s %14.6f %14.6f %10.2f\n", r.phase.c_str(),
                   r.measured_seconds, r.modeled_seconds, r.ratio);
    } else {
      os << format("%-13s %14.6f %14s %10s\n", r.phase.c_str(),
                   r.measured_seconds, "-", "-");
    }
  }
  return os.str();
}

std::string format_shortlist_summary() {
  std::uint64_t rebuilds = 0, steps = 0;
  for (const auto& [name, value] : counters()) {
    if (name == "wse.shortlist_rebuilds") rebuilds = value;
    if (name == "wse.steps") steps = value;
  }
  if (rebuilds == 0) return {};
  return format("shortlist rebuilds: %llu / %llu steps\n",
                static_cast<unsigned long long>(rebuilds),
                static_cast<unsigned long long>(steps));
}

}  // namespace wsmd::telemetry
