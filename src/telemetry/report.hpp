#pragma once

/// \file report.hpp
/// Measured-vs-modeled cost report (the `wsmd report` table).
///
/// Joins the telemetry span totals of a finished run (telemetry.hpp)
/// against the cost-model phase breakdown the wafer engine predicts for
/// the same run (engine::ModeledPhaseCost) and prints measured/modeled
/// ratios — the validation harness the ROADMAP's modeled-vs-executed
/// items call for. A ratio far above 1 marks a phase where the host
/// execution is slower than the paper's wafer model says it should be
/// (the next optimization target); the paper's own Sec. V-G journey is
/// exactly a sequence of driving such ratios toward 1.

#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace wsmd::telemetry {

/// One row of the report: a phase with the measured wall seconds (summed
/// telemetry spans) and, when the engine has a cost model, the modeled
/// seconds and the measured/modeled ratio.
struct PhaseRow {
  std::string phase;
  double measured_seconds = 0.0;
  bool has_modeled = false;
  double modeled_seconds = 0.0;
  double ratio = 0.0;  ///< measured / modeled; 0 when not computable
};

/// Build the report rows from the current telemetry session's span totals
/// and the engine's modeled breakdown. Phases: density (candidate
/// exchange + neighbor filtering), force (interactions + integration),
/// commit (fixed per-step bookkeeping: begin + commit), swap (atom-swap
/// select + commit), barrier (sharded barrier wait vs modeled halo), and
/// a total row. Distributed (ranks:) runs, which record dist.halo_* spans,
/// get a dedicated halo row joined against the modeled halo cost instead
/// (their barrier row then carries the raw lockstep wait, unmodeled). The
/// modeled total is the engine's max-cycles clock, so modeled components
/// summing below it is expected (load imbalance).
std::vector<PhaseRow> build_cost_report(
    const engine::ModeledPhaseCost& modeled);

/// Render rows as the human table `wsmd report` prints.
std::string format_cost_report(const std::vector<PhaseRow>& rows);

/// The wafer candidate-shortlist hit rate printed under the table,
/// "shortlist rebuilds: N / M steps\n", from the session's
/// wse.shortlist_rebuilds and wse.steps counters. N includes rebuilds
/// outside the step loop (the construction-time energy evaluation). Empty
/// when no rebuild was counted — the reference backend has no shortlist,
/// and ranks: processes do not report their counters.
std::string format_shortlist_summary();

}  // namespace wsmd::telemetry
