#pragma once

/// \file dashboard.hpp
/// Self-contained single-file HTML dashboard for one run (`wsmd report
/// --html`).
///
/// Renders the snapshot time series (ns/day, pairs/sec, imbalance, and the
/// top per-phase span series as inline SVG sparklines), the
/// measured-vs-modeled cost table, and the per-shard busy/wait +
/// imbalance histogram — everything inlined: no external stylesheet, no
/// script, no fetched asset, so the one file can be scp'd off a cluster
/// or uploaded as a CI artifact and opened anywhere. The commissioning
/// lesson from wafer-scale systems (PAPERS.md, BrainScaleS) is that this
/// glanceable layer is what keeps long runs honest.

#include <string>
#include <vector>

#include "telemetry/report.hpp"
#include "telemetry/snapshot.hpp"

namespace wsmd::telemetry {

/// Everything the dashboard renders, gathered by the caller (the runner's
/// ScenarioResult plus the cost report).
struct DashboardInput {
  std::string title;    ///< scenario name
  std::string backend;
  std::size_t atoms = 0;
  long total_steps = 0;
  double wall_seconds = 0.0;
  double dt_ps = 0.0;
  std::vector<SnapshotRow> snapshots;
  std::vector<PhaseRow> cost;  ///< measured-vs-modeled table rows
};

/// Render the full HTML document (UTF-8, single file, inline CSS + SVG
/// only — no external references of any kind).
std::string render_dashboard_html(const DashboardInput& input);

/// Render and write to `path`; throws WriteError naming it when the flushed
/// page did not reach the file.
void write_dashboard_html(const std::string& path,
                          const DashboardInput& input);

}  // namespace wsmd::telemetry
