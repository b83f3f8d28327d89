/// Tests for the measured-vs-modeled cost report (src/telemetry/report):
/// row construction from synthetic span totals + a modeled breakdown, the
/// table rendering, and an end-to-end sharded run producing nonzero
/// measured time in every engine phase (the `wsmd report` acceptance
/// path), and the shortlist rebuild line printed under the table.

#include "telemetry/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/telemetry.hpp"

namespace wsmd::telemetry {
namespace {

const PhaseRow& row_named(const std::vector<PhaseRow>& rows,
                          const std::string& phase) {
  for (const auto& r : rows) {
    if (r.phase == phase) return r;
  }
  ADD_FAILURE() << "no row named '" << phase << "'";
  static PhaseRow missing;
  return missing;
}

TEST(CostReport, JoinsSpanTotalsAgainstModeledBreakdown) {
  begin_session();
  add_span_time("wse.density", 2.0);
  add_span_time("wse.force", 3.0);
  add_span_time("wse.begin", 0.25);
  add_span_time("wse.commit", 0.75);
  add_span_time("wse.swap_select", 0.10);
  add_span_time("wse.swap_commit", 0.30);
  add_span_time("shard.barrier_wait", 0.5, 4);
  end_session();

  engine::ModeledPhaseCost modeled;
  modeled.valid = true;
  modeled.density_seconds = 1.0;
  modeled.force_seconds = 1.5;
  modeled.fixed_seconds = 0.5;
  modeled.swap_seconds = 0.2;
  modeled.halo_seconds = 0.25;
  modeled.total_seconds = 4.0;

  const auto rows = build_cost_report(modeled);
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_DOUBLE_EQ(row_named(rows, "density").measured_seconds, 2.0);
  EXPECT_DOUBLE_EQ(row_named(rows, "density").ratio, 2.0);
  EXPECT_DOUBLE_EQ(row_named(rows, "force").ratio, 2.0);
  // commit = begin + commit spans vs modeled fixed cost.
  EXPECT_DOUBLE_EQ(row_named(rows, "commit").measured_seconds, 1.0);
  EXPECT_DOUBLE_EQ(row_named(rows, "commit").ratio, 2.0);
  EXPECT_DOUBLE_EQ(row_named(rows, "swap").measured_seconds, 0.4);
  EXPECT_DOUBLE_EQ(row_named(rows, "swap").ratio, 2.0);
  EXPECT_DOUBLE_EQ(row_named(rows, "barrier").measured_seconds, 0.5);
  EXPECT_DOUBLE_EQ(row_named(rows, "barrier").ratio, 2.0);
  EXPECT_DOUBLE_EQ(row_named(rows, "total").measured_seconds, 6.9);
  EXPECT_DOUBLE_EQ(row_named(rows, "total").ratio, 6.9 / 4.0);
  for (const auto& r : rows) EXPECT_TRUE(r.has_modeled) << r.phase;
}

TEST(CostReport, DistributedRowsCarryHaloAndOverlap) {
  // dist.halo_* spans flip the report into distributed mode: the halo row
  // joins them against the modeled halo cost, and the compute hidden
  // behind the exchange gets its own overlap row.
  begin_session();
  add_span_time("wse.density", 1.0);
  add_span_time("dist.halo_pack", 0.2);
  add_span_time("dist.halo_exchange", 0.3);
  add_span_time("dist.halo_unpack", 0.1);
  add_span_time("dist.barrier", 0.05);
  add_span_time("dist.overlap_compute", 0.4);
  end_session();

  engine::ModeledPhaseCost modeled;
  modeled.valid = true;
  modeled.halo_seconds = 0.3;
  const auto rows = build_cost_report(modeled);
  const auto& halo = row_named(rows, "halo");
  EXPECT_DOUBLE_EQ(halo.measured_seconds, 0.6);
  EXPECT_DOUBLE_EQ(halo.ratio, 2.0);
  const auto& overlap = row_named(rows, "overlap");
  EXPECT_DOUBLE_EQ(overlap.measured_seconds, 0.4);
  EXPECT_FALSE(overlap.has_modeled);
  const std::string table = format_cost_report(rows);
  EXPECT_NE(table.find("halo "), std::string::npos) << table;
}

TEST(CostReport, NoModelMeansDashColumns) {
  begin_session();
  add_span_time("wse.density", 1.0);
  end_session();
  const auto rows = build_cost_report(engine::ModeledPhaseCost{});
  for (const auto& r : rows) {
    EXPECT_FALSE(r.has_modeled) << r.phase;
    EXPECT_DOUBLE_EQ(r.ratio, 0.0) << r.phase;
  }
  const std::string table = format_cost_report(rows);
  EXPECT_NE(table.find("phase"), std::string::npos);
  EXPECT_NE(table.find(" -"), std::string::npos) << table;
}

TEST(CostReport, FormatsOneLinePerRowPlusHeader) {
  std::vector<PhaseRow> rows;
  PhaseRow r;
  r.phase = "density";
  r.measured_seconds = 1.25;
  r.has_modeled = true;
  r.modeled_seconds = 0.5;
  r.ratio = 2.5;
  rows.push_back(r);
  const std::string table = format_cost_report(rows);
  // header + separator + one row, each newline-terminated
  long lines = 0;
  for (const char ch : table) lines += ch == '\n';
  EXPECT_EQ(lines, 3);
  EXPECT_NE(table.find("density"), std::string::npos);
  EXPECT_NE(table.find("2.50"), std::string::npos) << table;
}

TEST(CostReport, ShardedRunMeasuresEveryEnginePhase) {
  // The acceptance path of `wsmd report`: a short sharded run with
  // telemetry armed must produce nonzero measured time for density,
  // force, commit, and barrier, joined against a valid cost model.
  scenario::Deck deck = scenario::parse_deck_string(
      "name = report_it\n"
      "element = Cu\n"
      "geometry = slab\n"
      "replicate = 3 3 2\n"
      "seed = 77\n"
      "swap_interval = 5\n"
      "thermalize = 300\n"
      "run = 12\n",
      "report_it.deck");
  scenario::RunOptions opt;
  opt.backend_override = "sharded:2";
  opt.collect_telemetry = true;
  const auto result = scenario::run_scenario(
      scenario::scenario_from_deck(deck), opt);

  ASSERT_TRUE(result.modeled.valid);
  EXPECT_EQ(result.modeled.steps, 12);
  EXPECT_GT(result.modeled.density_seconds, 0.0);
  EXPECT_GT(result.modeled.force_seconds, 0.0);
  EXPECT_GT(result.modeled.fixed_seconds, 0.0);
  EXPECT_GT(result.modeled.halo_seconds, 0.0);
  EXPECT_GT(result.modeled.total_seconds, 0.0);

  const auto rows = build_cost_report(result.modeled);
  for (const auto& phase : {"density", "force", "commit", "barrier"}) {
    const auto& r = row_named(rows, phase);
    EXPECT_GT(r.measured_seconds, 0.0) << phase;
    EXPECT_TRUE(r.has_modeled) << phase;
    EXPECT_GT(r.ratio, 0.0) << phase;
  }
  // swap_interval = 5 over 12 NVE steps fires the swap phase too.
  EXPECT_GT(row_named(rows, "swap").measured_seconds, 0.0);

  // The shortlist line under the table: at least the construction-time
  // energy evaluation and the sharded workspace's first step rebuild, and
  // at most those two plus every step.
  const std::string line = format_shortlist_summary();
  unsigned long long rebuilds = 0, steps = 0;
  ASSERT_EQ(std::sscanf(line.c_str(), "shortlist rebuilds: %llu / %llu steps",
                        &rebuilds, &steps),
            2)
      << line;
  EXPECT_EQ(steps, 12u);
  EXPECT_GE(rebuilds, 2u);
  EXPECT_LE(rebuilds, 14u);
}

TEST(CostReport, ShortlistSummaryReadsTheSessionCounters) {
  begin_session();
  count("wse.steps", 40);
  count("wse.shortlist_rebuilds", 5);
  end_session();
  EXPECT_EQ(format_shortlist_summary(), "shortlist rebuilds: 5 / 40 steps\n");

  // No shortlist (reference backend, or ranks: whose processes keep their
  // own counters): no line.
  begin_session();
  count("wse.steps", 40);
  end_session();
  EXPECT_EQ(format_shortlist_summary(), "");
}

TEST(CostReport, DeckTelemetryKeysWriteExports) {
  const std::string base = ::testing::TempDir();
  scenario::Deck deck = scenario::parse_deck_string(
      "name = report_exports\n"
      "element = Cu\n"
      "geometry = slab\n"
      "replicate = 3 3 2\n"
      "seed = 78\n"
      "thermalize = 300\n"
      "run = 4\n"
      "telemetry.trace = " + base + "report_exports.trace.json\n"
      "telemetry.metrics = " + base + "report_exports.metrics.jsonl\n",
      "report_exports.deck");
  scenario::RunOptions opt;
  opt.backend_override = "sharded:2";
  const auto result = scenario::run_scenario(
      scenario::scenario_from_deck(deck), opt);

  ASSERT_FALSE(result.trace_path.empty());
  ASSERT_FALSE(result.metrics_path.empty());
  std::FILE* trace = std::fopen(result.trace_path.c_str(), "r");
  ASSERT_NE(trace, nullptr) << result.trace_path;
  std::fclose(trace);
  std::FILE* metrics = std::fopen(result.metrics_path.c_str(), "r");
  ASSERT_NE(metrics, nullptr) << result.metrics_path;
  std::fclose(metrics);
  std::remove(result.trace_path.c_str());
  std::remove(result.metrics_path.c_str());
}

}  // namespace
}  // namespace wsmd::telemetry
