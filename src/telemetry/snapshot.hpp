#pragma once

/// \file snapshot.hpp
/// Streaming interval snapshots of an armed telemetry session.
///
/// PR 6's exporters only run at end of run, so a multi-hour trajectory is
/// a black box until it finishes. A SnapshotStream turns `metrics.jsonl`
/// into an append-only time series: at a wall-clock cadence the runner
/// takes a snapshot — per-span time deltas, counter deltas, ns/day,
/// pairs/sec, and the per-shard busy/wait split since the previous
/// snapshot — and flushes it as one `{"kind": "snapshot", ...}` row.
/// `finalize()` then appends the classic end-of-run span/counter aggregate
/// rows (byte-identical to telemetry::write_metrics_jsonl), so downstream
/// tooling that only understands PR 6 rows keeps working, and a cadence of
/// zero degenerates to exactly the old file.
///
/// The stream holds the file open and flushes after every row, so a run
/// killed mid-flight still leaves every completed snapshot on disk; the
/// runner's unwind path calls finalize() to close out the aggregates even
/// on a watchdog abort.

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace wsmd::telemetry {

/// One interval row: everything is a *delta* over the interval since the
/// previous snapshot (or since the stream was created, for the first row),
/// except `step` and `t_s` which are absolute.
struct SnapshotRow {
  long long seq = 0;        ///< 0-based row index
  double t_s = 0.0;         ///< wall seconds since the stream was created
  long step = 0;            ///< engine step count at snapshot time
  long steps_delta = 0;     ///< steps completed this interval
  double wall_delta_s = 0.0;
  double ns_per_day = 0.0;  ///< simulated-time throughput this interval
  double pairs_per_s = 0.0; ///< wse.interactions delta / wall delta
  /// Per-span seconds accumulated this interval (sorted by name, zero
  /// deltas omitted).
  std::vector<std::pair<std::string, double>> span_delta_s;
  /// Counter increments this interval (sorted by name, zeros omitted).
  std::vector<std::pair<std::string, std::uint64_t>> counter_delta;
  /// Per-shard busy/wait seconds this interval (empty for backends
  /// without a worker pool).
  std::vector<double> shard_busy_s;
  std::vector<double> shard_wait_s;
  /// Max over mean of per-shard busy time this interval — 1.0 is a
  /// perfectly balanced pool, 0 when there are no shards (or no work).
  double imbalance = 0.0;
};

/// Append-only metrics.jsonl writer: interval snapshot rows while the run
/// is live, classic aggregate rows on finalize. Requires an armed (or
/// just-ended, still readable) telemetry session — deltas are computed
/// from telemetry::span_stats() / telemetry::counters().
class SnapshotStream {
 public:
  /// Opens (truncates) `path` immediately. `cadence_s <= 0` disables
  /// interval rows: snapshot_due() never fires and the finalized file is
  /// exactly what telemetry::write_metrics_jsonl would have written.
  /// `dt_ps` is the timestep used to convert steps/s into ns/day.
  SnapshotStream(std::string path, double cadence_s, double dt_ps);
  ~SnapshotStream();
  SnapshotStream(const SnapshotStream&) = delete;
  SnapshotStream& operator=(const SnapshotStream&) = delete;

  /// Has a full cadence interval elapsed since the last snapshot?
  /// `wall_s` is the caller's clock, seconds since stream creation.
  bool snapshot_due(double wall_s) const;

  /// Compute the interval deltas, append one snapshot row to the file,
  /// and retain it in rows(). `shard_busy_cum` / `shard_wait_cum` are
  /// *cumulative* per-worker seconds (engine::Engine::shard_load); the
  /// stream differentiates them like every other series.
  const SnapshotRow& take_snapshot(long step, double wall_s,
                                   const std::vector<double>& shard_busy_cum,
                                   const std::vector<double>& shard_wait_cum);

  /// Append the end-of-run span/counter aggregate rows
  /// (telemetry::append_metric_rows) and close the file. Idempotent — the
  /// unwind path and the normal path may both call it. Throws WriteError
  /// naming the file when the rows did not reach it (take_snapshot too).
  void finalize();

  const std::vector<SnapshotRow>& rows() const { return rows_; }
  const std::string& path() const { return path_; }
  double cadence_seconds() const { return cadence_s_; }

 private:
  std::string path_;
  double cadence_s_ = 0.0;
  double dt_ps_ = 0.0;
  double last_snapshot_s_ = 0.0;
  long last_step_ = 0;
  bool finalized_ = false;
  std::ofstream os_;
  std::vector<SnapshotRow> rows_;
  /// Previous cumulative values, for differencing.
  std::vector<std::pair<std::string, double>> prev_span_total_;
  std::vector<std::pair<std::string, std::uint64_t>> prev_counter_;
  std::vector<double> prev_busy_, prev_wait_;
};

}  // namespace wsmd::telemetry
