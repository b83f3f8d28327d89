#include "telemetry/snapshot.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/telemetry.hpp"
#include "util/bench_json.hpp"
#include "util/error.hpp"

namespace wsmd::telemetry {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string encode_double_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += format_double(values[i]);
  }
  out += "]";
  return out;
}

/// Difference two sorted (name -> cumulative) series; names present only
/// in `now` difference against zero. Cumulative series never shrink, so
/// names missing from `now` are ignored.
template <typename T, typename Out>
void diff_sorted(const std::vector<std::pair<std::string, T>>& now,
                 const std::vector<std::pair<std::string, T>>& prev,
                 std::vector<std::pair<std::string, Out>>* out) {
  std::size_t j = 0;
  for (const auto& [name, value] : now) {
    while (j < prev.size() && prev[j].first < name) ++j;
    T base{};
    if (j < prev.size() && prev[j].first == name) base = prev[j].second;
    const Out delta = static_cast<Out>(value - base);
    if (delta != Out{}) out->emplace_back(name, delta);
  }
}

}  // namespace

SnapshotStream::SnapshotStream(std::string path, double cadence_s,
                               double dt_ps)
    : path_(std::move(path)), cadence_s_(cadence_s), dt_ps_(dt_ps) {
  os_.open(path_);
  WSMD_REQUIRE(os_.good(), "cannot open metrics file '" << path_ << "'");
}

SnapshotStream::~SnapshotStream() {
  // Best-effort: a stream destroyed without finalize() (unexpected unwind)
  // still leaves a well-formed file with whatever aggregates exist now.
  if (!finalized_) {
    try {
      finalize();
    } catch (...) {
    }
  }
}

bool SnapshotStream::snapshot_due(double wall_s) const {
  if (finalized_ || cadence_s_ <= 0.0) return false;
  return wall_s - last_snapshot_s_ >= cadence_s_;
}

const SnapshotRow& SnapshotStream::take_snapshot(
    long step, double wall_s, const std::vector<double>& shard_busy_cum,
    const std::vector<double>& shard_wait_cum) {
  SnapshotRow row;
  row.seq = static_cast<long long>(rows_.size());
  row.t_s = wall_s;
  row.step = step;
  row.steps_delta = step - last_step_;
  row.wall_delta_s = wall_s - last_snapshot_s_;

  // Span / counter deltas vs the previous snapshot's cumulative values.
  std::vector<std::pair<std::string, double>> span_total;
  for (const auto& s : span_stats()) {
    span_total.emplace_back(s.name, s.total_seconds);
  }
  const auto counter_total = counters();
  diff_sorted<double, double>(span_total, prev_span_total_,
                              &row.span_delta_s);
  diff_sorted<std::uint64_t, std::uint64_t>(counter_total, prev_counter_,
                                            &row.counter_delta);

  // Throughput over the interval. ns/day: steps * dt[ps] * 1e-3 ns of
  // simulated time per wall_delta seconds, scaled to a day.
  if (row.wall_delta_s > 0.0) {
    row.ns_per_day = static_cast<double>(row.steps_delta) * dt_ps_ * 1e-3 /
                     row.wall_delta_s * 86400.0;
    for (const auto& [name, delta] : row.counter_delta) {
      if (name == "wse.interactions") {
        row.pairs_per_s = static_cast<double>(delta) / row.wall_delta_s;
      }
    }
  }

  // Per-shard busy/wait over the interval. A size change (engine swapped
  // out mid-run) resets the baseline to zero.
  if (prev_busy_.size() != shard_busy_cum.size()) prev_busy_.clear();
  if (prev_wait_.size() != shard_wait_cum.size()) prev_wait_.clear();
  prev_busy_.resize(shard_busy_cum.size(), 0.0);
  prev_wait_.resize(shard_wait_cum.size(), 0.0);
  double busy_sum = 0.0, busy_max = 0.0;
  for (std::size_t i = 0; i < shard_busy_cum.size(); ++i) {
    const double busy = shard_busy_cum[i] - prev_busy_[i];
    row.shard_busy_s.push_back(busy);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
  }
  for (std::size_t i = 0; i < shard_wait_cum.size(); ++i) {
    row.shard_wait_s.push_back(shard_wait_cum[i] - prev_wait_[i]);
  }
  if (!row.shard_busy_s.empty() && busy_sum > 0.0) {
    row.imbalance =
        busy_max / (busy_sum / static_cast<double>(row.shard_busy_s.size()));
  }

  // Advance the baselines and flush the row.
  prev_span_total_ = std::move(span_total);
  prev_counter_ = counter_total;
  prev_busy_ = shard_busy_cum;
  prev_wait_ = shard_wait_cum;
  last_snapshot_s_ = wall_s;
  last_step_ = step;

  JsonObject spans;
  for (const auto& [name, delta] : row.span_delta_s) spans.set(name, delta);
  JsonObject counts;
  for (const auto& [name, delta] : row.counter_delta) {
    counts.set(name, static_cast<long long>(delta));
  }
  JsonObject obj;
  obj.set("kind", "snapshot")
      .set("seq", static_cast<long long>(row.seq))
      .set("t_s", row.t_s)
      .set("step", static_cast<long long>(row.step))
      .set("steps_delta", static_cast<long long>(row.steps_delta))
      .set("wall_delta_s", row.wall_delta_s)
      .set("ns_per_day", row.ns_per_day)
      .set("pairs_per_s", row.pairs_per_s)
      .set_raw("spans", spans.encode())
      .set_raw("counters", counts.encode())
      .set_raw("shard_busy_s", encode_double_array(row.shard_busy_s))
      .set_raw("shard_wait_s", encode_double_array(row.shard_wait_s))
      .set("imbalance", row.imbalance);
  os_ << obj.encode() << '\n';
  os_.flush();
  if (!os_.good()) throw WriteError(path_, "metrics snapshot");

  rows_.push_back(std::move(row));
  return rows_.back();
}

void SnapshotStream::finalize() {
  if (finalized_) return;
  finalized_ = true;
  append_metric_rows(os_);
  os_.flush();
  if (!os_.good()) throw WriteError(path_, "metrics");
  os_.close();
}

}  // namespace wsmd::telemetry
