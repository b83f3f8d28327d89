#pragma once

/// \file telemetry.hpp
/// Runtime telemetry: hierarchical trace spans + monotonic counters.
///
/// The paper's headline claim is a cycle-level accounting of where wafer
/// time goes (compute vs halo vs swap); `wse::CostModel` *models* those
/// costs, but nothing measured where the executed engines actually spend
/// wall-clock. This layer instruments the hot paths — the WseMd phase
/// kernels, the sharded barrier waits, the reference force sweep, the
/// scenario runner's stages and I/O — without ever touching physics:
/// spans only read clocks, counters only count, and both write to
/// per-thread buffers merged deterministically at export time.
///
/// Cost discipline: telemetry is compiled in but disabled by default, and
/// the *entire* disabled-path cost is one relaxed atomic load per
/// ScopedSpan / count() call — no allocation, no locking, no clock read.
/// Instrumentation therefore lives at phase granularity (one span per
/// kernel call), never inside per-pair loops, so the bench-gate ratio
/// floors are unaffected.
///
/// Collection runs in sessions: `begin_session()` arms the layer,
/// `end_session()` disarms it while keeping the collected data readable
/// (span_stats / counters / trace_events, and the JSON exporters) until
/// the next begin_session(). Threads register lazily on first record; a
/// thread's merge identity is its `set_thread_name()` (shard workers are
/// named "shard<i>"), so two identical runs export identical event
/// sequences — timestamps aside — regardless of scheduling.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace wsmd::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
struct ThreadBuffer;
/// The calling thread's buffer for the current session (registers it on
/// first use). Only called on the enabled path.
ThreadBuffer* buffer_for_this_thread();
}  // namespace detail

/// Is a collection session armed? One relaxed load — the entire cost every
/// instrumentation point pays when telemetry is off.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

struct SessionConfig {
  /// Record individual trace events (for write_trace_json). Aggregates and
  /// counters are always collected while a session is armed.
  bool capture_trace = false;
  /// Per-thread trace-event cap; events beyond it are dropped (and counted
  /// in the "telemetry.dropped_events" counter) so a long run cannot grow
  /// without bound.
  std::size_t max_events_per_thread = 1u << 20;
};

/// Arm collection; resets any previous session's data.
void begin_session(const SessionConfig& config = {});

/// Disarm collection. Collected data stays readable until the next
/// begin_session().
void end_session();

/// Set the calling thread's merge identity (e.g. "shard0"). Threads that
/// never call this merge as "main". Safe to call any time; cheap, but not
/// free — call it once at thread start, not per record.
void set_thread_name(const std::string& name);

/// RAII span: times the enclosing scope under `name` on the calling
/// thread. `name` must outlive the session (string literals). Nesting is
/// tracked per thread (depth recorded with each trace event).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (enabled()) open(name);
  }
  ~ScopedSpan() {
    if (buf_ != nullptr) close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void open(const char* name);
  void close();
  detail::ThreadBuffer* buf_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

/// Bump a monotonic counter. Counters are per-thread and summed at export;
/// the sum wraps modulo 2^64 (well-defined unsigned arithmetic).
void count(const char* name, std::uint64_t delta = 1);

/// Fold externally measured time into a span aggregate without a trace
/// event — e.g. the sharded barrier-wait total, which is a derived
/// quantity (round wall minus per-worker busy time), not a scope.
void add_span_time(const char* name, double seconds, std::uint64_t calls = 1);

/// Merged per-name span aggregate (calls / total / max), summed across
/// threads, sorted by name.
struct SpanStats {
  std::string name;
  std::uint64_t calls = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
};
std::vector<SpanStats> span_stats();

/// Total seconds recorded under `name` (0 when the span never fired).
double span_total_seconds(const std::string& name);

/// Merged counter values, sorted by name.
std::vector<std::pair<std::string, std::uint64_t>> counters();

/// One completed span occurrence. `start_ns` is relative to the session
/// start; `depth` is the nesting level at which the span ran (0 = top).
struct TraceEvent {
  std::string name;
  std::string thread;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  int depth = 0;
};

/// All captured trace events in deterministic order: threads sorted by
/// name, events within a thread in completion order.
std::vector<TraceEvent> trace_events();

/// Write the captured events as a chrome://tracing / Perfetto "trace
/// event" JSON document ({"traceEvents": [...]}; ph "X" complete events,
/// timestamps in microseconds). Throws WriteError naming `path` when the
/// flushed document did not reach the file.
void write_trace_json(const std::string& path);

/// Append span aggregates and counters to `os` as JSON-lines, one object
/// per line in the BENCH-envelope encoding (util/bench_json): {"kind":
/// "span", "name", "calls", "total_s", "mean_s", "max_s"} and {"kind":
/// "counter", "name", "value"}. The end-of-run rows of every metrics file
/// (write_metrics_jsonl and SnapshotStream::finalize).
void append_metric_rows(std::ostream& os);

/// Write append_metric_rows to `path`. Throws WriteError naming `path`
/// when the flushed rows did not reach the file.
void write_metrics_jsonl(const std::string& path);

}  // namespace wsmd::telemetry
