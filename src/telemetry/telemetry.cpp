#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>

#include "util/bench_json.hpp"
#include "util/error.hpp"

namespace wsmd::telemetry {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Agg {
  std::uint64_t calls = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
};

struct Event {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  int depth = 0;
};

}  // namespace

struct ThreadBuffer {
  std::string name;
  std::uint64_t session = 0;
  std::size_t order = 0;  ///< registration order, tie-break for merges
  int depth = 0;
  bool capture_trace = false;
  std::size_t max_events = 0;
  std::uint64_t dropped = 0;
  std::vector<Event> events;
  std::map<std::string, Agg> spans;
  std::map<std::string, std::uint64_t> counters;
};

namespace {

struct Global {
  std::mutex mu;
  SessionConfig cfg;
  std::atomic<std::uint64_t> session{0};  ///< 0 = no session ever begun
  std::uint64_t t0_ns = 0;                ///< session start
  /// Every buffer ever registered. Buffers are never removed (a
  /// still-open ScopedSpan may hold a raw pointer across a session
  /// boundary); readers filter on buffer.session == current.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Global& global() {
  static Global g;
  return g;
}

thread_local std::shared_ptr<ThreadBuffer> tls_buffer;
thread_local std::string tls_name;  // empty = "main"

/// Snapshot the current session's buffers under the lock.
std::vector<std::shared_ptr<ThreadBuffer>> session_buffers() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  const std::uint64_t session = g.session.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<ThreadBuffer>> out;
  for (const auto& tb : g.buffers) {
    if (tb->session == session) out.push_back(tb);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a->name != b->name ? a->name < b->name : a->order < b->order;
  });
  return out;
}

}  // namespace

ThreadBuffer* buffer_for_this_thread() {
  Global& g = global();
  const std::uint64_t session = g.session.load(std::memory_order_relaxed);
  ThreadBuffer* tb = tls_buffer.get();
  if (tb != nullptr && tb->session == session) return tb;
  // First record of this thread in this session: register a fresh buffer.
  auto fresh = std::make_shared<ThreadBuffer>();
  fresh->name = tls_name.empty() ? "main" : tls_name;
  fresh->session = session;
  std::lock_guard<std::mutex> lock(g.mu);
  fresh->order = g.buffers.size();
  fresh->capture_trace = g.cfg.capture_trace;
  fresh->max_events = g.cfg.max_events_per_thread;
  g.buffers.push_back(fresh);
  tls_buffer = std::move(fresh);
  return tls_buffer.get();
}

}  // namespace detail

void begin_session(const SessionConfig& config) {
  detail::Global& g = detail::global();
  {
    std::lock_guard<std::mutex> lock(g.mu);
    g.cfg = config;
    g.buffers.clear();
    g.t0_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    g.session.fetch_add(1, std::memory_order_relaxed);
  }
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void end_session() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void set_thread_name(const std::string& name) {
  detail::tls_name = name;
  if (detail::tls_buffer) detail::tls_buffer->name = name;
}

void ScopedSpan::open(const char* name) {
  detail::ThreadBuffer* tb = detail::buffer_for_this_thread();
  name_ = name;
  buf_ = tb;
  ++tb->depth;
  start_ns_ = detail::now_ns();
}

void ScopedSpan::close() {
  const std::uint64_t end_ns = detail::now_ns();
  detail::ThreadBuffer* tb = buf_;
  const std::uint64_t dur = end_ns - start_ns_;
  --tb->depth;
  detail::Agg& agg = tb->spans[name_];
  agg.calls += 1;
  const double seconds = static_cast<double>(dur) * 1e-9;
  agg.total_seconds += seconds;
  agg.max_seconds = std::max(agg.max_seconds, seconds);
  if (tb->capture_trace) {
    if (tb->events.size() < tb->max_events) {
      tb->events.push_back({name_, start_ns_, dur, tb->depth});
    } else {
      ++tb->dropped;
      tb->counters["telemetry.dropped_events"] += 1;
    }
  }
}

void count(const char* name, std::uint64_t delta) {
  if (!enabled()) return;
  detail::buffer_for_this_thread()->counters[name] += delta;
}

void add_span_time(const char* name, double seconds, std::uint64_t calls) {
  if (!enabled()) return;
  detail::Agg& agg = detail::buffer_for_this_thread()->spans[name];
  agg.calls += calls;
  agg.total_seconds += seconds;
  agg.max_seconds = std::max(agg.max_seconds, seconds);
}

std::vector<SpanStats> span_stats() {
  std::map<std::string, SpanStats> merged;
  for (const auto& tb : detail::session_buffers()) {
    for (const auto& [name, agg] : tb->spans) {
      SpanStats& s = merged[name];
      s.name = name;
      s.calls += agg.calls;
      s.total_seconds += agg.total_seconds;
      s.max_seconds = std::max(s.max_seconds, agg.max_seconds);
    }
  }
  std::vector<SpanStats> out;
  out.reserve(merged.size());
  for (auto& [name, s] : merged) out.push_back(std::move(s));
  return out;
}

double span_total_seconds(const std::string& name) {
  double total = 0.0;
  for (const auto& tb : detail::session_buffers()) {
    const auto it = tb->spans.find(name);
    if (it != tb->spans.end()) total += it->second.total_seconds;
  }
  return total;
}

std::vector<std::pair<std::string, std::uint64_t>> counters() {
  std::map<std::string, std::uint64_t> merged;
  for (const auto& tb : detail::session_buffers()) {
    for (const auto& [name, value] : tb->counters) {
      merged[name] += value;  // wraps mod 2^64, by design
    }
  }
  return {merged.begin(), merged.end()};
}

std::vector<TraceEvent> trace_events() {
  const std::uint64_t t0 = detail::global().t0_ns;
  std::vector<TraceEvent> out;
  for (const auto& tb : detail::session_buffers()) {
    for (const auto& ev : tb->events) {
      TraceEvent e;
      e.name = ev.name;
      e.thread = tb->name;
      e.start_ns = ev.start_ns >= t0 ? ev.start_ns - t0 : 0;
      e.duration_ns = ev.duration_ns;
      e.depth = ev.depth;
      out.push_back(std::move(e));
    }
  }
  return out;
}

void write_trace_json(const std::string& path) {
  const auto events = trace_events();
  // Stable tid assignment: one tid per distinct thread name, in name order
  // (events arrive grouped by thread already).
  std::map<std::string, int> tids;
  for (const auto& e : events) tids.emplace(e.thread, 0);
  int next = 0;
  for (auto& [name, tid] : tids) tid = next++;

  std::ofstream os(path);
  WSMD_REQUIRE(os.good(), "cannot open trace file '" << path << "'");
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  const auto emit = [&os, &first](const JsonObject& obj) {
    os << (first ? "\n    " : ",\n    ") << obj.encode();
    first = false;
  };
  for (const auto& [name, tid] : tids) {
    JsonObject meta;
    meta.set("name", "thread_name")
        .set("ph", "M")
        .set("pid", 0)
        .set("tid", tid)
        .set_raw("args", JsonObject().set("name", name).encode());
    emit(meta);
  }
  for (const auto& e : events) {
    JsonObject obj;
    obj.set("name", e.name)
        .set("cat", "wsmd")
        .set("ph", "X")
        .set("pid", 0)
        .set("tid", tids[e.thread])
        .set("ts", static_cast<double>(e.start_ns) * 1e-3)
        .set("dur", static_cast<double>(e.duration_ns) * 1e-3)
        .set_raw("args", JsonObject().set("depth", e.depth).encode());
    emit(obj);
  }
  os << "\n  ]\n}\n";
  os.flush();
  if (!os.good()) throw WriteError(path, "trace");
}

void append_metric_rows(std::ostream& os) {
  for (const auto& s : span_stats()) {
    JsonObject obj;
    obj.set("kind", "span")
        .set("name", s.name)
        .set("calls", static_cast<long long>(s.calls))
        .set("total_s", s.total_seconds)
        .set("mean_s", s.calls > 0
                           ? s.total_seconds / static_cast<double>(s.calls)
                           : 0.0)
        .set("max_s", s.max_seconds);
    os << obj.encode() << '\n';
  }
  for (const auto& [name, value] : counters()) {
    JsonObject obj;
    obj.set("kind", "counter").set("name", name).set(
        "value", static_cast<long long>(value));
    os << obj.encode() << '\n';
  }
}

void write_metrics_jsonl(const std::string& path) {
  std::ofstream os(path);
  WSMD_REQUIRE(os.good(), "cannot open metrics file '" << path << "'");
  append_metric_rows(os);
  os.flush();
  if (!os.good()) throw WriteError(path, "metrics");
}

}  // namespace wsmd::telemetry
