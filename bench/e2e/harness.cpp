/// \file harness.cpp
/// End-to-end benchmark harness: runs one workload deck through the public
/// scenario::run_scenario and, when traced, times every layer from outside
/// by calling its public functions. Prints one JSON document on stdout;
/// bench/e2e/run.py turns it into metrics and correctness checks.
///
///   e2e_harness --deck=PATH --out-dir=DIR [--seconds=S] [--trace=0|1]
///
/// Untraced: a warm-up (the schedule cut to one step), then full passes of
/// the schedule until S seconds have passed (at least five), pinned to one
/// core with the host-speed probe (host_speed.hpp) timed before the first
/// pass and after every pass. run.py scales each pass by the probe around it
/// and reports medians over the passes. Traced: the warm-up, two untraced
/// passes around one pass with a timing decorator around the engine, then,
/// unpinned, the layer probes.
/// Every timed call is also recorded as a span (name, start, end, parent)
/// that run.py writes as a chrome trace.
///
/// The harness starts no threads of its own until every ranks: engine has
/// been torn down: the rank processes fork from this process.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/wse_md.hpp"
#include "dist/domain.hpp"
#include "dist/shm_channel.hpp"
#include "engine/reference_engine.hpp"
#include "engine/wafer_engine.hpp"
#include "host_speed.hpp"
#include "io/checkpoint.hpp"
#include "io/thermo_log.hpp"
#include "io/trajectory.hpp"
#include "md/neighbor.hpp"
#include "md/simd.hpp"
#include "obs/factory.hpp"
#include "scenario/deck.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bench_json.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

using namespace wsmd;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  WSMD_REQUIRE(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// --- Benchmark-side spans ---------------------------------------------------

/// Spans of the harness's own calls into the product, kept in memory and
/// emitted with the result. Recording is off in untraced runs.
class Tracer {
 public:
  bool on = false;

  int open(const char* name) {
    if (!on) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  /// [[name, start_us, end_us, parent], ...]
  std::string encode() const {
    std::string out = "[";
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      out += format("%s[\"%s\", %.3f, %.3f, %d]", k == 0 ? "" : ", ", s.name,
                    s.start_us, s.end_us, s.parent);
    }
    return out + "]";
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };
  double now_us() const { return seconds_between(t0_, Clock::now()) * 1e6; }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

class SpanGuard {
 public:
  explicit SpanGuard(const char* name) : id_(g_tracer.open(name)) {}
  ~SpanGuard() { g_tracer.close(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  int id_;
};

/// Time `f` per call, as a span each: at least `min_calls`, then more until
/// `min_seconds` have passed or `max_calls` is reached.
template <class F>
std::vector<double> time_calls(const char* span, F&& f, int min_calls,
                               double min_seconds, int max_calls) {
  std::vector<double> out;
  const auto start = Clock::now();
  while (static_cast<int>(out.size()) < max_calls &&
         (static_cast<int>(out.size()) < min_calls ||
          seconds_between(start, Clock::now()) < min_seconds)) {
    SpanGuard guard(span);
    const auto t0 = Clock::now();
    f();
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

// --- JSON helpers -------------------------------------------------------------

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t k = 0; k < v.size(); ++k) {
    out += format("%s%.12g", k == 0 ? "" : ", ", v[k]);
  }
  return out + "]";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t k = 0; k < items.size(); ++k) {
    out += (k == 0 ? "" : ", ") + items[k];
  }
  return out + "]";
}

std::string json_thermo(const engine::Thermo& t) {
  JsonObject o;
  o.set("step", static_cast<long long>(t.step))
      .set("pe", t.potential_energy)
      .set("ke", t.kinetic_energy)
      .set("total", t.total_energy)
      .set("temperature", t.temperature);
  return o.encode();
}

// --- Host speed ------------------------------------------------------------------

/// Pins the calling thread, and every thread or process it starts, to the
/// core it runs on, until destroyed. This host slows per core (another
/// tenant on the core's sibling), so the host-speed probe has to run on the
/// core the passes run on.
class CorePin {
 public:
  CorePin() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~CorePin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CorePin(const CorePin&) = delete;
  CorePin& operator=(const CorePin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Host-speed samples: one when constructed, one after every pass. A pass's
/// host time is the mean of the samples before and after it.
class HostSpeed {
 public:
  HostSpeed() {
    e2e::host_speed_ms();  // builds the probe's inputs
    last_ = sample();
  }
  /// Takes the sample after a pass; returns that pass's host time (ms).
  double after_pass() {
    const double before = last_;
    last_ = sample();
    return 0.5 * (before + last_);
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  double sample() {
    SpanGuard guard("host_speed");
    samples_.push_back(e2e::host_speed_ms());
    return samples_.back();
  }
  double last_ = 0.0;
  std::vector<double> samples_;
};

// --- Engine timing decorator --------------------------------------------------

/// Per-call seconds of the engine surface calls the runner makes. Owned by
/// the caller, so it outlives the engine run_scenario destroys.
struct CallTimes {
  std::vector<double> step, positions, velocities, snapshot, set_velocities;
};

/// Call `f` as a span, appending its wall time to `sink`.
template <class F>
auto timed(const char* span, std::vector<double>& sink, F&& f) {
  SpanGuard guard(span);
  const auto t0 = Clock::now();
  auto out = f();
  sink.push_back(seconds_between(t0, Clock::now()));
  return out;
}

class TimedEngine final : public engine::Engine {
 public:
  TimedEngine(std::shared_ptr<engine::Engine> inner, CallTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  const char* backend_name() const override { return inner_->backend_name(); }
  engine::ModeledPhaseCost modeled_phase_cost() const override {
    return inner_->modeled_phase_cost();
  }
  std::vector<engine::ShardLoad> shard_load() const override {
    return inner_->shard_load();
  }
  std::size_t atom_count() const override { return inner_->atom_count(); }
  long step_count() const override { return inner_->step_count(); }
  std::vector<Vec3d> positions() const override {
    return timed("engine.positions", times_.positions,
                 [&] { return inner_->positions(); });
  }
  std::vector<Vec3d> velocities() const override {
    return timed("engine.velocities", times_.velocities,
                 [&] { return inner_->velocities(); });
  }
  void set_velocities(const std::vector<Vec3d>& v) override {
    timed("engine.set_velocities", times_.set_velocities, [&] {
      inner_->set_velocities(v);
      return 0;
    });
  }
  void set_positions(const std::vector<Vec3d>& r) override {
    inner_->set_positions(r);
  }
  engine::State snapshot() const override {
    return timed("engine.snapshot", times_.snapshot,
                 [&] { return inner_->snapshot(); });
  }
  void restore(const engine::State& state) override { inner_->restore(state); }
  void thermalize(double temperature_K, Rng& rng) override {
    inner_->thermalize(temperature_K, rng);
  }
  engine::Thermo step() override {
    return timed("engine.step", times_.step, [&] { return inner_->step(); });
  }
  engine::Thermo thermo() const override { return inner_->thermo(); }

 private:
  std::shared_ptr<engine::Engine> inner_;
  CallTimes& times_;
};

// --- One pass through run_scenario --------------------------------------------

/// Seconds since process start, the clock every emitted mark shares.
const Clock::time_point g_epoch = Clock::now();
double epoch_s() { return seconds_between(g_epoch, Clock::now()); }

struct Pass {
  /// run_scenario call, first progress callback (both epoch_s), and that
  /// callback's own wall_seconds: set-up = (first - call) - wall.
  double call_s = 0.0, first_s = 0.0, first_wall_s = 0.0;
  std::vector<double> progress_s;  ///< wall_seconds of every step's callback
  double host_ms = 0.0;            ///< host-speed probe around the pass
  scenario::ScenarioResult result;
};

/// Run the scenario once, then sample the host speed. `times` non-null: wrap
/// the engine in the timing decorator (and arm the product's telemetry, so
/// the traced pass carries both instruments); `keep` then receives the
/// engine, alive after return.
Pass run_pass(const scenario::Scenario& sc, const std::string& out_dir,
              HostSpeed& host, CallTimes* times = nullptr,
              std::shared_ptr<engine::Engine>* keep = nullptr) {
  SpanGuard guard(times ? "pass.traced" : "pass");
  Pass pass;
  pass.progress_s.reserve(static_cast<std::size_t>(sc.total_steps()));

  scenario::RunOptions opt;
  opt.output_dir = out_dir;
  opt.progress_interval_s = 0.0;  // one heartbeat per step
  opt.progress = [&](const scenario::ProgressInfo& p) {
    if (p.final) return;
    if (pass.progress_s.empty()) {
      pass.first_s = epoch_s();
      pass.first_wall_s = p.wall_seconds;
    }
    pass.progress_s.push_back(p.wall_seconds);
  };
  if (times != nullptr) {
    opt.collect_telemetry = true;
    opt.engine_factory = [&](const scenario::Scenario& s,
                             const lattice::Structure& st) {
      std::shared_ptr<engine::Engine> inner =
          scenario::build_engine(s, st, "", out_dir);
      if (keep != nullptr) *keep = inner;
      return std::unique_ptr<engine::Engine>(
          std::make_unique<TimedEngine>(std::move(inner), *times));
    };
  }

  pass.call_s = epoch_s();
  pass.result = scenario::run_scenario(sc, opt);
  WSMD_REQUIRE(!pass.progress_s.empty(), "workload ran no steps");
  pass.host_ms = host.after_pass();
  return pass;
}

std::string encode_pass(const Pass& p) {
  const auto& r = p.result;
  std::string obs = "[";
  for (std::size_t k = 0; k < r.observables.size(); ++k) {
    const auto& o = r.observables[k];
    const auto bytes = fs::exists(o.path) ? fs::file_size(o.path) : 0;
    obs += format("%s{\"kind\": \"%s\", \"samples\": %zu, \"bytes\": %llu}",
                  k == 0 ? "" : ", ", o.kind.c_str(), o.samples,
                  static_cast<unsigned long long>(bytes));
  }
  obs += "]";
  JsonObject o;
  o.set_raw("setup_marks",
            json_array({p.call_s, p.first_s, p.first_wall_s}))
      .set("wall_s", r.wall_seconds)
      .set("host_ms", p.host_ms)
      .set("steps", static_cast<long long>(r.total_steps))
      .set_raw("progress_s", json_array(p.progress_s))
      .set_raw("final", json_thermo(r.final_thermo))
      .set("thermo_path", r.thermo_path)
      .set("thermo_samples", r.thermo_samples)
      .set("xyz_frames", r.xyz_frames)
      .set("checkpoints", r.checkpoints_written)
      .set("health_events", r.health_events)
      .set_raw("observables", obs);
  return o.encode();
}

/// The schedule cut to its opening thermalize plus one step: everything
/// run_scenario sets up, for one step's worth of stepping. Run once, untimed,
/// before the timed passes, so lazy set-up and first-touch costs are paid.
scenario::Scenario warmup_of(const scenario::Scenario& sc) {
  scenario::Scenario probe = sc;
  probe.schedule.clear();
  if (!sc.schedule.empty() &&
      sc.schedule.front().kind == scenario::Stage::Kind::kThermalize) {
    probe.schedule.push_back(sc.schedule.front());
  }
  scenario::Stage one;
  one.kind = scenario::Stage::Kind::kRun;
  one.steps = 1;
  probe.schedule.push_back(one);
  return probe;
}

double first_temperature(const scenario::Scenario& sc) {
  for (const auto& st : sc.schedule) {
    if (st.kind != scenario::Stage::Kind::kRun) return st.t0;
  }
  return 300.0;
}

int rank_count(const scenario::Scenario& sc) {
  const auto spec = scenario::parse_backend(sc.backend);
  return spec.backend == engine::Backend::kRanks ? spec.ranks : 0;
}

/// Width of every parallel layer probe (threads or rank processes). The
/// workloads run one worker each; the probes use the smallest width that
/// has halos, barriers and a parallel efficiency to measure.
constexpr int kLayerWorkers = 2;

double peak_rss_mb(int ranks) {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB. Each rank's peak is bounded by the largest child's.
  return (static_cast<double>(self.ru_maxrss) +
          ranks * static_cast<double>(children.ru_maxrss)) /
         1024.0;
}

// --- Layer probes (traced runs) -------------------------------------------------

struct Layers {
  JsonObject values;
  double serial_step_s = 0.0;       ///< core density + force + commit
  std::size_t halo_max_message = 0;  ///< largest directed halo message
};

/// Engine surface, I/O and observables on the workload's own engine, right
/// after the traced pass (adds to the call times the runner produced).
void probe_io_obs(const scenario::Scenario& sc, engine::Engine& eng,
                  const lattice::Structure& s, const std::string& dir,
                  CallTimes& times, Layers& out) {
  SpanGuard group("probe.io_obs");
  std::vector<Vec3d> pos;
  engine::State state;
  for (int k = 0; k < 3; ++k) {
    pos = timed("engine.positions", times.positions,
                [&] { return eng.positions(); });
    state = timed("engine.snapshot", times.snapshot,
                  [&] { return eng.snapshot(); });
  }
  const std::vector<Vec3d> vel = eng.velocities();
  out.values.set("engine.positions_ms", median(times.positions) * 1e3)
      .set("engine.snapshot_ms", median(times.snapshot) * 1e3);

  {
    io::ThermoLogger log(dir + "/layer.thermo.csv", io::ThermoFormat::kCsv);
    long step = 0;
    const auto batches = time_calls(
        "io.thermo_rows",
        [&] {
          for (int k = 0; k < 1000; ++k, ++step) {
            const double pe = -1.0 * static_cast<double>(step);
            log.write({step, pe, 1.0, pe + 1.0, 300.0});
          }
        },
        5, 0.0, 5);
    out.values.set("io.thermo_row_us", median(batches) / 1000.0 * 1e6);
  }

  const std::string xyz = dir + "/layer.xyz";
  std::size_t frames = 0;
  {
    io::XyzTrajectoryWriter w(xyz, {sc.element});
    const auto t = time_calls(
        "io.xyz_frame", [&] { w.append(s.box, pos, s.types, "step=0"); }, 3,
        0.3, 50);
    frames = w.frames_written();
    out.values.set("io.xyz_frame_ms", median(t) * 1e3);
  }
  out.values.set("io.xyz_bytes", static_cast<double>(fs::file_size(xyz)) /
                                     static_cast<double>(frames));
  fs::remove(xyz);

  io::CheckpointData ck;
  ck.element = sc.element;
  ck.backend = eng.backend_name();
  ck.box = s.box;
  ck.types = s.types;
  for (const auto& e : scenario::deck_from_scenario(sc).entries) {
    ck.deck.emplace_back(e.key, e.value);
  }
  ck.engine = std::move(state);
  const std::string ckpt = dir + "/layer.ckpt";
  const auto t_ck = time_calls(
      "io.checkpoint", [&] { io::write_checkpoint_file(ckpt, ck); }, 3, 0.3, 50);
  out.values.set("io.checkpoint_ms", median(t_ck) * 1e3)
      .set("io.checkpoint_bytes", static_cast<double>(fs::file_size(ckpt)));

  const std::pair<const char*, const char*> probes[] = {
      {"rdf", "obs.rdf_ms"},
      {"msd", "obs.msd_ms"},
      {"vacf", "obs.vacf_ms"},
      {"defects", "obs.defects_ms"}};
  for (const auto& [kind, metric] : probes) {
    obs::ProbeSetConfig cfg = sc.observe;
    cfg.probes = {kind};
    cfg.every = 1;
    cfg.rdf_every = cfg.msd_every = cfg.vacf_every = cfg.defects_every = 0;
    cfg.prefix = dir + "/layer";
    auto bus = obs::make_observer_bus(cfg, scenario::material_for(sc));
    obs::Frame frame;
    frame.box = &s.box;
    frame.positions = &pos;
    frame.velocities = &vel;
    const auto t = time_calls(
        "obs.sample",
        [&] {
          bus->observe(frame);
          ++frame.step;
        },
        3, 0.3, 200);
    bus->finish();
    out.values.set(metric, median(t) * 1e3);
  }
}

/// The decorated pass, then the engine-surface, I/O and observable probes
/// on the engine it ran (kept alive past run_scenario). Returns the encoded
/// pass.
std::string traced_pass(const scenario::Scenario& sc,
                        const lattice::Structure& s, const std::string& out_dir,
                        const std::string& layer_dir, HostSpeed& host,
                        Layers& layers) {
  CallTimes times;
  std::shared_ptr<engine::Engine> eng;
  const Pass traced = run_pass(sc, out_dir, host, &times, &eng);
  layers.values.set("scenario.engine_share",
                    std::accumulate(times.step.begin(), times.step.end(), 0.0) /
                        traced.result.wall_seconds);
  probe_io_obs(sc, *eng, s, layer_dir, times, layers);
  return encode_pass(traced);
}

/// Set-up layer: structure generation and engine construction.
void probe_setup(const scenario::Scenario& sc, const std::string& dir,
                 Layers& out) {
  SpanGuard group("probe.setup");
  lattice::Structure s;
  const auto t_lat = time_calls(
      "lattice.build", [&] { s = scenario::build_structure(sc); }, 3, 0.3, 20);
  std::vector<double> t_eng;
  while (t_eng.size() < 3) {
    std::unique_ptr<engine::Engine> eng;
    {
      SpanGuard span("engine.build");
      const auto t0 = Clock::now();
      eng = scenario::build_engine(sc, s, "", dir);
      t_eng.push_back(seconds_between(t0, Clock::now()));
    }
  }
  out.values.set("lattice.build_s", median(t_lat))
      .set("engine.build_s", median(t_eng));
}

/// md layer: the FP64 reference stepped through the workload's step count
/// (Verlet rebuilds, initial build included), then its force sweep and
/// Verlet-list build on the evolved state, at `workers` and serially.
void probe_md(const scenario::Scenario& sc, const lattice::Structure& s,
              const std::string& dir, int workers, Layers& out) {
  SpanGuard group("probe.md");
  double force_p = 0.0;
  {
    auto eng = scenario::build_engine(sc, s, format("reference:%d", workers),
                                      dir);
    auto& sim = dynamic_cast<engine::ReferenceEngine&>(*eng).simulation();
    Rng rng(sc.seed);
    eng->thermalize(first_temperature(sc), rng);
    {
      SpanGuard span("md.steps");
      for (long k = 0; k < sc.total_steps(); ++k) eng->step();
    }
    out.values.set("md.neighbor_rebuilds",
                   static_cast<double>(sim.neighbor_list().rebuild_count()));
    sim.compute_forces();  // the list is current: later calls reuse it
    force_p = median(time_calls(
        "md.force", [&] { sim.compute_forces(); }, 3, 0.5, 100));
    md::NeighborList list(sim.neighbor_list().cutoff(),
                          sim.neighbor_list().skin());
    const auto t_nb = time_calls(
        "md.neighbor_build",
        [&] { list.build(sim.system().box(), sim.system().positions()); }, 3,
        0.5, 100);
    out.values.set("md.force_ms", force_p * 1e3)
        .set("md.neighbor_build_ms", median(t_nb) * 1e3)
        .set("md.pairs_per_s",
             static_cast<double>(sim.neighbor_list().total_entries()) / force_p);
  }
  auto eng = scenario::build_engine(sc, s, "reference:1", dir);
  auto& sim = dynamic_cast<engine::ReferenceEngine&>(*eng).simulation();
  sim.compute_forces();
  const double force1 = median(
      time_calls("md.force_serial", [&] { sim.compute_forces(); }, 2, 0.5, 50));
  out.values.set("md.parallel_eff", force1 / (workers * force_p));
}

/// Bytes one step's halo exchange moves on ranks:M, computed from the
/// partition the distributed backend uses: an F' message (4 B per atom, at
/// radius b) and a committed-state message (6 floats per atom, at radius
/// b + 1) for every owner -> needer pair with ghost rows.
void halo_volume(const core::WseMd& md, int ranks, Layers& out) {
  const auto& map = md.mapping();
  const auto strips =
      dist::row_strips(map.grid_width(), map.grid_height(), ranks);
  std::size_t total = 0, largest = 0;
  for (int owner = 0; owner < ranks; ++owner) {
    for (int needer = 0; needer < ranks; ++needer) {
      if (owner == needer) continue;
      const auto f = dist::halo_rows(strips, owner, needer, md.b());
      const auto st = dist::halo_rows(strips, owner, needer, md.b() + 1);
      const std::size_t fp =
          f.empty() ? 0 : dist::atoms_in_rows(map, f.lo, f.hi).size() * 4;
      const std::size_t state =
          st.empty() ? 0 : dist::atoms_in_rows(map, st.lo, st.hi).size() * 24;
      total += fp + state;
      largest = std::max({largest, fp, state});
    }
  }
  out.values.set("dist.halo_bytes", static_cast<double>(total));
  out.halo_max_message = std::max<std::size_t>(largest, 64);
}

/// core layer: the serial wafer phase kernels over full_grid(), with the
/// exact candidate / interaction counts of the first step.
void probe_core(const scenario::Scenario& sc, const lattice::Structure& s,
                const std::string& dir, int ranks, Layers& out) {
  SpanGuard group("probe.core");
  auto eng = scenario::build_engine(sc, s, "wafer", dir);
  core::WseMd& md = dynamic_cast<engine::WaferEngine&>(*eng).wafer();
  halo_volume(md, ranks, out);  // before the swaps below move atoms
  Rng rng(sc.seed);
  md.thermalize(first_temperature(sc), rng);

  const core::ShardRect full = md.full_grid();
  core::StepWorkspace ws;
  std::vector<double> density, force, commit, swap;
  double candidates = 0.0, interactions = 0.0;
  const auto start = Clock::now();
  while (density.size() < 3 ||
         (density.size() < 200 && seconds_between(start, Clock::now()) < 1.0)) {
    const auto t0 = Clock::now();
    md.begin_step(ws);
    const auto t1 = Clock::now();
    {
      SpanGuard span("core.density");
      md.density_phase(full, ws);
    }
    const auto t2 = Clock::now();
    {
      SpanGuard span("core.force");
      md.force_phase(full, ws);
    }
    const auto t3 = Clock::now();
    md.commit_step(ws);
    const auto t4 = Clock::now();
    if (density.empty()) {
      const auto acc = md.reduce_region_raw(full, ws);
      candidates = acc.candidate_total;
      interactions = acc.interaction_total;
    }
    const auto t5 = Clock::now();
    std::size_t applied = 0;
    {
      SpanGuard span("core.swap");
      md.swap_select(full, ws.partner);
      applied = md.swap_commit(ws.partner);
    }
    const auto t6 = Clock::now();
    md.finish_step(ws, applied, true);
    const auto t7 = Clock::now();
    density.push_back(seconds_between(t1, t2));
    force.push_back(seconds_between(t2, t3));
    commit.push_back(seconds_between(t0, t1) + seconds_between(t3, t4) +
                     seconds_between(t6, t7));
    swap.push_back(seconds_between(t5, t6));
  }
  const double d = median(density), f = median(force), c = median(commit);
  out.serial_step_s = d + f + c;
  out.values.set("core.density_ms", d * 1e3)
      .set("core.force_ms", f * 1e3)
      .set("core.commit_ms", c * 1e3)
      .set("core.swap_ms", median(swap) * 1e3)
      .set("core.candidates", candidates)
      .set("core.interactions", interactions)
      .set("core.sieve_accept", interactions / candidates)
      .set("core.candidates_per_s", candidates / d)
      .set("core.interactions_per_s", interactions / f);
}

/// Steps an engine built for `backend` under a telemetry session (so
/// shard_load accumulates) and returns per-step seconds plus the per-worker
/// busy / wait seconds per step.
struct LoadedSteps {
  std::vector<double> step_s;
  std::vector<double> busy_s, wait_s;  ///< per worker, per step
};

LoadedSteps step_with_load(const scenario::Scenario& sc,
                           const lattice::Structure& s, const std::string& dir,
                           const std::string& backend, const char* span) {
  auto eng = scenario::build_engine(sc, s, backend, dir);
  Rng rng(sc.seed);
  eng->thermalize(first_temperature(sc), rng);
  eng->step();  // first step outside the measurement
  telemetry::begin_session();
  const auto load0 = eng->shard_load();
  LoadedSteps out;
  out.step_s = time_calls(span, [&] { eng->step(); }, 3, 1.0, 2000);
  const auto load1 = eng->shard_load();
  telemetry::end_session();
  const auto n = static_cast<double>(out.step_s.size());
  for (std::size_t w = 0; w < load1.size(); ++w) {
    out.busy_s.push_back((load1[w].busy_seconds - load0[w].busy_seconds) / n);
    out.wait_s.push_back((load1[w].wait_seconds - load0[w].wait_seconds) / n);
  }
  return out;
}

/// engine layer: ShardedWafer at `workers` threads, busy / wait from
/// shard_load().
void probe_engine(const scenario::Scenario& sc, const lattice::Structure& s,
                  const std::string& dir, int workers, Layers& out) {
  SpanGuard group("probe.engine");
  const auto r = step_with_load(sc, s, dir, format("sharded:%d", workers),
                                "engine.sharded_step");
  const double step = median(r.step_s);
  const double busy = mean(r.busy_s);
  out.values.set("engine.step_ms", step * 1e3)
      .set("engine.busy_ms", busy * 1e3)
      .set("engine.wait_ms", mean(r.wait_s) * 1e3)
      .set("engine.imbalance",
           *std::max_element(r.busy_s.begin(), r.busy_s.end()) / busy)
      .set("engine.parallel_eff", out.serial_step_s / (workers * step));
}

/// dist layer: ranks:M over shared-memory halos, per-rank busy / wait.
void probe_dist(const scenario::Scenario& sc, const lattice::Structure& s,
                const std::string& dir, int ranks, Layers& out) {
  SpanGuard group("probe.dist");
  const auto r = step_with_load(sc, s, dir, format("ranks:%d", ranks),
                                "dist.step");
  const double step = median(r.step_s);
  const double busiest = *std::max_element(r.busy_s.begin(), r.busy_s.end());
  out.values.set("dist.step_ms", step * 1e3)
      .set("dist.rank_busy_ms", mean(r.busy_s) * 1e3)
      .set("dist.rank_wait_ms", mean(r.wait_s) * 1e3)
      .set("dist.coord_ms", (mean(r.step_s) - busiest) * 1e3)
      .set("dist.parallel_eff", out.serial_step_s / (ranks * step));
}

/// Round trip of one halo-sized message through a shm pair segment, as the
/// rank workers use it (publish, in-place read, echo). Starts a thread, so
/// it runs after every ranks: engine is gone.
void probe_halo_rtt(std::size_t bytes, Layers& out) {
  SpanGuard group("dist.halo_rtt");
  dist::ShmPairSegment seg(static_cast<long>(::getpid()), 0, 1, bytes);
  dist::ShmHalo a = seg.halo_for(0);
  dist::ShmHalo b = seg.halo_for(1);
  const dist::ShmWait wait{-1, 60'000};
  const std::vector<std::uint8_t> payload(bytes, 0x5a);
  const int iters = static_cast<int>(
      std::clamp<std::size_t>((std::size_t{256} << 20) / bytes, 50, 2000));
  std::thread echo([&] {
    for (int i = 0; i < iters; ++i) {
      std::size_t size = 0;
      const std::uint8_t* p = b.recv.acquire(dist::Tag::kHaloFprime, size, wait);
      std::uint8_t* dst = b.send.begin_publish(wait);
      std::memcpy(dst, p, size);
      b.recv.release();
      b.send.commit_publish(dist::Tag::kHaloFprime, size);
    }
  });
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    a.send.publish(dist::Tag::kHaloFprime, payload.data(), bytes, wait);
    std::size_t size = 0;
    a.recv.acquire(dist::Tag::kHaloFprime, size, wait);
    a.recv.release();
  }
  const double elapsed = seconds_between(t0, Clock::now());
  echo.join();
  out.values.set("dist.halo_rtt_us", elapsed / iters * 1e6);
}

struct Options {
  std::string deck;
  std::string out_dir;
  double seconds = 10.0;
  bool trace = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const auto value = [&](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--deck=")) {
      o.deck = v;
    } else if (const char* v = value("--out-dir=")) {
      o.out_dir = v;
    } else if (const char* v = value("--seconds=")) {
      o.seconds = std::stod(v);
    } else if (const char* v = value("--trace=")) {
      o.trace = std::string(v) == "1";
    } else {
      throw Error("unknown option: " + arg);
    }
  }
  WSMD_REQUIRE(!o.deck.empty() && !o.out_dir.empty() && o.seconds > 0.0,
               "usage: e2e_harness --deck=PATH --out-dir=DIR [--seconds=S] "
               "[--trace=0|1]");
  return o;
}

/// Untraced runs: at least this many full passes, more until --seconds.
constexpr int kMinPasses = 5;

}  // namespace

int main(int argc, char** argv) try {
  const Options opt = parse_args(argc, argv);
  const scenario::Scenario sc =
      scenario::scenario_from_deck(scenario::parse_deck_file(opt.deck));
  const std::string warmup_dir = opt.out_dir + "/warmup";
  const std::string layer_dir = opt.out_dir + "/layer";
  fs::create_directories(warmup_dir);
  fs::create_directories(layer_dir);
  const int ranks = rank_count(sc);
  g_tracer.on = opt.trace;

  const auto start = Clock::now();
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  std::optional<CorePin> pin(std::in_place);
  HostSpeed host;
  run_pass(warmup_of(sc), warmup_dir, host);

  // Untraced: full passes until --seconds (at least kMinPasses); the
  // metrics are medians over them of host-scaled times, set-up included.
  // A traced run brackets its traced pass between two untraced ones, so
  // host drift over the run does not bias the overhead estimate.
  const lattice::Structure s =
      opt.trace ? scenario::build_structure(sc) : lattice::Structure{};
  Layers layers;
  std::string traced;
  std::vector<Pass> passes;
  passes.push_back(run_pass(sc, opt.out_dir, host));
  if (opt.trace) {
    traced = traced_pass(sc, s, opt.out_dir, layer_dir, host, layers);
  }
  while (opt.trace ? passes.size() < 2
                   : static_cast<int>(passes.size()) < kMinPasses ||
                         elapsed() < opt.seconds) {
    passes.push_back(run_pass(sc, opt.out_dir, host));
  }
  pin.reset();  // the layer probes run two workers
  const double rss = peak_rss_mb(ranks);

  JsonObject doc;
  const auto& r0 = passes.front().result;
  doc.set("workload", sc.name)
      .set("backend", sc.backend)
      .set("engine", r0.backend_name)
      .set("transport", ranks > 0 ? sc.dist_transport : std::string("none"))
      .set("atoms", r0.structure.atoms)
      .set("dt_ps", sc.dt)
      .set("seed", static_cast<long long>(sc.seed))
      .set("simd_tier", simd::tier_name(simd::active_tier()))
      .set("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .set_raw("build", BenchJson::provenance().encode());
  std::vector<std::string> stages, encoded;
  for (const auto& st : sc.schedule) {
    stages.push_back(format("{\"kind\": \"%s\", \"steps\": %ld}", st.name(),
                            st.steps));
  }
  for (const Pass& p : passes) encoded.push_back(encode_pass(p));
  doc.set_raw("stages", json_list(stages))
      .set_raw("passes", json_list(encoded))
      .set("peak_rss_mb", rss);

  if (opt.trace) {
    probe_setup(sc, layer_dir, layers);
    probe_md(sc, s, layer_dir, kLayerWorkers, layers);
    probe_core(sc, s, layer_dir, kLayerWorkers, layers);
    probe_engine(sc, s, layer_dir, kLayerWorkers, layers);
    probe_dist(sc, s, layer_dir, kLayerWorkers, layers);
    probe_halo_rtt(layers.halo_max_message, layers);
    doc.set_raw("traced", traced)
        .set_raw("layers", layers.values.encode())
        .set_raw("spans", g_tracer.encode());
  }
  doc.set("calib_ms", median(host.samples()));
  std::printf("%s\n", doc.encode().c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "e2e_harness: error: %s\n", e.what());
  return 1;
}
