#include "dist/distributed_engine.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "dist/rank_worker.hpp"
#include "dist/shm_channel.hpp"
#include "engine/wafer_engine.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace wsmd::dist {

namespace {

constexpr int kHandshakeTimeoutMs = 30'000;
constexpr int kShutdownTimeoutMs = 2'000;

}  // namespace

DistributedEngine::DistributedEngine(const lattice::Structure& s,
                                     eam::EamPotentialPtr potential,
                                     DistributedConfig config)
    : config_(std::move(config)),
      template_(s, std::move(potential), config_.wse),
      scratch_(config_.scratch_parent) {
  WSMD_REQUIRE(config_.ranks >= 1 && config_.ranks <= kMaxRanks,
               "ranks backend needs 1.." << kMaxRanks << " ranks, got "
                                         << config_.ranks);
  WSMD_REQUIRE(config_.threads >= 1,
               "ranks backend needs >= 1 shard threads per rank, got "
                   << config_.threads);
  const int m = config_.ranks;
  strips_ = row_strips(template_.mapping().grid_width(),
                       template_.mapping().grid_height(), m);
  last_steps_.assign(static_cast<std::size_t>(m), 0);
  cum_load_.resize(static_cast<std::size_t>(m));

  start_ranks();
  try {
    // Seed the cached energies: PE of the initial configuration evaluated
    // *distributed* (the serial lazy sweep would defeat the decomposition
    // at multi-million atoms), KE of the (zero or restored) velocities.
    refresh_potential_energy();
    refresh_kinetic_energy();
  } catch (...) {
    shutdown_ranks();
    throw;
  }
}

DistributedEngine::~DistributedEngine() { shutdown_ranks(); }

void DistributedEngine::start_ranks() {
  shutdown_ranks();
  const int m = config_.ranks;
  std::vector<ChannelPair> controls(static_cast<std::size_t>(m));
  for (auto& pair : controls) pair = make_channel_pair();

  // One link per halo pair: a shared segment carrying the pair's halos and
  // a socketpair whose EOF is that segment's death canary. Both are
  // created *before* forking — the ranks inherit the live mappings, and
  // because each segment is shm_unlinked inside its constructor, no
  // /dev/shm entry survives this loop, let alone a crashed rank. Pairs
  // come from the state-exchange radius b+1 (a superset of the F' pairs at
  // radius b); slots are sized for the largest message either direction
  // can carry — rows x grid width is an upper bound on halo atoms, swaps
  // included. Both depend on b, which is why a restore or set_positions
  // re-creates the ranks.
  struct Link {
    ShmPairSegment segment;
    ChannelPair canary;
  };
  std::vector<Link> links;
  const int b = template_.b();
  const int w = template_.mapping().grid_width();
  const long coordinator = static_cast<long>(::getpid());
  for (const auto& [i, j] : halo_pairs(strips_, b + 1)) {
    std::size_t slot_bytes = 64;
    for (const auto& [owner, needer] :
         {std::pair<int, int>{i, j}, std::pair<int, int>{j, i}}) {
      const std::size_t fp_rows = static_cast<std::size_t>(
          halo_rows(strips_, owner, needer, b).rows());
      const std::size_t st_rows = static_cast<std::size_t>(
          halo_rows(strips_, owner, needer, b + 1).rows());
      slot_bytes = std::max(
          {slot_bytes, fp_rows * static_cast<std::size_t>(w) * 4,
           st_rows * static_cast<std::size_t>(w) * 24});
    }
    links.push_back(
        Link{ShmPairSegment(coordinator, i, j, slot_bytes),
             make_channel_pair()});
  }

  for (int r = 0; r < m; ++r) {
    const pid_t pid = ::fork();
    WSMD_REQUIRE(pid >= 0, "dist: fork failed for rank " << r);
    if (pid == 0) {
      // --- rank process ------------------------------------------------
      // The coordinator owns interrupt handling; ranks exit when their
      // control socket EOFs, so a signal racing the teardown protocol
      // would only make shutdown messier.
      ::signal(SIGINT, SIG_IGN);
      ::signal(SIGTERM, SIG_IGN);
      // Rank-suffixed stderr capture: concurrent ranks never interleave
      // into the coordinator's stream, and the runner can copy the files
      // into a diagnostic bundle on failure.
      const std::string log = scratch_.rank_file("stderr", r);
      const int log_fd =
          ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, 2);
        ::close(log_fd);
      }
      // Keep only this rank's channel ends; every other inherited fd is
      // closed so peer death is observable as EOF.
      Channel control = std::move(controls[static_cast<std::size_t>(r)].b);
      for (int q = 0; q < m; ++q) {
        controls[static_cast<std::size_t>(q)].a.close();
        if (q != r) controls[static_cast<std::size_t>(q)].b.close();
      }
      // Keep this rank's links; drop the other pairs' inherited socket
      // ends and mappings, so each canary EOFs with its peer and each
      // segment's memory frees with its two owners.
      std::vector<PeerLink> my_peers;
      for (auto& link : links) {
        const int i = link.segment.rank_i();
        const int j = link.segment.rank_j();
        if (i != r && j != r) {
          link.canary.a.close();
          link.canary.b.close();
          link.segment.unmap();
          continue;
        }
        PeerLink peer;
        peer.rank = i == r ? j : i;
        peer.canary = std::move(i == r ? link.canary.a : link.canary.b);
        (i == r ? link.canary.b : link.canary.a).close();
        peer.shm = link.segment.halo_for(r);
        my_peers.push_back(std::move(peer));
      }
      RankWorkerConfig wc;
      wc.rank = r;
      wc.world = m;
      wc.threads = config_.threads;
      wc.peer_timeout_ms = config_.step_timeout_ms;
      wc.kill_rank = config_.kill_rank;
      wc.kill_step = config_.kill_step;
      try {
        RankWorker worker(template_, wc, std::move(control),
                          std::move(my_peers));
        worker.run();  // never returns
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[wsmd rank %d] fatal during setup: %s\n", r,
                     e.what());
        std::_Exit(1);
      }
    }
    pids_.push_back(pid);
  }
  control_.reserve(static_cast<std::size_t>(m));
  for (auto& pair : controls) {
    pair.b.close();
    control_.push_back(std::move(pair.a));
  }
  // `links` destructs on return, closing the coordinator's copies of every
  // canary fd and unmapping its segments: each link now lives exactly as
  // long as its two ranks.
  prev_.assign(static_cast<std::size_t>(m), StepRecord{});  // fresh timers
  try {
    for (int r = 0; r < m; ++r) {
      const auto& ch = control_[static_cast<std::size_t>(r)];
      Handshake hello;
      try {
        hello = ch.recv_pod<Handshake>(Tag::kHello, kHandshakeTimeoutMs);
      } catch (const TransportError& e) {
        rank_failed(r, std::string("handshake failed: ") + e.what());
      }
      WSMD_REQUIRE(hello.rank == r && hello.world == m &&
                       hello.atoms == template_.atom_count() &&
                       hello.grid_width == template_.mapping().grid_width() &&
                       hello.grid_height == template_.mapping().grid_height(),
                   "dist: handshake mismatch from rank " << r);
      ch.send_pod(Tag::kHelloAck, hello, kHandshakeTimeoutMs);
    }
  } catch (...) {
    shutdown_ranks();
    throw;
  }
}

void DistributedEngine::shutdown_ranks() noexcept {
  for (std::size_t r = 0; r < control_.size(); ++r) {
    if (!control_[r].valid()) continue;
    try {
      control_[r].send_pod(Tag::kShutdown, Ack{template_.step_count()},
                           kShutdownTimeoutMs);
    } catch (...) {
    }
  }
  for (std::size_t r = 0; r < control_.size(); ++r) {
    if (!control_[r].valid()) continue;
    try {
      control_[r].recv(Tag::kBye, kShutdownTimeoutMs);
    } catch (...) {
    }
    control_[r].close();  // EOF backstop for a rank stuck mid-protocol
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  for (const pid_t pid : pids_) {
    if (pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  pids_.clear();
  control_.clear();
}

void DistributedEngine::rank_failed(int rank, const std::string& why) const {
  std::string msg = "rank ";
  msg += std::to_string(rank);
  msg += "/";
  msg += std::to_string(config_.ranks);
  msg += " failed: ";
  msg += why;
  msg += " (last known steps:";
  for (const long s : last_steps_) {
    msg += ' ';
    msg += std::to_string(s);
  }
  msg += ")";
  throw RankFailureError(rank, last_steps_, msg);
}

void DistributedEngine::broadcast(Tag tag, const void* payload,
                                  std::size_t size) const {
  for (std::size_t r = 0; r < control_.size(); ++r) {
    try {
      control_[r].send(tag, payload, size, config_.step_timeout_ms);
    } catch (const TransportError& e) {
      rank_failed(static_cast<int>(r), e.what());
    }
  }
}

template <typename T>
std::vector<T> DistributedEngine::collect(Tag tag) const {
  std::vector<T> replies;
  replies.reserve(control_.size());
  for (std::size_t r = 0; r < control_.size(); ++r) {
    try {
      replies.push_back(control_[r].recv_pod<T>(tag, config_.step_timeout_ms));
    } catch (const TransportError& e) {
      rank_failed(static_cast<int>(r), e.what());
    }
  }
  return replies;
}

void DistributedEngine::refresh_potential_energy() {
  broadcast(Tag::kEvalPe, nullptr, 0);
  const auto partials = collect<EnergyPartial>(Tag::kPePartial);
  double embed = 0.0, pair = 0.0;
  for (const auto& p : partials) {
    embed += p.embed;
    pair += p.pair;
  }
  template_.adopt_potential_energy(embed + pair);
}

void DistributedEngine::refresh_kinetic_energy() {
  broadcast(Tag::kKinetic, nullptr, 0);
  const auto partials = collect<KineticPartial>(Tag::kKePartial);
  double ke = 0.0;
  for (const auto& p : partials) ke += p.kinetic;
  ke_ = ke;
}

engine::Thermo DistributedEngine::step() {
  const long step = template_.step_count();
  const Ack cmd{step};
  broadcast(Tag::kStep, &cmd, sizeof(cmd));

  const bool swap_now = config_.wse.swap_interval > 0 &&
                        (step + 1) % config_.wse.swap_interval == 0;
  std::size_t applied = 0;
  if (swap_now) {
    // Merge each rank's strip of partner choices into one full core array
    // (strips tile the grid, so every slot has exactly one owner), apply
    // the same deterministic swap commit the ranks apply, and broadcast.
    const int w = template_.mapping().grid_width();
    std::vector<std::int32_t> merged(template_.mapping().core_count(), -1);
    for (std::size_t r = 0; r < control_.size(); ++r) {
      std::vector<std::uint8_t> bytes;
      try {
        bytes = control_[r].recv(Tag::kSwapPartners, config_.step_timeout_ms);
      } catch (const TransportError& e) {
        rank_failed(static_cast<int>(r), e.what());
      }
      Unpacker u(bytes);
      const auto slice = u.get_array<std::int32_t>();
      const auto& strip = strips_[r];
      const auto lo =
          static_cast<std::size_t>(strip.y0) * static_cast<std::size_t>(w);
      WSMD_REQUIRE(slice.size() == static_cast<std::size_t>(strip.y1 -
                                                            strip.y0) *
                                       static_cast<std::size_t>(w),
                   "dist: partner slice size mismatch from rank " << r);
      std::copy(slice.begin(), slice.end(),
                merged.begin() + static_cast<std::ptrdiff_t>(lo));
    }
    Packer p;
    p.put_array(merged.data(), merged.size());
    broadcast(Tag::kSwapMerged, p.bytes().data(), p.bytes().size());
    std::vector<int> partner(merged.begin(), merged.end());
    applied = template_.swap_commit(partner);
  }

  const auto records = collect<StepRecord>(Tag::kStepDone);

  // Fixed rank-order reductions: embed partials first, then pair partials,
  // matching the serial engine's embed-then-pair grouping. The template
  // then finishes the step with the serial engine's accounting.
  double embed = 0.0, pair = 0.0, ke = 0.0, cand = 0.0, inter = 0.0;
  std::uint64_t occupied = 0;
  core::WseStepStats reduced;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StepRecord& rec = records[r];
    WSMD_REQUIRE(rec.step == step + 1,
                 "dist: rank " << r << " is at step " << rec.step
                               << ", coordinator at " << step + 1);
    WSMD_REQUIRE((rec.swapped != 0) == swap_now,
                 "dist: rank " << r << " disagrees on the swap schedule");
    embed += rec.pe_embed;
    ke += rec.kinetic;
    cand += rec.candidate_total;
    inter += rec.interaction_total;
    reduced.max_cycles = std::max(reduced.max_cycles, rec.cycles_max);
    occupied += rec.occupied;
  }
  for (const StepRecord& rec : records) pair += rec.pe_pair;
  if (swap_now && !records.empty()) {
    WSMD_REQUIRE(records[0].swaps_applied == applied,
                 "dist: swap count diverged between coordinator ("
                     << applied << ") and ranks ("
                     << records[0].swaps_applied << ")");
  }
  ke_ = ke;
  if (occupied > 0) {
    reduced.mean_candidates = cand / static_cast<double>(occupied);
    reduced.mean_interactions = inter / static_cast<double>(occupied);
  }
  reduced.swapped = swap_now;
  reduced.swaps_applied = applied;
  template_.finish_region_step(embed + pair, reduced);

  // Per-rank accounting deltas -> shard_load() and the dist.* spans.
  double d_pack = 0.0, d_wire = 0.0, d_unpack = 0.0, d_barrier = 0.0;
  double d_overlap = 0.0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const StepRecord& rec = records[r];
    const StepRecord& prev = prev_[r];
    const double busy = rec.busy_seconds - prev.busy_seconds;
    const double pack = rec.halo_pack_seconds - prev.halo_pack_seconds;
    const double wire =
        rec.halo_exchange_seconds - prev.halo_exchange_seconds;
    const double unpack = rec.halo_unpack_seconds - prev.halo_unpack_seconds;
    const double barrier = rec.barrier_seconds - prev.barrier_seconds;
    cum_load_[r].busy_seconds += busy;
    // A rank "waits" when it is idle between coordinator commands or
    // blocked on a peer's halo slab — the rank-level barrier picture.
    cum_load_[r].wait_seconds += barrier + wire;
    d_pack += pack;
    d_wire += wire;
    d_unpack += unpack;
    d_barrier += barrier;
    d_overlap +=
        rec.overlap_compute_seconds - prev.overlap_compute_seconds;
    prev_[r] = rec;
    last_steps_[r] = rec.step;
  }
  if (telemetry::enabled()) {
    const auto m = static_cast<std::uint64_t>(records.size());
    telemetry::add_span_time("dist.halo_pack", d_pack, m);
    telemetry::add_span_time("dist.halo_exchange", d_wire, m);
    telemetry::add_span_time("dist.halo_unpack", d_unpack, m);
    telemetry::add_span_time("dist.barrier", d_barrier, m);
    telemetry::add_span_time("dist.overlap_compute", d_overlap, m);
  }
  return thermo();
}

engine::Thermo DistributedEngine::thermo() const {
  return thermo_of(template_.step_count(), template_.potential_energy(), ke_,
                   template_.atom_count());
}

void DistributedEngine::gather_state(std::vector<Vec3d>& pos,
                                     std::vector<Vec3d>& vel) const {
  pos.resize(template_.atom_count());
  vel.resize(template_.atom_count());
  broadcast(Tag::kGatherState, nullptr, 0);
  for (std::size_t r = 0; r < control_.size(); ++r) {
    std::vector<std::uint8_t> bytes;
    try {
      bytes = control_[r].recv(Tag::kStateSlice, config_.step_timeout_ms);
    } catch (const TransportError& e) {
      rank_failed(static_cast<int>(r), e.what());
    }
    Unpacker u(bytes);
    const auto values = u.get_array<float>();
    const auto atoms = atoms_in_rows(template_.mapping(), strips_[r].y0,
                                     strips_[r].y1);
    WSMD_REQUIRE(values.size() == atoms.size() * 6,
                 "dist: state slice size mismatch from rank " << r);
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      const float* v6 = values.data() + k * 6;
      // float -> double widening is exact: the gathered state is the
      // bitwise FP32 state the owning rank holds.
      pos[atoms[k]] = Vec3d(Vec3f{v6[0], v6[1], v6[2]});
      vel[atoms[k]] = Vec3d(Vec3f{v6[3], v6[4], v6[5]});
    }
  }
}

std::vector<Vec3d> DistributedEngine::positions() const {
  std::vector<Vec3d> pos, vel;
  gather_state(pos, vel);
  return pos;
}

std::vector<Vec3d> DistributedEngine::velocities() const {
  std::vector<Vec3d> pos, vel;
  gather_state(pos, vel);
  return vel;
}

void DistributedEngine::set_velocities(const std::vector<Vec3d>& v) {
  WSMD_REQUIRE(v.size() == template_.atom_count(),
               "set_velocities: atom count mismatch");
  Packer p;
  p.put_array(v.data(), v.size());
  broadcast(Tag::kSetVelocities, p.bytes().data(), p.bytes().size());
  collect<Ack>(Tag::kOk);
  template_.set_velocities(v);
  refresh_kinetic_energy();
}

void DistributedEngine::set_positions(const std::vector<Vec3d>& r) {
  WSMD_REQUIRE(r.size() == template_.atom_count(),
               "set_positions: atom count mismatch");
  // The ranks hold the current velocities; the template takes them and
  // the new positions (widening b if they drifted past the mapping), and
  // the ranks are re-created from it with halos sized for that b.
  template_.set_velocities(velocities());
  template_.set_positions(r);
  start_ranks();
  refresh_potential_energy();
}

engine::State DistributedEngine::snapshot() const {
  // The template tracks everything but the atom state the ranks hold.
  engine::State st = engine::wafer_state(template_.save_state());
  gather_state(st.positions, st.velocities);
  return st;
}

void DistributedEngine::restore(const engine::State& state) {
  // Validate and adopt on the coordinator first (restore_wafer throws
  // before mutating), then re-create the ranks from the restored template
  // — they inherit it bitwise by fork, with halos sized for the restored
  // b. Re-ranking a ranks:2 checkpoint onto ranks:4 is just a different
  // strip partition over the same global state.
  engine::restore_wafer(template_, state);
  start_ranks();
  std::fill(last_steps_.begin(), last_steps_.end(), state.step);
  // A reference-written state carries no committed PE (the wafer thermo
  // convention): evaluate the transferred configuration's, distributed.
  if (!state.has_wafer) refresh_potential_energy();
  refresh_kinetic_energy();
}

void DistributedEngine::thermalize(double temperature_K, Rng& rng) {
  // Every rank must draw the identical full-grid velocity field: send the
  // pre-call Rng state, then advance the caller's Rng by running the same
  // thermalize on the coordinator's template.
  ThermalizeCmd cmd;
  cmd.temperature_K = temperature_K;
  cmd.rng = rng.state();
  template_.thermalize(temperature_K, rng);
  broadcast(Tag::kThermalize, &cmd, sizeof(cmd));
  collect<Ack>(Tag::kOk);
  refresh_kinetic_energy();
}

engine::ModeledPhaseCost DistributedEngine::modeled_phase_cost() const {
  // The executed-vs-modeled halo validation row: what the cost model says
  // M strip halos should cost, next to the measured dist.halo_* spans.
  return engine::wafer_phase_cost(template_, strips_);
}

std::vector<std::string> DistributedEngine::rank_log_paths() const {
  std::vector<std::string> paths;
  for (int r = 0; r < config_.ranks; ++r) {
    paths.push_back(scratch_.rank_file("stderr", r));
  }
  return paths;
}

}  // namespace wsmd::dist
