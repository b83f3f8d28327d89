#include "dist/rank_worker.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

namespace wsmd::dist {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Idle wait for the next coordinator command. Effectively unbounded — a
/// vanished coordinator wakes the rank with EOF, not a timeout.
constexpr int kCommandTimeoutMs = 7 * 24 * 3600 * 1000;

}  // namespace

RankWorker::RankWorker(core::WseMd& md, RankWorkerConfig config,
                       Channel control, std::vector<PeerLink> peers)
    : md_(md),
      config_(config),
      control_(std::move(control)),
      peers_(std::move(peers)),
      strips_(row_strips(md.mapping().grid_width(), md.mapping().grid_height(),
                         config.world)),
      strip_(strips_[static_cast<std::size_t>(config.rank)]),
      pool_(config.threads > 0 ? config.threads : 1) {}

std::vector<core::ShardRect> RankWorker::sub_strips() const {
  const int h = strip_.y1 - strip_.y0;
  auto subs = row_strips(strip_.x1 - strip_.x0, h > 0 ? h : 0, pool_.size());
  for (auto& s : subs) {
    s.y0 += strip_.y0;
    s.y1 += strip_.y0;
  }
  return subs;
}

template <typename Phase>
void RankWorker::for_region(const core::ShardRect& rect, Phase&& phase) {
  if (rect.empty()) return;
  auto subs =
      row_strips(rect.x1 - rect.x0, rect.y1 - rect.y0, pool_.size());
  for (auto& s : subs) {
    s.x0 += rect.x0;
    s.x1 += rect.x0;
    s.y0 += rect.y0;
    s.y1 += rect.y0;
  }
  pool_.run([&](int k) { phase(subs[static_cast<std::size_t>(k)]); });
}

PeerLink* RankWorker::peer_link(int rank) {
  for (auto& link : peers_) {
    if (link.rank == rank) return &link;
  }
  return nullptr;
}

void RankWorker::handshake() {
  Handshake hello;
  hello.rank = static_cast<std::uint16_t>(config_.rank);
  hello.world = static_cast<std::uint16_t>(config_.world);
  hello.atoms = md_.atom_count();
  hello.grid_width = md_.mapping().grid_width();
  hello.grid_height = md_.mapping().grid_height();
  hello.b = md_.b();
  control_.send_pod(Tag::kHello, hello, config_.peer_timeout_ms);
  const auto ack =
      control_.recv_pod<Handshake>(Tag::kHelloAck, config_.peer_timeout_ms);
  WSMD_REQUIRE(ack.rank == hello.rank && ack.world == hello.world &&
                   ack.atoms == hello.atoms,
               "dist: handshake echo mismatch on rank " << config_.rank);
}

void RankWorker::run() {
  try {
    handshake();
    for (;;) {
      const auto idle_start = Clock::now();
      Tag tag;
      std::vector<std::uint8_t> payload;
      try {
        payload = control_.recv_any(tag, kCommandTimeoutMs);
      } catch (const PeerClosedError&) {
        // Coordinator gone (abort, crash, _Exit watchdog path): a quiet
        // exit, not an error — the rank has nobody left to report to.
        std::_Exit(0);
      }
      barrier_s_ += since(idle_start);

      switch (tag) {
        case Tag::kStep:
          do_step();
          break;
        case Tag::kThermalize: {
          Unpacker u(payload);
          const auto cmd = u.get<ThermalizeCmd>();
          Rng rng;
          rng.set_state(cmd.rng);
          md_.thermalize(cmd.temperature_K, rng);
          control_.send_pod(Tag::kOk, Ack{md_.step_count()},
                            config_.peer_timeout_ms);
          break;
        }
        case Tag::kGatherState: {
          // Owned atoms in row-major core order; the coordinator walks the
          // same rows of its (swap-synchronized) mapping to place them.
          const auto atoms =
              atoms_in_rows(md_.mapping(), strip_.y0, strip_.y1);
          std::vector<float> values;
          values.reserve(atoms.size() * 6);
          for (const std::uint32_t a : atoms) {
            const Vec3f r = md_.positions_f32().get(a);
            const Vec3f v = md_.velocities_f32().get(a);
            values.push_back(r.x);
            values.push_back(r.y);
            values.push_back(r.z);
            values.push_back(v.x);
            values.push_back(v.y);
            values.push_back(v.z);
          }
          Packer p;
          p.put_array(values.data(), values.size());
          control_.send(Tag::kStateSlice, p.bytes().data(), p.bytes().size(),
                        config_.peer_timeout_ms);
          break;
        }
        case Tag::kRestore: {
          Unpacker u(payload);
          md_.restore_state(unpack_saved_state(u));
          control_.send_pod(Tag::kOk, Ack{md_.step_count()},
                            config_.peer_timeout_ms);
          break;
        }
        case Tag::kSetPositions: {
          Unpacker u(payload);
          md_.set_positions(u.get_array<Vec3d>());
          control_.send_pod(Tag::kOk, Ack{md_.step_count()},
                            config_.peer_timeout_ms);
          break;
        }
        case Tag::kSetVelocities: {
          Unpacker u(payload);
          md_.set_velocities(u.get_array<Vec3d>());
          control_.send_pod(Tag::kOk, Ack{md_.step_count()},
                            config_.peer_timeout_ms);
          break;
        }
        case Tag::kEvalPe:
          do_eval_pe();
          break;
        case Tag::kKinetic:
          control_.send_pod(Tag::kKePartial,
                            KineticPartial{md_.kinetic_energy_region(strip_)},
                            config_.peer_timeout_ms);
          break;
        case Tag::kShutdown:
          control_.send_pod(Tag::kBye, Ack{md_.step_count()},
                            config_.peer_timeout_ms);
          std::_Exit(0);
        default:
          WSMD_REQUIRE(false, "dist: rank " << config_.rank
                                            << " got unexpected command tag "
                                            << static_cast<int>(tag));
      }
    }
  } catch (const std::exception& e) {
    // Peer death, timeout, or a physics precondition: report on stderr
    // (captured into the rank's scratch log) and exit nonzero so the
    // failure cascades to the coordinator as EOFs.
    std::fprintf(stderr, "[wsmd rank %d] fatal: %s\n", config_.rank, e.what());
    std::_Exit(1);
  }
  std::_Exit(1);  // unreachable
}

std::size_t RankWorker::gather_halo(Tag tag,
                                    const std::vector<std::uint32_t>& atoms,
                                    std::uint8_t* dst) {
  if (tag == Tag::kHaloFprime) {
    const std::vector<float>& fprime = md_.fprime();
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      const float v = fprime[atoms[k]];
      std::memcpy(dst + k * sizeof(float), &v, sizeof(float));
    }
    return atoms.size() * sizeof(float);
  }
  for (std::size_t k = 0; k < atoms.size(); ++k) {
    const Vec3f r = md_.positions_f32().get(atoms[k]);
    const Vec3f v = md_.velocities_f32().get(atoms[k]);
    const float v6[6] = {r.x, r.y, r.z, v.x, v.y, v.z};
    std::memcpy(dst + k * sizeof(v6), v6, sizeof(v6));
  }
  return atoms.size() * 6 * sizeof(float);
}

void RankWorker::scatter_halo(Tag tag,
                              const std::vector<std::uint32_t>& atoms,
                              const std::uint8_t* src) {
  if (tag == Tag::kHaloFprime) {
    std::vector<float>& fprime = md_.fprime();
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      float v;
      std::memcpy(&v, src + k * sizeof(float), sizeof(float));
      fprime[atoms[k]] = v;
    }
    return;
  }
  for (std::size_t k = 0; k < atoms.size(); ++k) {
    float v6[6];
    std::memcpy(v6, src + k * sizeof(v6), sizeof(v6));
    md_.positions_f32().set(atoms[k], Vec3f{v6[0], v6[1], v6[2]});
    md_.velocities_f32().set(atoms[k], Vec3f{v6[3], v6[4], v6[5]});
  }
}

void RankWorker::publish_halo(Tag tag, int radius) {
  const auto pairs = halo_pairs(strips_, radius);
  const std::size_t per_atom =
      tag == Tag::kHaloState ? 6 * sizeof(float) : sizeof(float);
  for (const auto& [i, j] : pairs) {
    if (i != config_.rank && j != config_.rank) continue;
    const int other = i == config_.rank ? j : i;
    PeerLink* link = peer_link(other);
    WSMD_REQUIRE(link != nullptr, "dist: no link to peer rank " << other);

    const RowSpan out = halo_rows(strips_, config_.rank, other, radius);
    const auto pack_start = Clock::now();
    const auto atoms = atoms_in_rows(md_.mapping(), out.lo, out.hi);
    if (config_.transport == HaloTransport::kShm) {
      // Gather straight into the shared slot: written once, read in place
      // by the peer, zero syscalls.
      const ShmWait wait{link->channel.fd(), config_.peer_timeout_ms};
      std::uint8_t* dst = link->shm.send.begin_publish(wait);
      const std::size_t bytes = gather_halo(tag, atoms, dst);
      link->shm.send.commit_publish(tag, bytes);
    } else {
      // Socket tier: frame a count-prefixed float array (the historical
      // wire format) and post it on the multi-fd exchange; the wire moves
      // while this rank computes, and drain happens in consume_halo.
      std::vector<std::uint8_t> buf(sizeof(std::uint64_t) +
                                    atoms.size() * per_atom);
      const std::uint64_t count =
          atoms.size() * (per_atom / sizeof(float));
      std::memcpy(buf.data(), &count, sizeof(count));
      gather_halo(tag, atoms, buf.data() + sizeof(count));
      mx_out_.push_back(std::move(buf));
      mx_.add(link->channel, tag, mx_out_.back().data(),
              mx_out_.back().size());
    }
    pack_s_ += since(pack_start);
  }
  pump_transport();
}

void RankWorker::consume_halo(Tag tag, int radius) {
  const auto pairs = halo_pairs(strips_, radius);
  const std::size_t per_atom =
      tag == Tag::kHaloState ? 6 * sizeof(float) : sizeof(float);

  if (config_.transport == HaloTransport::kSocket) {
    const auto wire_start = Clock::now();
    const auto results = mx_.drain(config_.peer_timeout_ms);
    exchange_s_ += since(wire_start);
    mx_out_.clear();

    std::size_t idx = 0;
    for (const auto& [i, j] : pairs) {
      if (i != config_.rank && j != config_.rank) continue;
      const int other = i == config_.rank ? j : i;
      const RowSpan in = halo_rows(strips_, other, config_.rank, radius);
      WSMD_REQUIRE(idx < results.size(),
                   "dist: missing halo reply from rank " << other);
      const auto unpack_start = Clock::now();
      Unpacker u(results[idx]);
      const auto values = u.get_array<float>();
      const auto atoms = atoms_in_rows(md_.mapping(), in.lo, in.hi);
      WSMD_REQUIRE(values.size() * sizeof(float) == atoms.size() * per_atom,
                   "dist: halo size mismatch from rank "
                       << other << " (" << values.size() * sizeof(float)
                       << " vs " << atoms.size() * per_atom << " bytes)");
      scatter_halo(tag, atoms,
                   reinterpret_cast<const std::uint8_t*>(values.data()));
      unpack_s_ += since(unpack_start);
      ++idx;
    }
    return;
  }

  for (const auto& [i, j] : pairs) {
    if (i != config_.rank && j != config_.rank) continue;
    const int other = i == config_.rank ? j : i;
    PeerLink* link = peer_link(other);
    WSMD_REQUIRE(link != nullptr, "dist: no link to peer rank " << other);
    const RowSpan in = halo_rows(strips_, other, config_.rank, radius);

    const ShmWait wait{link->channel.fd(), config_.peer_timeout_ms};
    const auto wire_start = Clock::now();
    std::size_t bytes = 0;
    const std::uint8_t* src = link->shm.recv.acquire(tag, bytes, wait);
    exchange_s_ += since(wire_start);

    const auto unpack_start = Clock::now();
    const auto atoms = atoms_in_rows(md_.mapping(), in.lo, in.hi);
    WSMD_REQUIRE(bytes == atoms.size() * per_atom,
                 "dist: halo size mismatch from rank "
                     << other << " (" << bytes << " vs "
                     << atoms.size() * per_atom << " bytes)");
    scatter_halo(tag, atoms, src);
    link->shm.recv.release();
    unpack_s_ += since(unpack_start);
  }
}

void RankWorker::pump_transport() {
  if (config_.transport == HaloTransport::kSocket && !mx_.empty()) {
    mx_.post();
  }
}

void RankWorker::do_step() {
  if (config_.kill_rank == config_.rank &&
      md_.step_count() + 1 == config_.kill_step) {
    // Dead-rank drill (scenarios/health decks): die abruptly mid-step, the
    // way an OOM-killed or crashed rank would.
    std::fprintf(stderr, "[wsmd rank %d] drill: killing rank at step %ld\n",
                 config_.rank, config_.kill_step);
    std::_Exit(9);
  }

  const int b = md_.b();
  const int grid_h = md_.mapping().grid_height();
  const auto rect = [&](int lo, int hi) {
    core::ShardRect r = strip_;
    r.y0 = lo;
    r.y1 = hi;
    return r;
  };
  const auto density = [&](const core::ShardRect& s) {
    md_.density_phase(s, ws_);
  };
  const auto force = [&](const core::ShardRect& s) {
    md_.force_phase(s, ws_);
  };

  // Boundary/interior split, source side: [src_lo, src_hi) are the rows
  // no peer reads at radius b. The rows outside it feed the F' halos, so
  // their density runs first and the publish goes out before the interior
  // sweep. (The phase kernels are bitwise independent of the shard
  // decomposition, so this split has no numerical consequence.)
  int src_lo = strip_.y0, src_hi = strip_.y1;
  for (const auto& [i, j] : halo_pairs(strips_, b)) {
    if (i != config_.rank && j != config_.rank) continue;
    const int other = i == config_.rank ? j : i;
    const RowSpan out = halo_rows(strips_, config_.rank, other, b);
    if (out.empty()) continue;
    if (other < config_.rank) {
      src_lo = std::max(src_lo, out.hi);
    } else {
      src_hi = std::min(src_hi, out.lo);
    }
  }
  src_lo = std::min(src_lo, strip_.y1);
  src_hi = std::max(src_hi, src_lo);

  auto t = Clock::now();
  md_.begin_step_region(strip_, ws_);
  for_region(rect(strip_.y0, src_lo), density);
  for_region(rect(src_hi, strip_.y1), density);
  busy_s_ += since(t);

  publish_halo(Tag::kHaloFprime, b);

  // Reader side: rows within b of a strip edge that has ghost rows behind
  // it read ghost F' — those are the force boundary. Everything in
  // [f_lo, f_hi) reads only own-strip F' and runs while the halos fly.
  const int f_lo =
      strip_.y0 > 0 ? std::min(strip_.y0 + b, strip_.y1) : strip_.y0;
  const int f_hi =
      strip_.y1 < grid_h ? std::max(strip_.y1 - b, f_lo) : strip_.y1;

  t = Clock::now();
  for_region(rect(src_lo, src_hi), density);
  pump_transport();
  for_region(rect(f_lo, f_hi), force);
  const double overlapped_phase1 = since(t);
  busy_s_ += overlapped_phase1;
  overlap_s_ += overlapped_phase1;

  consume_halo(Tag::kHaloFprime, b);

  t = Clock::now();
  for_region(rect(strip_.y0, f_lo), force);
  for_region(rect(f_hi, strip_.y1), force);
  core::WseMd::RegionEnergy pe;
  const bool swap_now = md_.commit_region(strip_, ws_, pe);
  busy_s_ += since(t);

  // Fresh committed state to every halo *before* the swap phase reads
  // boundary positions — and at radius b+1, so atoms that migrate across
  // the strip boundary this step carry valid state with them.
  publish_halo(Tag::kHaloState, b + 1);

  // The reductions read only own-strip data (incoming halos touch ghost
  // rows only), so they hide behind the state halos' flight. Reduce
  // before any swap perturbs the strip's atom set: the workspace slots of
  // an atom migrating in belong to its previous owner. The kinetic
  // partial moves ahead of the swap too — the swap re-partitions atoms
  // across strips but never changes a velocity, so only the association
  // of the coordinator's rank-ordered sum shifts.
  t = Clock::now();
  const auto acc = md_.reduce_region_raw(strip_, ws_);
  const double kinetic = md_.kinetic_energy_region(strip_);
  pump_transport();
  const double overlapped_phase2 = since(t);
  busy_s_ += overlapped_phase2;
  overlap_s_ += overlapped_phase2;

  consume_halo(Tag::kHaloState, b + 1);

  std::size_t applied = 0;
  if (swap_now) {
    const auto subs = sub_strips();
    t = Clock::now();
    pool_.run([&](int k) {
      md_.swap_select(subs[static_cast<std::size_t>(k)], ws_.partner);
    });
    busy_s_ += since(t);

    // Gather this strip's partner slots (a contiguous row-major slice of
    // the core array), receive the globally merged array, and apply the
    // same deterministic serial commit every other rank applies.
    const int w = md_.mapping().grid_width();
    const auto lo = static_cast<std::size_t>(strip_.y0) *
                    static_cast<std::size_t>(w);
    const auto hi = static_cast<std::size_t>(strip_.y1) *
                    static_cast<std::size_t>(w);
    std::vector<std::int32_t> slice(ws_.partner.begin() +
                                        static_cast<std::ptrdiff_t>(lo),
                                    ws_.partner.begin() +
                                        static_cast<std::ptrdiff_t>(hi));
    Packer p;
    p.put_array(slice.data(), slice.size());
    control_.send(Tag::kSwapPartners, p.bytes().data(), p.bytes().size(),
                  config_.peer_timeout_ms);
    const auto wait_start = Clock::now();
    const auto merged_bytes =
        control_.recv(Tag::kSwapMerged, config_.peer_timeout_ms);
    barrier_s_ += since(wait_start);

    t = Clock::now();
    Unpacker u(merged_bytes);
    const auto merged = u.get_array<std::int32_t>();
    std::vector<int> partner(merged.begin(), merged.end());
    applied = md_.swap_commit(partner);
    busy_s_ += since(t);
  }

  t = Clock::now();
  StepRecord rec;
  rec.step = md_.step_count();
  rec.pe_embed = pe.embed;
  rec.pe_pair = pe.pair;
  rec.kinetic = kinetic;
  rec.candidate_total = acc.candidate_total;
  rec.interaction_total = acc.interaction_total;
  rec.cycles_sum = acc.cycles_sum;
  rec.cycles_sq_sum = acc.cycles_sq_sum;
  rec.cycles_max = acc.cycles_max;
  rec.occupied = acc.occupied;
  rec.swaps_applied = applied;
  rec.swapped = swap_now ? 1 : 0;
  busy_s_ += since(t);
  rec.busy_seconds = busy_s_;
  rec.halo_pack_seconds = pack_s_;
  rec.halo_exchange_seconds = exchange_s_;
  rec.halo_unpack_seconds = unpack_s_;
  rec.barrier_seconds = barrier_s_;
  rec.overlap_compute_seconds = overlap_s_;
  control_.send_pod(Tag::kStepDone, rec, config_.peer_timeout_ms);
}

void RankWorker::do_eval_pe() {
  // Energy of the *current* configuration (construction, post-restore,
  // post-set_positions): run the density/force phases over the strip
  // without committing anything. Requires valid halo positions, which
  // every full-state broadcast guarantees. Goes through the same halo
  // publish/consume path as a step so the shm ring sequence stays in
  // lockstep on both sides of every pair.
  const auto subs = sub_strips();
  md_.begin_step_region(strip_, ws_);
  pool_.run([&](int k) {
    md_.density_phase(subs[static_cast<std::size_t>(k)], ws_);
  });
  publish_halo(Tag::kHaloFprime, md_.b());
  consume_halo(Tag::kHaloFprime, md_.b());
  pool_.run([&](int k) {
    md_.force_phase(subs[static_cast<std::size_t>(k)], ws_);
  });
  const auto pe = md_.reduce_region_energy(strip_, ws_);
  control_.send_pod(Tag::kPePartial, EnergyPartial{pe.embed, pe.pair},
                    config_.peer_timeout_ms);
}

}  // namespace wsmd::dist
