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

Tag halo_tag(core::Halo halo) {
  return halo == core::Halo::kFprime ? Tag::kHaloFprime : Tag::kHaloState;
}

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
      pool_(config.threads > 0 ? config.threads : 1) {
  schedule_.workers = pool_.size();
  schedule_.parallel_for = [this](const std::function<void(int)>& task) {
    pool_.run(task);
  };
  schedule_.publish = [this](core::Halo h) { publish_halo(h); };
  schedule_.consume = [this](core::Halo h) { consume_halo(h); };
  schedule_.merge_partners = [this](std::vector<int>& p) {
    merge_partners(p);
  };
}

std::vector<PeerLink*> RankWorker::halo_peers(int radius) {
  std::vector<PeerLink*> links;
  for (const auto& [i, j] : halo_pairs(strips_, radius)) {
    if (i != config_.rank && j != config_.rank) continue;
    const int other = i == config_.rank ? j : i;
    const auto it = std::find_if(
        peers_.begin(), peers_.end(),
        [other](const PeerLink& link) { return link.rank == other; });
    WSMD_REQUIRE(it != peers_.end(), "dist: no link to peer rank " << other);
    links.push_back(&*it);
  }
  return links;
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

void RankWorker::publish_halo(core::Halo halo) {
  const auto start = Clock::now();
  const Tag tag = halo_tag(halo);
  const int radius = halo == core::Halo::kFprime ? md_.b() : md_.b() + 1;
  const std::size_t per_atom =
      tag == Tag::kHaloState ? 6 * sizeof(float) : sizeof(float);
  for (PeerLink* link : halo_peers(radius)) {
    const RowSpan out = halo_rows(strips_, config_.rank, link->rank, radius);
    const auto pack_start = Clock::now();
    const auto atoms = atoms_in_rows(md_.mapping(), out.lo, out.hi);
    // Gather straight into the shared slot: written once, read in place
    // by the peer, zero syscalls. The slot was sized for the radius the
    // ranks were spawned with; check before writing a byte.
    const std::size_t bytes = atoms.size() * per_atom;
    ShmRing& ring = link->shm.send;
    WSMD_REQUIRE(ring.valid() && bytes <= ring.slot_bytes(),
                 "dist: a " << bytes << "-byte halo for rank " << link->rank
                            << " overruns its " << ring.slot_bytes()
                            << "-byte shm slot");
    const ShmWait wait{link->canary.fd(), config_.peer_timeout_ms};
    gather_halo(tag, atoms, ring.begin_publish(wait));
    ring.commit_publish(tag, bytes);
    pack_s_ += since(pack_start);
  }
  published_ = Clock::now();
  hooks_s_ += since(start);
}

void RankWorker::consume_halo(core::Halo halo) {
  const auto start = Clock::now();
  // Compute between the matching publish and now ran while the halo flew.
  overlap_s_ += std::chrono::duration<double>(start - published_).count();
  const Tag tag = halo_tag(halo);
  const int radius = halo == core::Halo::kFprime ? md_.b() : md_.b() + 1;
  const std::size_t per_atom =
      tag == Tag::kHaloState ? 6 * sizeof(float) : sizeof(float);
  for (PeerLink* link : halo_peers(radius)) {
    const RowSpan in = halo_rows(strips_, link->rank, config_.rank, radius);
    const ShmWait wait{link->canary.fd(), config_.peer_timeout_ms};
    const auto wire_start = Clock::now();
    std::size_t bytes = 0;
    const std::uint8_t* src = link->shm.recv.acquire(tag, bytes, wait);
    exchange_s_ += since(wire_start);

    const auto unpack_start = Clock::now();
    const auto atoms = atoms_in_rows(md_.mapping(), in.lo, in.hi);
    WSMD_REQUIRE(bytes == atoms.size() * per_atom,
                 "dist: halo size mismatch from rank "
                     << link->rank << " (" << bytes << " vs "
                     << atoms.size() * per_atom << " bytes)");
    scatter_halo(tag, atoms, src);
    link->shm.recv.release();
    unpack_s_ += since(unpack_start);
  }
  hooks_s_ += since(start);
}

void RankWorker::merge_partners(std::vector<int>& partner) {
  const auto start = Clock::now();
  // Send this strip's partner slots (a contiguous row-major slice of the
  // core array), receive the globally merged array, and let the schedule
  // apply the same deterministic serial commit every other rank applies.
  const auto w = static_cast<std::ptrdiff_t>(md_.mapping().grid_width());
  const std::vector<std::int32_t> slice(partner.begin() + strip_.y0 * w,
                                        partner.begin() + strip_.y1 * w);
  Packer p;
  p.put_array(slice.data(), slice.size());
  control_.send(Tag::kSwapPartners, p.bytes().data(), p.bytes().size(),
                config_.peer_timeout_ms);
  const auto wait_start = Clock::now();
  const auto merged_bytes =
      control_.recv(Tag::kSwapMerged, config_.peer_timeout_ms);
  barrier_s_ += since(wait_start);
  Unpacker u(merged_bytes);
  const auto merged = u.get_array<std::int32_t>();
  partner.assign(merged.begin(), merged.end());
  hooks_s_ += since(start);
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

  // Busy time is the step minus its time inside the hooks (packing, the
  // wire, unpacking, and the partner-merge round trip).
  const auto start = Clock::now();
  const double hooks_before = hooks_s_;
  const core::WseMd::RegionReport r = md_.step_region(strip_, schedule_);
  StepRecord rec;
  rec.step = md_.step_count();
  rec.pe_embed = r.pe.embed;
  rec.pe_pair = r.pe.pair;
  rec.kinetic = r.kinetic;
  rec.candidate_total = r.acc.candidate_total;
  rec.interaction_total = r.acc.interaction_total;
  rec.cycles_sum = r.acc.cycles_sum;
  rec.cycles_sq_sum = r.acc.cycles_sq_sum;
  rec.cycles_max = r.acc.cycles_max;
  rec.occupied = r.acc.occupied;
  rec.swaps_applied = r.swaps_applied;
  rec.swapped = r.swapped ? 1 : 0;
  busy_s_ += since(start) - (hooks_s_ - hooks_before);
  rec.busy_seconds = busy_s_;
  rec.halo_pack_seconds = pack_s_;
  rec.halo_exchange_seconds = exchange_s_;
  rec.halo_unpack_seconds = unpack_s_;
  rec.barrier_seconds = barrier_s_;
  rec.overlap_compute_seconds = overlap_s_;
  control_.send_pod(Tag::kStepDone, rec, config_.peer_timeout_ms);
}

void RankWorker::do_eval_pe() {
  // Energy of the *current* configuration (construction, a restarted
  // rank set): the schedule's force half over the strip, committing
  // nothing. Requires valid halo positions, which the forked template
  // guarantees. Goes through the same halo hooks as a step so the shm ring
  // sequence stays in lockstep on both sides of every pair.
  const auto pe = md_.region_energy(strip_, schedule_);
  control_.send_pod(Tag::kPePartial, EnergyPartial{pe.embed, pe.pair},
                    config_.peer_timeout_ms);
}

}  // namespace wsmd::dist
