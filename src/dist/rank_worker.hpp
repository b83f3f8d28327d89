#pragma once

/// \file rank_worker.hpp
/// The rank-process side of the distributed wafer backend.
///
/// A rank inherits the coordinator's fully-constructed WseMd by fork
/// (copy-on-write — structure, potential tables, and mapping arrive
/// bitwise with no serialization), then serves a lockstep command loop:
/// the coordinator broadcasts one command, every rank executes it and
/// replies. A timestep is the one step schedule (core::WseMd::step_region)
/// over the rank's core-grid row strip, split across the rank's shard
/// threads, with this worker's hooks: two pairwise halo exchanges against
/// peer ranks — F' after the density phase (radius b, what the force
/// kernels read) and committed positions+velocities after the commit
/// (radius b+1, one row of slack so an atom-swap migration never exposes a
/// stale ghost) — and the coordinator's partner merge on swap steps.
///
/// Halo payloads travel through per-pair shared-memory rings (see
/// shm_channel.hpp), and the schedule overlaps them with compute:
/// outgoing halos are published as soon as the strip's boundary rows are
/// computed, interior tiles sweep while the halos are in flight, and the
/// incoming halos are consumed only when the boundary tiles finally need
/// them. The split is free of numerical consequence: the phase kernels
/// guarantee results bitwise independent of the shard decomposition, and
/// the energy reductions keep their strip-wide fixed order.
///
/// Per-atom state therefore evolves bitwise identically to the serial
/// engine — every value an atom's update reads (neighbor positions, F',
/// its own velocity) is the exact FP32 value the serial sweep would read;
/// only the global energy reductions differ (rank-ordered partial sums,
/// combined by the coordinator).
///
/// Teardown: a clean run ends with kShutdown -> kBye -> _Exit(0). If the
/// coordinator dies first, the control socket EOFs and the rank exits
/// quietly; if a *peer* dies mid-exchange, the ring wait's socket canary
/// catches it (PeerClosedError), the rank exits nonzero, and the failure
/// cascades to the coordinator as EOFs.

#include <chrono>
#include <utility>
#include <vector>

#include "core/wse_md.hpp"
#include "dist/domain.hpp"
#include "dist/protocol.hpp"
#include "dist/shm_channel.hpp"
#include "dist/transport.hpp"
#include "engine/shard_pool.hpp"

namespace wsmd::dist {

struct RankWorkerConfig {
  int rank = 0;
  int world = 1;
  int threads = 1;  ///< shard threads inside this rank (ranks:MxN)
  /// Peer-exchange deadline; a stuck peer turns into a transport error
  /// (and a nonzero exit) instead of a silent hang.
  int peer_timeout_ms = 600'000;
  /// Dead-rank drill: _Exit(9) at the start of step `kill_step` when this
  /// rank is `kill_rank` (deck keys dist.kill_rank / dist.kill_step).
  int kill_rank = -1;
  long kill_step = 0;
};

/// Everything one rank holds toward one halo peer: the pair's ring views
/// and the socket whose EOF is their death canary.
struct PeerLink {
  int rank = -1;
  Channel canary;
  ShmHalo shm;
};

class RankWorker {
 public:
  /// `md` is the forked copy of the coordinator's template engine; the
  /// worker mutates it freely. `peers[i]` links to a peer rank, in
  /// ascending rank order.
  RankWorker(core::WseMd& md, RankWorkerConfig config, Channel control,
             std::vector<PeerLink> peers);
  // The schedule's hooks hold `this`.
  RankWorker(const RankWorker&) = delete;
  RankWorker& operator=(const RankWorker&) = delete;

  /// Serve commands until shutdown or coordinator EOF. Never returns.
  [[noreturn]] void run();

 private:
  void handshake();
  void do_step();
  void do_eval_pe();
  /// The schedule's halo hooks. publish_halo gathers this rank's halo rows
  /// straight into every peer's ring slot and publishes them; consume_halo
  /// receives and scatters the peers' rows posted by the matching publish,
  /// blocking until all are in.
  void publish_halo(core::Halo halo);
  void consume_halo(core::Halo halo);
  /// The schedule's partner-merge hook: send this strip's partner slots to
  /// the coordinator and adopt the merged full array it broadcasts.
  void merge_partners(std::vector<int>& partner);
  /// Gather halo values for `atoms` into `dst` (F': 1 float/atom; state:
  /// 6 floats/atom). Returns the byte count.
  std::size_t gather_halo(Tag tag, const std::vector<std::uint32_t>& atoms,
                          std::uint8_t* dst);
  /// Scatter received halo values for `atoms` out of `src`.
  void scatter_halo(Tag tag, const std::vector<std::uint32_t>& atoms,
                    const std::uint8_t* src);
  /// Links to this rank's peers at halo radius `radius`, in halo_pairs
  /// order.
  std::vector<PeerLink*> halo_peers(int radius);

  core::WseMd& md_;
  RankWorkerConfig config_;
  Channel control_;
  std::vector<PeerLink> peers_;
  std::vector<core::ShardRect> strips_;
  core::ShardRect strip_;
  engine::ShardPool pool_;
  core::StepSchedule schedule_;

  // Cumulative wall-clock accounting reported in every StepRecord.
  double busy_s_ = 0.0;
  double pack_s_ = 0.0;
  double exchange_s_ = 0.0;
  double unpack_s_ = 0.0;
  double barrier_s_ = 0.0;
  double overlap_s_ = 0.0;
  double hooks_s_ = 0.0;  ///< inside the halo / merge hooks (not busy)
  std::chrono::steady_clock::time_point published_;  ///< last publish end
};

}  // namespace wsmd::dist
