#pragma once

/// \file fabric.hpp
/// Cycle-stepped simulator of a rectangular WSE tile fabric.
///
/// Models what the marching multicast needs from the hardware of paper
/// Sec. IV-A:
///   * a 2-D mesh with single-wavelet-per-cycle links in each direction,
///     one-cycle latency between neighboring routers;
///   * per-virtual-channel router roles with command-wavelet transitions;
///   * core send threads that fire when their tile holds the Head role
///     (dataflow-triggered execution);
///   * per-core receive buffers fed by the router's core port.
///
/// The simulator is used to *verify* the communication schedule (delivery
/// sets, zero mesh-link contention, phase structure, cycle counts) on grids
/// of up to ~10^4 tiles. Production-scale (801,792-core) performance numbers
/// come from the calibrated cost model in cost_model.hpp, exactly as the
/// paper validates its own linear model against hardware counters.
///
/// Simplifications (documented, asserted elsewhere): the core ingests
/// deliveries from multiple VCs in the same cycle (hardware serializes at
/// one word/cycle through link-level buffers; this affects only the
/// absolute cycle count, which the cost model owns), and command wavelets
/// carry their command lists by value.

#include <cstdint>
#include <vector>

#include "wse/router.hpp"
#include "wse/wavelet.hpp"

namespace wsmd::wse {

class Fabric {
 public:
  Fabric(int width, int height, int num_vcs);

  int width() const { return width_; }
  int height() const { return height_; }
  int num_vcs() const { return num_vcs_; }

  /// Configure the multicast role of one tile on one channel.
  void set_role(int x, int y, int vc, McastRole role, Port downstream);

  /// Queue the data vector a core will multicast when it becomes Head on
  /// `vc` (sent exactly once; a trailing command wavelet with the given
  /// list is appended automatically when `commands` is non-empty). With
  /// `loopback`, the head's own core receives the payload as well — the
  /// exchange driver enables this on one channel per axis so each payload
  /// lands in its own core's buffer exactly once.
  void queue_send(int x, int y, int vc, std::vector<std::uint32_t> data,
                  std::vector<RouterCmd> commands, bool loopback = true);

  /// Words delivered to the core of (x, y) on channel `vc`, in arrival
  /// order (deterministic: the paper's neighbor list relies on this).
  const std::vector<std::uint32_t>& received(int x, int y, int vc) const;

  /// Advance one cycle.
  void step();

  /// Run until no wavelet is in flight and every queued send has finished,
  /// or until `max_cycles` elapse. Returns cycles executed; throws if the
  /// fabric failed to quiesce (a schedule bug).
  std::uint64_t run_until_quiescent(std::uint64_t max_cycles = 1000000);

  std::uint64_t cycle() const { return cycle_; }

  /// Cycles in which more than one wavelet was written to the same physical
  /// mesh link. The marching multicast must keep this at zero.
  std::uint64_t contention_events() const { return contention_; }

  /// True when nothing is in flight and all queued sends completed.
  bool quiescent() const;

  /// Reset receive buffers, send bookkeeping, and in-flight wavelets while
  /// keeping roles (used between the horizontal and vertical stages).
  void clear_traffic();

 private:
  struct PerVc {
    VcRouterState router;
    std::vector<std::uint32_t> send_data;   // queued payload
    std::vector<RouterCmd> send_commands;   // trailing command list
    std::size_t send_pos = 0;
    bool send_queued = false;
    bool command_sent = false;
    bool loopback = true;
    /// Promoted to Head this cycle: transmission starts next cycle (the
    /// hardware's 4-state machine cannot swap a router's input and output
    /// configuration in the same cycle — paper Fig. 4b).
    bool promoted_this_cycle = false;
    std::vector<std::uint32_t> recv;        // delivered to core
    std::vector<Wavelet> inbox;             // arriving this cycle
    std::vector<Wavelet> inbox_next;        // arriving next cycle
  };
  struct Tile {
    std::vector<PerVc> vc;
  };

  Tile& at(int x, int y);
  const Tile& at(int x, int y) const;
  bool in_bounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }
  static void port_offset(Port p, int& dx, int& dy);

  /// Write a wavelet onto the physical link leaving (x, y) toward `p`;
  /// lands in the neighbor's inbox for the next cycle. Counts contention.
  void emit(int x, int y, int vc, Port p, Wavelet w);

  int width_, height_, num_vcs_;
  std::vector<Tile> tiles_;
  std::uint64_t cycle_ = 0;
  std::uint64_t contention_ = 0;
  /// Per-cycle link-occupancy scoreboard: width*height*4 outbound ports.
  std::vector<std::uint8_t> link_writes_;
};

}  // namespace wsmd::wse
