#include "wse/fabric.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wsmd::wse {

Fabric::Fabric(int width, int height, int num_vcs)
    : width_(width), height_(height), num_vcs_(num_vcs) {
  WSMD_REQUIRE(width_ > 0 && height_ > 0, "fabric dimensions must be positive");
  WSMD_REQUIRE(num_vcs_ > 0 && num_vcs_ <= 24,
               "WSE routers support up to 24 virtual channels");
  tiles_.resize(static_cast<std::size_t>(width_) * height_);
  for (auto& t : tiles_) t.vc.resize(static_cast<std::size_t>(num_vcs_));
  link_writes_.assign(static_cast<std::size_t>(width_) * height_ * 4, 0);
}

Fabric::Tile& Fabric::at(int x, int y) {
  return tiles_[static_cast<std::size_t>(y) * width_ + x];
}

const Fabric::Tile& Fabric::at(int x, int y) const {
  return tiles_[static_cast<std::size_t>(y) * width_ + x];
}

void Fabric::set_role(int x, int y, int vc, McastRole role, Port downstream) {
  WSMD_REQUIRE(in_bounds(x, y), "tile (" << x << "," << y << ") out of bounds");
  WSMD_REQUIRE(vc >= 0 && vc < num_vcs_, "virtual channel out of range");
  auto& s = at(x, y).vc[static_cast<std::size_t>(vc)].router;
  s.role = role;
  s.downstream = downstream;
}

void Fabric::queue_send(int x, int y, int vc, std::vector<std::uint32_t> data,
                        std::vector<RouterCmd> commands, bool loopback) {
  WSMD_REQUIRE(in_bounds(x, y), "tile out of bounds");
  WSMD_REQUIRE(vc >= 0 && vc < num_vcs_, "virtual channel out of range");
  auto& s = at(x, y).vc[static_cast<std::size_t>(vc)];
  WSMD_REQUIRE(!s.send_queued, "tile already has a queued send on this vc");
  s.send_data = std::move(data);
  s.send_commands = std::move(commands);
  s.send_pos = 0;
  s.send_queued = true;
  s.command_sent = false;
  s.loopback = loopback;
}

const std::vector<std::uint32_t>& Fabric::received(int x, int y, int vc) const {
  WSMD_REQUIRE(in_bounds(x, y), "tile out of bounds");
  WSMD_REQUIRE(vc >= 0 && vc < num_vcs_, "virtual channel out of range");
  return at(x, y).vc[static_cast<std::size_t>(vc)].recv;
}

void Fabric::port_offset(Port p, int& dx, int& dy) {
  switch (p) {
    case Port::North: dx = 0; dy = -1; return;
    case Port::South: dx = 0; dy = 1; return;
    case Port::East: dx = 1; dy = 0; return;
    case Port::West: dx = -1; dy = 0; return;
    case Port::Core: dx = 0; dy = 0; return;
  }
  dx = dy = 0;
}

void Fabric::emit(int x, int y, int vc, Port p, Wavelet w) {
  int dx, dy;
  port_offset(p, dx, dy);
  const int nx = x + dx, ny = y + dy;
  if (!in_bounds(nx, ny)) return;  // clipped at the wafer edge

  // One wavelet per physical link per cycle, shared across VCs. The
  // marching multicast schedule must never double-book a link.
  const std::size_t port_idx = static_cast<std::size_t>(p);
  WSMD_REQUIRE(port_idx < 4, "emit is for mesh links only");
  auto& score =
      link_writes_[(static_cast<std::size_t>(y) * width_ + x) * 4 + port_idx];
  if (++score > 1) ++contention_;

  at(nx, ny).vc[static_cast<std::size_t>(vc)].inbox_next.push_back(std::move(w));
}

void Fabric::step() {
  std::fill(link_writes_.begin(), link_writes_.end(), 0);

  // Phase A: route wavelets that arrived at the start of this cycle.
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      for (int vc = 0; vc < num_vcs_; ++vc) {
        auto& s = at(x, y).vc[static_cast<std::size_t>(vc)];
        for (Wavelet& w : s.inbox) {
          const Port down = s.router.downstream;
          const McastRole before = s.router.role;
          RouteDecision d = route_upstream_wavelet(s.router, w);
          if (before != McastRole::Head && s.router.role == McastRole::Head) {
            s.promoted_this_cycle = true;
          }
          if (d.to_core && w.kind == Wavelet::Kind::Data) {
            s.recv.push_back(w.data);
          }
          if (d.forward) {
            emit(x, y, vc, down, std::move(d.downstream_wavelet));
          }
        }
        s.inbox.clear();
      }
    }
  }

  // Phase B: head cores inject one wavelet per cycle (dataflow-triggered:
  // the send thread progresses only while the tile holds the Head role).
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      for (int vc = 0; vc < num_vcs_; ++vc) {
        auto& s = at(x, y).vc[static_cast<std::size_t>(vc)];
        if (!s.send_queued || s.router.role != McastRole::Head) continue;
        if (s.promoted_this_cycle) continue;  // router turnaround cycle
        if (s.send_pos < s.send_data.size()) {
          const std::uint32_t word = s.send_data[s.send_pos++];
          // Loopback: the head's own core receives its payload too (the
          // paper's row buffer holds the tile's own atom at the center);
          // enabled on one channel per axis by the exchange driver.
          if (s.loopback) s.recv.push_back(word);
          emit(x, y, vc, s.router.downstream, Wavelet::make_data(word));
        } else if (!s.command_sent) {
          s.command_sent = true;
          if (!s.send_commands.empty()) {
            emit(x, y, vc, s.router.downstream,
                 Wavelet::make_command(s.send_commands));
          }
          // "The head proceeds to the tail state" once its transmission
          // completes (paper Sec. III-B).
          s.router.role = McastRole::Tail;
        }
      }
    }
  }

  // Phase C: next cycle's inboxes become current.
  for (auto& t : tiles_) {
    for (auto& s : t.vc) {
      s.inbox.swap(s.inbox_next);
      s.inbox_next.clear();
      s.promoted_this_cycle = false;
    }
  }
  ++cycle_;
}

bool Fabric::quiescent() const {
  for (const auto& t : tiles_) {
    for (const auto& s : t.vc) {
      if (!s.inbox.empty() || !s.inbox_next.empty()) return false;
      if (s.send_queued &&
          (s.send_pos < s.send_data.size() || !s.command_sent)) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t Fabric::run_until_quiescent(std::uint64_t max_cycles) {
  const std::uint64_t start = cycle_;
  while (!quiescent()) {
    WSMD_REQUIRE(cycle_ - start < max_cycles,
                 "fabric failed to quiesce in " << max_cycles
                                                << " cycles: schedule bug");
    step();
  }
  return cycle_ - start;
}

void Fabric::clear_traffic() {
  for (auto& t : tiles_) {
    for (auto& s : t.vc) {
      s.inbox.clear();
      s.inbox_next.clear();
      s.recv.clear();
      s.send_data.clear();
      s.send_commands.clear();
      s.send_pos = 0;
      s.send_queued = false;
      s.command_sent = false;
      s.router.role = McastRole::Idle;
    }
  }
}

}  // namespace wsmd::wse
