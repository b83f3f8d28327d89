/// \file bench_halo_transport.cpp
/// Halo carrier benchmark. Message level: the shared-memory rings
/// (dist/shm_channel) against the AF_UNIX socket frames of the control
/// plane, as latency and bandwidth across halo payload sizes. End to end:
/// the measured dist.halo_* seconds of a real ranks:M Cu slab.
///
///   bench_halo_transport [--ranks=M] [--steps=K] [--scale=S]
///                        [--pingpongs=N] [--stream-mb=M]
///
/// Results land in BENCH_halo_transport.json. The shm-over-socket message
/// ratios divide two measurements of the same run, so the bench gate pins
/// them as hard floors — losing the shared-memory fast path is a
/// structural regression, not runner noise.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/distributed_engine.hpp"
#include "dist/shm_channel.hpp"
#include "dist/transport.hpp"
#include "eam/tabulated.hpp"
#include "eam/zhou.hpp"
#include "lattice/lattice.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bench_json.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace wsmd;
using Clock = std::chrono::steady_clock;

constexpr int kTimeoutMs = 60'000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Round-trip ping-pong over a control-plane socketpair: A sends a frame,
/// B echoes it. Returns one-way seconds per message (round-trip / 2).
double socket_latency(std::size_t bytes, int iters) {
  dist::ChannelPair pair = dist::make_channel_pair();
  const std::vector<std::uint8_t> payload(bytes, 0x5a);
  std::thread echo([&] {
    for (int i = 0; i < iters; ++i) {
      const auto in = pair.b.recv(dist::Tag::kHaloFprime, kTimeoutMs);
      pair.b.send(dist::Tag::kHaloFprime, in.data(), in.size(), kTimeoutMs);
    }
  });
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    pair.a.send(dist::Tag::kHaloFprime, payload.data(), bytes, kTimeoutMs);
    (void)pair.a.recv(dist::Tag::kHaloFprime, kTimeoutMs);
  }
  const double elapsed = seconds_since(t0);
  echo.join();
  return elapsed / (2.0 * iters);
}

/// The same ping-pong through one shm pair segment's two rings.
double shm_latency(std::size_t bytes, int iters) {
  dist::ShmPairSegment seg(static_cast<long>(::getpid()), 0, 1, bytes);
  dist::ShmHalo a = seg.halo_for(0);
  dist::ShmHalo b = seg.halo_for(1);
  const dist::ShmWait wait{-1, kTimeoutMs};
  const std::vector<std::uint8_t> payload(bytes, 0x5a);
  std::thread echo([&] {
    for (int i = 0; i < iters; ++i) {
      std::size_t size = 0;
      const std::uint8_t* p =
          b.recv.acquire(dist::Tag::kHaloFprime, size, wait);
      std::uint8_t* out = b.send.begin_publish(wait);
      std::memcpy(out, p, size);
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
  const double elapsed = seconds_since(t0);
  echo.join();
  return elapsed / (2.0 * iters);
}

/// One-direction stream: producer pushes `total_bytes` in `bytes`-sized
/// messages, consumer drains. Returns GiB/s of payload moved.
double socket_bandwidth(std::size_t bytes, std::size_t total_bytes) {
  dist::ChannelPair pair = dist::make_channel_pair();
  const long messages = static_cast<long>(total_bytes / bytes);
  const std::vector<std::uint8_t> payload(bytes, 0x3c);
  std::thread consumer([&] {
    for (long i = 0; i < messages; ++i) {
      (void)pair.b.recv(dist::Tag::kHaloState, kTimeoutMs);
    }
  });
  const auto t0 = Clock::now();
  for (long i = 0; i < messages; ++i) {
    pair.a.send(dist::Tag::kHaloState, payload.data(), bytes, kTimeoutMs);
  }
  consumer.join();
  const double elapsed = seconds_since(t0);
  return static_cast<double>(messages) * static_cast<double>(bytes) /
         elapsed / (1024.0 * 1024.0 * 1024.0);
}

double shm_bandwidth(std::size_t bytes, std::size_t total_bytes) {
  dist::ShmPairSegment seg(static_cast<long>(::getpid()), 0, 1, bytes);
  dist::ShmHalo a = seg.halo_for(0);
  dist::ShmHalo b = seg.halo_for(1);
  const dist::ShmWait wait{-1, kTimeoutMs};
  const long messages = static_cast<long>(total_bytes / bytes);
  const std::vector<std::uint8_t> payload(bytes, 0x3c);
  std::thread consumer([&] {
    for (long i = 0; i < messages; ++i) {
      std::size_t size = 0;
      b.recv.acquire(dist::Tag::kHaloState, size, wait);
      b.recv.release();
    }
  });
  const auto t0 = Clock::now();
  for (long i = 0; i < messages; ++i) {
    a.send.publish(dist::Tag::kHaloState, payload.data(), bytes, wait);
  }
  consumer.join();
  const double elapsed = seconds_since(t0);
  return static_cast<double>(messages) * static_cast<double>(bytes) /
         elapsed / (1024.0 * 1024.0 * 1024.0);
}

struct SlabLeg {
  std::size_t atoms = 0;
  double halo_s_per_step = 0.0;     ///< dist.halo_pack+exchange+unpack
  double overlap_s_per_step = 0.0;  ///< compute hidden behind the halos
  double steps_per_s = 0.0;
};

/// End-to-end: the CI-class Cu slab on ranks:M, telemetry armed, halo
/// seconds read from the same spans `wsmd report` joins.
SlabLeg run_slab(int ranks, int scale, long steps) {
  const auto p = eam::zhou_parameters("Cu");
  const auto slab = lattice::paper_slab("Cu", scale);
  auto analytic = std::make_shared<eam::ZhouEam>("Cu", p.paper_cutoff());
  auto pot = std::make_shared<eam::TabulatedEam>(
      eam::TabulatedEam::from_potential(*analytic, 2000, 2000));

  dist::DistributedConfig cfg;
  cfg.wse.mapping.cell_size = p.lattice_constant();
  cfg.ranks = ranks;
  dist::DistributedEngine engine(slab, pot, cfg);
  Rng rng(12345);
  engine.thermalize(290.0, rng);
  engine.step();  // warm caches and rings outside the measurement

  telemetry::begin_session();
  const auto t0 = Clock::now();
  for (long k = 0; k < steps; ++k) engine.step();
  const double wall = seconds_since(t0);
  telemetry::end_session();

  SlabLeg leg;
  leg.atoms = engine.atom_count();
  leg.halo_s_per_step =
      (telemetry::span_total_seconds("dist.halo_pack") +
       telemetry::span_total_seconds("dist.halo_exchange") +
       telemetry::span_total_seconds("dist.halo_unpack")) /
      static_cast<double>(steps);
  leg.overlap_s_per_step =
      telemetry::span_total_seconds("dist.overlap_compute") /
      static_cast<double>(steps);
  leg.steps_per_s = wall > 0.0 ? static_cast<double>(steps) / wall : 0.0;
  return leg;
}

}  // namespace

int main(int argc, char** argv) try {
  int ranks = 2;
  long steps = 20;
  int scale = 24;
  int pingpongs = 2000;
  std::size_t stream_mb = 256;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--ranks=", 0) == 0) {
      ranks = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--steps=", 0) == 0) {
      steps = std::atol(arg.c_str() + 8);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--pingpongs=", 0) == 0) {
      pingpongs = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--stream-mb=", 0) == 0) {
      stream_mb = static_cast<std::size_t>(std::atol(arg.c_str() + 12));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }

  std::printf(
      "Halo carrier — POSIX shared-memory rings vs the AF_UNIX socket\n"
      "frames of the control plane.\n\n");

  BenchJson json("halo_transport");
  json.meta().set("ranks", ranks).set("scale", scale).set(
      "steps", static_cast<long long>(steps));
  // The end-to-end halo seconds only reflect the carrier when each rank
  // has its own core; on a time-shared single CPU they measure scheduler
  // skew (the wait for the peer's compute quantum).
  const bool multicore = std::thread::hardware_concurrency() > 1;
  json.meta().set("multicore", multicore);

  // Message sizes spanning the halo range: a thin F' band (rows*w*4B) up
  // to a fat committed-state band on a large slab.
  const std::size_t sizes[] = {4u << 10, 64u << 10, 1u << 20};

  TablePrinter lat({"payload", "socket us/msg", "shm us/msg", "speedup"});
  for (const std::size_t bytes : sizes) {
    const double sock = socket_latency(bytes, pingpongs);
    const double shm = shm_latency(bytes, pingpongs);
    json.add_row()
        .set("leg", "latency")
        .set("transport", "socket")
        .set("bytes", bytes)
        .set("seconds", sock);
    json.add_row()
        .set("leg", "latency")
        .set("transport", "shm")
        .set("bytes", bytes)
        .set("seconds", shm);
    lat.add_row({format("%zu KiB", bytes >> 10), format("%.2f", sock * 1e6),
                 format("%.2f", shm * 1e6), format("%.1fx", sock / shm)});
  }
  lat.print();
  std::printf("\n");

  TablePrinter bw({"payload", "socket GiB/s", "shm GiB/s", "speedup"});
  for (const std::size_t bytes : sizes) {
    const std::size_t total = stream_mb << 20;
    const double sock = socket_bandwidth(bytes, total);
    const double shm = shm_bandwidth(bytes, total);
    json.add_row()
        .set("leg", "bandwidth")
        .set("transport", "socket")
        .set("bytes", bytes)
        .set("gib_per_s", sock);
    json.add_row()
        .set("leg", "bandwidth")
        .set("transport", "shm")
        .set("bytes", bytes)
        .set("gib_per_s", shm);
    bw.add_row({format("%zu KiB", bytes >> 10), format("%.2f", sock),
                format("%.2f", shm), format("%.1fx", shm / sock)});
  }
  bw.print();

  const SlabLeg shm_leg = run_slab(ranks, scale, steps);
  json.add_row()
      .set("leg", "slab")
      .set("transport", "shm")
      .set("atoms", shm_leg.atoms)
      .set("halo_s", shm_leg.halo_s_per_step)
      .set("overlap_s", shm_leg.overlap_s_per_step)
      .set("steps_per_s", shm_leg.steps_per_s);

  std::printf(
      "\nEnd-to-end Cu slab (scale %d, %s atoms, ranks:%d, %ld steps):\n"
      "  shm: halo %.3g s/step (overlap %.3g), %.1f steps/s\n",
      scale, with_commas(shm_leg.atoms).c_str(), ranks, steps,
      shm_leg.halo_s_per_step, shm_leg.overlap_s_per_step,
      shm_leg.steps_per_s);

  const std::string path = json.write();
  std::printf("\nMachine-readable results: %s\n", path.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
