#pragma once

/// \file shm_channel.hpp
/// The halo carrier between rank peers: shared-memory rings.
///
/// For every halo pair the coordinator creates one POSIX shm segment
/// *before* forking, maps it MAP_SHARED, and immediately shm_unlinks it —
/// the forked ranks inherit the live mapping, and no /dev/shm entry can
/// outlive construction, however a rank dies (SIGKILL included). The
/// segment holds two single-producer / single-consumer rings, one per
/// direction, each with two fixed-size slots: halo payloads are memcpy'd
/// once by the producer and read *in place* by the consumer — zero socket
/// syscalls and zero intermediate copies on the steady-state path. Each
/// segment comes with a peer socketpair that never carries a frame: it is
/// the pair's death canary. The consumer's spin-then-sleep wait polls it,
/// so a dead peer surfaces as PeerClosedError immediately instead of after
/// dist.timeout. The coordinator <-> rank control plane (handshake,
/// checkpoint gather) keeps its own sockets (transport.hpp).
///
/// Ring protocol (all counters are message counts, monotonic):
///   - `head` = messages published, `tail` = messages consumed; message n
///     lives in slot n % 2. The producer may run at most 2 messages ahead
///     (slot n is rewritable once tail >= n - 1); in the lockstep step
///     protocol each direction carries exactly two messages per step
///     (F' then committed state), and the coordinator only starts step
///     k+1 after every rank finished step k, so a publish never actually
///     blocks — the capacity check is a guard, not a throttle.
///   - Each slot carries its own sequence counter: 2n + 1 while message n
///     is being written, 2n + 2 once published. A consumer that sees
///     anything but 2n + 2 after acquiring message n caught a torn or
///     out-of-protocol write and fails loudly (TransportError) instead of
///     unpacking garbage.
///   - Publishes release, consumes acquire: the payload bytes a consumer
///     reads are ordered after the producer's memcpy on every
///     architecture, not just x86.
///
/// Waiting: a brief spin (catches an in-flight publish on a multi-core
/// host), then a cross-process FUTEX_WAIT on the ring's progress counter —
/// the waiter yields the CPU and is woken by the peer's publish/consume in
/// microseconds, which keeps the rings fast even when ranks share cores
/// (spinning there would starve the very peer being waited on). The
/// sleeping side registers in a waiter count so the fast path pays no
/// wake syscall. Waits honor the same `dist.timeout` deadline the control
/// plane uses (TimeoutError past the deadline) and re-check the peer
/// canary between futex timeout chunks, so a dead peer surfaces as
/// PeerClosedError within milliseconds instead of at dist.timeout.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "dist/transport.hpp"

namespace wsmd::dist {

namespace shm_detail {

/// Per-direction ring control block, placed at the head of its region of
/// the shared segment. 64-byte alignment keeps the two rings' hot
/// counters on separate cache lines.
struct alignas(64) RingHeader {
  std::atomic<std::uint64_t> head;         ///< messages published
  std::atomic<std::uint64_t> tail;         ///< messages consumed
  std::atomic<std::uint64_t> slot_seq[2];  ///< 2n+1 writing, 2n+2 published
  std::atomic<std::uint64_t> slot_size[2]; ///< payload bytes in the slot
  std::atomic<std::uint16_t> slot_tag[2];  ///< Tag of the slot's message
  // Cross-process sleep/wake (see the waiting discussion in the file
  // comment): one futex word per direction of progress, bumped on every
  // publish (head_futex) / consume (tail_futex), plus a waiter count so
  // the bumping side can skip the FUTEX_WAKE syscall when nobody sleeps.
  std::atomic<std::uint32_t> head_futex;
  std::atomic<std::uint32_t> head_waiters;
  std::atomic<std::uint32_t> tail_futex;
  std::atomic<std::uint32_t> tail_waiters;
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

constexpr std::size_t kSlots = 2;

}  // namespace shm_detail

/// How a consumer waits for ring progress: bounded by the transport
/// deadline, watching the pair's canary socket so a dead peer is detected
/// without heartbeats. `peer_fd < 0` disables the death check (unit tests
/// without a canary).
struct ShmWait {
  int peer_fd = -1;
  int timeout_ms = 0;
};

/// One direction of a pair segment: `publish` for the producer side,
/// `acquire`/`release` for the consumer side. A view over shared memory —
/// trivially copyable, no ownership; the mapping is owned by
/// ShmPairSegment.
class ShmRing {
 public:
  ShmRing() = default;
  ShmRing(shm_detail::RingHeader* header, std::uint8_t* slots,
          std::size_t slot_bytes)
      : header_(header), slots_(slots), slot_bytes_(slot_bytes) {}

  bool valid() const { return header_ != nullptr; }
  std::size_t slot_bytes() const { return slot_bytes_; }

  /// Producer: copy `size` bytes into the next slot and publish them under
  /// `tag`. Blocks (spin-then-sleep) only if the consumer is two messages
  /// behind — which the lockstep protocol rules out; see file comment.
  void publish(Tag tag, const void* payload, std::size_t size,
               const ShmWait& wait);

  /// Producer, zero-copy variant: claim the next slot and return its
  /// payload area, so halo values can be gathered *directly into shared
  /// memory* (written exactly once). Pair with commit_publish().
  std::uint8_t* begin_publish(const ShmWait& wait);

  /// Publish the slot claimed by begin_publish() with its final tag and
  /// payload size.
  void commit_publish(Tag tag, std::size_t size);

  /// Consumer: wait for the next message, check its tag, and return a
  /// pointer to the payload *in shared memory* (valid until release()).
  /// Unpack directly from it; there is no intermediate copy to invalidate.
  const std::uint8_t* acquire(Tag expect, std::size_t& size,
                              const ShmWait& wait);

  /// Consumer: hand the slot back to the producer after the in-place read.
  /// Verifies the slot sequence still matches — a producer that rewrote
  /// the slot early (protocol violation) is caught here, after the fact,
  /// exactly like a torn seqlock read.
  void release();

 private:
  shm_detail::RingHeader* header_ = nullptr;
  std::uint8_t* slots_ = nullptr;
  std::size_t slot_bytes_ = 0;
  std::uint64_t next_publish_ = 0;  ///< producer-local message counter
  std::uint64_t next_consume_ = 0;  ///< consumer-local message counter
  bool held_ = false;               ///< acquire() outstanding
  bool writing_ = false;            ///< begin_publish() outstanding
};

/// The two ring views one rank holds toward one peer.
struct ShmHalo {
  ShmRing send;  ///< this rank produces, the peer consumes
  ShmRing recv;  ///< the peer produces, this rank consumes
};

/// One peer pair's shared segment: created, mapped, and immediately
/// unlinked by the coordinator before fork (see file comment). Movable
/// RAII over the mapping; the last process to unmap frees the memory.
class ShmPairSegment {
 public:
  /// Create the segment for pair (rank_i, rank_j) with `slot_bytes` of
  /// payload capacity per slot (the caller sizes it to the largest halo
  /// message the pair can exchange). Throws TransportError on any shm/mmap
  /// failure. The /dev/shm entry is already gone when this returns.
  ShmPairSegment(long pid, int rank_i, int rank_j, std::size_t slot_bytes);
  ~ShmPairSegment();
  ShmPairSegment(ShmPairSegment&& other) noexcept;
  ShmPairSegment& operator=(ShmPairSegment&& other) noexcept;
  ShmPairSegment(const ShmPairSegment&) = delete;
  ShmPairSegment& operator=(const ShmPairSegment&) = delete;

  int rank_i() const { return rank_i_; }
  int rank_j() const { return rank_j_; }

  /// The ring views for one member of the pair (send toward the other).
  ShmHalo halo_for(int my_rank) const;

  /// Unmap now (a forked rank drops segments of pairs it is not part of;
  /// the two owning ranks' mappings are unaffected).
  void unmap();

 private:
  int rank_i_ = -1;
  int rank_j_ = -1;
  std::uint8_t* base_ = nullptr;
  std::size_t map_bytes_ = 0;
  std::size_t slot_bytes_ = 0;
};

}  // namespace wsmd::dist
