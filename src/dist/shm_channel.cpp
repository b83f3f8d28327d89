#include "dist/shm_channel.hpp"

#include <fcntl.h>
#include <linux/futex.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <ctime>
#include <new>
#include <thread>

#include "dist/domain.hpp"

namespace wsmd::dist {

namespace {

using Clock = std::chrono::steady_clock;
using shm_detail::RingHeader;
using shm_detail::kSlots;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// FUTEX_WAIT on `word` while it still holds `expected`, for at most
/// `timeout_ms`. The kernel re-checks the value atomically, so a bump
/// between our load and the syscall returns immediately (EAGAIN) — no
/// lost-wakeup window. Plain-value punning of the atomic is sound: the
/// standard guarantees lock-free std::atomic<uint32_t> has the object
/// representation of its value type.
void futex_wait_chunk(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                      int timeout_ms) {
  timespec ts{timeout_ms / 1000, static_cast<long>(timeout_ms % 1000) * 1'000'000L};
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT,
            expected, &ts, nullptr, 0);
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
            INT_MAX, nullptr, nullptr, 0);
}

/// Nonblocking dead-peer check between futex chunks: an EOF on the pair's
/// canary socket means the process this wait depends on is gone — fail
/// now, not at dist.timeout.
void check_peer_alive(const ShmWait& wait, const char* what) {
  if (wait.peer_fd < 0) return;
  pollfd p{wait.peer_fd, POLLIN, 0};
  const int rc = ::poll(&p, 1, 0);
  if (rc < 0 && errno != EINTR) {
    throw TransportError(std::string("dist shm: poll failed: ") +
                         std::strerror(errno));
  }
  if (rc > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL))) {
    std::uint8_t byte;
    const ssize_t r = ::recv(wait.peer_fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (r == 0) {
      throw PeerClosedError("dist shm: peer closed while waiting for " +
                            std::string(what));
    }
    // No frame ever rides a canary, so anything but EOF (r < 0/EAGAIN:
    // spurious readiness) means the peer is alive.
  }
}

/// Wait until `ready` holds: spin briefly (multi-core fast path, where the
/// peer's publish is usually in flight), then sleep on `word` — the futex
/// counter the peer bumps whenever it makes the kind of progress `ready`
/// is watching — registering in `waiters` so the peer's fast path can skip
/// the wake syscall. Sleeps are chunked so the transport deadline and the
/// dead-peer canary stay responsive.
template <typename Pred>
void wait_until(const Pred& ready, std::atomic<std::uint32_t>& word,
                std::atomic<std::uint32_t>& waiters, const ShmWait& wait,
                const char* what) {
  // Spinning only helps when the peer can make progress on another core;
  // on a single-CPU host it just delays the yield that lets the peer run.
  static const int kSpinIters =
      std::thread::hardware_concurrency() > 1 ? 512 : 0;
  for (int i = 0; i < kSpinIters; ++i) {
    if (ready()) return;
    cpu_relax();
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(wait.timeout_ms);
  constexpr int kChunkMs = 20;
  for (;;) {
    const std::uint32_t v = word.load(std::memory_order_acquire);
    if (ready()) return;
    const auto now = Clock::now();
    if (now >= deadline) {
      throw TimeoutError(std::string("dist shm: timed out waiting for ") +
                         what);
    }
    const auto remaining_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    waiters.fetch_add(1, std::memory_order_seq_cst);
    // Re-check after registering: the bump-then-check-waiters order on the
    // producer side plus this check-after-register close the sleep/wake
    // race; the kernel's atomic compare of `word` against `v` closes the
    // rest.
    if (!ready()) {
      futex_wait_chunk(&word, v, std::min(kChunkMs, remaining_ms + 1));
    }
    waiters.fetch_sub(1, std::memory_order_relaxed);
    check_peer_alive(wait, what);
  }
}

/// Publish/consume-side progress notification: bump the direction's futex
/// word, wake only if someone registered.
void bump_and_wake(std::atomic<std::uint32_t>& word,
                   std::atomic<std::uint32_t>& waiters) {
  word.fetch_add(1, std::memory_order_seq_cst);
  if (waiters.load(std::memory_order_seq_cst) > 0) futex_wake_all(&word);
}

[[noreturn]] void throw_errno_shm(const char* op) {
  throw TransportError(std::string("dist shm: ") + op + " failed: " +
                       std::strerror(errno));
}

constexpr std::size_t kHeaderBytes =
    2 * sizeof(RingHeader);  // ring A (i->j) then ring B (j->i)

std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

}  // namespace

std::uint8_t* ShmRing::begin_publish(const ShmWait& wait) {
  WSMD_REQUIRE(valid(), "dist shm: publish on an empty ring view");
  WSMD_REQUIRE(!writing_, "dist shm: begin_publish without commit_publish");
  const std::uint64_t n = next_publish_;
  // Slot n % 2 is rewritable once the consumer is past message n - 2.
  wait_until(
      [&] {
        return header_->tail.load(std::memory_order_acquire) + kSlots > n;
      },
      header_->tail_futex, header_->tail_waiters, wait,
      "a free shm ring slot");
  const std::size_t slot = static_cast<std::size_t>(n % kSlots);
  header_->slot_seq[slot].store(2 * n + 1, std::memory_order_relaxed);
  writing_ = true;
  return slots_ + slot * slot_bytes_;
}

void ShmRing::commit_publish(Tag tag, std::size_t size) {
  WSMD_REQUIRE(writing_, "dist shm: commit_publish without begin_publish");
  WSMD_REQUIRE(size <= slot_bytes_,
               "dist shm: halo payload (" << size
                                          << " bytes) exceeds the slot "
                                             "capacity sized at fork ("
                                          << slot_bytes_ << ")");
  const std::uint64_t n = next_publish_;
  const std::size_t slot = static_cast<std::size_t>(n % kSlots);
  header_->slot_tag[slot].store(static_cast<std::uint16_t>(tag),
                                std::memory_order_relaxed);
  header_->slot_size[slot].store(size, std::memory_order_relaxed);
  header_->slot_seq[slot].store(2 * n + 2, std::memory_order_release);
  header_->head.store(n + 1, std::memory_order_release);
  bump_and_wake(header_->head_futex, header_->head_waiters);
  next_publish_ = n + 1;
  writing_ = false;
}

void ShmRing::publish(Tag tag, const void* payload, std::size_t size,
                      const ShmWait& wait) {
  std::uint8_t* dst = begin_publish(wait);
  WSMD_REQUIRE(size <= slot_bytes_,
               "dist shm: halo payload (" << size
                                          << " bytes) exceeds the slot "
                                             "capacity sized at fork ("
                                          << slot_bytes_ << ")");
  if (size > 0) std::memcpy(dst, payload, size);
  commit_publish(tag, size);
}

const std::uint8_t* ShmRing::acquire(Tag expect, std::size_t& size,
                                     const ShmWait& wait) {
  WSMD_REQUIRE(valid(), "dist shm: acquire on an empty ring view");
  WSMD_REQUIRE(!held_, "dist shm: acquire without releasing the last slot");
  const std::uint64_t n = next_consume_;
  wait_until(
      [&] { return header_->head.load(std::memory_order_acquire) > n; },
      header_->head_futex, header_->head_waiters, wait,
      "the peer's shm halo message");
  const std::size_t slot = static_cast<std::size_t>(n % kSlots);
  const std::uint64_t seq =
      header_->slot_seq[slot].load(std::memory_order_acquire);
  if (seq != 2 * n + 2) {
    throw TransportError(
        "dist shm: slot sequence " + std::to_string(seq) + " for message " +
        std::to_string(n) + " (expected " + std::to_string(2 * n + 2) +
        ") — torn or out-of-protocol write");
  }
  const auto tag = header_->slot_tag[slot].load(std::memory_order_relaxed);
  if (tag != static_cast<std::uint16_t>(expect)) {
    throw TransportError("dist shm: unexpected message tag " +
                         std::to_string(tag) + " (expected " +
                         std::to_string(static_cast<int>(expect)) + ")");
  }
  size = static_cast<std::size_t>(
      header_->slot_size[slot].load(std::memory_order_relaxed));
  if (size > slot_bytes_) {
    throw TransportError("dist shm: corrupt slot size " +
                         std::to_string(size));
  }
  held_ = true;
  return slots_ + slot * slot_bytes_;
}

void ShmRing::release() {
  WSMD_REQUIRE(held_, "dist shm: release without an outstanding acquire");
  const std::uint64_t n = next_consume_;
  const std::size_t slot = static_cast<std::size_t>(n % kSlots);
  // The producer may not touch the slot again until we advance tail; a
  // changed sequence here means the in-place read raced a rewrite.
  const std::uint64_t seq =
      header_->slot_seq[slot].load(std::memory_order_acquire);
  if (seq != 2 * n + 2) {
    throw TransportError(
        "dist shm: slot rewritten during in-place read of message " +
        std::to_string(n) + " (sequence " + std::to_string(seq) + ")");
  }
  held_ = false;
  next_consume_ = n + 1;
  header_->tail.store(n + 1, std::memory_order_release);
  bump_and_wake(header_->tail_futex, header_->tail_waiters);
}

ShmPairSegment::ShmPairSegment(long pid, int rank_i, int rank_j,
                               std::size_t slot_bytes)
    : rank_i_(rank_i), rank_j_(rank_j) {
  slot_bytes_ = align_up(slot_bytes > 0 ? slot_bytes : 64, 64);
  map_bytes_ = kHeaderBytes + 2 * kSlots * slot_bytes_;
  const std::string name = shm_segment_name(pid, rank_i, rank_j);

  int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0 && errno == EEXIST) {
    // Debris from a crashed run that recycled our pid: reclaim the name.
    ::shm_unlink(name.c_str());
    fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  }
  if (fd < 0) throw_errno_shm("shm_open");
  if (::ftruncate(fd, static_cast<off_t>(map_bytes_)) != 0) {
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw_errno_shm("ftruncate");
  }
  void* mem = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                     fd, 0);
  // Unlink *before* any failure path can be skipped: forked ranks inherit
  // the mapping, not the name, so the /dev/shm entry has no further use —
  // and removing it here makes segment leaks impossible even under
  // SIGKILL.
  ::close(fd);
  ::shm_unlink(name.c_str());
  if (mem == MAP_FAILED) throw_errno_shm("mmap");
  base_ = static_cast<std::uint8_t*>(mem);
  // ftruncate zero-fills, but construct the headers properly anyway.
  new (base_) RingHeader{};
  new (base_ + sizeof(RingHeader)) RingHeader{};
}

ShmPairSegment::~ShmPairSegment() { unmap(); }

ShmPairSegment::ShmPairSegment(ShmPairSegment&& other) noexcept
    : rank_i_(other.rank_i_),
      rank_j_(other.rank_j_),
      base_(other.base_),
      map_bytes_(other.map_bytes_),
      slot_bytes_(other.slot_bytes_) {
  other.base_ = nullptr;
}

ShmPairSegment& ShmPairSegment::operator=(ShmPairSegment&& other) noexcept {
  if (this != &other) {
    unmap();
    rank_i_ = other.rank_i_;
    rank_j_ = other.rank_j_;
    base_ = other.base_;
    map_bytes_ = other.map_bytes_;
    slot_bytes_ = other.slot_bytes_;
    other.base_ = nullptr;
  }
  return *this;
}

void ShmPairSegment::unmap() {
  if (base_ != nullptr) {
    ::munmap(base_, map_bytes_);
    base_ = nullptr;
  }
}

ShmHalo ShmPairSegment::halo_for(int my_rank) const {
  WSMD_REQUIRE(base_ != nullptr, "dist shm: segment already unmapped");
  WSMD_REQUIRE(my_rank == rank_i_ || my_rank == rank_j_,
               "dist shm: rank " << my_rank << " is not a member of pair ("
                                 << rank_i_ << ", " << rank_j_ << ")");
  auto* ring_ij = reinterpret_cast<RingHeader*>(base_);
  auto* ring_ji = reinterpret_cast<RingHeader*>(base_ + sizeof(RingHeader));
  std::uint8_t* slots_ij = base_ + kHeaderBytes;
  std::uint8_t* slots_ji = slots_ij + kSlots * slot_bytes_;
  ShmHalo halo;
  if (my_rank == rank_i_) {
    halo.send = ShmRing(ring_ij, slots_ij, slot_bytes_);
    halo.recv = ShmRing(ring_ji, slots_ji, slot_bytes_);
  } else {
    halo.send = ShmRing(ring_ji, slots_ji, slot_bytes_);
    halo.recv = ShmRing(ring_ij, slots_ij, slot_bytes_);
  }
  return halo;
}

}  // namespace wsmd::dist
