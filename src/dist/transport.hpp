#pragma once

/// \file transport.hpp
/// Framed message transport over AF_UNIX stream socketpairs: the
/// coordinator <-> rank control plane. Halo payloads never ride it — they
/// travel through the per-pair shared-memory rings (shm_channel.hpp),
/// whose peer socketpair only serves as the pair's death canary.
///
/// Wire format: every message is one frame — a fixed header
/// {magic "WSMD", protocol version, 16-bit tag, 64-bit payload length}
/// followed by the raw payload bytes. Both ends live on the same host
/// (fork, no exec), so payloads are memcpy'd PODs and packed arrays with
/// no byte-order translation; the magic + version check still rejects a
/// peer from a different build generation at handshake time.
///
/// Blocking discipline: all operations poll with a deadline. A receive
/// that sees EOF throws PeerClosedError (how a dead rank is detected —
/// the kernel closes its socket ends, so failure propagates to every
/// peer without heartbeat traffic); a deadline miss throws TimeoutError
/// (how a *hung* rank is detected).

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace wsmd::dist {

/// Transport failures that are *not* precondition bugs: the peer vanished
/// or stopped responding. The distributed engine converts these into
/// RankFailureError with rank attribution.
class TransportError : public Error {
 public:
  explicit TransportError(const std::string& what) : Error(what) {}
};
class PeerClosedError : public TransportError {
 public:
  explicit PeerClosedError(const std::string& what) : TransportError(what) {}
};
class TimeoutError : public TransportError {
 public:
  explicit TimeoutError(const std::string& what) : TransportError(what) {}
};

constexpr std::uint32_t kMagic = 0x444D5357;  // "WSMD" little-endian
constexpr std::uint16_t kProtocolVersion = 1;

/// Message tags. The control-plane frames and the shm ring messages share
/// one numbering so a crossed wire fails loudly.
enum class Tag : std::uint16_t {
  kHello = 1,       ///< rank -> coordinator: Handshake
  kHelloAck = 2,    ///< coordinator -> rank: Handshake echo
  kStep = 3,        ///< coordinator -> rank: advance one timestep
  kStepDone = 4,    ///< rank -> coordinator: StepRecord
  kThermalize = 5,  ///< coordinator -> rank: {T, RngState}
  kOk = 6,          ///< rank -> coordinator: generic ack
  kGatherState = 7,  ///< coordinator -> rank: request owned pos+vel
  kStateSlice = 8,   ///< rank -> coordinator: packed f32 pos+vel
  kSetVelocities = 11,  ///< coordinator -> rank: full f64 velocities
  kEvalPe = 12,         ///< coordinator -> rank: evaluate region PE
  kPePartial = 13,      ///< rank -> coordinator: {embed, pair}
  kKinetic = 14,        ///< coordinator -> rank: evaluate region KE
  kKePartial = 15,      ///< rank -> coordinator: {ke}
  kShutdown = 16,       ///< coordinator -> rank: clean exit
  kBye = 17,            ///< rank -> coordinator: shutdown ack
  kSwapPartners = 18,   ///< rank -> coordinator: strip partner slots
  kSwapMerged = 19,     ///< coordinator -> rank: full partner array
  kHaloFprime = 32,     ///< rank <-> rank: packed f32 F' rows
  kHaloState = 33,      ///< rank <-> rank: packed f32 pos+vel rows
};

/// Handshake body, sent by each rank right after fork and echoed back by
/// the coordinator. Any mismatch aborts construction with a message naming
/// the field — the versioned guard against driving ranks from a different
/// build or decomposition.
struct Handshake {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t rank = 0;
  std::uint16_t world = 0;
  std::uint16_t pad = 0;
  std::uint64_t atoms = 0;
  std::int32_t grid_width = 0;
  std::int32_t grid_height = 0;
  std::int32_t b = 0;
  std::int32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<Handshake>);

/// One end of a socketpair, owning the fd. Move-only.
class Channel {
 public:
  Channel() = default;
  explicit Channel(int fd) : fd_(fd) {}
  ~Channel() { close(); }
  Channel(Channel&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Channel& operator=(Channel&& other) noexcept;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Send one frame. Blocks (polling POLLOUT) until fully written or the
  /// deadline passes.
  void send(Tag tag, const void* payload, std::size_t size,
            int timeout_ms) const;

  /// Receive one frame; the header must carry `expect` (a crossed wire is
  /// a protocol bug, reported as TransportError with both tags).
  std::vector<std::uint8_t> recv(Tag expect, int timeout_ms) const;

  /// Receive one frame of any tag (the rank command loop's dispatcher).
  std::vector<std::uint8_t> recv_any(Tag& tag, int timeout_ms) const;

  /// Typed helpers for trivially-copyable bodies.
  template <typename T>
  void send_pod(Tag tag, const T& body, int timeout_ms) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send(tag, &body, sizeof(T), timeout_ms);
  }
  template <typename T>
  T recv_pod(Tag expect, int timeout_ms) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::uint8_t> bytes = recv(expect, timeout_ms);
    WSMD_REQUIRE(bytes.size() == sizeof(T),
                 "dist: frame size mismatch for tag "
                     << static_cast<int>(expect) << " (" << bytes.size()
                     << " vs " << sizeof(T) << ")");
    T body;
    std::memcpy(&body, bytes.data(), sizeof(T));
    return body;
  }

 private:
  int fd_ = -1;
};

/// A connected AF_UNIX stream pair (SOCK_STREAM socketpair).
struct ChannelPair {
  Channel a;
  Channel b;
};
ChannelPair make_channel_pair();

/// Serialization scratch: append/extract PODs and POD arrays to a byte
/// buffer in declaration order. Writer and reader are the same build, so
/// layout agreement is by construction.
class Packer {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&v, sizeof(T));
  }
  template <typename T>
  void put_array(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(static_cast<std::uint64_t>(count));
    append(data, count * sizeof(T));
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  void clear() { bytes_.clear(); }

 private:
  void append(const void* p, std::size_t n) {
    if (n == 0) return;  // an empty array's data() may be null
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    std::memcpy(bytes_.data() + at, p, n);
  }
  std::vector<std::uint8_t> bytes_;
};

class Unpacker {
 public:
  explicit Unpacker(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    WSMD_REQUIRE(pos_ + sizeof(T) <= bytes_.size(),
                 "dist: truncated frame payload");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> get_array() {
    const auto count = static_cast<std::size_t>(get<std::uint64_t>());
    WSMD_REQUIRE(pos_ + count * sizeof(T) <= bytes_.size(),
                 "dist: truncated frame payload");
    std::vector<T> out(count);
    std::memcpy(out.data(), bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return out;
  }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace wsmd::dist
