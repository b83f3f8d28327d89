#include "dist/transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace wsmd::dist {

namespace {

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t tag = 0;
  std::uint64_t length = 0;
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(sizeof(FrameHeader) == 16);

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<long long>(left, 1 << 30));
}

[[noreturn]] void throw_errno(const char* op) {
  throw TransportError(std::string("dist transport: ") + op + " failed: " +
                       std::strerror(errno));
}

/// Poll for `events`; throws TimeoutError at the deadline.
void poll_or_throw(int fd, short events, Clock::time_point deadline,
                   const char* what) {
  for (;;) {
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, remaining_ms(deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (rc == 0) {
      throw TimeoutError(std::string("dist transport: timed out waiting for ") +
                         what);
    }
    return;
  }
}

void validate_header(const FrameHeader& h) {
  WSMD_REQUIRE(h.magic == kMagic, "dist: bad frame magic 0x"
                                      << std::hex << h.magic
                                      << " — peer is not a wsmd rank");
  if (h.version != kProtocolVersion) {
    throw TransportError("dist: protocol version mismatch (peer " +
                         std::to_string(h.version) + ", expected " +
                         std::to_string(kProtocolVersion) + ")");
  }
}

}  // namespace

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ChannelPair make_channel_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw_errno("socketpair");
  }
  ChannelPair pair;
  pair.a = Channel(fds[0]);
  pair.b = Channel(fds[1]);
  return pair;
}

void Channel::send(Tag tag, const void* payload, std::size_t size,
                   int timeout_ms) const {
  WSMD_REQUIRE(valid(), "dist: send on closed channel");
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  FrameHeader header;
  header.tag = static_cast<std::uint16_t>(tag);
  header.length = size;

  // Send header then payload; MSG_NOSIGNAL turns a dead peer into EPIPE
  // (PeerClosedError) instead of a process-killing SIGPIPE.
  const auto write_all = [&](const std::uint8_t* data, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      poll_or_throw(fd_, POLLOUT, deadline, "send buffer space");
      const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        if (errno == EPIPE || errno == ECONNRESET) {
          throw PeerClosedError("dist: peer closed during send");
        }
        throw_errno("send");
      }
      off += static_cast<std::size_t>(w);
    }
  };
  write_all(reinterpret_cast<const std::uint8_t*>(&header), sizeof(header));
  write_all(static_cast<const std::uint8_t*>(payload), size);
}

std::vector<std::uint8_t> Channel::recv(Tag expect, int timeout_ms) const {
  Tag tag;
  std::vector<std::uint8_t> payload = recv_any(tag, timeout_ms);
  if (tag != expect) {
    throw TransportError("dist: unexpected frame tag " +
                         std::to_string(static_cast<int>(tag)) +
                         " (expected " +
                         std::to_string(static_cast<int>(expect)) + ")");
  }
  return payload;
}

std::vector<std::uint8_t> Channel::recv_any(Tag& tag, int timeout_ms) const {
  WSMD_REQUIRE(valid(), "dist: recv on closed channel");
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);

  const auto read_all = [&](std::uint8_t* data, std::size_t n,
                            const char* what) {
    std::size_t off = 0;
    while (off < n) {
      poll_or_throw(fd_, POLLIN, deadline, what);
      const ssize_t r = ::recv(fd_, data + off, n - off, 0);
      if (r < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        if (errno == ECONNRESET) {
          throw PeerClosedError("dist: peer reset during recv");
        }
        throw_errno("recv");
      }
      if (r == 0) throw PeerClosedError("dist: peer closed (EOF)");
      off += static_cast<std::size_t>(r);
    }
  };

  FrameHeader header;
  read_all(reinterpret_cast<std::uint8_t*>(&header), sizeof(header),
           "frame header");
  validate_header(header);
  tag = static_cast<Tag>(header.tag);
  std::vector<std::uint8_t> payload(header.length);
  read_all(payload.data(), payload.size(), "frame payload");
  return payload;
}

}  // namespace wsmd::dist
