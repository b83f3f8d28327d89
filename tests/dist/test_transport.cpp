/// \file test_transport.cpp
/// Framed socketpair transport: POD round-trips, handshake-grade header
/// validation (magic, version, tag), deadline and EOF error mapping, and
/// the Packer/Unpacker serialization bounds.

#include "dist/transport.hpp"

#include <unistd.h>

#include "dist/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace wsmd::dist {
namespace {

constexpr int kMs = 5'000;

TEST(Transport, PodRoundTrip) {
  auto pair = make_channel_pair();
  Handshake out;
  out.rank = 3;
  out.world = 4;
  out.atoms = 123456;
  out.grid_width = 17;
  pair.a.send_pod(Tag::kHello, out, kMs);
  const auto in = pair.b.recv_pod<Handshake>(Tag::kHello, kMs);
  EXPECT_EQ(in.rank, 3);
  EXPECT_EQ(in.world, 4);
  EXPECT_EQ(in.atoms, 123456u);
  EXPECT_EQ(in.grid_width, 17);
}

TEST(Transport, EmptyPayloadAndTagDispatch) {
  auto pair = make_channel_pair();
  pair.a.send(Tag::kEvalPe, nullptr, 0, kMs);
  Tag tag;
  const auto payload = pair.b.recv_any(tag, kMs);
  EXPECT_EQ(tag, Tag::kEvalPe);
  EXPECT_TRUE(payload.empty());
}

TEST(Transport, WrongTagThrows) {
  auto pair = make_channel_pair();
  pair.a.send_pod(Tag::kOk, Ack{}, kMs);
  EXPECT_THROW(pair.b.recv(Tag::kStepDone, kMs), TransportError);
}

TEST(Transport, VersionMismatchRejected) {
  auto pair = make_channel_pair();
  // Handcraft a frame from a "future build": right magic, wrong version.
  struct {
    std::uint32_t magic = kMagic;
    std::uint16_t version = kProtocolVersion + 1;
    std::uint16_t tag = 1;
    std::uint64_t length = 0;
  } header;
  ASSERT_EQ(::write(pair.a.fd(), &header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  try {
    pair.b.recv(Tag::kHello, kMs);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Transport, BadMagicRejected) {
  auto pair = make_channel_pair();
  struct {
    std::uint32_t magic = 0xDEADBEEF;
    std::uint16_t version = kProtocolVersion;
    std::uint16_t tag = 1;
    std::uint64_t length = 0;
  } header;
  ASSERT_EQ(::write(pair.a.fd(), &header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  EXPECT_THROW(pair.b.recv(Tag::kHello, kMs), Error);
}

TEST(Transport, RecvTimesOutWithoutTraffic) {
  auto pair = make_channel_pair();
  EXPECT_THROW(pair.b.recv(Tag::kHello, 50), TimeoutError);
}

TEST(Transport, PeerCloseIsEofNotHang) {
  auto pair = make_channel_pair();
  pair.a.close();
  EXPECT_THROW(pair.b.recv(Tag::kHello, kMs), PeerClosedError);
}

TEST(Transport, SendToClosedPeerThrowsPeerClosed) {
  auto pair = make_channel_pair();
  pair.b.close();
  const std::vector<std::uint8_t> big(1 << 20, 0x55);
  EXPECT_THROW(pair.a.send(Tag::kHaloState, big.data(), big.size(), kMs),
               PeerClosedError);
}

TEST(PackerUnpacker, RoundTripAndBounds) {
  Packer p;
  p.put(std::int32_t{-7});
  const double values[3] = {1.5, -2.25, 3.75};
  p.put_array(values, 3);
  p.put(std::uint64_t{42});

  Unpacker u(p.bytes());
  EXPECT_EQ(u.get<std::int32_t>(), -7);
  const auto arr = u.get_array<double>();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[1], -2.25);
  EXPECT_EQ(u.get<std::uint64_t>(), 42u);
  EXPECT_TRUE(u.done());

  // Reading past the end is a loud error, not garbage.
  EXPECT_THROW(u.get<std::uint8_t>(), Error);
}

}  // namespace
}  // namespace wsmd::dist
