/// \file test_checkpoint.cpp
/// The checkpoint binary format (io/checkpoint): typed round-trips through
/// BinaryWriter/BinaryReader, full CheckpointData file round-trips (FP64
/// bit-exactness included), atomic write-then-rename, and the rejection
/// paths — bad magic, unsupported version, foreign endianness, truncation
/// at any point, and corrupt length prefixes must all fail with a clear
/// error instead of misreading state into a running simulation.

#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace wsmd::io {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "wsmd_ckpt_" + name;
}

CheckpointData sample_data() {
  CheckpointData d;
  d.element = "Cu";
  d.backend = "wafer-serial";
  d.box = Box({0, 0, 0}, {10, 12, 14}, {true, false, true});
  d.types = {0, 0, 0};
  d.deck = {{"name", "ckpt_test"}, {"element", "Cu"}, {"run", "10"}};
  d.engine.step = 17;
  d.engine.positions = {{1.0, 2.0, 3.0}, {0.1, 0.2, 0.3}, {4.5, 5.5, 6.5}};
  d.engine.velocities = {{0.25, -0.5, 0.75}, {1e-17, -1e300, 0.0}, {1, 2, 3}};
  d.engine.has_wafer = true;
  d.engine.potential_energy = -123.4567890123456789;
  d.engine.elapsed_seconds = 4.5e-6;
  d.engine.grid_width = 3;
  d.engine.grid_height = 2;
  d.engine.b = 2;
  d.engine.core_atoms = {0, -1, 2, 1, -1, -1};
  d.engine.initial_positions = d.engine.positions;
  d.stage_index = 2;
  d.stage_steps_done = 7;
  d.rng = {{11, 22, 33, 44}, true, 0.125};
  d.last_frame_step = 10;
  d.last_sample_step = 17;
  d.probes = {{"msd", std::string("\x00\x01\x02""binary", 9)},
              {"rdf", ""}};
  return d;
}

void expect_equal(const CheckpointData& a, const CheckpointData& b) {
  EXPECT_EQ(a.element, b.element);
  EXPECT_EQ(a.backend, b.backend);
  for (std::size_t ax = 0; ax < 3; ++ax) {
    EXPECT_EQ(a.box.lo[ax], b.box.lo[ax]);
    EXPECT_EQ(a.box.hi[ax], b.box.hi[ax]);
    EXPECT_EQ(a.box.periodic[ax], b.box.periodic[ax]);
  }
  EXPECT_EQ(a.types, b.types);
  EXPECT_EQ(a.deck, b.deck);
  EXPECT_EQ(a.engine.step, b.engine.step);
  ASSERT_EQ(a.engine.positions.size(), b.engine.positions.size());
  for (std::size_t i = 0; i < a.engine.positions.size(); ++i) {
    for (std::size_t ax = 0; ax < 3; ++ax) {
      // Bit-exact: checkpoints must not round FP64 state.
      EXPECT_EQ(a.engine.positions[i][ax], b.engine.positions[i][ax]);
      EXPECT_EQ(a.engine.velocities[i][ax], b.engine.velocities[i][ax]);
    }
  }
  EXPECT_EQ(a.engine.has_wafer, b.engine.has_wafer);
  EXPECT_EQ(a.engine.potential_energy, b.engine.potential_energy);
  EXPECT_EQ(a.engine.elapsed_seconds, b.engine.elapsed_seconds);
  EXPECT_EQ(a.engine.grid_width, b.engine.grid_width);
  EXPECT_EQ(a.engine.grid_height, b.engine.grid_height);
  EXPECT_EQ(a.engine.b, b.engine.b);
  EXPECT_EQ(a.engine.core_atoms, b.engine.core_atoms);
  EXPECT_EQ(a.stage_index, b.stage_index);
  EXPECT_EQ(a.stage_steps_done, b.stage_steps_done);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(a.rng.s[k], b.rng.s[k]);
  EXPECT_EQ(a.rng.has_spare, b.rng.has_spare);
  EXPECT_EQ(a.rng.spare, b.rng.spare);
  EXPECT_EQ(a.last_frame_step, b.last_frame_step);
  EXPECT_EQ(a.last_sample_step, b.last_sample_step);
  EXPECT_EQ(a.probes, b.probes);
}

TEST(BinaryRoundTrip, PrimitivesAndVectors) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter w(os);
  w.u8(250);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-0.1);
  w.str("hello\0world");
  w.vec3s({{1.5, -2.5, 3.5}});
  w.longs({-1, 0, 7});
  w.ints({3, -4});
  w.f64s({1e-300, 2e300});

  std::istringstream is(os.str(), std::ios::binary);
  BinaryReader r(is, "test");
  EXPECT_EQ(r.u8(), 250);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_EQ(r.str(), std::string("hello\0world"));
  const auto v3 = r.vec3s();
  ASSERT_EQ(v3.size(), 1u);
  EXPECT_EQ(v3[0].y, -2.5);
  EXPECT_EQ(r.longs(), (std::vector<long>{-1, 0, 7}));
  EXPECT_EQ(r.ints(), (std::vector<int>{3, -4}));
  EXPECT_EQ(r.f64s(), (std::vector<double>{1e-300, 2e300}));
}

TEST(BinaryRoundTrip, ReaderThrowsOnTruncation) {
  std::istringstream is(std::string("ab"), std::ios::binary);
  BinaryReader r(is, "short");
  EXPECT_THROW((void)r.u64(), wsmd::Error);
}

TEST(CheckpointFile, RoundTripsEveryField) {
  const auto path = tmp_path("roundtrip.ckpt");
  const auto original = sample_data();
  write_checkpoint_file(path, original);
  const auto restored = read_checkpoint_file(path);
  expect_equal(original, restored);
  // The atomic write leaves no temporary behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsBadMagic) {
  const auto path = tmp_path("magic.ckpt");
  std::ofstream(path, std::ios::binary) << "NOTACKPTxxxxxxxxxxxxxxxx";
  try {
    read_checkpoint_file(path);
    FAIL() << "bad magic accepted";
  } catch (const wsmd::Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsVersionMismatch) {
  const auto path = tmp_path("version.ckpt");
  write_checkpoint_file(path, sample_data());
  // Patch the version field (bytes 8..11) to a future version.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    const std::uint32_t future = kCheckpointVersion + 7;
    f.write(reinterpret_cast<const char*>(&future), sizeof future);
  }
  try {
    read_checkpoint_file(path);
    FAIL() << "future version accepted";
  } catch (const wsmd::Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsForeignEndianness) {
  const auto path = tmp_path("endian.ckpt");
  write_checkpoint_file(path, sample_data());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);  // endian tag follows magic + version
    const std::uint32_t swapped = 0x04030201u;
    f.write(reinterpret_cast<const char*>(&swapped), sizeof swapped);
  }
  try {
    read_checkpoint_file(path);
    FAIL() << "foreign endianness accepted";
  } catch (const wsmd::Error& e) {
    EXPECT_NE(std::string(e.what()).find("endian"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsTruncationAtEveryPrefix) {
  std::ostringstream os(std::ios::binary);
  write_checkpoint(os, sample_data());
  const std::string full = os.str();
  // Chop the file at several depths, including one byte short of complete
  // (the end marker catches even that).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{20}, full.size() / 2,
        full.size() - 1}) {
    std::istringstream is(full.substr(0, keep), std::ios::binary);
    EXPECT_THROW(read_checkpoint(is, "truncated"), wsmd::Error)
        << "accepted a checkpoint truncated to " << keep << " bytes";
  }
}

TEST(CheckpointFile, RejectsCorruptLengthPrefix) {
  std::ostringstream os(std::ios::binary);
  write_checkpoint(os, sample_data());
  std::string bytes = os.str();
  // The element-string length prefix sits right after the 16-byte header;
  // blow it up to an absurd count.
  const std::uint64_t absurd = ~0ull;
  std::memcpy(bytes.data() + 16, &absurd, sizeof absurd);
  std::istringstream is(bytes, std::ios::binary);
  try {
    read_checkpoint(is, "corrupt");
    FAIL() << "corrupt length prefix accepted";
  } catch (const wsmd::Error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFile, MissingFileFailsWithPath) {
  try {
    read_checkpoint_file(tmp_path("does_not_exist.ckpt"));
    FAIL() << "missing file accepted";
  } catch (const wsmd::Error& e) {
    EXPECT_NE(std::string(e.what()).find("does_not_exist"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace wsmd::io
