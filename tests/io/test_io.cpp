/// \file test_io.cpp
/// The trajectory/thermo I/O layer: round-trip fidelity (what the writers
/// emit, the readers parse back bit-identically where the format allows)
/// and NaN/inf rejection — a non-finite value must never silently reach a
/// trajectory or golden file.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "io/thermo_log.hpp"
#include "io/trajectory.hpp"
#include "io/xyz.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace wsmd {
namespace {

lattice::Structure tiny_structure() {
  lattice::Structure s;
  s.box = Box({0, 0, 0}, {10, 10, 10});
  s.positions = {{1.0, 2.0, 3.0}, {4.5, 5.25, 6.125}, {7.0, 8.0, 9.0}};
  s.types = {0, 1, 0};
  return s;
}

TEST(Xyz, SingleFrameRoundTrip) {
  const auto s = tiny_structure();
  std::stringstream ss;
  io::write_xyz_frame(ss, s, {"Cu", "W"}, "test frame");
  const auto frames = io::read_xyz(ss);
  ASSERT_EQ(frames.size(), 1u);
  const auto& f = frames[0];
  ASSERT_EQ(f.size(), s.size());
  EXPECT_EQ(f.species[0], "Cu");
  EXPECT_EQ(f.species[1], "W");
  EXPECT_EQ(f.species[2], "Cu");
  for (std::size_t i = 0; i < s.size(); ++i) {
    // %10g precision: round-trip within 1e-9 relative.
    EXPECT_NEAR(f.positions[i].x, s.positions[i].x, 1e-8);
    EXPECT_NEAR(f.positions[i].y, s.positions[i].y, 1e-8);
    EXPECT_NEAR(f.positions[i].z, s.positions[i].z, 1e-8);
  }
  EXPECT_NE(f.comment.find("Lattice="), std::string::npos);
}

TEST(Xyz, RejectsNonFinitePositions) {
  auto s = tiny_structure();
  s.positions[1].y = std::numeric_limits<double>::quiet_NaN();
  std::stringstream ss;
  EXPECT_THROW(io::write_xyz_frame(ss, s, {"Cu", "W"}), Error);
  s.positions[1].y = std::numeric_limits<double>::infinity();
  EXPECT_THROW(io::write_xyz_frame(ss, s, {"Cu", "W"}), Error);
}

TEST(Xyz, RejectsUnnamedType) {
  const auto s = tiny_structure();  // types 0 and 1
  std::stringstream ss;
  EXPECT_THROW(io::write_xyz_frame(ss, s, {"Cu"}), Error);
}

/// The frame an ostream at precision(10) writes: the byte-for-byte
/// specification of write_xyz_frame.
std::string ostream_frame(const Box& box, const std::vector<Vec3d>& positions,
                          const std::vector<int>& types,
                          const std::vector<std::string>& names,
                          const std::string& comment) {
  std::ostringstream os;
  os.precision(10);
  os << positions.size() << '\n';
  const Vec3d len = box.lengths();
  os << "Lattice=\"" << len.x << " 0 0 0 " << len.y << " 0 0 0 " << len.z
     << "\" Properties=species:S:1:pos:R:3";
  if (!comment.empty()) os << ' ' << comment;
  os << '\n';
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3d& r = positions[i];
    os << names[static_cast<std::size_t>(types[i])] << ' ' << r.x << ' '
       << r.y << ' ' << r.z << '\n';
  }
  return os.str();
}

std::string written_frame(const Box& box, const std::vector<Vec3d>& positions,
                          const std::vector<int>& types,
                          const std::vector<std::string>& names,
                          const std::string& comment) {
  std::ostringstream os;
  io::write_xyz_frame(os, box, positions, types, names, comment);
  return os.str();
}

TEST(Xyz, FrameBytesMatchOstreamAtPrecision10) {
  // Zeros of both signs, tiny and huge magnitudes (exponent form), more
  // digits than fit, negatives, and values whose 10th digit rounds up
  // into a carry (9.99999999996 -> "10", 9999999999.7 -> "1e+10").
  const std::vector<double> values = {
      0.0,           -0.0,           1e-7,           1e+16,
      123456.78901234, -123456.78901234, -2.5,       -1e-7,
      9.99999999996, 0.099999999996, 9999999999.7,  -999999.99999999,
      1e-5,          1e-4,           1234567890.0,   12345678901.0,
      5e-324,        1.7976931348623157e308, 0.1,    1.0 / 3.0};
  std::vector<Vec3d> positions;
  std::vector<int> types;
  for (std::size_t i = 0; i < values.size(); ++i) {
    positions.push_back({values[i], values[(i + 7) % values.size()],
                         values[(i + 13) % values.size()]});
    types.push_back(static_cast<int>(i % 2));
  }
  const std::vector<std::string> names{"Ta", "W"};
  const Box box({-0.5, 0.0, 0.0}, {33.0000000004, 1e-7, 123456.78901234});
  for (const std::string comment : {"", "step=20 E=-1.5 T=300"}) {
    EXPECT_EQ(written_frame(box, positions, types, names, comment),
              ostream_frame(box, positions, types, names, comment));
  }
}

TEST(Xyz, FrameLargerThanTheWriteBufferMatchesOstream) {
  // ~250 KB of rows plus a 70,000-character comment: both cross the
  // writer's 64 KiB buffer.
  Rng rng(2024);
  std::vector<Vec3d> positions(6000);
  std::vector<int> types(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    positions[i] = {rng.uniform() * 400.0 - 200.0, rng.uniform() * 1e-3,
                    rng.gaussian() * 1e6};
    types[i] = static_cast<int>(i % 3);
  }
  const std::vector<std::string> names{"Cu", "W", "Ta"};
  const Box box({0, 0, 0}, {400.0, 250.5, 64.25});
  const std::string long_comment(70000, 'c');
  for (const std::string& comment : {std::string("big"), long_comment}) {
    const std::string bytes =
        written_frame(box, positions, types, names, comment);
    EXPECT_GT(bytes.size(), 128u * 1024u);
    EXPECT_EQ(bytes, ostream_frame(box, positions, types, names, comment));
  }
}

TEST(Xyz, NonFinitePositionThrowsBeforeAnyByte) {
  // The bad atom is the last of a frame larger than the write buffer, so
  // a writer that validated as it went would already have flushed bytes.
  std::vector<Vec3d> positions(6000, Vec3d{1.0, 2.0, 3.0});
  const std::vector<int> types(positions.size(), 0);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    positions.back().y = bad;
    std::ostringstream os;
    EXPECT_THROW(io::write_xyz_frame(os, Box({0, 0, 0}, {10, 10, 10}),
                                     positions, types, {"Cu"}),
                 Error);
    EXPECT_TRUE(os.str().empty());
  }
}

TEST(Xyz, ReaderRejectsTruncatedFrame) {
  std::stringstream ss("3\ncomment\nCu 1 2 3\nCu 4 5 6\n");
  EXPECT_THROW(io::read_xyz(ss), Error);
}

TEST(Xyz, ReaderRejectsNonFiniteRow) {
  std::stringstream ss("1\ncomment\nCu nan 2 3\n");
  EXPECT_THROW(io::read_xyz(ss), Error);
}

TEST(Trajectory, MultiFrameRoundTrip) {
  const auto s = tiny_structure();
  const std::string path = ::testing::TempDir() + "wsmd_traj_test.xyz";
  {
    io::XyzTrajectoryWriter w(path, {"Cu", "W"});
    auto moving = s.positions;
    for (int frame = 0; frame < 4; ++frame) {
      w.append(s.box, moving, s.types, "step=" + std::to_string(frame));
      for (auto& r : moving) r.x += 0.25;
    }
    EXPECT_EQ(w.frames_written(), 4u);
  }
  const auto frames = io::read_xyz_file(path);
  ASSERT_EQ(frames.size(), 4u);
  for (int frame = 0; frame < 4; ++frame) {
    const auto& f = frames[static_cast<std::size_t>(frame)];
    ASSERT_EQ(f.size(), s.size());
    EXPECT_NEAR(f.positions[0].x, s.positions[0].x + 0.25 * frame, 1e-8);
    EXPECT_NE(f.comment.find("step=" + std::to_string(frame)),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Trajectory, AppendRejectsNaNWithoutTruncatingTheFile) {
  const auto s = tiny_structure();
  const std::string path = ::testing::TempDir() + "wsmd_traj_nan.xyz";
  io::XyzTrajectoryWriter w(path, {"Cu", "W"});
  w.append(s.box, s.positions, s.types);
  auto bad = s.positions;
  bad[0].z = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(w.append(s.box, bad, s.types), Error);
  EXPECT_EQ(w.frames_written(), 1u);
  // Validation happens before any bytes are emitted, so the earlier frame
  // stays readable — a NaN must not poison the trajectory file.
  const auto frames = io::read_xyz_file(path);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].size(), s.size());
  std::remove(path.c_str());
}

/// Open /dev/full (every write fails with ENOSPC), or skip the test on a
/// system without it.
#define REQUIRE_DEV_FULL()                                       \
  do {                                                           \
    if (!std::ofstream("/dev/full").good()) {                    \
      GTEST_SKIP() << "/dev/full cannot be opened for writing";  \
    }                                                            \
  } while (false)

TEST(Trajectory, FullDiskRaisesWriteError) {
  REQUIRE_DEV_FULL();
  const auto s = tiny_structure();
  io::XyzTrajectoryWriter w("/dev/full", {"Cu", "W"});
  try {
    w.append(s.box, s.positions, s.types);
    FAIL() << "a frame written to a full disk must not pass silently";
  } catch (const WriteError& ex) {
    EXPECT_EQ(ex.path(), "/dev/full");
  }
  EXPECT_EQ(w.frames_written(), 0u);
}

TEST(Xyz, WriteFileToFullDiskRaisesWriteError) {
  REQUIRE_DEV_FULL();
  EXPECT_THROW(io::write_xyz_file("/dev/full", tiny_structure(), {"Cu", "W"}),
               WriteError);
}

TEST(ThermoLog, FinishOnFullDiskRaisesWriteError) {
  REQUIRE_DEV_FULL();
  io::ThermoLogger log("/dev/full", io::ThermoFormat::kCsv);
  Thermo s;
  s.step = 1;
  log.write(s);  // buffered: the failure shows when the rows flush
  try {
    log.finish();
    FAIL() << "a thermo log on a full disk must not finish silently";
  } catch (const WriteError& ex) {
    EXPECT_EQ(ex.path(), "/dev/full");
    EXPECT_NE(std::string(ex.what()).find("/dev/full"), std::string::npos);
  }
}

TEST(ThermoLog, FinishSucceedsOnAWorkingStream) {
  std::stringstream ss;
  io::ThermoLogger log(ss, io::ThermoFormat::kCsv);
  Thermo s;
  s.step = 4;
  log.write(s);
  EXPECT_NO_THROW(log.finish());
  EXPECT_EQ(io::read_thermo_csv(ss).size(), 1u);
}

TEST(ThermoLog, CsvRoundTripIsExact) {
  std::stringstream ss;
  std::vector<Thermo> in;
  for (int k = 0; k < 5; ++k) {
    Thermo s;
    s.step = k * 10;
    s.potential_energy = -2720.182091791 + 0.137 * k;
    s.kinetic_energy = 32.3821242393 * (k + 1) / 5.0;
    s.total_energy = s.potential_energy + s.kinetic_energy;
    s.temperature = 289.9528916 + k;
    in.push_back(s);
  }
  {
    io::ThermoLogger log(ss, io::ThermoFormat::kCsv);
    for (const auto& s : in) log.write(s);
    EXPECT_EQ(log.samples_written(), in.size());
  }
  const auto out = io::read_thermo_csv(ss);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t k = 0; k < in.size(); ++k) {
    // 17 significant digits: doubles round-trip bit-exactly.
    EXPECT_EQ(out[k].step, in[k].step);
    EXPECT_EQ(out[k].potential_energy, in[k].potential_energy);
    EXPECT_EQ(out[k].kinetic_energy, in[k].kinetic_energy);
    EXPECT_EQ(out[k].total_energy, in[k].total_energy);
    EXPECT_EQ(out[k].temperature, in[k].temperature);
  }
}

TEST(ThermoLog, RejectsNonFiniteSamples) {
  std::stringstream ss;
  io::ThermoLogger log(ss, io::ThermoFormat::kCsv);
  Thermo s;
  s.step = 1;
  s.potential_energy = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(log.write(s), Error);
  s.potential_energy = 0.0;
  s.temperature = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(log.write(s), Error);
  s.temperature = 300.0;
  log.write(s);  // sane sample still accepted afterwards
  EXPECT_EQ(log.samples_written(), 1u);
}

TEST(ThermoLog, RejectsBackwardsSteps) {
  std::stringstream ss;
  io::ThermoLogger log(ss, io::ThermoFormat::kCsv);
  Thermo s;
  s.step = 10;
  log.write(s);
  s.step = 10;
  log.write(s);  // equal steps allowed (e.g. post-thermalize resample)
  s.step = 9;
  EXPECT_THROW(log.write(s), Error);
}

TEST(ThermoLog, JsonLinesEmitsOneObjectPerSample) {
  std::stringstream ss;
  {
    io::ThermoLogger log(ss, io::ThermoFormat::kJsonLines);
    Thermo s;
    s.step = 3;
    s.potential_energy = -1.5;
    s.total_energy = -1.25;
    s.kinetic_energy = 0.25;
    s.temperature = 12.5;
    log.write(s);
  }
  const std::string line = ss.str();
  EXPECT_NE(line.find("\"step\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"temperature_K\": 12.5"), std::string::npos);
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one line
}

TEST(ThermoLog, ReaderRejectsBadHeader) {
  std::stringstream ss("step,foo\n1,2\n");
  EXPECT_THROW(io::read_thermo_csv(ss), Error);
}

TEST(ThermoLog, ReaderRejectsMalformedRow) {
  std::stringstream ss(
      "step,potential_eV,kinetic_eV,total_eV,temperature_K\n"
      "abc,1,2,3,4\n");
  EXPECT_THROW(io::read_thermo_csv(ss), Error);
  // Trailing garbage must not silently truncate (e.g. a bad merge).
  std::stringstream ss2(
      "step,potential_eV,kinetic_eV,total_eV,temperature_K\n"
      "50abc,1,2,3,4\n");
  EXPECT_THROW(io::read_thermo_csv(ss2), Error);
  std::stringstream ss3(
      "step,potential_eV,kinetic_eV,total_eV,temperature_K\n"
      "50,-2720.18<<<,2,3,4\n");
  EXPECT_THROW(io::read_thermo_csv(ss3), Error);
}

TEST(Xyz, ReaderRejectsNegativeAtomCount) {
  std::stringstream ss("-3\ncomment\n");
  EXPECT_THROW(io::read_xyz(ss), Error);
}

TEST(ThermoLog, FormatNames) {
  EXPECT_EQ(io::thermo_format_from_name("csv"), io::ThermoFormat::kCsv);
  EXPECT_EQ(io::thermo_format_from_name("jsonl"),
            io::ThermoFormat::kJsonLines);
  EXPECT_THROW(io::thermo_format_from_name("xml"), Error);
}

}  // namespace
}  // namespace wsmd
