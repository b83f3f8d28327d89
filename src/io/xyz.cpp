#include "io/xyz.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string_view>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::io {

namespace {

/// Bounded formatting buffer in front of an ostream: text is appended with
/// std::to_chars and leaves in os.write blocks of at most kCapacity bytes
/// (call flush() for the rest). A double prints as `%.10g` does, the bytes
/// an ostream writes at precision(10) with default flags.
class FrameBuffer {
 public:
  explicit FrameBuffer(std::ostream& os) : os_(os), buf_(kCapacity) {}

  void put(char c) {
    reserve(1);
    buf_[n_++] = c;
  }
  void put(std::string_view s) {
    if (s.size() > kCapacity) {
      flush();
      os_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return;
    }
    reserve(s.size());
    std::memcpy(buf_.data() + n_, s.data(), s.size());
    n_ += s.size();
  }
  void put(double v) {
    reserve(kMaxNumber);
    n_ = end_of(std::to_chars(buf_.data() + n_, buf_.data() + kCapacity, v,
                              std::chars_format::general, 10));
  }
  void put(std::size_t v) {
    reserve(kMaxNumber);
    n_ = end_of(
        std::to_chars(buf_.data() + n_, buf_.data() + kCapacity, v));
  }
  void flush() {
    if (n_ == 0) return;
    os_.write(buf_.data(), static_cast<std::streamsize>(n_));
    n_ = 0;
  }

 private:
  static constexpr std::size_t kCapacity = 64 * 1024;
  /// Room for one formatted number (`%.10g` needs at most 17 chars).
  static constexpr std::size_t kMaxNumber = 32;

  void reserve(std::size_t bytes) {
    if (n_ + bytes > kCapacity) flush();
  }
  std::size_t end_of(std::to_chars_result r) const {
    return static_cast<std::size_t>(r.ptr - buf_.data());
  }

  std::ostream& os_;
  std::vector<char> buf_;
  std::size_t n_ = 0;
};

}  // namespace

void write_xyz_frame(std::ostream& os, const Box& box,
                     const std::vector<Vec3d>& positions,
                     const std::vector<int>& types,
                     const std::vector<std::string>& names,
                     const std::string& comment) {
  WSMD_REQUIRE(positions.size() == types.size(),
               "positions/types size mismatch: " << positions.size() << " vs "
                                                 << types.size());
  // Validate before emitting anything: throwing mid-frame would leave a
  // truncated frame on disk that the reader (rightly) rejects wholesale.
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3d& r = positions[i];
    WSMD_REQUIRE(std::isfinite(r.x) && std::isfinite(r.y) &&
                     std::isfinite(r.z),
                 "non-finite position for atom " << i << " (" << r.x << ", "
                                                 << r.y << ", " << r.z
                                                 << ")");
    WSMD_REQUIRE(static_cast<std::size_t>(types[i]) < names.size(),
                 "atom type without a species name");
  }
  // Cell and positions alike at 10 significant digits.
  FrameBuffer out(os);
  out.put(positions.size());
  out.put('\n');
  const Vec3d len = box.lengths();
  out.put("Lattice=\"");
  out.put(len.x);
  out.put(" 0 0 0 ");
  out.put(len.y);
  out.put(" 0 0 0 ");
  out.put(len.z);
  out.put("\" Properties=species:S:1:pos:R:3");
  if (!comment.empty()) {
    out.put(' ');
    out.put(comment);
  }
  out.put('\n');
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3d& r = positions[i];
    out.put(names[static_cast<std::size_t>(types[i])]);
    out.put(' ');
    out.put(r.x);
    out.put(' ');
    out.put(r.y);
    out.put(' ');
    out.put(r.z);
    out.put('\n');
  }
  out.flush();
}

void write_xyz_frame(std::ostream& os, const lattice::Structure& s,
                     const std::vector<std::string>& names,
                     const std::string& comment) {
  write_xyz_frame(os, s.box, s.positions, s.types, names, comment);
}

void write_xyz_file(const std::string& path, const lattice::Structure& s,
                    const std::vector<std::string>& names,
                    const std::string& comment) {
  std::ofstream os(path);
  WSMD_REQUIRE(os.good(), "cannot open '" << path << "' for writing");
  write_xyz_frame(os, s, names, comment);
  os.flush();
  if (!os.good()) throw WriteError(path, "");
}

std::vector<XyzFrame> read_xyz(std::istream& is) {
  std::vector<XyzFrame> frames;
  std::string line;
  while (std::getline(is, line)) {
    if (trim(line).empty()) continue;  // tolerate trailing blank lines
    long count = -1;
    WSMD_REQUIRE(parse_long_strict(trim(line), count) && count >= 0,
                 "expected atom count, got '" << line << "'");
    const auto natoms = static_cast<std::size_t>(count);
    XyzFrame frame;
    WSMD_REQUIRE(static_cast<bool>(std::getline(is, frame.comment)),
                 "truncated XYZ frame: missing comment line");
    frame.species.reserve(natoms);
    frame.positions.reserve(natoms);
    for (std::size_t i = 0; i < natoms; ++i) {
      WSMD_REQUIRE(static_cast<bool>(std::getline(is, line)),
                   "truncated XYZ frame: " << i << " of " << natoms
                                           << " atom rows");
      const auto fields = split_whitespace(line);
      WSMD_REQUIRE(fields.size() >= 4,
                   "bad XYZ atom row '" << line << "'");
      Vec3d r;
      WSMD_REQUIRE(parse_double_strict(fields[1], r.x) &&
                       parse_double_strict(fields[2], r.y) &&
                       parse_double_strict(fields[3], r.z),
                   "bad XYZ atom row '" << line << "'");
      WSMD_REQUIRE(std::isfinite(r.x) && std::isfinite(r.y) &&
                       std::isfinite(r.z),
                   "non-finite position in XYZ row '" << line << "'");
      frame.species.push_back(fields[0]);
      frame.positions.push_back(r);
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<XyzFrame> read_xyz_file(const std::string& path) {
  std::ifstream is(path);
  WSMD_REQUIRE(is.good(), "cannot open XYZ file '" << path << "'");
  return read_xyz(is);
}

}  // namespace wsmd::io
