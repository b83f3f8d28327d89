#include "io/checkpoint.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "util/error.hpp"

namespace wsmd::io {

namespace {

constexpr char kMagic[8] = {'W', 'S', 'M', 'D', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kEndMarker = 0xC0DAC0DAu;

// Length-prefix sanity bounds: a corrupt prefix must fail loudly with a
// "corrupt checkpoint" error, not disappear into a huge zero-initialized
// allocation and an OOM kill. 10^8 elements (~2.4 GB as Vec3d) sits two
// orders of magnitude above the paper's 800k-atom runs while keeping the
// worst corrupt-prefix allocation survivable.
constexpr std::uint64_t kMaxAtoms = 100'000'000;  // elements per vector
constexpr std::uint64_t kMaxString = 1ull << 30;  // bytes (probe blobs)

}  // namespace

void BinaryWriter::u8(std::uint8_t v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void BinaryWriter::u32(std::uint32_t v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void BinaryWriter::u64(std::uint64_t v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void BinaryWriter::i32(std::int32_t v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void BinaryWriter::i64(std::int64_t v) {
  os_.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void BinaryWriter::f64(double v) {
  static_assert(sizeof(double) == 8);
  os_.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  os_.write(s.data(), static_cast<std::streamsize>(s.size()));
}
// The array payloads are bulk-copied: one write/read per vector, not per
// scalar (at 800k atoms a checkpoint holds ~10M scalars — per-element
// iostream calls would add a measurable stall to every periodic write).
// Byte-identical to the element-wise encoding: contiguous fixed-size
// elements, and the endian tag already pins the byte order.
static_assert(sizeof(Vec3d) == 3 * sizeof(double),
              "Vec3d must be three packed doubles for bulk checkpoint I/O");
static_assert(sizeof(long) == 8, "the format stores 64-bit integers");

void BinaryWriter::vec3s(const std::vector<Vec3d>& v) {
  u64(v.size());
  os_.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(Vec3d)));
}
void BinaryWriter::longs(const std::vector<long>& v) {
  u64(v.size());
  os_.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(long)));
}
void BinaryWriter::ints(const std::vector<int>& v) {
  u64(v.size());
  os_.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(int)));
}
void BinaryWriter::f64s(const std::vector<double>& v) {
  u64(v.size());
  os_.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}

void BinaryReader::raw(void* out, std::size_t bytes) {
  is_.read(static_cast<char*>(out), static_cast<std::streamsize>(bytes));
  WSMD_REQUIRE(static_cast<std::size_t>(is_.gcount()) == bytes && !is_.fail(),
               context_ << ": truncated checkpoint (wanted " << bytes
                        << " more byte(s))");
}

std::uint64_t BinaryReader::bounded_count(std::uint64_t limit,
                                          const char* what) {
  const std::uint64_t n = u64();
  WSMD_REQUIRE(n <= limit, context_ << ": corrupt checkpoint (" << what
                                    << " count " << n << " exceeds " << limit
                                    << ")");
  return n;
}

std::uint8_t BinaryReader::u8() {
  std::uint8_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint32_t BinaryReader::u32() {
  std::uint32_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::uint64_t BinaryReader::u64() {
  std::uint64_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::int32_t BinaryReader::i32() {
  std::int32_t v = 0;
  raw(&v, sizeof v);
  return v;
}
std::int64_t BinaryReader::i64() {
  std::int64_t v = 0;
  raw(&v, sizeof v);
  return v;
}
double BinaryReader::f64() {
  double v = 0.0;
  raw(&v, sizeof v);
  return v;
}
std::string BinaryReader::str() {
  const std::uint64_t n = bounded_count(kMaxString, "string byte");
  std::string s(static_cast<std::size_t>(n), '\0');
  if (n > 0) raw(s.data(), static_cast<std::size_t>(n));
  return s;
}
std::vector<Vec3d> BinaryReader::vec3s() {
  const std::uint64_t n = bounded_count(kMaxAtoms, "vector element");
  std::vector<Vec3d> v(static_cast<std::size_t>(n));
  if (n > 0) raw(v.data(), static_cast<std::size_t>(n) * sizeof(Vec3d));
  return v;
}
std::vector<long> BinaryReader::longs() {
  const std::uint64_t n = bounded_count(kMaxAtoms, "vector element");
  std::vector<long> v(static_cast<std::size_t>(n));
  if (n > 0) raw(v.data(), static_cast<std::size_t>(n) * sizeof(long));
  return v;
}
std::vector<int> BinaryReader::ints() {
  const std::uint64_t n = bounded_count(kMaxAtoms, "vector element");
  std::vector<int> v(static_cast<std::size_t>(n));
  if (n > 0) raw(v.data(), static_cast<std::size_t>(n) * sizeof(int));
  return v;
}
std::vector<double> BinaryReader::f64s() {
  const std::uint64_t n = bounded_count(kMaxAtoms, "vector element");
  std::vector<double> v(static_cast<std::size_t>(n));
  if (n > 0) raw(v.data(), static_cast<std::size_t>(n) * sizeof(double));
  return v;
}

void write_checkpoint(std::ostream& os, const CheckpointData& data) {
  BinaryWriter w(os);
  os.write(kMagic, sizeof kMagic);
  w.u32(kCheckpointVersion);
  w.u32(kEndianTag);

  w.str(data.element);
  w.str(data.backend);
  for (std::size_t a = 0; a < 3; ++a) w.f64(data.box.lo[a]);
  for (std::size_t a = 0; a < 3; ++a) w.f64(data.box.hi[a]);
  for (std::size_t a = 0; a < 3; ++a) w.u8(data.box.periodic[a] ? 1 : 0);
  w.ints(data.types);

  w.u64(data.deck.size());
  for (const auto& [key, value] : data.deck) {
    w.str(key);
    w.str(value);
  }

  const engine::State& e = data.engine;
  w.i64(e.step);
  w.vec3s(e.positions);
  w.vec3s(e.velocities);
  w.u64(0);  // the retired Verlet-anchor block, always empty
  w.u8(e.has_wafer ? 1 : 0);
  if (e.has_wafer) {
    w.f64(e.potential_energy);
    w.f64(e.elapsed_seconds);
    w.i32(e.grid_width);
    w.i32(e.grid_height);
    w.i32(e.b);
    w.longs(e.core_atoms);
    w.vec3s(e.initial_positions);
  }

  w.u64(data.stage_index);
  w.i64(data.stage_steps_done);
  for (std::size_t k = 0; k < 4; ++k) w.u64(data.rng.s[k]);
  w.u8(data.rng.has_spare ? 1 : 0);
  w.f64(data.rng.spare);
  w.i64(data.last_frame_step);
  w.i64(data.last_sample_step);

  w.u64(data.probes.size());
  for (const auto& [kind, blob] : data.probes) {
    w.str(kind);
    w.str(blob);
  }
  w.u32(kEndMarker);
  os.flush();
  WSMD_REQUIRE(os.good(), "checkpoint write failed (disk full?)");
}

CheckpointData read_checkpoint(std::istream& is, const std::string& context) {
  BinaryReader r(is, context);
  char magic[sizeof kMagic] = {};
  is.read(magic, sizeof magic);
  WSMD_REQUIRE(is.gcount() == sizeof magic &&
                   std::memcmp(magic, kMagic, sizeof kMagic) == 0,
               context << ": not a WSMD checkpoint (bad magic)");
  const std::uint32_t version = r.u32();
  WSMD_REQUIRE(version == kCheckpointVersion,
               context << ": checkpoint format version " << version
                       << " is not supported (this build reads version "
                       << kCheckpointVersion << ")");
  const std::uint32_t endian = r.u32();
  WSMD_REQUIRE(endian == kEndianTag,
               context << ": checkpoint was written on a foreign-endian "
                          "machine (tag 0x"
                       << std::hex << endian << ")");

  CheckpointData data;
  data.element = r.str();
  data.backend = r.str();
  Vec3d lo, hi;
  for (std::size_t a = 0; a < 3; ++a) lo[a] = r.f64();
  for (std::size_t a = 0; a < 3; ++a) hi[a] = r.f64();
  std::array<bool, 3> periodic{};
  for (std::size_t a = 0; a < 3; ++a) periodic[a] = r.u8() != 0;
  data.box = Box(lo, hi, periodic);
  data.types = r.ints();

  const std::uint64_t deck_entries = r.u64();
  WSMD_REQUIRE(deck_entries <= 100000,
               context << ": corrupt checkpoint (deck entry count "
                       << deck_entries << ")");
  data.deck.reserve(static_cast<std::size_t>(deck_entries));
  for (std::uint64_t k = 0; k < deck_entries; ++k) {
    std::string key = r.str();
    std::string value = r.str();
    data.deck.emplace_back(std::move(key), std::move(value));
  }

  engine::State& e = data.engine;
  e.step = static_cast<long>(r.i64());
  e.positions = r.vec3s();
  e.velocities = r.vec3s();
  r.vec3s();  // retired Verlet anchor: older reference files fill it
  e.has_wafer = r.u8() != 0;
  if (e.has_wafer) {
    e.potential_energy = r.f64();
    e.elapsed_seconds = r.f64();
    e.grid_width = r.i32();
    e.grid_height = r.i32();
    e.b = r.i32();
    e.core_atoms = r.longs();
    e.initial_positions = r.vec3s();
  }

  data.stage_index = r.u64();
  data.stage_steps_done = static_cast<long>(r.i64());
  for (std::size_t k = 0; k < 4; ++k) data.rng.s[k] = r.u64();
  data.rng.has_spare = r.u8() != 0;
  data.rng.spare = r.f64();
  data.last_frame_step = static_cast<long>(r.i64());
  data.last_sample_step = static_cast<long>(r.i64());

  const std::uint64_t probe_count = r.u64();
  WSMD_REQUIRE(probe_count <= 1024,
               context << ": corrupt checkpoint (probe count " << probe_count
                       << ")");
  for (std::uint64_t k = 0; k < probe_count; ++k) {
    std::string kind = r.str();
    std::string blob = r.str();
    data.probes.emplace_back(std::move(kind), std::move(blob));
  }
  const std::uint32_t marker = r.u32();
  WSMD_REQUIRE(marker == kEndMarker,
               context << ": corrupt checkpoint (bad end marker)");

  WSMD_REQUIRE(e.positions.size() == data.types.size() &&
                   e.velocities.size() == data.types.size(),
               context << ": corrupt checkpoint (atom counts disagree: "
                       << e.positions.size() << " positions, "
                       << e.velocities.size() << " velocities, "
                       << data.types.size() << " types)");
  return data;
}

void write_checkpoint_file(const std::string& path,
                           const CheckpointData& data) {
  // The caller may expand placeholders (the runner's `*` -> step number)
  // into directory components, so the parent is created here, against the
  // final expanded path — not upstream against the pattern.
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    WSMD_REQUIRE(os.is_open(),
                 "cannot open checkpoint file '" << tmp << "' for writing");
    write_checkpoint(os, data);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  WSMD_REQUIRE(!ec, "cannot move checkpoint into place: " << tmp << " -> "
                                                          << path << ": "
                                                          << ec.message());
}

CheckpointData read_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  WSMD_REQUIRE(is.is_open(), "cannot open checkpoint file '" << path << "'");
  return read_checkpoint(is, path);
}

}  // namespace wsmd::io
