#pragma once

/// \file checkpoint.hpp
/// Durable checkpoint/restart for long-timescale runs.
///
/// The paper's point is trajectories too long for any single uninterrupted
/// process, so `wsmd` must be able to stop and continue: a checkpoint is a
/// versioned, endian-tagged binary file holding the *complete* dynamic
/// state of a run — step counter, box, species, FP64-widened positions and
/// velocities, the wafer engines' auxiliaries (atom-to-core mapping,
/// neighborhood radius, committed potential energy, and modeled clock),
/// the PRNG stream, the runner's per-stage schedule cursor, and every
/// streaming probe's accumulators. Restoring it reproduces the
/// uninterrupted trajectory bit-for-bit on the same backend (cf. LAMMPS
/// restart files, whose role this plays in the baseline-platform lineage).
///
/// The engine block keeps a retired slot after the velocities: a
/// length-prefixed vector where older builds stored the reference engine's
/// Verlet anchor (the positions of the last list build, 24 B per atom).
/// New files write it empty; the reader reads it with its bounded count
/// and drops it, so older reference files still resume. The reference
/// engine needs no list state to continue bitwise (engine/engine.hpp).
///
/// Format: "WSMDCKPT" magic, u32 version, u32 endian tag (0x01020304 in
/// native order — a foreign-endian file is rejected instead of silently
/// misread), then the fixed field sequence below, closed by an end marker
/// so even a truncation inside the final field is detected. Files are
/// written atomically (tmp + rename): a run killed mid-write never leaves
/// a half checkpoint behind.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "util/box.hpp"
#include "util/random.hpp"
#include "util/vec3.hpp"

namespace wsmd::io {

/// Current checkpoint format version. Bump on any layout change — or any
/// change to the embedded deck's semantics; readers reject other versions
/// with a clear error instead of guessing.
///
/// v2: the embedded deck pins `pair_style`. A v1 checkpoint carries no
/// `pair_style` / `potential` keys, and the runs that wrote it evaluated
/// forces through the analytic path, which no longer exists — a v1 file
/// cannot resume its trajectory, so it is rejected. `potential` is now a
/// legacy key: older v2 files embed `potential = tabulated`, which still
/// parses and selects nothing; new files omit it (an older reader defaults
/// the missing key to `tabulated`, the same engines).
inline constexpr std::uint32_t kCheckpointVersion = 2;

/// Little typed writer over a binary ostream. Strings and vectors are
/// length-prefixed (u64); floating point is bit-copied, so FP64 state
/// round-trips exactly.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void str(const std::string& s);
  void vec3s(const std::vector<Vec3d>& v);
  void longs(const std::vector<long>& v);
  void ints(const std::vector<int>& v);
  void f64s(const std::vector<double>& v);

 private:
  std::ostream& os_;
};

/// Reader counterpart. Every primitive read checks the stream and throws
/// wsmd::Error mentioning `context` (the file path) on truncation, and
/// length prefixes are sanity-bounded so a corrupt file fails with a clear
/// message instead of a multi-gigabyte allocation.
class BinaryReader {
 public:
  BinaryReader(std::istream& is, std::string context)
      : is_(is), context_(std::move(context)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  std::string str();
  std::vector<Vec3d> vec3s();
  std::vector<long> longs();
  std::vector<int> ints();
  std::vector<double> f64s();

  const std::string& context() const { return context_; }

 private:
  void raw(void* out, std::size_t bytes);
  std::uint64_t bounded_count(std::uint64_t limit, const char* what);

  std::istream& is_;
  std::string context_;
};

/// Everything a resumed run needs. The effective scenario travels along as
/// canonical deck entries so `wsmd resume CKPT` is self-contained — the
/// original deck file is not needed (and CLI overrides of the original run
/// are already baked in).
struct CheckpointData {
  std::string element;  ///< for mismatch diagnostics on resume
  std::string backend;  ///< backend that wrote the checkpoint (info only)
  Box box;
  std::vector<int> types;

  /// The effective scenario as (key, value) deck entries, in deck order.
  std::vector<std::pair<std::string, std::string>> deck;

  /// Full engine dynamic state (engine::Engine::snapshot()).
  engine::State engine;

  /// Schedule cursor: index of the stage in progress and steps already
  /// completed inside it. A cursor at (i, stage[i].steps) means the stage
  /// just finished; resume continues with stage i+1.
  std::uint64_t stage_index = 0;
  long stage_steps_done = 0;

  RngState rng;  ///< the runner's thermostat-stage stream

  /// Output cursors (the runner's duplicate-suppression state for the
  /// final-step top-off).
  long last_frame_step = -1;
  long last_sample_step = -1;

  /// Streaming-probe accumulators: (kind, opaque blob) in bus order.
  std::vector<std::pair<std::string, std::string>> probes;
};

void write_checkpoint(std::ostream& os, const CheckpointData& data);
CheckpointData read_checkpoint(std::istream& is, const std::string& context);

/// Atomic file write: the checkpoint is streamed to `path + ".tmp"` and
/// renamed over `path`, so a kill mid-write never corrupts the previous
/// checkpoint.
void write_checkpoint_file(const std::string& path,
                           const CheckpointData& data);
CheckpointData read_checkpoint_file(const std::string& path);

}  // namespace wsmd::io
