#pragma once

/// \file trajectory.hpp
/// Streaming multi-frame extended-XYZ trajectory writer.
///
/// The scenario driver appends one frame every `xyz_every` steps while an
/// engine runs; OVITO/VMD read the resulting file directly. Kept separate
/// from the single-frame helpers in xyz.hpp because a trajectory owns its
/// stream for the lifetime of a run.

#include <memory>
#include <string>
#include <vector>

#include "io/xyz.hpp"

namespace wsmd::io {

class XyzTrajectoryWriter {
 public:
  /// Open `path` (truncates). `names` maps type index -> chemical symbol
  /// for every frame of this trajectory.
  XyzTrajectoryWriter(const std::string& path,
                      std::vector<std::string> names);
  ~XyzTrajectoryWriter();

  XyzTrajectoryWriter(const XyzTrajectoryWriter&) = delete;
  XyzTrajectoryWriter& operator=(const XyzTrajectoryWriter&) = delete;

  /// Append one frame and flush it; throws on non-finite coordinates
  /// (before writing anything) and WriteError when the file rejects it.
  void append(const Box& box, const std::vector<Vec3d>& positions,
              const std::vector<int>& types, const std::string& comment = "");

  std::size_t frames_written() const { return frames_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::vector<std::string> names_;
  std::unique_ptr<std::ofstream> os_;
  std::size_t frames_ = 0;
};

}  // namespace wsmd::io
