#include "io/trajectory.hpp"

#include <fstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::io {

XyzTrajectoryWriter::XyzTrajectoryWriter(const std::string& path,
                                         std::vector<std::string> names)
    : path_(path),
      names_(std::move(names)),
      os_(std::make_unique<std::ofstream>(path)) {
  WSMD_REQUIRE(os_->good(), "cannot open trajectory '" << path
                                                       << "' for writing");
  WSMD_REQUIRE(!names_.empty(), "trajectory needs at least one species name");
}

XyzTrajectoryWriter::~XyzTrajectoryWriter() = default;

void XyzTrajectoryWriter::append(const Box& box,
                                 const std::vector<Vec3d>& positions,
                                 const std::vector<int>& types,
                                 const std::string& comment) {
  write_xyz_frame(*os_, box, positions, types, names_, comment);
  os_->flush();
  if (!os_->good()) {
    throw WriteError(path_, format("frame %zu", frames_ + 1));
  }
  ++frames_;
}

}  // namespace wsmd::io
