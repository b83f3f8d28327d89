#pragma once

/// \file xyz.hpp
/// Extended-XYZ trajectory output and reading.
///
/// Used by the examples and the `wsmd` scenario driver so users can inspect
/// slabs and grain boundaries in OVITO/VMD, the same tools used for figures
/// like the paper's Fig. 2. Writers reject non-finite coordinates (an atom
/// at NaN is always an upstream bug; a silent NaN in a trajectory file
/// poisons every later analysis), and the reader round-trips what the
/// writers emit.

#include <iosfwd>
#include <string>
#include <vector>

#include "lattice/lattice.hpp"
#include "util/box.hpp"
#include "util/vec3.hpp"

namespace wsmd::io {

/// Write one extended-XYZ frame from raw state. `names` maps type index ->
/// chemical symbol. Numbers print with 10 significant digits (`%.10g`),
/// whatever the stream's own flags. Throws on non-finite coordinates,
/// before any byte reaches the stream.
void write_xyz_frame(std::ostream& os, const Box& box,
                     const std::vector<Vec3d>& positions,
                     const std::vector<int>& types,
                     const std::vector<std::string>& names,
                     const std::string& comment = "");

/// Write one XYZ frame of a generated structure.
void write_xyz_frame(std::ostream& os, const lattice::Structure& s,
                     const std::vector<std::string>& names,
                     const std::string& comment = "");

/// Convenience: write a single-frame .xyz file.
void write_xyz_file(const std::string& path, const lattice::Structure& s,
                    const std::vector<std::string>& names,
                    const std::string& comment = "");

/// One parsed XYZ frame (species as symbols; the comment line verbatim).
struct XyzFrame {
  std::string comment;
  std::vector<std::string> species;
  std::vector<Vec3d> positions;

  std::size_t size() const { return positions.size(); }
};

/// Parse a (possibly multi-frame) XYZ stream as emitted by the writers
/// above: atom count, comment line, then `symbol x y z` rows. Validates
/// counts and finiteness.
std::vector<XyzFrame> read_xyz(std::istream& is);
std::vector<XyzFrame> read_xyz_file(const std::string& path);

}  // namespace wsmd::io
