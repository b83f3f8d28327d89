#pragma once

/// \file analysis.hpp
/// Structural analysis: centrosymmetry parameter and coordination number.
///
/// The paper's Fig. 2 renders grain-boundary atoms (white) against the two
/// crystal orientations: atoms whose local environment deviates from the
/// perfect lattice. The standard detector is the centrosymmetry parameter
/// (Kelchner et al., PRB 58, 11085 (1998)):
///
///     CSP_i = sum_{k=1}^{N/2} | r_k + r_{k+N/2} |^2
///
/// over the N nearest neighbors paired into most-nearly-opposite bonds.
/// Perfect centrosymmetric lattices (FCC N=12, BCC N=8) give CSP ~ 0;
/// boundaries, surfaces, and defects give large values.
///
/// Cost: one md::CellList build and one neighbor walk per call, and no
/// allocation per atom. Each atom's bonds (with the r2 the walk computed)
/// are fully sorted — the same std::sort permutation, ties included, as
/// sorting the bond vectors by norm2 — and the N shortest are paired
/// greedily over a table of |r_a + r_b|^2 built once and compacted each
/// round, picking what a full rescan would pick in the same order. A
/// non-finite atom has no bonds: CSP = rcut^2, coordination 0.

#include <vector>

#include "util/box.hpp"
#include "util/vec3.hpp"

namespace wsmd::md {

struct StructureAnalysis {
  std::vector<double> centrosymmetry;  ///< per atom (A^2)
  std::vector<int> coordination;       ///< neighbors within rcut
};

/// Compute CSP (with `pairs*2` nearest neighbors: 12 for FCC, 8 for BCC)
/// and coordination within `rcut` for every atom.
StructureAnalysis analyze_structure(const Box& box,
                                    const std::vector<Vec3d>& positions,
                                    double rcut, int neighbor_count);

/// Classify defective atoms: CSP above `threshold` (A^2). For metals a
/// threshold of ~0.5-1.0 A^2 separates thermal noise from boundaries.
std::vector<bool> defective_atoms(const StructureAnalysis& analysis,
                                  double threshold);

}  // namespace wsmd::md
