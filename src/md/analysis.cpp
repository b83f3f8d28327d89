#include "md/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "md/cell_list.hpp"
#include "util/error.hpp"

namespace wsmd::md {

namespace {

struct Bond {
  Vec3d d;    ///< minimum-image displacement to the neighbor
  double r2;  ///< norm2(d), as the cell-list walk computed it
};

/// A pair's key: the indices of its two bonds in the 32-bit halves.
std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return a | (std::uint64_t{b} << 32);
}

/// True when pairs `p` and `q` share no bond.
bool disjoint(std::uint64_t p, std::uint64_t q) {
  const auto pa = static_cast<std::uint32_t>(p);
  const auto pb = static_cast<std::uint32_t>(p >> 32);
  const auto qa = static_cast<std::uint32_t>(q);
  const auto qb = static_cast<std::uint32_t>(q >> 32);
  return (pa != qa) & (pa != qb) & (pb != qa) & (pb != qb);
}

/// The candidate opposite-bond pairs of one atom in (a, b) order, a < b:
/// |r_a + r_b|^2 and the pair's key. Reused across the atoms of a call,
/// with one slot past the last pair for the scan's sentinel.
struct PairList {
  std::vector<double> v;
  std::vector<std::uint64_t> key;
};

/// Greedy opposite-bond pairing over the `n` shortest bonds: repeatedly
/// take the unused pair with the smallest |r_a + r_b|^2 — the first such
/// pair in (a, b) order — and sum those minima. Exact for perfect
/// lattices; a standard approximation (LAMMPS compute centro/atom uses the
/// same idea).
///
/// Each round first compacts away the pairs that share a bond with the
/// previous pick, keeping the (a, b) order, then scans what is left with
/// two independent argmin accumulators (even and odd positions; a tie
/// goes to the lower position). The pick, its tie order and the summation
/// order are those of a full rescan of the unused bonds.
double greedy_pairing(const Bond* bonds, std::uint32_t n, PairList& pairs) {
  const std::size_t capacity = std::size_t{n} * (n - 1) / 2 + 1;
  if (pairs.v.size() < capacity) {
    pairs.v.resize(capacity);
    pairs.key.resize(capacity);
  }
  double* v = pairs.v.data();
  std::uint64_t* key = pairs.key.data();
  std::size_t m = 0;
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      v[m] = norm2(bonds[a].d + bonds[b].d);
      key[m] = pair_key(a, b);
      ++m;
    }
  }
  double csp = 0.0;
  std::uint64_t pick = 0;
  for (std::uint32_t round = 0; round < n / 2; ++round) {
    if (round > 0) {
      std::size_t kept = 0;
      for (std::size_t k = 0; k < m; ++k) {
        const double x = v[k];
        const std::uint64_t q = key[k];
        v[kept] = x;
        key[kept] = q;
        kept += disjoint(q, pick);
      }
      m = kept;
    }
    v[m] = 2e300;  // sentinel for an odd count: never below `best`
    double b0 = 1e300, b1 = 1e300;
    std::size_t k0 = m, k1 = m;
    for (std::size_t k = 0; k < m; k += 2) {
      const bool t0 = v[k] < b0, t1 = v[k + 1] < b1;
      b0 = t0 ? v[k] : b0;
      k0 = t0 ? k : k0;
      b1 = t1 ? v[k + 1] : b1;
      k1 = t1 ? k + 1 : k1;
    }
    const bool odd = (b1 < b0) | ((b1 == b0) & (k1 < k0));
    const std::size_t kb = odd ? k1 : k0;
    csp += odd ? b1 : b0;
    // No pair below 1e300 (only with rcut near overflow): the pick is
    // bond 0 with itself, as in a plain rescan.
    pick = kb < m ? key[kb] : pair_key(0, 0);
  }
  return csp;
}

}  // namespace

StructureAnalysis analyze_structure(const Box& box,
                                    const std::vector<Vec3d>& positions,
                                    double rcut, int neighbor_count) {
  WSMD_REQUIRE(!positions.empty(), "no atoms to analyze");
  WSMD_REQUIRE(rcut > 0.0, "rcut must be positive");
  WSMD_REQUIRE(neighbor_count >= 2 && neighbor_count % 2 == 0,
               "CSP needs an even neighbor count (12 FCC, 8 BCC)");
  // Minimum-image correctness: at most one periodic image within rcut.
  CellList::require_min_image(box, rcut);

  // Shared cell list, queried directly: one O(N) binning pass and no
  // materialized CSR — this is what keeps CSP on a 200k-atom slab at
  // seconds of wall clock.
  CellList cl;
  cl.build(box, positions, rcut);

  StructureAnalysis out;
  out.centrosymmetry.assign(positions.size(), 0.0);
  out.coordination.assign(positions.size(), 0);

  // Per-call buffers: the bonds (with the r2 the walk computed) and the
  // pair list of the kept bonds.
  std::vector<Bond> bonds;
  bonds.reserve(64);
  const auto kept = static_cast<std::size_t>(neighbor_count);
  PairList pairs;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    bonds.clear();
    cl.for_each_neighbor(i, [&](std::size_t, const Vec3d& d, double r2) {
      bonds.push_back({d, r2});
    });
    out.coordination[i] = static_cast<int>(bonds.size());

    // Keep the `neighbor_count` shortest bonds. A full std::sort: its
    // permutation, ties included, depends only on the comparator outcomes
    // (r2 == norm2(d)), and the CSVs pin that tie order; libstdc++'s
    // introsort is not stable above 16 elements, so nth_element or a
    // partial sort would keep other tied bonds.
    std::sort(bonds.begin(), bonds.end(),
              [](const Bond& a, const Bond& b) { return a.r2 < b.r2; });
    const std::size_t n = std::min(bonds.size(), kept);
    if (n < 2) {
      // Isolated atom: maximal asymmetry marker.
      out.centrosymmetry[i] = rcut * rcut;
      continue;
    }
    out.centrosymmetry[i] = greedy_pairing(
        bonds.data(), static_cast<std::uint32_t>(n), pairs);
  }
  return out;
}

std::vector<bool> defective_atoms(const StructureAnalysis& analysis,
                                  double threshold) {
  WSMD_REQUIRE(threshold > 0.0, "threshold must be positive");
  std::vector<bool> out(analysis.centrosymmetry.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = analysis.centrosymmetry[i] > threshold;
  }
  return out;
}

}  // namespace wsmd::md
