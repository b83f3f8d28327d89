#pragma once

/// \file domain.hpp
/// Spatial domain decomposition bookkeeping for the distributed wafer
/// backend (and, for the strip arithmetic, the thread-sharded one).
///
/// The core grid splits into M horizontal strips — one per rank process —
/// exactly like engine::WaferEngine's per-thread row strips (both are
/// core::row_strip), so `ranks:M` and `sharded:N` share one partition and
/// one modeled ghost-cost formula. The step schedule
/// (core::WseMd::step_region) runs a rank's strip; this file says which
/// rows travel between which ranks. A rank owns the atoms mapped to the
/// cores of its strip and holds a read-only ghost copy of the rows within
/// the neighborhood radius `b` (cutoff + skin, the same radius the
/// candidate multicast spans) on either side. Because `gather_neighborhood`
/// clips at the grid edges (no wraparound), the halo topology is a chain,
/// except that a radius spanning a whole neighbor strip (small grids,
/// large b) adds next-nearest peers — `halo_rows` handles both by pure
/// interval arithmetic on the partition.
///
/// Atom migration: the online atom swap moves atoms only between adjacent
/// cores (swap radius 1), so an atom leaving a strip lands in the first
/// halo row of the neighbor — its position and velocity are already valid
/// there, and the post-commit state exchange re-synchronizes the halos
/// before the next step reads them.

#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "core/wse_md.hpp"
#include "wse/cost_model.hpp"

namespace wsmd::dist {

/// Split a width x height core grid into `count` horizontal strips of
/// near-equal height (strip t is core::row_strip t of the grid). Strips
/// may be empty when the grid has fewer rows than workers.
std::vector<core::ShardRect> row_strips(int width, int height, int count);

/// Half-open row interval [lo, hi) of `owner`'s strip that `needer` reads
/// as ghost rows with neighborhood radius b: the intersection of owner's
/// rows with needer's b-expanded strip. Empty (lo >= hi) when the strips
/// are farther apart than b or either strip is empty. Both sides of an
/// exchange compute this identically from the shared partition, so the
/// wire format needs no row indices.
struct RowSpan {
  int lo = 0;
  int hi = 0;
  bool empty() const { return hi <= lo; }
  int rows() const { return hi > lo ? hi - lo : 0; }
};
RowSpan halo_rows(const std::vector<core::ShardRect>& strips, int owner,
                  int needer, int b);

/// Unordered peer pairs (i < j) that exchange halo data somewhere in the
/// partition, in lexicographic order. Every rank walks this list in order
/// and serves the pairs it is part of — a globally consistent schedule,
/// deadlock-free because the smallest uncompleted pair's two members have
/// (by induction) finished all their earlier pairs.
std::vector<std::pair<int, int>> halo_pairs(
    const std::vector<core::ShardRect>& strips, int b);

/// Atom ids mapped to the cores of rows [lo, hi), row-major, skipping
/// empty cores — the deterministic pack/unpack order of a halo message.
/// Sender and receiver derive the same list from their (swap-synchronized)
/// mappings, so only values travel on the wire.
std::vector<std::uint32_t> atoms_in_rows(const core::AtomMapping& mapping,
                                         int lo, int hi);

/// Modeled cycles per step spent refreshing the strips' ghost halos (two
/// neighborhood exchanges per step cross each strip boundary: candidate
/// positions and embedding derivatives). Shared by every wafer backend
/// (engine::wafer_phase_cost) so `wsmd report` joins measured halo seconds
/// against one prediction regardless of backend.
double halo_cycles_per_step(const std::vector<core::ShardRect>& strips, int b,
                            int grid_width, int grid_height,
                            const wse::CostModel& model);

/// --- Run-scoped resource naming ------------------------------------------
/// Every per-run OS resource a distributed run creates — the scratch
/// directory, the per-rank stderr captures inside it, and the POSIX shm
/// halo segments — derives its name from these two helpers, so diagnostic
/// bundles and cleanup sweeps can never disagree about what belongs to a
/// run. `run_scoped_name` pins the run (kind + coordinator pid, so
/// concurrent runs sharing a host stay disjoint); `rank_suffix` pins the
/// rank(s) within it.

/// "wsmd-<kind>-<pid>" — the per-run stem.
std::string run_scoped_name(const std::string& kind, long pid);

/// "<base>.rank<k>" — the per-rank leaf under a run-scoped stem.
std::string rank_suffix(const std::string& base, int rank);

/// POSIX shm segment name for the halo mailboxes of peer pair (i, j),
/// i < j: "/wsmd-shm-<pid>.rank<i>-<j>" (shm_open requires the leading
/// slash; the visible /dev/shm entry, while it exists, carries the same
/// run/rank provenance as the scratch files).
std::string shm_segment_name(long pid, int rank_i, int rank_j);

/// Rank-suffixed scratch path under `dir`: "<dir>/<base>.rank<k>". Every
/// per-rank side file (stderr capture, debris from aborted runs) goes
/// through this so concurrent ranks — and concurrent runs pointing at the
/// same --output-dir — never collide on a name.
std::string rank_scratch_path(const std::string& dir, const std::string& base,
                              int rank);

/// Owned scratch directory for one distributed run: creates
/// "<parent>/.wsmd-dist-<pid>" (pid-suffixed, so concurrent runs sharing
/// an --output-dir stay disjoint) and removes it with everything inside on
/// destruction — teardown is atomic from the runner's point of view: the
/// directory either exists with whatever the ranks wrote, or is gone.
class ScratchDir {
 public:
  /// `parent` empty: use the system temp directory.
  explicit ScratchDir(const std::string& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// "<path()>/<base>.rank<k>".
  std::string rank_file(const std::string& base, int rank) const;
  /// Keep the directory on destruction (diagnostic bundles point into it).
  void keep() { keep_ = true; }

 private:
  std::string path_;
  bool keep_ = false;
};

}  // namespace wsmd::dist
