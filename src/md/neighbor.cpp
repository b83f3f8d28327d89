#include "md/neighbor.hpp"

#include <cmath>

#include "md/cell_list.hpp"
#include "util/error.hpp"

namespace wsmd::md {

namespace {

/// Make room for `n` elements with a quarter to spare. A thermalising
/// system lists a few % more entries at later rebuilds than at the first;
/// regrowing at each new maximum would copy the buffer and strand the old
/// block in the heap, raising the peak RSS above what the list needs.
template <typename T>
void reserve_headroom(std::vector<T>& v, std::size_t n) {
  if (v.capacity() < n) v.reserve(n + n / 4);
}

}  // namespace

NeighborList::NeighborList(double cutoff, double skin)
    : cutoff_(cutoff), skin_(skin) {
  WSMD_REQUIRE(cutoff_ > 0.0, "cutoff must be positive");
  WSMD_REQUIRE(skin_ >= 0.0, "skin must be non-negative");
}

void NeighborList::build(const Box& box, const std::vector<Vec3d>& positions) {
  const std::size_t n = positions.size();
  WSMD_REQUIRE(n > 0, "cannot build a neighbor list for zero atoms");
  // Minimum-image convention requires at most one periodic image of any
  // neighbor within the cutoff; otherwise the physics is silently wrong.
  // (Checked at the cutoff, not the list radius: the list only promises
  // completeness within cutoff, skin entries are rebuild slack.)
  CellList::require_min_image(box, cutoff_);
  CellList cl;
  cl.build(box, positions, list_radius());

  // One walk: every unordered pair a < b once, in slot order. The list
  // holds each pair twice, so the walk stores the pairs (a, then b) in the
  // list's own storage. Count each row's entries, and the upper part
  // (j > i) of row a, which buckets its pairs by their smaller index.
  indices_.clear();
  offsets_.assign(n + 1, 0);
  cursor_.assign(n + 1, 0);
  cl.for_each_pair([&](std::size_t a, std::size_t b, const Vec3d&, double) {
    indices_.push_back(static_cast<std::uint32_t>(a));
    indices_.push_back(static_cast<std::uint32_t>(b));
    ++offsets_[a + 1];
    ++offsets_[b + 1];
    ++cursor_[a + 1];
  });
  for (std::size_t i = 0; i < n; ++i) {
    offsets_[i + 1] += offsets_[i];
    cursor_[i + 1] += cursor_[i];
  }
  const std::size_t pairs = indices_.size() / 2;
  reserve_headroom(indices_, 2 * pairs);

  // Bucket a gets the partners b of a, in walk order; afterwards
  // cursor_[a] is where bucket a ends.
  reserve_headroom(bucket_, pairs);
  bucket_.resize(pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    bucket_[cursor_[indices_[2 * k]]++] = indices_[2 * k + 1];
  }
  // Empty the buckets by ascending a: appending a to row b gives every
  // row its lower part (j < i) in ascending order.
  lower_.assign(n, 0);
  for (std::size_t a = 0, k = 0; a < n; ++a) {
    for (; k < cursor_[a]; ++k) {
      const std::uint32_t b = bucket_[k];
      indices_[offsets_[b] + lower_[b]++] = static_cast<std::uint32_t>(a);
    }
  }
  // Transpose the lower parts by ascending b: appending b to row a gives
  // every row its upper part (j > i) in ascending order too.
  for (std::size_t i = 0; i < n; ++i) cursor_[i] = offsets_[i] + lower_[i];
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t k = offsets_[b]; k < offsets_[b] + lower_[b]; ++k) {
      indices_[cursor_[indices_[k]]++] = static_cast<std::uint32_t>(b);
    }
  }

  reference_positions_ = positions;
  ++rebuilds_;
}

bool NeighborList::ensure_current(const Box& box,
                                  const std::vector<Vec3d>& positions) {
  if (reference_positions_.size() != positions.size()) {
    build(box, positions);
    return true;
  }
  const double trigger = 0.5 * skin_;
  const double trigger2 = trigger * trigger;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3d d =
        box.minimum_image(reference_positions_[i], positions[i]);
    if (norm2(d) > trigger2) {
      build(box, positions);
      return true;
    }
  }
  return false;
}

void NeighborList::build(const Box& box, const Vec3dPlanes& positions) {
  // Rebuilds are rare (every ~10-100 steps with a sane skin); one AoS copy
  // here is noise next to the cell-list walk and keeps CellList unchanged.
  build(box, positions.to_aos());
}

bool NeighborList::ensure_current(const Box& box,
                                  const Vec3dPlanes& positions) {
  if (reference_positions_.size() != positions.size()) {
    build(box, positions);
    return true;
  }
  const double trigger = 0.5 * skin_;
  const double trigger2 = trigger * trigger;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Vec3d d =
        box.minimum_image(reference_positions_[i], positions.get(i));
    if (norm2(d) > trigger2) {
      build(box, positions);
      return true;
    }
  }
  return false;
}

}  // namespace wsmd::md
