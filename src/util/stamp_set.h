#ifndef WEBER_UTIL_STAMP_SET_H_
#define WEBER_UTIL_STAMP_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace weber::util {

/// A reusable set of dense ids: one stamp per id, and an id is in the set
/// iff its stamp equals the current generation. Reset empties the set in
/// O(1) by bumping the generation; only when the generation counter wraps
/// are the stamps rewritten, so nothing stamped before the wrap reads as
/// seen after it.
///
/// The per-candidate dedup of the ingest path: each structure that
/// dedups owns one and resets it per entity, so no two threads share one.
template <typename Stamp>
class BasicStampSet {
 public:
  /// Empties the set and makes ids [0, bound) insertable. The array grows
  /// to the id bound the caller names and never shrinks.
  void Reset(size_t bound) {
    if (stamps_.size() < bound) stamps_.resize(bound, 0);
    if (++generation_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), Stamp{0});
      generation_ = 1;
    }
  }

  /// Adds `id`; true iff it was not in the set. Requires id < the bound
  /// of the last Reset.
  bool Insert(uint32_t id) {
    if (Contains(id)) return false;
    stamps_[id] = generation_;
    return true;
  }

  bool Contains(uint32_t id) const {
    WEBER_DCHECK_LT(id, stamps_.size()) << "id outside the StampSet bound";
    return stamps_[id] == generation_;
  }

 private:
  std::vector<Stamp> stamps_;
  Stamp generation_ = 0;
};

using StampSet = BasicStampSet<uint32_t>;

}  // namespace weber::util

#endif  // WEBER_UTIL_STAMP_SET_H_
