#include "progressive/ordered_blocks.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

namespace weber::progressive {

namespace {

// `blocks` in ascending cardinality, ties in block order.
blocking::BlockCollection Ranked(const blocking::BlockCollection& blocks) {
  std::vector<uint32_t> order(blocks.NumBlocks());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    uint64_t cx = blocks.Cardinality(blocks.blocks()[x]);
    uint64_t cy = blocks.Cardinality(blocks.blocks()[y]);
    if (cx != cy) return cx < cy;
    return x < y;
  });
  blocking::BlockCollection ranked(blocks.collection());
  for (uint32_t b : order) ranked.AddBlock(blocks.blocks()[b]);
  return ranked;
}

}  // namespace

OrderedBlocksScheduler::OrderedBlocksScheduler(
    const blocking::BlockCollection& blocks)
    : ranked_(Ranked(blocks)), index_(ranked_.Index()) {}

std::optional<model::IdPair> OrderedBlocksScheduler::NextPair() {
  const model::EntityCollection* collection = ranked_.collection();
  while (block_cursor_ < ranked_.NumBlocks()) {
    const blocking::Block& block = ranked_.blocks()[block_cursor_];
    while (i_ < block.entities.size()) {
      while (j_ < block.entities.size()) {
        model::EntityId a = block.entities[i_];
        model::EntityId b = block.entities[j_];
        ++j_;
        if (collection != nullptr && !collection->Comparable(a, b)) {
          continue;
        }
        // Emit only in the first (lowest-rank) block containing both.
        std::span<const uint32_t> ranks_a = index_.BlocksOf(a);
        std::span<const uint32_t> ranks_b = index_.BlocksOf(b);
        size_t x = 0;
        size_t y = 0;
        uint32_t first_common = UINT32_MAX;
        while (x < ranks_a.size() && y < ranks_b.size()) {
          if (ranks_a[x] == ranks_b[y]) {
            first_common = ranks_a[x];
            break;
          }
          if (ranks_a[x] < ranks_b[y]) {
            ++x;
          } else {
            ++y;
          }
        }
        if (first_common != block_cursor_) continue;
        return model::IdPair::Of(a, b);
      }
      ++i_;
      j_ = i_ + 1;
    }
    ++block_cursor_;
    i_ = 0;
    j_ = 1;
  }
  return std::nullopt;
}

}  // namespace weber::progressive
