#include "progressive/ordered_blocks.h"

#include <algorithm>

namespace weber::progressive {

OrderedBlocksScheduler::OrderedBlocksScheduler(
    const blocking::BlockCollection& blocks)
    : blocks_(blocks) {
  order_.resize(blocks.NumBlocks());
  for (uint32_t b = 0; b < order_.size(); ++b) order_[b] = b;
  const model::EntityCollection* collection = blocks.collection();
  std::sort(order_.begin(), order_.end(), [&](uint32_t x, uint32_t y) {
    uint64_t cx = blocks.Cardinality(blocks.blocks()[x]);
    uint64_t cy = blocks.Cardinality(blocks.blocks()[y]);
    if (cx != cy) return cx < cy;
    return x < y;
  });
  // Emission rank of each block, then entity -> ascending rank lists so
  // the least-common-*rank* test mirrors emission order.
  std::vector<uint32_t> rank_of(order_.size());
  for (uint32_t r = 0; r < order_.size(); ++r) rank_of[order_[r]] = r;
  size_t n = collection != nullptr ? collection->size() : 0;
  for (uint32_t b = 0; b < blocks.NumBlocks(); ++b) {
    for (model::EntityId id : blocks.blocks()[b].entities) {
      n = std::max<size_t>(n, id + 1);
    }
  }
  entity_ranks_.resize(n);
  for (uint32_t b = 0; b < blocks.NumBlocks(); ++b) {
    for (model::EntityId id : blocks.blocks()[b].entities) {
      entity_ranks_[id].push_back(rank_of[b]);
    }
  }
  for (std::vector<uint32_t>& ranks : entity_ranks_) {
    std::sort(ranks.begin(), ranks.end());
  }
}

std::optional<model::IdPair> OrderedBlocksScheduler::NextPair() {
  const model::EntityCollection* collection = blocks_.collection();
  while (block_cursor_ < order_.size()) {
    const blocking::Block& block = blocks_.blocks()[order_[block_cursor_]];
    while (i_ < block.entities.size()) {
      while (j_ < block.entities.size()) {
        model::EntityId a = block.entities[i_];
        model::EntityId b = block.entities[j_];
        ++j_;
        if (collection != nullptr && !collection->Comparable(a, b)) {
          continue;
        }
        // Emit only in the first (lowest-rank) block containing both.
        const std::vector<uint32_t>& ranks_a = entity_ranks_[a];
        const std::vector<uint32_t>& ranks_b = entity_ranks_[b];
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
