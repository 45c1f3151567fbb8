#include "blocking/block_filtering.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace weber::blocking {

BlockCollection FilterBlocks(const BlockCollection& blocks, double ratio) {
  ratio = std::clamp(ratio, 0.0, 1.0);
  BlockCollection result(blocks.collection());
  if (blocks.empty()) return result;
  if (ratio >= 1.0) {
    result = blocks;
    return result;
  }

  // Rank blocks by ascending cardinality (size is the standard proxy).
  std::vector<uint32_t> rank_of(blocks.NumBlocks());
  {
    std::vector<uint32_t> order(blocks.NumBlocks());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&blocks](uint32_t x, uint32_t y) {
                size_t sx = blocks.blocks()[x].size();
                size_t sy = blocks.blocks()[y].size();
                if (sx != sy) return sx < sy;
                return x < y;
              });
    for (uint32_t r = 0; r < order.size(); ++r) rank_of[order[r]] = r;
  }

  // For each entity keep its ceil(ratio * |blocks(e)|) smallest blocks.
  const BlockIndex& index = blocks.Index();
  std::vector<std::vector<model::EntityId>> kept(blocks.NumBlocks());
  std::vector<uint32_t> mine;
  for (model::EntityId id = 0; id < index.NumEntities(); ++id) {
    std::span<const uint32_t> blocks_of = index.BlocksOf(id);
    if (blocks_of.empty()) continue;
    mine.assign(blocks_of.begin(), blocks_of.end());
    size_t keep = static_cast<size_t>(
        std::ceil(ratio * static_cast<double>(mine.size())));
    keep = std::max<size_t>(keep, 1);
    std::sort(mine.begin(), mine.end(), [&rank_of](uint32_t x, uint32_t y) {
      return rank_of[x] < rank_of[y];
    });
    for (size_t k = 0; k < keep && k < mine.size(); ++k) {
      kept[mine[k]].push_back(id);
    }
  }

  for (uint32_t b = 0; b < kept.size(); ++b) {
    if (kept[b].size() < 2) continue;
    result.AddBlock(Block{blocks.blocks()[b].key, std::move(kept[b])});
  }
  return result;
}

}  // namespace weber::blocking
