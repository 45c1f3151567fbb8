#include "blocking/block_purging.h"

#include <algorithm>
#include <vector>

namespace weber::blocking {

size_t PurgeBlocksAbove(BlockCollection& blocks, uint64_t max_comparisons) {
  return blocks.RemoveBlocksIf([&blocks, max_comparisons](const Block& block) {
    return blocks.Cardinality(block) > max_comparisons;
  });
}

uint64_t AutoPurgeBlocks(BlockCollection& blocks, double efficiency_ratio) {
  if (blocks.empty()) return 0;

  // Aggregate per distinct cardinality tier, ascending.
  struct Tier {
    uint64_t cardinality;
    uint64_t total_comparisons;
    uint64_t total_assignments;  // Sum of block sizes.
  };
  std::vector<std::pair<uint64_t, const Block*>> by_cardinality;
  by_cardinality.reserve(blocks.NumBlocks());
  for (const Block& block : blocks.blocks()) {
    by_cardinality.emplace_back(blocks.Cardinality(block), &block);
  }
  std::sort(by_cardinality.begin(), by_cardinality.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  std::vector<Tier> tiers;
  for (const auto& [cardinality, block] : by_cardinality) {
    if (tiers.empty() || tiers.back().cardinality != cardinality) {
      tiers.push_back({cardinality, 0, 0});
    }
    tiers.back().total_comparisons += cardinality;
    tiers.back().total_assignments += block->size();
  }

  // Walk tiers from the largest down: purge the top tier while its own
  // assignments-per-comparison efficiency is markedly worse than the
  // efficiency of everything below it. Stop at the first tier that pulls
  // its weight. Uniform collections purge nothing (every tier is about
  // as efficient as the rest).
  uint64_t comparisons_below = 0;
  uint64_t assignments_below = 0;
  for (const Tier& tier : tiers) {
    comparisons_below += tier.total_comparisons;
    assignments_below += tier.total_assignments;
  }
  uint64_t threshold = tiers.back().cardinality;  // Keep everything.
  for (size_t i = tiers.size(); i-- > 1;) {
    comparisons_below -= tiers[i].total_comparisons;
    assignments_below -= tiers[i].total_assignments;
    if (comparisons_below == 0) break;
    double tier_efficiency =
        static_cast<double>(tiers[i].total_assignments) /
        static_cast<double>(tiers[i].total_comparisons);
    double below_efficiency = static_cast<double>(assignments_below) /
                              static_cast<double>(comparisons_below);
    if (tier_efficiency >= efficiency_ratio * below_efficiency) {
      break;  // This tier is efficient enough to keep.
    }
    threshold = tiers[i - 1].cardinality;
  }

  if (threshold >= tiers.back().cardinality) return 0;
  PurgeBlocksAbove(blocks, threshold);
  return threshold;
}

}  // namespace weber::blocking
