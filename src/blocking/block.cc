#include "blocking/block.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace weber::blocking {

uint64_t Block::NumComparisons(
    const model::EntityCollection& collection) const {
  uint64_t n = entities.size();
  if (n < 2) return 0;
  if (collection.setting() == model::ErSetting::kDirty) {
    return n * (n - 1) / 2;
  }
  uint64_t from_first = 0;
  for (model::EntityId id : entities) {
    if (collection.InFirstSource(id)) ++from_first;
  }
  return from_first * (n - from_first);
}

void BlockCollection::AddBlock(Block block) {
  ++keys_emitted_;
  std::sort(block.entities.begin(), block.entities.end());
  block.entities.erase(
      std::unique(block.entities.begin(), block.entities.end()),
      block.entities.end());
  if (block.entities.size() < 2) return;
  // Every id a blocker emits must resolve in the collection: an out-of-
  // range id here would index out of bounds in EntityToBlocks and every
  // downstream consumer. entities is sorted, so checking back() covers all.
  if (collection_ != nullptr) {
    WEBER_CHECK_LT(block.entities.back(), collection_->size())
        << "block '" << block.key << "' names an entity outside the "
        << "collection";
  }
  if (collection_ != nullptr && block.NumComparisons(*collection_) == 0) {
    return;  // e.g., clean-clean block with entities from one source only.
  }
  blocks_.push_back(std::move(block));
}

uint64_t BlockCollection::TotalComparisonsWithRedundancy() const {
  uint64_t total = 0;
  for (const Block& block : blocks_) {
    total += collection_ != nullptr
                 ? block.NumComparisons(*collection_)
                 : block.size() * (block.size() - 1) / 2;
  }
  return total;
}

namespace {

/// The least-common-block walk, the one distinct-pair enumerator: for each
/// entity v ascending, each of v's blocks b ascending, and each member
/// u > v of b, calls visit(v, u, b) the first time the comparable pair
/// (v, u) is seen. Blocks are visited in ascending order for each v, so
/// that first time is in the pair's least common block; stamp[u] == v
/// marks u as already paired with v, which replaces a set of seen pairs.
template <typename Visitor>
void WalkDistinctPairs(const BlockCollection& blocks,
                       const std::vector<std::vector<uint32_t>>& index,
                       Visitor&& visit) {
  const model::EntityCollection* collection = blocks.collection();
  constexpr model::EntityId kUnstamped = ~model::EntityId{0};
  if (WEBER_DCHECK_IS_ON()) {
    // upper_bound needs ascending members; mutable_blocks could break that.
    for (const Block& block : blocks.blocks()) {
      WEBER_DCHECK_SORTED(block.entities.begin(), block.entities.end())
          << "block '" << block.key << "' is unsorted";
    }
  }
  std::vector<model::EntityId> stamp(index.size(), kUnstamped);
  for (model::EntityId v = 0; v < index.size(); ++v) {
    for (uint32_t b : index[v]) {
      const std::vector<model::EntityId>& members = blocks.blocks()[b].entities;
      for (auto it = std::upper_bound(members.begin(), members.end(), v);
           it != members.end(); ++it) {
        model::EntityId u = *it;
        if (stamp[u] == v) continue;
        stamp[u] = v;
        if (collection != nullptr && !collection->Comparable(v, u)) continue;
        visit(v, u, b);
      }
    }
  }
}

}  // namespace

std::vector<model::IdPair> BlockCollection::CandidatePairs() const {
  // Two walks: count the pairs whose least common block is b, then
  // scatter each to its block's next slot. The walk meets a block's pairs
  // in (low, high) order, so the result is ordered by (b, low, high).
  std::vector<std::vector<uint32_t>> index = EntityToBlocks();
  std::vector<uint64_t> offset(blocks_.size() + 1, 0);
  WalkDistinctPairs(*this, index,
                    [&offset](model::EntityId, model::EntityId, uint32_t b) {
                      ++offset[b + 1];
                    });
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<model::IdPair> pairs(offset.back());
  WalkDistinctPairs(
      *this, index,
      [&offset, &pairs](model::EntityId v, model::EntityId u, uint32_t b) {
        pairs[offset[b]++] = model::IdPair{v, u};
      });
  return pairs;
}

uint64_t BlockCollection::CountDistinctPairs() const {
  uint64_t count = 0;
  WalkDistinctPairs(
      *this, EntityToBlocks(),
      [&count](model::EntityId, model::EntityId, uint32_t) { ++count; });
  return count;
}

std::vector<std::vector<uint32_t>> BlockCollection::EntityToBlocks() const {
  size_t n = collection_ != nullptr ? collection_->size() : 0;
  if (n == 0) {
    for (const Block& block : blocks_) {
      for (model::EntityId id : block.entities) {
        n = std::max<size_t>(n, id + 1);
      }
    }
  }
  std::vector<std::vector<uint32_t>> index(n);
  for (uint32_t b = 0; b < blocks_.size(); ++b) {
    for (model::EntityId id : blocks_[b].entities) {
      WEBER_DCHECK_LT(id, index.size()) << "block entity outside the index";
      index[id].push_back(b);
    }
  }
  return index;
}

int64_t BlockCollection::LargestBlock() const {
  int64_t best = -1;
  size_t best_size = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i].size() > best_size) {
      best_size = blocks_[i].size();
      best = static_cast<int64_t>(i);
    }
  }
  return best;
}

void BlockCollection::SortBlocksBySize() {
  std::sort(blocks_.begin(), blocks_.end(),
            [](const Block& x, const Block& y) {
              if (x.entities.size() != y.entities.size()) {
                return x.entities.size() < y.entities.size();
              }
              return x.key < y.key;
            });
}

BlockCollection Blocker::Build(
    const model::EntityCollection& collection) const {
  obs::MetricsRegistry* registry = obs::Current();
  if (registry == nullptr) {
    BlockCollection blocks = BuildBlocks(collection);
    WEBER_DCHECK(blocks.collection() == nullptr ||
                 blocks.collection() == &collection)
        << name() << " returned blocks over a different collection";
    return blocks;
  }

  util::Timer timer;
  BlockCollection blocks = BuildBlocks(collection);
  WEBER_DCHECK(blocks.collection() == nullptr ||
               blocks.collection() == &collection)
      << name() << " returned blocks over a different collection";
  registry->GetHistogram("weber.blocking.build_seconds")
      .Record(timer.ElapsedSeconds());
  registry->GetCounter("weber.blocking.builds").Increment();
  registry->GetCounter("weber.blocking.keys_emitted")
      .Add(blocks.keys_emitted());
  registry->GetCounter("weber.blocking.blocks_built").Add(blocks.NumBlocks());
  registry->GetCounter("weber.blocking.comparisons_suggested")
      .Add(blocks.TotalComparisonsWithRedundancy());
  obs::Histogram& sizes = registry->GetHistogram("weber.blocking.block_size");
  for (const Block& block : blocks.blocks()) {
    sizes.Record(static_cast<double>(block.size()));
  }
  return blocks;
}

}  // namespace weber::blocking
