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

BlockIndex::BlockIndex(const std::vector<Block>& blocks, size_t num_entities)
    : offsets_(num_entities + 1, 0) {
  // Counting sort by entity: count each entity's blocks, turn the counts
  // into offsets, then scatter the block ids in block order, so each
  // entity's list comes out ascending.
  for (const Block& block : blocks) {
    for (model::EntityId id : block.entities) {
      WEBER_DCHECK_LT(id, num_entities) << "block entity outside the index";
      ++offsets_[id + 1];
    }
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  block_ids_.resize(offsets_.back());
  std::vector<uint64_t> next(offsets_.begin(), offsets_.end() - 1);
  for (uint32_t b = 0; b < blocks.size(); ++b) {
    for (model::EntityId id : blocks[b].entities) block_ids_[next[id]++] = b;
  }
}

void BlockCollection::AddBlock(Block block) {
  ++keys_emitted_;
  std::sort(block.entities.begin(), block.entities.end());
  block.entities.erase(
      std::unique(block.entities.begin(), block.entities.end()),
      block.entities.end());
  if (block.entities.size() < 2) return;
  // Every id a blocker emits must resolve in the collection: an out-of-
  // range id here would index out of bounds in Index() and every
  // downstream consumer. entities is sorted, so checking back() covers all.
  if (collection_ != nullptr) {
    WEBER_CHECK_LT(block.entities.back(), collection_->size())
        << "block '" << block.key << "' names an entity outside the "
        << "collection";
  }
  if (Cardinality(block) == 0) {
    return;  // e.g., clean-clean block with entities from one source only.
  }
  blocks_.push_back(std::move(block));
  index_.Reset();
}

size_t BlockCollection::RemoveBlocksIf(
    const std::function<bool(const Block&)>& drop) {
  size_t removed = std::erase_if(blocks_, drop);
  if (removed > 0) index_.Reset();
  return removed;
}

std::vector<Block> BlockCollection::TakeBlocks() && {
  std::vector<Block> taken = std::move(blocks_);
  blocks_.clear();
  index_.Reset();
  return taken;
}

const BlockIndex& BlockCollection::Index() const {
  return index_.GetOrBuild([this] {
    size_t n = collection_ != nullptr ? collection_->size() : 0;
    if (collection_ == nullptr) {
      for (const Block& block : blocks_) {
        n = std::max<size_t>(n, block.entities.back() + 1);
      }
    }
    return std::make_shared<const BlockIndex>(blocks_, n);
  });
}

uint64_t BlockCollection::TotalComparisonsWithRedundancy() const {
  uint64_t total = 0;
  for (const Block& block : blocks_) total += Cardinality(block);
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
void WalkDistinctPairs(const BlockCollection& blocks, Visitor&& visit) {
  const model::EntityCollection* collection = blocks.collection();
  const BlockIndex& index = blocks.Index();
  constexpr model::EntityId kUnstamped = ~model::EntityId{0};
  std::vector<model::EntityId> stamp(index.NumEntities(), kUnstamped);
  for (model::EntityId v = 0; v < index.NumEntities(); ++v) {
    for (uint32_t b : index.BlocksOf(v)) {
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
  std::vector<uint64_t> offset(blocks_.size() + 1, 0);
  WalkDistinctPairs(*this,
                    [&offset](model::EntityId, model::EntityId, uint32_t b) {
                      ++offset[b + 1];
                    });
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<model::IdPair> pairs(offset.back());
  WalkDistinctPairs(
      *this,
      [&offset, &pairs](model::EntityId v, model::EntityId u, uint32_t b) {
        pairs[offset[b]++] = model::IdPair{v, u};
      });
  return pairs;
}

uint64_t BlockCollection::CountDistinctPairs() const {
  uint64_t count = 0;
  WalkDistinctPairs(
      *this, [&count](model::EntityId, model::EntityId, uint32_t) { ++count; });
  return count;
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
