#ifndef WEBER_BLOCKING_BLOCK_H_
#define WEBER_BLOCKING_BLOCK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/entity.h"
#include "model/ground_truth.h"
#include "util/check.h"
#include "util/sync.h"

namespace weber::blocking {

/// A block: the set of entity ids that share a blocking key. Entities are
/// kept sorted and distinct.
struct Block {
  std::string key;
  std::vector<model::EntityId> entities;

  size_t size() const { return entities.size(); }

  /// Number of comparisons this block suggests on its own, honouring the
  /// collection's setting: all pairs for dirty ER, cross-source pairs for
  /// clean-clean.
  uint64_t NumComparisons(const model::EntityCollection& collection) const;
};

/// The entity-to-block index of a block collection in compressed sparse
/// row form: one offsets array and one array of block ids, so that the
/// whole index costs two allocations whatever the entity count.
class BlockIndex {
 public:
  /// Indexes `blocks` over entity ids [0, num_entities); every member of
  /// every block must be below num_entities.
  BlockIndex(const std::vector<Block>& blocks, size_t num_entities);

  size_t NumEntities() const { return offsets_.size() - 1; }

  /// The indices of the blocks holding `id`, ascending.
  std::span<const uint32_t> BlocksOf(model::EntityId id) const {
    WEBER_DCHECK_LT(id, NumEntities()) << "entity outside the block index";
    return {block_ids_.data() + offsets_[id],
            block_ids_.data() + offsets_[id + 1]};
  }

  /// Total block assignments: the sum of all block sizes.
  uint64_t NumAssignments() const { return block_ids_.size(); }

 private:
  std::vector<uint64_t> offsets_;  // NumEntities() + 1 entries.
  std::vector<uint32_t> block_ids_;
};

/// A blocking collection: the output of a blocking method over one entity
/// collection. Keeps a non-owning pointer to the collection so that
/// downstream consumers (meta-blocking, evaluation) can honour the ER
/// setting.
class BlockCollection {
 public:
  BlockCollection() = default;
  explicit BlockCollection(const model::EntityCollection* collection)
      : collection_(collection) {}

  /// Appends a block. Entities are sorted and deduplicated; blocks that
  /// suggest no comparison under the collection's setting are dropped.
  void AddBlock(Block block);

  /// Removes every block for which `drop(block)` is true, keeping the
  /// order of the rest. Returns the number removed.
  size_t RemoveBlocksIf(const std::function<bool(const Block&)>& drop);

  /// Moves the blocks out, leaving the collection empty.
  std::vector<Block> TakeBlocks() &&;

  const std::vector<Block>& blocks() const { return blocks_; }
  size_t NumBlocks() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }

  /// Number of AddBlock calls, including blocks dropped as too small or
  /// suggesting no comparison: the raw key count the builder emitted.
  uint64_t keys_emitted() const { return keys_emitted_; }

  const model::EntityCollection* collection() const { return collection_; }

  /// Comparisons `block` suggests on its own: Block::NumComparisons under
  /// the collection's setting, or all pairs when there is no collection.
  uint64_t Cardinality(const Block& block) const {
    return collection_ != nullptr ? block.NumComparisons(*collection_)
                                  : block.size() * (block.size() - 1) / 2;
  }

  /// The entity-to-block index. It covers the collection's entities, or
  /// ids up to the largest block member when there is no collection. Built
  /// on first use and kept until a member that changes the blocks drops
  /// it; copies share it. Safe to call from several threads at once, like
  /// every const member.
  const BlockIndex& Index() const;

  /// Aggregate comparisons over all blocks, counting a pair once per block
  /// it co-occurs in (i.e., including redundancy). This is the cost a
  /// naive executor would pay.
  uint64_t TotalComparisonsWithRedundancy() const;

  /// The distinct candidate pairs suggested by the collection: each pair
  /// the collection's setting allows, once, no matter how many blocks it
  /// co-occurs in. Ordered by least common block (the first block, in
  /// block order, holding both entities), then low id, then high id.
  /// Costs O(block assignments + pairs); no hash set is built.
  std::vector<model::IdPair> CandidatePairs() const;

  /// Number of distinct candidate pairs, without materialising them.
  uint64_t CountDistinctPairs() const;

  /// CandidatePairs as a set.
  model::IdPairSet DistinctPairs() const {
    std::vector<model::IdPair> pairs = CandidatePairs();
    return {pairs.begin(), pairs.end()};
  }

  /// Visits CandidatePairs in order.
  void VisitDistinctPairs(
      const std::function<void(model::EntityId, model::EntityId)>& visitor)
      const {
    for (const model::IdPair& pair : CandidatePairs()) {
      visitor(pair.low, pair.high);
    }
  }

 private:
  // Index()'s cache. Copies share the immutable index; every member that
  // changes blocks_ calls Reset().
  class IndexCache {
   public:
    IndexCache() = default;
    IndexCache(const IndexCache& other) : index_(other.Share()) {}
    IndexCache(IndexCache&& other) noexcept : index_(other.Exchange({})) {}
    IndexCache& operator=(const IndexCache& other) {
      Exchange(other.Share());
      return *this;
    }
    IndexCache& operator=(IndexCache&& other) noexcept {
      Exchange(other.Exchange({}));
      return *this;
    }

    void Reset() { Exchange({}); }

    /// The cached index, built by `build` if there is none yet.
    template <typename Build>
    const BlockIndex& GetOrBuild(Build&& build) const {
      util::MutexLock lock(mu_);
      if (index_ == nullptr) index_ = build();
      return *index_;
    }

   private:
    std::shared_ptr<const BlockIndex> Share() const {
      util::MutexLock lock(mu_);
      return index_;
    }
    std::shared_ptr<const BlockIndex> Exchange(
        std::shared_ptr<const BlockIndex> index) {
      util::MutexLock lock(mu_);
      index_.swap(index);
      return index;
    }

    mutable util::Mutex mu_;
    mutable std::shared_ptr<const BlockIndex> index_ WEBER_GUARDED_BY(mu_);
  };

  std::vector<Block> blocks_;
  uint64_t keys_emitted_ = 0;
  const model::EntityCollection* collection_ = nullptr;
  IndexCache index_;
};

/// Interface implemented by every blocking method.
class Blocker {
 public:
  virtual ~Blocker() = default;

  /// Builds the blocking collection for the given entities. When a
  /// metrics registry is attached (obs::ScopedRegistry) the build reports
  /// its duration, keys emitted, blocks built, suggested comparisons and
  /// block-size distribution under `weber.blocking.*`; nested builders
  /// (multi-pass, multidimensional) report their inner builds too.
  BlockCollection Build(const model::EntityCollection& collection) const;

  /// Human-readable name for reports.
  virtual std::string name() const = 0;

 protected:
  /// The actual blocking method, implemented by each subclass.
  virtual BlockCollection BuildBlocks(
      const model::EntityCollection& collection) const = 0;
};

}  // namespace weber::blocking

#endif  // WEBER_BLOCKING_BLOCK_H_
