#ifndef WEBER_BLOCKING_BLOCK_H_
#define WEBER_BLOCKING_BLOCK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/entity.h"
#include "model/ground_truth.h"

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

  const std::vector<Block>& blocks() const { return blocks_; }
  std::vector<Block>& mutable_blocks() { return blocks_; }
  size_t NumBlocks() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }

  /// Number of AddBlock calls, including blocks dropped as too small or
  /// suggesting no comparison: the raw key count the builder emitted.
  uint64_t keys_emitted() const { return keys_emitted_; }

  const model::EntityCollection* collection() const { return collection_; }

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

  /// Builds the inverted index from entity id to the (ascending) list of
  /// block indices that contain it.
  std::vector<std::vector<uint32_t>> EntityToBlocks() const;

  /// Index of the largest block, or -1 if empty.
  int64_t LargestBlock() const;

  /// Sorts blocks by ascending cardinality (comparison count); useful
  /// before purging and for progressive block processing.
  void SortBlocksBySize();

 private:
  std::vector<Block> blocks_;
  uint64_t keys_emitted_ = 0;
  const model::EntityCollection* collection_ = nullptr;
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
