#ifndef WEBER_PROGRESSIVE_ORDERED_BLOCKS_H_
#define WEBER_PROGRESSIVE_ORDERED_BLOCKS_H_

#include "blocking/block.h"
#include "progressive/scheduler.h"

namespace weber::progressive {

/// Ordered-blocks hint (the third hint family of Whang et al., TKDE'13):
/// blocks are processed in ascending comparison cardinality — small
/// blocks are the most discriminative, so their pairs are the most likely
/// matches — and each block's pairs are emitted before the next block's.
/// Pairs already emitted by an earlier (smaller) block are skipped via
/// the least-common-block test, so the schedule is duplicate-free and,
/// run to exhaustion, covers exactly the blocking collection's distinct
/// pairs.
class OrderedBlocksScheduler : public PairScheduler {
 public:
  explicit OrderedBlocksScheduler(const blocking::BlockCollection& blocks);

  std::optional<model::IdPair> NextPair() override;

  std::string name() const override { return "OrderedBlocks"; }

 private:
  /// The blocks in emission (rank) order, so that the entity-to-block
  /// index lists each entity's blocks by ascending rank.
  blocking::BlockCollection ranked_;
  const blocking::BlockIndex& index_;

  size_t block_cursor_ = 0;  // Rank of the current block.
  size_t i_ = 0;             // Pair cursor inside the current block.
  size_t j_ = 1;
};

}  // namespace weber::progressive

#endif  // WEBER_PROGRESSIVE_ORDERED_BLOCKS_H_
