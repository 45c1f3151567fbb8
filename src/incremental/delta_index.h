#ifndef WEBER_INCREMENTAL_DELTA_INDEX_H_
#define WEBER_INCREMENTAL_DELTA_INDEX_H_

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blocking/block.h"
#include "blocking/sorted_neighborhood.h"
#include "blocking/token_blocking.h"
#include "model/entity.h"
#include "model/ground_truth.h"
#include "text/normalizer.h"
#include "util/stamp_set.h"

namespace weber::storage {
class SnapshotCodec;
}  // namespace weber::storage

namespace weber::incremental {

/// Lifetime counters of a delta index.
struct DeltaIndexStats {
  /// Postings created or extended by Absorb — the incremental work unit.
  /// Ingesting one entity bumps this by at most its distinct-token count,
  /// never by the index size: the counter that proves no full rebuild.
  uint64_t updates = 0;
  /// Full builds (always 0 on the serve path; kept for the rebuild-vs-
  /// delta comparison in tests and benches).
  uint64_t full_builds = 0;
  /// Tokens retired online by the posting-size cap.
  uint64_t purged_tokens = 0;
  /// Distinct tokens currently indexed (purged ones included).
  size_t tokens = 0;
};

/// Incrementally maintained token-blocking index.
///
/// Mirrors blocking::TokenBlocking over a mutable store: every distinct
/// normalised value token owns a posting of the entity ids featuring it.
/// Absorb(id, description) appends the new entity to its tokens' postings
/// and emits exactly the *new* candidate pairs — the pairs joining the new
/// entity with the entities already posted under a shared token. Because
/// every unordered pair has a unique later-ingested member, replaying a
/// collection through Absorb emits each distinct batch-blocking pair
/// exactly once, which is what makes ingest-mode resolution equivalent to
/// the one-shot pipeline.
///
/// The size cap applies block purging online (the streaming analogue of
/// TokenBlockingOptions::max_block_size): a posting that grows beyond the
/// cap is retired — its memory released, no further pairs emitted from it.
/// Pairs it emitted before crossing the cap are not retracted; retired
/// tokens are excluded from ToBlocks, matching the batch semantics of
/// dropping the oversized block outright.
class IncrementalTokenIndex {
 public:
  /// Options are shared with the batch blocker so one config drives both.
  explicit IncrementalTokenIndex(blocking::TokenBlockingOptions options = {})
      : options_(std::move(options)) {}

  /// Indexes a new entity and appends its new candidate pairs (each pair
  /// once, in first-shared-token order) to `new_pairs`. Ids must be
  /// absorbed in ascending order, once each.
  void Absorb(model::EntityId id, const model::EntityDescription& description,
              std::vector<model::IdPair>* new_pairs);

  /// A candidate found through a shared token, tagged with the token's
  /// position in the new entity's token list. Merging one entity's
  /// candidates from several token-partitioned indexes by (position,
  /// posting order) and keeping each other-id's first occurrence yields
  /// exactly the order Absorb emits from a single index.
  struct PositionedCandidate {
    model::EntityId other = 0;
    uint32_t position = 0;
  };

  /// Token-partitioned absorb: indexes only tokens[p] for each p in
  /// `positions` (ascending) — the entity's tokens this index owns, out of
  /// a list in TokensOf order that may also hold tokens it does not index.
  /// Appends PositionedCandidates tagged with p (deduplicated per call,
  /// first occurrence kept). Per-token behaviour (lazy compaction,
  /// purging, stats) is identical to Absorb, so splitting one entity's
  /// tokens across indexes by token and merging the tagged candidates
  /// reproduces the single-index stream.
  void AbsorbTokens(model::EntityId id, const std::vector<std::string>& tokens,
                    std::span<const uint32_t> positions,
                    std::vector<PositionedCandidate>* candidates);

  /// The normalised, length-filtered value tokens Absorb indexes, in
  /// emission order.
  std::vector<std::string> TokensOf(
      const model::EntityDescription& description) const;

  /// Probe: the distinct indexed entities sharing at least one token with
  /// `description`, in first-shared-token order. Leaves the postings
  /// untouched (it only uses the index's dedup scratch). Used to re-block
  /// merged representatives without inserting them.
  void Query(const model::EntityDescription& description,
             std::vector<model::EntityId>* candidates);

  /// Drops an entity from the index: it stops appearing in emitted pairs,
  /// queries and exported blocks. Postings are compacted lazily as they
  /// are next touched.
  void Remove(model::EntityId id);

  const DeltaIndexStats& stats() const { return stats_; }

  /// Exports the live postings as a BlockCollection (token-sorted, purged
  /// tokens dropped) — byte-compatible with TokenBlocking::Build over the
  /// same live entities, for evaluation and replay verification.
  blocking::BlockCollection ToBlocks(
      const model::EntityCollection* collection) const;

 private:
  friend class weber::storage::SnapshotCodec;

  struct Posting {
    std::vector<model::EntityId> entities;  // Ascending (absorb order).
    bool purged = false;
    // removed_.size() when `entities` was last compacted: removed_ only
    // grows, so an unchanged size means no id here was removed since.
    size_t compacted_at = 0;
  };

  /// Posts `id` under `token` and passes every not-yet-seen entity already
  /// posted there to `emit` (when `emit_candidates`).
  template <typename Emit>
  void Post(model::EntityId id, const std::string& token, bool emit_candidates,
            Emit&& emit);

  blocking::TokenBlockingOptions options_;
  std::unordered_map<std::string, Posting> postings_;
  // Tombstones read by compaction, ToBlocks and Query.
  // lint: allow(hot-path-dedup) state, not a per-entity dedup
  std::unordered_set<model::EntityId> removed_;
  // Per-entity candidate dedup of Absorb, AbsorbTokens and Query.
  util::StampSet seen_;
  // One past the largest id absorbed: the bound of every posted id.
  size_t id_bound_ = 0;
  DeltaIndexStats stats_;
};

/// Incrementally maintained sorted-neighbourhood pass.
///
/// Keeps the key-sorted order of all absorbed entities; absorbing a new
/// entity emits its pairs with the window-1 predecessors and successors at
/// insertion time. Unlike the token index this is not replay-exact: a
/// later insert can push two previously-adjacent entities beyond the
/// window, so streaming emits a *superset* of the batch windows (pairs are
/// never retracted — the standard incremental-SN trade-off, which only
/// ever adds candidates, never loses them).
class IncrementalSortedNeighborhood {
 public:
  explicit IncrementalSortedNeighborhood(
      size_t window, blocking::SortedOrderOptions options = {})
      : window_(window), options_(std::move(options)) {}

  /// Inserts the entity into the sort order and appends its new
  /// neighbourhood pairs (nearest first, predecessors before successors).
  void Absorb(model::EntityId id, const model::EntityDescription& description,
              std::vector<model::IdPair>* new_pairs);

  /// Removes the entity from the sort order.
  void Remove(model::EntityId id);

  size_t size() const { return order_.size(); }

 private:
  size_t window_;
  blocking::SortedOrderOptions options_;
  // Batch tie-break is (key, id), so the set order equals SortedOrder.
  std::set<std::pair<std::string, model::EntityId>> order_;
  std::unordered_map<model::EntityId, std::string> keys_;
};

}  // namespace weber::incremental

#endif  // WEBER_INCREMENTAL_DELTA_INDEX_H_
