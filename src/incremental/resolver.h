#ifndef WEBER_INCREMENTAL_RESOLVER_H_
#define WEBER_INCREMENTAL_RESOLVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "blocking/sorted_neighborhood.h"
#include "blocking/token_blocking.h"
#include "incremental/cluster_state.h"
#include "incremental/delta_index.h"
#include "incremental/entity_store.h"
#include "matching/clustering.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "model/entity.h"
#include "model/ground_truth.h"

namespace weber::obs {
class MetricsRegistry;
}  // namespace weber::obs

namespace weber::storage {
class SnapshotCodec;
}  // namespace weber::storage

namespace weber::incremental {

/// Configuration of an IncrementalResolver.
struct ResolverOptions {
  /// Match decision threshold applied to the matcher's similarity.
  double match_threshold = 0.5;

  /// Delta token index configuration (normalisation, min token length,
  /// online purging cap) — shared with the batch TokenBlocking builder.
  blocking::TokenBlockingOptions index;

  /// When >= 2, an incremental sorted-neighbourhood pass of this window
  /// contributes candidates alongside the token index (streaming multi-
  /// pass blocking). Its pairs are a superset of the batch windows, so
  /// replay equivalence only holds with the token index alone (0).
  size_t sn_window = 0;
  blocking::SortedOrderOptions sn_options;

  /// R-Swoosh-style merge propagation (Section III semantics). Off: new
  /// candidates are scored on the stored descriptions, concurrently, with
  /// commits in emission order — replaying a collection then reproduces
  /// the batch pipeline exactly. On: candidates are scored serially on
  /// the *merged cluster representatives*, and every merge re-enqueues
  /// the merged representative for re-blocking against the index, so
  /// matches that need the combined evidence of earlier merges are found
  /// (at the cost of replay exactness, which merging intentionally
  /// forgoes).
  bool merge_propagation = false;

  /// Score candidates over interned signatures: each Ingest absorbs the
  /// new descriptions into a SignatureStore alongside the delta indexes,
  /// and the (non-propagating) batch scorer runs the PreparedMatcher twin
  /// of the configured matcher. Bit-equal to the string path; matchers the
  /// engine cannot prepare fall back to string scoring automatically.
  bool prepared_matching = true;

  /// Metrics sink. When null the ambient obs::Current() registry of the
  /// calling thread is used (and may itself be null = detached).
  obs::MetricsRegistry* metrics = nullptr;
};

/// An always-on resolver: ingest entities, ask which cluster an entity
/// belongs to, retire entities — without ever re-blocking the store.
///
/// Closes the Update loop of Fig. 1 as a service: the mutable EntityStore
/// holds the descriptions, delta indexes absorb each ingest and emit only
/// the new candidate pairs, the configured matcher scores them (in
/// parallel, committed in deterministic order), and a ClusterState
/// maintains the resolution. Not thread-safe: callers serialise access
/// (serve::ShardedResolveService is the concurrent front door).
class IncrementalResolver {
 public:
  /// The matcher is borrowed and must outlive the resolver.
  explicit IncrementalResolver(const matching::Matcher* matcher,
                               ResolverOptions options = {});

  /// Observer of every comparison in commit order (replay verification,
  /// progressive curves). In merge-propagation mode pairs are cluster
  /// representatives rather than raw ids.
  using ComparisonObserver =
      std::function<void(const model::IdPair&, bool matched)>;
  void set_comparison_observer(ComparisonObserver observer) {
    observer_ = std::move(observer);
  }

  /// Ingests a batch: appends to the store, absorbs into the delta
  /// indexes, scores the new candidate pairs and updates the clusters.
  /// Returns the assigned stable ids. Deterministic for any parallelism.
  std::vector<model::EntityId> Ingest(
      std::vector<model::EntityDescription> batch);

  /// One resolved cluster: its union-find representative and its live
  /// members in ascending id order.
  struct Resolution {
    model::EntityId representative = 0;
    std::vector<model::EntityId> members;
  };

  /// The cluster of a live entity, or nullopt for unknown/removed ids.
  std::optional<Resolution> Resolve(model::EntityId id);

  /// Retires an entity: tombstones the store row, drops it from the
  /// indexes, discards its match edges and re-derives the clusters from
  /// the surviving edges (so links that were only transitive through the
  /// removed entity dissolve). Returns false for unknown/removed ids.
  bool Remove(model::EntityId id);

  /// All current clusters over live entities (singletons included,
  /// members ascending; cluster order unspecified but deterministic).
  matching::Clusters Clusters();

  /// Match edges accepted so far, in commit order, minus edges retired by
  /// Remove.
  const std::vector<model::IdPair>& matches() const {
    return clusters_.matches();
  }

  uint64_t comparisons() const { return comparisons_; }
  uint64_t candidates() const { return candidates_; }
  uint64_t merges() const { return clusters_.merges(); }

  const EntityStore& store() const { return store_; }
  const DeltaIndexStats& index_stats() const { return token_index_.stats(); }

  /// The interned signature engine, or nullptr when prepared_matching is
  /// off (storage tests and bench_storage inspect it after snapshot load).
  const matching::SignatureStore* signatures() const {
    return signatures_.has_value() ? &*signatures_ : nullptr;
  }

  /// Exports the token index for blocking-quality evaluation.
  blocking::BlockCollection IndexBlocks(
      const model::EntityCollection* collection) const {
    return token_index_.ToBlocks(collection);
  }

 private:
  friend class weber::storage::SnapshotCodec;

  obs::MetricsRegistry* Registry() const;
  /// Merged description of a root's cluster (cached; singleton -> the
  /// stored description).
  const model::EntityDescription& RepOf(model::EntityId root);
  /// Scores the representatives of two distinct roots unless this exact
  /// (root, size) configuration was already scored. Appends newly merged
  /// roots to `requeue`.
  void ScoreRoots(model::EntityId ra, model::EntityId rb,
                  std::vector<model::EntityId>* requeue);
  void ResolveBatchPropagating(const std::vector<model::IdPair>& candidates);

  matching::ThresholdMatcher matcher_;
  ResolverOptions options_;

  EntityStore store_;
  IncrementalTokenIndex token_index_;
  std::unique_ptr<IncrementalSortedNeighborhood> sn_index_;
  // Signature engine (prepared_matching): every ingested description is
  // interned once; Remove tombstones its arena slot.
  std::optional<matching::SignatureStore> signatures_;
  std::unique_ptr<matching::PreparedMatcher> prepared_;

  ClusterState clusters_;
  // Merge-propagation state: cached merged representatives and the
  // (root pair -> cluster sizes) fingerprint of already-scored pairs.
  // Both are dropped whenever a Remove leaves the forest stale.
  std::unordered_map<model::EntityId,
                     std::unique_ptr<model::EntityDescription>>
      rep_cache_;
  std::unordered_map<model::IdPair, std::pair<uint32_t, uint32_t>,
                     model::IdPairHash>
      scored_roots_;

  ComparisonObserver observer_;
  uint64_t comparisons_ = 0;
  uint64_t candidates_ = 0;
  uint64_t requeues_ = 0;
  uint64_t batches_ = 0;
  uint64_t removed_ = 0;
};

}  // namespace weber::incremental

#endif  // WEBER_INCREMENTAL_RESOLVER_H_
