#ifndef WEBER_SERVE_SHARDED_RESOLVER_H_
#define WEBER_SERVE_SHARDED_RESOLVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "blocking/token_blocking.h"
#include "incremental/cluster_state.h"
#include "incremental/delta_index.h"
#include "incremental/entity_store.h"
#include "incremental/resolver.h"
#include "matching/clustering.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "model/entity.h"
#include "serve/vocabulary.h"
#include "storage/options.h"
#include "storage/status.h"
#include "storage/wal.h"
#include "util/stamp_set.h"

namespace weber::obs {
class MetricsRegistry;
}  // namespace weber::obs

namespace weber::serve {

/// Configuration of a ShardedResolver. Sorted-neighbourhood blocking and
/// merge propagation are single-shard features (both forgo the replay
/// exactness sharding is built on) and are intentionally absent.
struct ShardedResolverOptions {
  /// Shard count, 1..kMaxShards. One shard reproduces the single-store
  /// IncrementalResolver exactly; more shards split the same work.
  size_t shards = 1;

  /// Match decision threshold applied to the matcher's similarity.
  double match_threshold = 0.5;

  /// Delta token index configuration (normalisation, min token length,
  /// online purging cap) — shared with the batch TokenBlocking builder.
  blocking::TokenBlockingOptions index;

  /// Score candidates over interned signatures via the configured
  /// matcher's prepared twin, unbound so each side reads its own shard's
  /// store (bit-equal to the string path). Matchers PrepareCross cannot
  /// prepare (unknown types, the oracle) fall back to string scoring.
  bool prepared_matching = true;

  /// When non-empty, every mutation is write-ahead logged into per-shard
  /// WALs under data_dir/shard-NN/ before it is acknowledged, and
  /// construction recovers whatever the directory holds (check
  /// recovery_status() before serving). The directory must exist.
  std::string data_dir;
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kBatch;
  uint64_t batch_fsync_interval = 64;

  /// Metrics sink. When null the ambient obs::Current() registry of the
  /// calling thread is used (and may itself be null = detached).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Owner of a token the index's length filter drops (no token shard).
inline constexpr uint8_t kUnindexedToken = UINT8_MAX;

/// One token shard's phase-D output for an ingest batch: every batch
/// entity's candidates in batch order, entity k's run ending at ends[k]
/// and ascending in (position, posting order) within it.
struct TokenShardMail {
  std::vector<incremental::IncrementalTokenIndex::PositionedCandidate> mail;
  std::vector<size_t> ends;
};

/// Phase E of the batch protocol (public for its property test): for each
/// batch entity k (global id first_gid + k), walks its token positions in
/// order — token_owners[k][p] names the token shard owning position p, or
/// kUnindexedToken — and drains that shard's mail at p, appending each
/// other-id's first occurrence as IdPair(other, first_gid + k). A position
/// belongs to one shard and each run ascends by position, so this is the
/// (position, posting order) merge of the shards' runs with no sort and
/// no hash set: it reproduces the single-index emission order exactly.
void MergeMail(const std::vector<TokenShardMail>& mailboxes,
               const std::vector<std::span<const uint8_t>>& token_owners,
               model::EntityId first_gid, util::StampSet* seen,
               std::vector<model::IdPair>* candidates);

/// A hash-partitioned IncrementalResolver: the serving path split into N
/// independent shards whose replay is bit-equal to the single-shard
/// resolver for any shard count.
///
/// Entities are assigned to shards by MixFingerprint(gid) % N (gid = the
/// dense global id Ingest issues, identical to the single-store id
/// sequence); each shard owns an EntityStore, a SignatureStore and a
/// write-ahead log. The delta token index is partitioned *by token hash*
/// instead — a token's whole posting lives on one shard, so the online
/// purge cap fires at exactly the single-index counts. An ingest batch
/// runs in alternating parallel/serial phases:
///
///   A  per entity shard: tokenise, TF-IDF vectorise, vocabulary lookups;
///   B  serial: intern the batch's unknown tokens in (entity, position)
///      order into the shared vocabulary;
///   C  per entity shard: append store rows + WAL records, absorb the
///      pre-built signatures;
///   D  per token shard: positioned index absorb (the entity's owned
///      tokens passed by position, not copied), mailing each candidate
///      tagged with its shared-token position, one run per entity;
///   E  serial: the cross-shard merge (MergeMail) — per entity, walk its
///      token positions and drain the owning shard's run, keeping each
///      other-id's first occurrence through a stamp set: no sort, no hash
///      set, and exactly the single-index candidate emission order;
///   F  parallel: score candidates (cross-store prepared or string path);
///   G  serial: commit verdicts in candidate order into the global
///      union-find.
///
/// Parallel phases are capped at `shards`-way parallelism (executor
/// affinity), so shards=1 runs the whole batch inline and the shard count
/// is the unit of scaling the serve bench measures. Not thread-safe;
/// ShardedResolveService (serve/service.h) adds the concurrent front
/// door.
class ShardedResolver {
 public:
  /// WAL records carry a u64 shard participant mask.
  static constexpr size_t kMaxShards = 64;

  /// The matcher is borrowed and must outlive the resolver.
  explicit ShardedResolver(const matching::Matcher* matcher,
                           ShardedResolverOptions options = {});

  /// Outcome of construction-time recovery: always ok without a data_dir.
  /// A resolver whose recovery failed must not serve.
  const storage::Status& recovery_status() const { return recovery_status_; }

  /// Observer of every comparison in commit order.
  using ComparisonObserver =
      std::function<void(const model::IdPair&, bool matched)>;
  void set_comparison_observer(ComparisonObserver observer) {
    observer_ = std::move(observer);
  }

  /// Ingests a batch: assigns dense global ids, fans the work across the
  /// shards and commits the verdicts in deterministic order. Returns the
  /// assigned ids. Deterministic for any shard or thread count.
  std::vector<model::EntityId> Ingest(
      std::vector<model::EntityDescription> batch);

  /// The cluster of a live entity, or nullopt for unknown/removed ids.
  std::optional<incremental::IncrementalResolver::Resolution> Resolve(
      model::EntityId id);

  /// Retires an entity (same semantics as IncrementalResolver::Remove).
  bool Remove(model::EntityId id);

  /// All current clusters over live entities (singletons included,
  /// members ascending; same order as the single-shard resolver).
  matching::Clusters Clusters();

  /// Match edges accepted so far, in commit order, minus removed ones.
  const std::vector<model::IdPair>& matches() const {
    return clusters_.matches();
  }

  uint64_t comparisons() const { return comparisons_; }
  uint64_t candidates() const { return candidates_; }
  uint64_t merges() const { return clusters_.merges(); }
  /// Mutations applied (and, when durable, logged) so far — one per
  /// ingest batch or successful remove.
  uint64_t osn() const { return osn_next_; }

  size_t shards() const { return options_.shards; }
  size_t size() const { return row_of_.size(); }
  size_t live_count() const;
  bool alive(model::EntityId id) const;
  const model::EntityDescription& DescriptionOf(model::EntityId id) const;

  /// The entity shard owning a global id.
  static size_t ShardOf(model::EntityId id, size_t shards);

  /// Aggregated delta-index stats (sums over the token shards).
  incremental::DeltaIndexStats IndexStats() const;

  /// CRC32C witness of the externally observable state: every issued id's
  /// liveness + description plus the match edges in commit order. Two
  /// resolvers fed the same stream are digest-equal iff they resolved it
  /// identically — the shard-count bit-equality oracle.
  uint64_t StateDigest() const;

  /// Exports the merged token index (token-sorted across shards) for
  /// blocking-quality evaluation; byte-compatible with the single-shard
  /// resolver's export.
  blocking::BlockCollection IndexBlocks(
      const model::EntityCollection* collection) const;

  /// Dense copy of every issued description (tombstones included), ids
  /// preserved — the sharded analogue of store().collection().
  model::EntityCollection CollectionSnapshot() const;

  /// Forces every shard WAL to disk (checkpoint barrier). Ok when not
  /// durable.
  storage::Status Checkpoint();

 private:
  struct Shard {
    incremental::EntityStore store;  // Rows are shard-local.
    std::optional<matching::SignatureStore> signatures;
    storage::WriteAheadLog wal;
  };

  obs::MetricsRegistry* Registry() const;
  std::vector<model::EntityId> IngestLocked(
      std::vector<model::EntityDescription> batch, bool log);
  bool RemoveLocked(model::EntityId id, bool log);

  storage::Status RecoverOrInit();
  storage::Status InitFresh();
  storage::Status RecoverExisting();
  uint64_t ConfigFingerprint() const;
  std::string ShardDir(size_t shard) const;
  std::string WalPath(size_t shard) const;
  std::string MetaPath() const;

  matching::ThresholdMatcher matcher_;
  ShardedResolverOptions options_;
  matching::SignatureOptions signature_options_;
  std::unique_ptr<matching::PreparedMatcher> cross_;

  // Deque: Shard is pinned (WAL fd) and pointers into it are captured by
  // the signature stores' description providers.
  std::deque<Shard> shards_;
  std::vector<incremental::IncrementalTokenIndex> token_shards_;
  SharedVocabulary vocabulary_;
  /// Global id -> row within its owning shard's store.
  std::vector<uint32_t> row_of_;

  incremental::ClusterState clusters_;
  // Phase E's per-entity candidate dedup.
  util::StampSet seen_;
  ComparisonObserver observer_;
  uint64_t comparisons_ = 0;
  uint64_t candidates_ = 0;
  uint64_t batches_ = 0;
  uint64_t removed_ = 0;
  uint64_t osn_next_ = 0;

  bool durable_ = false;
  storage::Status recovery_status_;
};

}  // namespace weber::serve

#endif  // WEBER_SERVE_SHARDED_RESOLVER_H_
