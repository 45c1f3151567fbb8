#ifndef WEBER_CORE_PIPELINE_H_
#define WEBER_CORE_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "blocking/block.h"
#include "blocking/sorted_neighborhood.h"
#include "blocking/token_blocking.h"
#include "eval/blocking_metrics.h"
#include "eval/progressive_curve.h"
#include "matching/clustering.h"
#include "matching/matcher.h"
#include "metablocking/pruning_schemes.h"
#include "model/entity.h"
#include "model/ground_truth.h"
#include "progressive/scheduler.h"
#include "storage/options.h"

namespace weber::obs {
class MetricsRegistry;
}  // namespace weber::obs

namespace weber::core {

/// Incremental (resolve-on-ingest) execution of the pipeline: the
/// collection is replayed in ingest batches through an
/// incremental::IncrementalResolver (storage::DurableResolver when
/// data_dir is set), or a serve::ShardedResolver when shards > 1, instead
/// of being blocked and matched in one shot.
///
/// With merge_propagation off the result is *replay-equivalent*: the
/// final clusters equal the batch pipeline over the same collection with
/// a TokenBlocking blocker built from `index` (same options, purging cap
/// 0), for any batch_size and any num_threads. Dirty-ER only.
struct IncrementalMode {
  /// Entities per ingest batch (0 -> 64).
  size_t batch_size = 64;

  /// When > 1, the stream runs through the hash-partitioned
  /// serve::ShardedResolver with this many shards instead of the
  /// single-store resolver. Replay is bit-equal to shards == 1 for any
  /// count; parallelism scales with the shard count. Requires sn_window
  /// == 0 and merge_propagation off (both are single-shard features);
  /// durability uses per-shard WALs (snapshot_every is ignored).
  size_t shards = 1;

  /// Delta token-index configuration. A non-zero max_block_size applies
  /// purging online, which trades replay exactness for bounded postings.
  blocking::TokenBlockingOptions index;

  /// Optional incremental sorted-neighbourhood pass (>= 2 enables; emits
  /// a superset of the batch windows, so it also forgoes replay
  /// exactness).
  size_t sn_window = 0;
  blocking::SortedOrderOptions sn_options;

  /// R-Swoosh-style merge propagation (serial, representative-level
  /// scoring with re-blocking of merged clusters).
  bool merge_propagation = false;

  /// Durability: when non-empty, the run's resolver recovers from and
  /// write-ahead logs to this directory (see storage::DurableResolver),
  /// and the pipeline finishes with a checkpoint. Requires
  /// merge_propagation off.
  std::string data_dir;
  /// Checkpoint every N durable ops (0 = only the final checkpoint).
  uint64_t snapshot_every = 0;
  storage::FsyncPolicy fsync = storage::FsyncPolicy::kBatch;
};

/// Which clustering closes the pipeline.
enum class ClusteringAlgorithm {
  kConnectedComponents,
  kCenter,
  kMergeCenter,
};

/// Configuration of the end-to-end ER pipeline of Fig. 1:
///   Blocking -> (block cleaning / meta-blocking) -> Scheduling ->
///   Matching -> Update -> ... -> Clustering.
/// Stage objects are borrowed, not owned; they must outlive the pipeline
/// run.
struct PipelineConfig {
  /// Blocking phase (required unless `incremental` is set).
  const blocking::Blocker* blocker = nullptr;

  /// When set, the run streams the collection through the incremental
  /// resolver instead of the batch phases below. The blocker, block
  /// cleaning, meta-blocking, scheduler, budget and clustering choice are
  /// ignored (the delta token index blocks, union-find components
  /// cluster); matcher, match_threshold, num_threads and metrics apply
  /// unchanged.
  std::optional<IncrementalMode> incremental;

  /// Optional block cleaning: automatic purging of oversized blocks and
  /// per-entity block filtering (1.0 = keep all).
  bool auto_purge = false;
  double filter_ratio = 1.0;

  /// Optional meta-blocking; when set, the candidate pairs are the pruned
  /// blocking-graph edges instead of all distinct block pairs.
  std::optional<std::pair<metablocking::WeightScheme,
                          metablocking::PruningScheme>>
      meta_blocking;

  /// Scheduling phase: builds the pair scheduler from the candidate list.
  /// Default: a static schedule in candidate order (non-progressive).
  std::function<std::unique_ptr<progressive::PairScheduler>(
      const model::EntityCollection&, std::vector<model::IdPair>)>
      make_scheduler;

  /// Matching phase (required): matcher plus decision threshold.
  const matching::Matcher* matcher = nullptr;
  double match_threshold = 0.5;

  /// Score candidate pairs over interned signatures (SignatureStore +
  /// PreparedMatcher) instead of re-tokenising both descriptions per pair.
  /// Bit-equal to the string path for every matcher and thread count, so
  /// this only trades a one-off interning pass for much cheaper
  /// comparisons; matchers the engine cannot prepare fall back to the
  /// string path automatically. Off = always score from raw strings.
  bool prepared_matching = true;

  /// Comparison budget (0 = run the schedule to exhaustion).
  uint64_t budget = 0;

  /// Final clustering.
  ClusteringAlgorithm clustering = ClusteringAlgorithm::kConnectedComponents;

  /// Parallelism of the run: how many chunks the parallel hot paths
  /// (blocking index build, meta-blocking weighting/pruning, batched
  /// matching) cut their work into. 0 = use the shared executor's worker
  /// count; 1 = fully serial. Every stage is bit-deterministic across
  /// values of this knob, so it only trades wall-clock for cores.
  size_t num_threads = 0;

  /// Optional observability sink. When set, the run installs it as the
  /// ambient registry (obs::ScopedRegistry) so every layer — blockers,
  /// meta-blocking, the progressive runner, MapReduce jobs — reports into
  /// it, and the run itself emits one span per Fig. 1 phase plus
  /// `weber.pipeline.*` counters. When null (the default) instrumentation
  /// costs one relaxed atomic load per site.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Everything a pipeline run reports.
struct PipelineResult {
  /// Blocking quality (against the supplied truth).
  eval::BlockingQuality blocking_quality;
  /// Candidate pairs entering the scheduling phase.
  uint64_t candidates = 0;
  /// Comparisons executed by the matching phase.
  uint64_t comparisons = 0;
  /// Pairs declared matching.
  std::vector<model::IdPair> matches;
  /// Final clusters (singletons included).
  matching::Clusters clusters;
  /// Progressive trajectory of true-match discovery.
  eval::ProgressiveCurve curve{0};
  /// Incremental mode only: the resolver store's collection when it
  /// differs from the run's input — durable recovery pre-populates the
  /// store, so matches/clusters carry store ids past the input's range.
  /// Resolve ids against this collection when present.
  std::optional<model::EntityCollection> store_collection;
  /// Per-phase wall-clock seconds.
  double blocking_seconds = 0.0;
  double scheduling_seconds = 0.0;
  double matching_seconds = 0.0;
};

/// Runs the pipeline on a collection. `truth` drives the quality metrics
/// and the progressive curve; pass an empty GroundTruth when unknown (the
/// pipeline itself never peeks at it for decisions).
PipelineResult RunPipeline(const model::EntityCollection& collection,
                           const model::GroundTruth& truth,
                           const PipelineConfig& config);

/// Name of the Fig. 1 phase a pipeline run is currently executing
/// ("ingest", "blocking", "evaluation", "scheduling", "prepare",
/// "matching", "clustering"), or nullptr outside any run. Written by the
/// driving thread only; intended for crash/check-failure context handlers
/// (see util::SetCheckContextHandler), where a slightly stale answer from
/// a worker thread is acceptable.
const char* ActivePipelinePhase();

}  // namespace weber::core

#endif  // WEBER_CORE_PIPELINE_H_
