#include "core/pipeline.h"

#include <atomic>
#include <limits>

#include "blocking/block_filtering.h"
#include "blocking/block_purging.h"
#include "core/executor.h"
#include "incremental/serving.h"
#include "matching/signatures.h"
#include "serve/service.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace weber::core {

namespace {

/// Phase the driving thread is currently executing, for check-failure
/// diagnostics (see ActivePipelinePhase). Stored as a pointer to a string
/// literal so readers in a crashing process never chase freed memory.
std::atomic<const char*> g_active_phase{nullptr};

/// Marks the enclosing scope as a named pipeline phase. Nests: leaving a
/// scope restores the phase that was active when it was entered.
class PhaseScope {
 public:
  explicit PhaseScope(const char* phase)
      : previous_(g_active_phase.exchange(phase, std::memory_order_relaxed)) {}
  ~PhaseScope() { g_active_phase.store(previous_, std::memory_order_relaxed); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* previous_;
};

/// The sharded resolve-on-ingest execution (IncrementalMode::shards > 1):
/// the same stream replayed through a serve::ShardedResolveService, whose
/// result is bit-equal to the single-shard path below.
PipelineResult RunShardedIncrementalPipeline(
    const model::EntityCollection& collection, const model::GroundTruth& truth,
    const PipelineConfig& config) {
  WEBER_CHECK(config.matcher != nullptr) << "pipeline needs a matcher";
  WEBER_CHECK(collection.setting() == model::ErSetting::kDirty)
      << "incremental mode resolves dirty collections";
  const IncrementalMode& mode = *config.incremental;
  WEBER_CHECK(mode.sn_window == 0 && !mode.merge_propagation)
      << "sorted-neighbourhood and merge propagation are single-shard "
         "features (shards == 1)";
  PipelineResult result;
  util::Timer timer;

  obs::ScopedRegistry attach(config.metrics);
  obs::MetricsRegistry* registry = obs::Current();
  obs::Span pipeline_span(registry, "pipeline");

  serve::ShardedServiceOptions service_options;
  service_options.max_batch = mode.batch_size == 0 ? 64 : mode.batch_size;
  service_options.resolver.shards = mode.shards;
  service_options.resolver.match_threshold = config.match_threshold;
  service_options.resolver.index = mode.index;
  service_options.resolver.prepared_matching = config.prepared_matching;
  service_options.resolver.metrics = registry;
  service_options.resolver.data_dir = mode.data_dir;
  service_options.resolver.fsync = mode.fsync;

  serve::ShardedResolveService service(config.matcher, service_options);
  WEBER_CHECK(service.recovery_status().ok())
      << "durable recovery failed: "
      << service.recovery_status().ToString();
  eval::ProgressiveCurve curve(truth.NumMatches());
  service.resolver().set_comparison_observer(
      [&curve, &truth](const model::IdPair& pair, bool matched) {
        curve.Record(matched && truth.IsMatch(pair));
      });

  {
    obs::Span span(registry, "ingest");
    PhaseScope phase("ingest");
    std::vector<model::EntityDescription> batch;
    batch.reserve(service_options.max_batch);
    for (model::EntityId id = 0; id < collection.size(); ++id) {
      batch.push_back(collection.at(id));
      if (batch.size() == service_options.max_batch) {
        serve::ShardedResolveService::IngestResult ingest =
            service.Ingest(std::move(batch));
        WEBER_CHECK(ingest.status == serve::ServeErrc::kOk)
            << "sharded ingest failed: "
            << serve::ServeErrcName(ingest.status);
        batch.clear();
        batch.reserve(service_options.max_batch);
      }
    }
    if (!batch.empty()) {
      serve::ShardedResolveService::IngestResult ingest =
          service.Ingest(std::move(batch));
      WEBER_CHECK(ingest.status == serve::ServeErrc::kOk)
          << "sharded ingest failed: "
          << serve::ServeErrcName(ingest.status);
    }
  }
  result.matching_seconds = timer.ElapsedSeconds();
  timer.Restart();

  serve::ShardedResolver& resolver = service.resolver();
  model::EntityCollection store_collection = resolver.CollectionSnapshot();

  blocking::BlockCollection blocks;
  {
    obs::Span span(registry, "blocking");
    PhaseScope phase("blocking");
    blocks = resolver.IndexBlocks(&store_collection);
    if (registry != nullptr) {
      registry->GetCounter("weber.pipeline.blocks").Add(blocks.NumBlocks());
    }
  }
  {
    obs::Span span(registry, "evaluation");
    PhaseScope phase("evaluation");
    result.blocking_quality = eval::EvaluateBlocks(blocks, truth);
  }
  result.blocking_seconds = timer.ElapsedSeconds();

  {
    obs::Span span(registry, "clustering");
    PhaseScope phase("clustering");
    result.clusters = resolver.Clusters();
  }

  result.candidates = resolver.candidates();
  result.comparisons = resolver.comparisons();
  result.matches = resolver.matches();
  result.curve = std::move(curve);
  if (resolver.size() != collection.size()) {
    result.store_collection = std::move(store_collection);
  }

  {
    obs::Span span(registry, "checkpoint");
    PhaseScope phase("checkpoint");
    storage::Status status = resolver.Checkpoint();
    WEBER_CHECK(status.ok())
        << "final checkpoint failed: " << status.ToString();
  }

  if (registry != nullptr) {
    registry->GetCounter("weber.pipeline.candidates").Add(result.candidates);
    registry->GetCounter("weber.pipeline.comparisons").Add(result.comparisons);
    registry->GetCounter("weber.pipeline.matches").Add(result.matches.size());
    registry->GetCounter("weber.pipeline.clusters")
        .Add(result.clusters.size());
    registry->GetCounter("weber.pipeline.runs").Increment();
    Executor::Shared().PublishMetrics();
  }
  return result;
}

/// The resolve-on-ingest execution: replays the collection through a
/// ResolveService in batches, then reads quality, clusters and counters
/// back out of the resolver. With merge propagation off this reproduces
/// the batch result exactly (see IncrementalMode).
PipelineResult RunIncrementalPipeline(const model::EntityCollection& collection,
                                      const model::GroundTruth& truth,
                                      const PipelineConfig& config) {
  WEBER_CHECK(config.matcher != nullptr) << "pipeline needs a matcher";
  WEBER_CHECK(collection.setting() == model::ErSetting::kDirty)
      << "incremental mode resolves dirty collections";
  PipelineResult result;
  util::Timer timer;

  obs::ScopedRegistry attach(config.metrics);
  obs::MetricsRegistry* registry = obs::Current();
  obs::Span pipeline_span(registry, "pipeline");
  ScopedParallelism parallelism(config.num_threads);

  const IncrementalMode& mode = *config.incremental;
  incremental::ServiceOptions service_options;
  service_options.max_batch = mode.batch_size == 0 ? 64 : mode.batch_size;
  service_options.resolver.match_threshold = config.match_threshold;
  service_options.resolver.index = mode.index;
  service_options.resolver.sn_window = mode.sn_window;
  service_options.resolver.sn_options = mode.sn_options;
  service_options.resolver.merge_propagation = mode.merge_propagation;
  service_options.resolver.prepared_matching = config.prepared_matching;
  service_options.resolver.metrics = registry;
  if (!mode.data_dir.empty()) {
    storage::DurabilityOptions durability;
    durability.data_dir = mode.data_dir;
    durability.snapshot_every = mode.snapshot_every;
    durability.fsync = mode.fsync;
    service_options.durability = durability;
  }

  incremental::ResolveService service(config.matcher, service_options);
  WEBER_CHECK(service.recovery_status().ok())
      << "durable recovery failed: "
      << service.recovery_status().ToString();
  eval::ProgressiveCurve curve(truth.NumMatches());
  service.resolver().set_comparison_observer(
      [&curve, &truth](const model::IdPair& pair, bool matched) {
        curve.Record(matched && truth.IsMatch(pair));
      });

  // ---- Ingest: blocking + matching + update, interleaved per batch. ----
  {
    obs::Span span(registry, "ingest");
    PhaseScope phase("ingest");
    std::vector<model::EntityDescription> batch;
    batch.reserve(service_options.max_batch);
    for (model::EntityId id = 0; id < collection.size(); ++id) {
      batch.push_back(collection.at(id));
      if (batch.size() == service_options.max_batch) {
        service.Ingest(std::move(batch));
        batch.clear();
        batch.reserve(service_options.max_batch);
      }
    }
    if (!batch.empty()) service.Ingest(std::move(batch));
  }
  result.matching_seconds = timer.ElapsedSeconds();
  timer.Restart();

  incremental::IncrementalResolver& resolver = service.resolver();

  // ---- Blocking quality, from the delta index's exported blocks. ----
  blocking::BlockCollection blocks;
  {
    obs::Span span(registry, "blocking");
    PhaseScope phase("blocking");
    blocks = resolver.IndexBlocks(&resolver.store().collection());
    if (registry != nullptr) {
      registry->GetCounter("weber.pipeline.blocks").Add(blocks.NumBlocks());
    }
  }
  {
    obs::Span span(registry, "evaluation");
    PhaseScope phase("evaluation");
    result.blocking_quality = eval::EvaluateBlocks(blocks, truth);
  }
  result.blocking_seconds = timer.ElapsedSeconds();

  // ---- Clustering: the union-find components the resolver maintained. --
  {
    obs::Span span(registry, "clustering");
    PhaseScope phase("clustering");
    result.clusters = resolver.Clusters();
  }

  result.candidates = resolver.candidates();
  result.comparisons = resolver.comparisons();
  result.matches = resolver.matches();
  result.curve = std::move(curve);
  if (resolver.store().size() != collection.size()) {
    result.store_collection = resolver.store().collection();
  }

  // ---- Durability: fold the run's WAL into a final snapshot. ----
  if (service.durable() != nullptr) {
    obs::Span span(registry, "checkpoint");
    PhaseScope phase("checkpoint");
    storage::Status status = service.Checkpoint();
    WEBER_CHECK(status.ok())
        << "final checkpoint failed: " << status.ToString();
  }

  if (registry != nullptr) {
    registry->GetCounter("weber.pipeline.candidates").Add(result.candidates);
    registry->GetCounter("weber.pipeline.comparisons").Add(result.comparisons);
    registry->GetCounter("weber.pipeline.matches").Add(result.matches.size());
    registry->GetCounter("weber.pipeline.clusters")
        .Add(result.clusters.size());
    registry->GetCounter("weber.pipeline.runs").Increment();
    Executor::Shared().PublishMetrics();
  }
  return result;
}

}  // namespace

const char* ActivePipelinePhase() {
  return g_active_phase.load(std::memory_order_relaxed);
}

PipelineResult RunPipeline(const model::EntityCollection& collection,
                           const model::GroundTruth& truth,
                           const PipelineConfig& config) {
  if (config.incremental.has_value()) {
    if (config.incremental->shards > 1) {
      return RunShardedIncrementalPipeline(collection, truth, config);
    }
    return RunIncrementalPipeline(collection, truth, config);
  }
  WEBER_CHECK(config.blocker != nullptr) << "pipeline needs a blocker";
  WEBER_CHECK(config.matcher != nullptr) << "pipeline needs a matcher";
  WEBER_CHECK_GT(config.filter_ratio, 0.0)
      << "filter_ratio must be positive (1.0 keeps every block)";
  PipelineResult result;
  util::Timer timer;

  // Make the configured registry ambient for every nested layer; a null
  // config.metrics leaves any caller-installed registry in place.
  obs::ScopedRegistry attach(config.metrics);
  obs::MetricsRegistry* registry = obs::Current();
  obs::Span pipeline_span(registry, "pipeline");
  // Pin the parallelism of every hot path for the whole run; 0 keeps the
  // shared executor's worker count (or an enclosing override).
  ScopedParallelism parallelism(config.num_threads);

  // ---- Blocking phase (plus optional cleaning). ----
  blocking::BlockCollection blocks;
  {
    obs::Span span(registry, "blocking");
    PhaseScope phase("blocking");
    blocks = config.blocker->Build(collection);
    size_t blocks_before_cleaning = blocks.NumBlocks();
    if (config.auto_purge) {
      blocking::AutoPurgeBlocks(blocks);
    }
    size_t blocks_after_purge = blocks.NumBlocks();
    if (config.filter_ratio < 1.0) {
      blocks = blocking::FilterBlocks(blocks, config.filter_ratio);
    }
    if (registry != nullptr) {
      registry->GetCounter("weber.pipeline.purged_blocks")
          .Add(blocks_before_cleaning - blocks_after_purge);
      registry->GetCounter("weber.pipeline.blocks")
          .Add(blocks.NumBlocks());
    }
  }
  {
    obs::Span span(registry, "evaluation");
    PhaseScope phase("evaluation");
    result.blocking_quality = eval::EvaluateBlocks(blocks, truth);
  }
  result.blocking_seconds = timer.ElapsedSeconds();
  timer.Restart();

  // ---- Candidate generation: meta-blocking or distinct block pairs. ----
  std::vector<model::IdPair> candidates;
  std::unique_ptr<progressive::PairScheduler> scheduler;
  {
    obs::Span span(registry, "scheduling");
    PhaseScope phase("scheduling");
    if (config.meta_blocking.has_value()) {
      candidates = metablocking::MetaBlock(blocks,
                                           config.meta_blocking->first,
                                           config.meta_blocking->second);
    } else {
      candidates = blocks.CandidatePairs();
    }
    result.candidates = candidates.size();
    if (registry != nullptr) {
      registry->GetCounter("weber.pipeline.candidates")
          .Add(result.candidates);
    }

    if (config.make_scheduler) {
      scheduler = config.make_scheduler(collection, std::move(candidates));
    } else {
      scheduler = std::make_unique<progressive::StaticListScheduler>(
          std::move(candidates));
    }
    WEBER_CHECK(scheduler != nullptr)
        << "make_scheduler returned null; the matching phase needs a "
        << "schedule";
  }
  result.scheduling_seconds = timer.ElapsedSeconds();
  timer.Restart();

  // ---- Matching + update phases under the budget. ----
  {
    obs::Span span(registry, "matching");
    PhaseScope phase("matching");
    matching::ThresholdMatcher threshold_matcher(config.matcher,
                                                 config.match_threshold);
    // Intern the collection once and score over signatures; bit-equal to
    // the string path, so the knob only trades build time for pair cost.
    std::optional<matching::SignatureStore> signatures;
    std::unique_ptr<matching::PreparedMatcher> prepared;
    if (config.prepared_matching && matching::Preparable(*config.matcher)) {
      obs::Span prepare_span(registry, "prepare");
      PhaseScope prepare_phase("prepare");
      util::Timer prepare_timer;
      signatures.emplace(matching::SignatureStore::Build(
          collection, matching::OptionsFor(*config.matcher)));
      prepared = matching::Prepare(*config.matcher, *signatures);
      if (prepared != nullptr) {
        signatures->PublishMetrics(prepare_timer.ElapsedSeconds());
      }
    }
    uint64_t budget = config.budget == 0
                          ? std::numeric_limits<uint64_t>::max()
                          : config.budget;
    progressive::ProgressiveRunResult run = progressive::RunProgressive(
        collection, *scheduler, threshold_matcher, budget, truth,
        prepared.get());
    result.comparisons = run.comparisons;
    result.matches = std::move(run.reported);
    result.curve = std::move(run.curve);
  }
  result.matching_seconds = timer.ElapsedSeconds();

  // ---- Clustering. ----
  {
    obs::Span span(registry, "clustering");
    PhaseScope phase("clustering");
    matching::MatchGraph graph(collection.size());
    for (const model::IdPair& pair : result.matches) {
      graph.AddMatch(pair.low, pair.high);
    }
    switch (config.clustering) {
      case ClusteringAlgorithm::kConnectedComponents:
        result.clusters = matching::ConnectedComponents(graph);
        break;
      case ClusteringAlgorithm::kCenter:
        result.clusters = matching::CenterClustering(graph);
        break;
      case ClusteringAlgorithm::kMergeCenter:
        result.clusters = matching::MergeCenterClustering(graph);
        break;
    }
  }

  if (registry != nullptr) {
    registry->GetCounter("weber.pipeline.comparisons").Add(result.comparisons);
    registry->GetCounter("weber.pipeline.matches").Add(result.matches.size());
    registry->GetCounter("weber.pipeline.clusters")
        .Add(result.clusters.size());
    registry->GetCounter("weber.pipeline.runs").Increment();
    // Flush what the executor accumulated during this run (tasks, steals,
    // utilization) into the same registry as the pipeline counters.
    Executor::Shared().PublishMetrics();
  }
  return result;
}

}  // namespace weber::core
