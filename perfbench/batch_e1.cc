// batch_e1: RunPipeline on the E1 corpus, plus the batch == sharded
// bit-equality oracle that derives the expected values for the seed.

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "bench.h"
#include "bench/bench_util.h"
#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "core/pipeline.h"
#include "eval/blocking_metrics.h"
#include "incremental/resolver.h"
#include "matching/match_graph.h"
#include "matching/signatures.h"
#include "obs/metrics.h"
#include "progressive/scheduler.h"
#include "serve/sharded_resolver.h"

namespace weber::perfbench {

namespace {

constexpr size_t kE1Entities = 800;
constexpr double kThreshold = 0.5;
constexpr size_t kThreads = 4;
// One shard runs each Ingest inline: the oracle's latencies then measure
// the resolver, not how fast the host wakes executor threads. Its calls
// carry 64 entities, as on ingest_durable, so each takes milliseconds.
constexpr size_t kReplayShards = 1;
constexpr size_t kReplayBatch = 64;
// The rebuild that stands in for recovery ingests in larger calls, as on
// serve_mixed.
constexpr size_t kRebuildBatch = 256;
// One set-up takes about 5 ms; a setup_s sample is the mean of this many
// back-to-back set-ups, so it sits well above timer and scheduler noise.
constexpr size_t kSetupReps = 16;
// A Resolve of a resolved entity is a lookup of about 0.1 us, near what one
// clock reading resolves: a latency sample is the mean over a group of this
// many consecutive resolves. Every pass sweeps all entities this many times,
// so its p90 has about 35 groups beyond it and one interrupted group does
// not set it.
constexpr size_t kResolveGroup = 64;
constexpr size_t kResolveSweeps = 16;

// Reference values for seed 42, as first measured; every other seed relies
// on the derived expectations alone.
constexpr uint64_t kSeed42Comparisons = 681376;
constexpr double kSeed42F1 = 0.807018;

/// The system under test of one pass: the corpus and the configured
/// pipeline. Pinned in memory because the config borrows the stages.
struct E1 {
  datagen::Corpus corpus;
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  core::PipelineConfig config;

  explicit E1(uint64_t seed) : corpus(bench::DirtyCorpus(seed, kE1Entities)) {
    config.blocker = &blocker;
    config.matcher = &matcher;
    config.match_threshold = kThreshold;
    config.num_threads = kThreads;
  }
  E1(const E1&) = delete;
  E1& operator=(const E1&) = delete;
};

std::unique_ptr<serve::ShardedResolver> NewReplay(const E1& e1) {
  serve::ShardedResolverOptions options;
  options.shards = kReplayShards;
  options.match_threshold = kThreshold;
  return std::make_unique<serve::ShardedResolver>(&e1.matcher, options);
}

/// Streams the collection into `resolver` in `batch`-entity Ingest calls,
/// appending each call's latency when asked.
void Replay(serve::ShardedResolver& resolver,
            const model::EntityCollection& collection, size_t batch,
            std::vector<double>* latencies, Report& report) {
  uint64_t failed = 0, calls = 0;
  for (model::EntityId begin = 0; begin < collection.size(); begin += batch) {
    model::EntityId end = std::min<model::EntityId>(
        begin + batch, static_cast<model::EntityId>(collection.size()));
    std::vector<model::EntityDescription> descriptions;
    descriptions.reserve(end - begin);
    for (model::EntityId id = begin; id < end; ++id) {
      descriptions.push_back(collection.at(id));
    }
    Clock::time_point t = Clock::now();
    std::vector<model::EntityId> ids = resolver.Ingest(std::move(descriptions));
    if (latencies != nullptr) {
      latencies->push_back(SecondsBetween(t, Clock::now()));
    }
    ++calls;
    if (ids.size() != end - begin || ids.front() != begin) ++failed;
  }
  report.Ops(calls, failed);
  report.Check(failed == 0, "batch_e1: replay ids are dense");
}

std::vector<model::IdPair> SortedMatches(std::vector<model::IdPair> matches) {
  std::sort(matches.begin(), matches.end());
  return matches;
}

/// Checks a batch result against the expectations derived for this seed.
void CheckBatch(const Options& options, Report& report,
                const core::PipelineResult& result,
                const model::GroundTruth& truth, uint64_t expected_comparisons,
                double expected_f1) {
  double f1 = PairF1(result.matches, truth);
  report.Expect("batch_e1.comparisons",
                static_cast<double>(expected_comparisons),
                static_cast<double>(result.comparisons));
  report.Expect("batch_e1.f1", expected_f1, f1, 1e-12);
  report.Check(result.candidates == result.comparisons,
               "batch_e1: every candidate is compared");
  if (options.seed == 42) {
    report.Check(result.comparisons == kSeed42Comparisons,
                 "batch_e1: seed 42 makes 681376 comparisons");
    report.Check(std::abs(f1 - kSeed42F1) < 5e-7,
                 "batch_e1: seed 42 reaches F1 0.807018");
  }
}

}  // namespace

void MeasureBatchE1(const Options& options, Report& report) {
  // Times are host-scaled per phase (see HostClock); run_wall_s is not.
  std::vector<double> setup_s, run_s, run_wall_s, ingest_eps, rebuild_s;
  PassSamples ingest_lat, resolve_lat;
  uint64_t expected_comparisons = 0;
  double expected_f1 = 0.0;
  double f1 = 0.0;
  bool derived = false;

  HostClock host;
  PassLoop loop(options.seconds);
  while (loop.Next()) {
    std::unique_ptr<E1> e1;
    std::unique_ptr<serve::ShardedResolver> replay;
    Clock::time_point setup_start = Clock::now();
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
      replay.reset();
      e1 = std::make_unique<E1>(options.seed);
      replay = NewReplay(*e1);
    }
    double pass_setup_s = SecondsBetween(setup_start, Clock::now()) /
                          static_cast<double>(kSetupReps);
    const model::EntityCollection& collection = e1->corpus.collection;
    const model::GroundTruth& truth = e1->corpus.truth;

    // The bit-equality oracle: the same corpus streamed through the
    // sharded resolver must reproduce the batch comparisons and clusters;
    // the first pass derives the expectations.
    std::vector<double> ingest_s, resolve_s;
    Clock::time_point replay_start = Clock::now();
    Replay(*replay, collection, kReplayBatch, &ingest_s, report);
    double replay_s = SecondsBetween(replay_start, Clock::now());
    std::vector<model::IdPair> replay_matches = SortedMatches(replay->matches());
    if (!derived) {
      derived = true;
      expected_comparisons = replay->comparisons();
      expected_f1 = PairF1(replay_matches, truth);
    }

    Clock::time_point run_start = Clock::now();
    core::PipelineResult result =
        core::RunPipeline(collection, truth, e1->config);
    run_wall_s.push_back(SecondsBetween(run_start, Clock::now()));
    double scale = host.EndPhase();
    setup_s.push_back(pass_setup_s * scale);
    ingest_eps.push_back(static_cast<double>(collection.size()) /
                         (replay_s * scale));
    ingest_lat.AddPass(std::move(ingest_s), scale);
    run_s.push_back(run_wall_s.back() * scale);
    report.Ops(1, 0);

    CheckBatch(options, report, result, truth, expected_comparisons,
               expected_f1);
    std::vector<model::IdPair> batch_matches = SortedMatches(result.matches);
    report.Check(replay->comparisons() == result.comparisons,
                 "batch_e1: sharded replay makes the batch comparisons");
    report.Check(batch_matches == replay_matches,
                 "batch_e1: sharded replay finds the batch matches");
    f1 = PairF1(result.matches, truth);

    // Every entity's resolved cluster must be its batch cluster.
    std::vector<size_t> cluster_of(collection.size(), 0);
    matching::Clusters clusters = Canonical(result.clusters);
    for (size_t c = 0; c < clusters.size(); ++c) {
      for (model::EntityId id : clusters[c]) cluster_of[id] = c;
    }
    uint64_t resolve_failed = 0;
    std::vector<std::optional<incremental::IncrementalResolver::Resolution>>
        resolutions(kResolveGroup);
    for (size_t sweep = 0; sweep < kResolveSweeps; ++sweep) {
      for (model::EntityId begin = 0; begin < collection.size();
           begin += kResolveGroup) {
        model::EntityId end = std::min<model::EntityId>(
            begin + kResolveGroup,
            static_cast<model::EntityId>(collection.size()));
        Clock::time_point t = Clock::now();
        for (model::EntityId id = begin; id < end; ++id) {
          resolutions[id - begin] = replay->Resolve(id);
        }
        resolve_s.push_back(SecondsBetween(t, Clock::now()) /
                            static_cast<double>(end - begin));
        for (model::EntityId id = begin; id < end; ++id) {
          const auto& resolution = resolutions[id - begin];
          if (!resolution || resolution->members != clusters[cluster_of[id]]) {
            ++resolve_failed;
          }
        }
      }
    }
    report.Ops(kResolveSweeps * collection.size(), resolve_failed);
    report.Check(resolve_failed == 0,
                 "batch_e1: resolves return the batch clusters");

    // A pipeline keeps no state, so recovering the resolved E1 means
    // computing it again: a fresh resolver ingests the corpus in large
    // calls and must reach the batch result.
    Clock::time_point rebuild_start = Clock::now();
    std::unique_ptr<serve::ShardedResolver> rebuilt = NewReplay(*e1);
    Replay(*rebuilt, collection, kRebuildBatch, nullptr, report);
    double pass_rebuild_s = SecondsBetween(rebuild_start, Clock::now());
    report.Check(rebuilt->comparisons() == result.comparisons &&
                     SortedMatches(rebuilt->matches()) == batch_matches,
                 "batch_e1: the rebuild reaches the batch result");

    scale = host.EndPhase();
    rebuild_s.push_back(pass_rebuild_s * scale);
    resolve_lat.AddPass(std::move(resolve_s), scale);
  }

  report.set_run_wall_s(Median(run_wall_s));
  report.set_calibration_s(host.MedianS());
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  report.Metric("f1", f1, "ratio");
  report.Metric("ok_ratio", report.OkRatio(), "ratio");
  report.Metric("run_s", Median(run_s), "s");
  report.Metric("ingest_eps", Median(ingest_eps), "entities/s");
  report.Metric("ingest_p50_ms", ingest_lat.Ms(0.5), "ms");
  report.Metric("ingest_tail_ms", ingest_lat.Ms(kTailQ), "ms");
  report.Metric("recover_s", Median(rebuild_s), "s");
  report.Metric("resolve_p50_ms", resolve_lat.Ms(0.5), "ms");
  report.Metric("resolve_tail_ms", resolve_lat.Ms(kTailQ), "ms");
}

void TraceBatchE1(const Options& options, Report& report, Spans& spans,
                  double budget_s) {
  E1 e1(options.seed);
  const model::EntityCollection& collection = e1.corpus.collection;
  const model::GroundTruth& truth = e1.corpus.truth;
  uint64_t blocks_count = 0, candidates_count = 0, comparisons = 0;
  uint64_t tasks_run = 0, steals = 0;

  PassLoop loop(budget_s);
  while (loop.Next()) {
    // RunPipeline with the library's own registry attached: the traced
    // run_s, and the published counters.
    obs::MetricsRegistry registry;
    core::PipelineConfig traced = e1.config;
    traced.metrics = &registry;
    core::ExecutorStats before = core::Executor::Shared().Snapshot();
    core::PipelineResult result;
    {
      Spans::Scope span(&spans, "pipeline.run");
      result = core::RunPipeline(collection, truth, traced);
    }
    core::ExecutorStats after = core::Executor::Shared().Snapshot();
    tasks_run = after.tasks_run - before.tasks_run;
    steals = after.steals - before.steals;
    comparisons = result.comparisons;
    report.Check(registry.GetCounter("weber.pipeline.comparisons").Value() ==
                     result.comparisons,
                 "batch_e1: published comparisons match the result");

    // The step-by-step decomposition of RunPipeline at the same
    // parallelism; it must reproduce the comparisons and matches exactly.
    core::ScopedParallelism parallelism(kThreads);
    Spans::Scope steps(&spans, "pipeline.steps");
    blocking::BlockCollection blocks;
    {
      Spans::Scope span(&spans, "blocking.build");
      blocks = e1.blocker.Build(collection);
    }
    {
      Spans::Scope span(&spans, "eval.evaluate_blocks");
      eval::BlockingQuality quality = eval::EvaluateBlocks(blocks, truth);
      report.Check(quality.comparisons == result.candidates,
                   "batch_e1: evaluated blocks suggest the candidates");
    }
    std::vector<model::IdPair> candidates;
    {
      Spans::Scope span(&spans, "progressive.enumerate");
      blocks.VisitDistinctPairs([&candidates](model::EntityId a,
                                              model::EntityId b) {
        candidates.push_back(model::IdPair::Of(a, b));
      });
    }
    std::optional<matching::SignatureStore> signatures;
    std::unique_ptr<matching::PreparedMatcher> prepared;
    {
      Spans::Scope span(&spans, "matching.prepare");
      signatures.emplace(matching::SignatureStore::Build(
          collection, matching::OptionsFor(e1.matcher)));
      prepared = matching::Prepare(e1.matcher, *signatures);
    }
    if (!report.Check(prepared != nullptr, "batch_e1: the matcher prepares")) {
      break;
    }
    matching::ThresholdMatcher threshold_matcher(&e1.matcher, kThreshold);
    auto score = [&](const char* name) {
      progressive::StaticListScheduler scheduler(candidates);
      Spans::Scope span(&spans, name);
      return progressive::RunProgressive(
          collection, scheduler, threshold_matcher,
          std::numeric_limits<uint64_t>::max(), truth, prepared.get());
    };
    progressive::ProgressiveRunResult run = score("matching.score");
    matching::Clusters clusters;
    {
      Spans::Scope span(&spans, "matching.cluster");
      matching::MatchGraph graph(collection.size());
      for (const model::IdPair& pair : run.reported) {
        graph.AddMatch(pair.low, pair.high);
      }
      clusters = matching::ConnectedComponents(graph);
    }
    steps.End();
    report.Check(candidates.size() == result.candidates &&
                     run.comparisons == result.comparisons &&
                     run.reported == result.matches &&
                     Canonical(clusters) == Canonical(result.clusters),
                 "batch_e1: the decomposition reproduces RunPipeline");
    {
      core::ScopedParallelism serial(1);
      progressive::ProgressiveRunResult serial_run = score("matching.score_1t");
      report.Check(serial_run.reported == run.reported,
                   "batch_e1: serial scoring finds the same matches");
    }
    {
      // The prepared kernel alone, over the same candidates, one thread.
      Spans::Scope span(&spans, "matching.kernel");
      uint64_t matched = 0;
      for (const model::IdPair& pair : candidates) {
        matched += prepared->Matches(pair.low, pair.high, kThreshold) ? 1 : 0;
      }
      span.End();
      report.Check(matched == run.reported.size(),
                   "batch_e1: the kernel loop finds the same match count");
    }
    blocks_count = blocks.NumBlocks();
    candidates_count = candidates.size();
    report.Ops(1, 0);
  }

  double run = spans.MedianOf("pipeline.run");
  double parts = 0.0;
  for (const char* part :
       {"blocking.build", "eval.evaluate_blocks", "progressive.enumerate",
        "matching.prepare", "matching.score", "matching.cluster"}) {
    double seconds = spans.MedianOf(part);
    parts += seconds;
    report.Metric(std::string(part) + "_s", seconds, "s");
  }
  double kernel_pps =
      static_cast<double>(candidates_count) / spans.MedianOf("matching.kernel");
  report.Metric("matching.parallel_speedup",
                spans.MedianOf("matching.score_1t") /
                    spans.MedianOf("matching.score"),
                "x");
  report.Metric("matching.kernel_pairs_per_s", kernel_pps, "pairs/s");
  report.Metric("matching.efficiency",
                static_cast<double>(comparisons) / run / kernel_pps, "ratio");
  report.Metric("pipeline.glue_s", run - parts, "s");
  report.Metric("blocking.blocks", static_cast<double>(blocks_count), "count");
  report.Metric("progressive.candidates", static_cast<double>(candidates_count),
                "count");
  report.Metric("matching.comparisons", static_cast<double>(comparisons),
                "count");
  report.Metric("executor.tasks_run", static_cast<double>(tasks_run), "count");
  report.Metric("executor.steals", static_cast<double>(steals), "count");
}

}  // namespace weber::perfbench
