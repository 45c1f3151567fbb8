// E6 (§II, [18][10][11]): MapReduce-parallel blocking and meta-blocking.
//
// Claim to reproduce (Dedoop; Efthymiou et al. parallel meta-blocking):
// both token blocking and entity-based parallel meta-blocking scale
// near-linearly with the number of workers (on our in-process MapReduce
// substrate, threads stand in for Hadoop nodes).
//
// SUBSTITUTION NOTE: this container exposes a single CPU core, so wall
// clock cannot show real speedup. The series to check is therefore the
// `*_balance_speedup` counters — per-worker thread-CPU sums over the
// slowest worker, i.e., the speedup the same partitioning realises on
// ideal cores. Near-linear balance (≈workers) reproduces the published
// shape; outputs are verified bit-equal to the sequential algorithms in
// tests/mapreduce_test.cc regardless of worker count.
//
// The executor-backed rows measure the same shape for the in-library hot
// paths (meta-blocking weighting/pruning and batched progressive
// matching) on the shared work-stealing pool: `balance_speedup` is read
// back from the `weber.executor.parallel_for_balance` histogram the
// ParallelFor calls publish. The distinct-matching rows time the
// declared-distinct slice against the screened batches in wall-clock.
//
// Rows: (job, workers).

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "blocking/block_purging.h"
#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "mapreduce/parallel_meta_blocking.h"
#include "mapreduce/parallel_token_blocking.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "metablocking/pruning_schemes.h"
#include "obs/metrics.h"
#include "progressive/scheduler.h"

namespace weber {
namespace {

const datagen::Corpus& Corpus() {
  static const datagen::Corpus& corpus = *new datagen::Corpus(
      bench::DirtyCorpus(/*seed=*/17, /*num_entities=*/4000));
  return corpus;
}

const blocking::BlockCollection& Blocks() {
  static const blocking::BlockCollection& blocks = *[] {
    auto* b = new blocking::BlockCollection(
        blocking::TokenBlocking().Build(Corpus().collection));
    blocking::AutoPurgeBlocks(*b);
    return b;
  }();
  return blocks;
}

void BM_ParallelTokenBlocking(benchmark::State& state) {
  const datagen::Corpus& corpus = Corpus();
  size_t workers = static_cast<size_t>(state.range(0));
  mapreduce::JobStats stats;
  for (auto _ : state) {
    auto blocks =
        mapreduce::ParallelTokenBlocking(corpus.collection, workers, {},
                                         &stats);
    benchmark::DoNotOptimize(blocks);
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["map_balance_speedup"] = stats.map_balance_speedup;
  state.counters["reduce_balance_speedup"] = stats.reduce_balance_speedup;
  state.counters["map_s"] = stats.map_seconds;
  state.counters["shuffle_s"] = stats.shuffle_seconds;
  state.counters["intermediate"] =
      static_cast<double>(stats.intermediate_pairs);
}
BENCHMARK(BM_ParallelTokenBlocking)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

void BM_ParallelMetaBlocking(benchmark::State& state) {
  size_t workers = static_cast<size_t>(state.range(0));
  mapreduce::ParallelMetaBlockingStats stats;
  for (auto _ : state) {
    auto pairs = mapreduce::ParallelMetaBlock(
        Blocks(), metablocking::WeightScheme::kJs,
        metablocking::PruningScheme::kWnp, {}, workers, &stats);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["weighting_balance_speedup"] =
      stats.weighting_balance_speedup;
  state.counters["weighting_s"] = stats.weighting_seconds;
  state.counters["combine_s"] = stats.combine_seconds;
}
BENCHMARK(BM_ParallelMetaBlocking)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

// Mean chunk balance of the ParallelFor calls issued while `fn` ran: the
// speedup this partitioning realises on ideal cores (see the substitution
// note above).
double MeasuredBalance(const std::function<void()>& fn) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry attach(&registry);
  fn();
  obs::RegistrySnapshot snap = registry.TakeSnapshot();
  auto it = snap.histograms.find("weber.executor.parallel_for_balance");
  return it == snap.histograms.end() ? 1.0 : it->second.Mean();
}

void BM_ExecutorMetaBlocking(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  core::ScopedParallelism parallelism(threads);
  for (auto _ : state) {
    auto pairs = metablocking::MetaBlock(Blocks(),
                                         metablocking::WeightScheme::kJs,
                                         metablocking::PruningScheme::kWnp);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["workers"] = static_cast<double>(threads);
  state.counters["balance_speedup"] = MeasuredBalance([] {
    auto pairs = metablocking::MetaBlock(Blocks(),
                                         metablocking::WeightScheme::kJs,
                                         metablocking::PruningScheme::kWnp);
    benchmark::DoNotOptimize(pairs);
  });
}
BENCHMARK(BM_ExecutorMetaBlocking)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

void BM_ExecutorBatchedMatching(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  core::ScopedParallelism parallelism(threads);
  const datagen::Corpus& corpus = Corpus();
  std::vector<model::IdPair> candidates = metablocking::MetaBlock(
      Blocks(), metablocking::WeightScheme::kJs,
      metablocking::PruningScheme::kWnp);
  matching::TokenJaccardMatcher matcher;
  matching::ThresholdMatcher threshold(&matcher, 0.5);
  auto run = [&] {
    progressive::StaticListScheduler scheduler(candidates);
    auto result = progressive::RunProgressive(
        corpus.collection, scheduler, threshold, candidates.size(),
        corpus.truth);
    benchmark::DoNotOptimize(result);
  };
  for (auto _ : state) run();
  state.counters["workers"] = static_cast<double>(threads);
  state.counters["balance_speedup"] = MeasuredBalance(run);
}
BENCHMARK(BM_ExecutorBatchedMatching)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

// The same candidates scored with the prepared Jaccard, through the
// screened batch loop (declared = 0) or declared distinct and scored as
// one slice (declared = 1). Wall-clock time only: the balance gauge reads
// the last ParallelFor, which for the batch loop is one small batch.
void BM_ExecutorDistinctMatching(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  bool declared = state.range(1) != 0;
  core::ScopedParallelism parallelism(threads);
  const datagen::Corpus& corpus = Corpus();
  std::vector<model::IdPair> candidates = metablocking::MetaBlock(
      Blocks(), metablocking::WeightScheme::kJs,
      metablocking::PruningScheme::kWnp);
  matching::TokenJaccardMatcher matcher;
  matching::ThresholdMatcher threshold(&matcher, 0.5);
  matching::SignatureStore store = matching::SignatureStore::Build(
      corpus.collection, matching::OptionsFor(matcher));
  std::unique_ptr<matching::PreparedMatcher> prepared =
      matching::Prepare(matcher, store);
  for (auto _ : state) {
    progressive::StaticListScheduler scheduler =
        declared ? progressive::StaticListScheduler::FromDistinct(candidates)
                 : progressive::StaticListScheduler(candidates);
    auto result = progressive::RunProgressive(
        corpus.collection, scheduler, threshold, candidates.size(),
        corpus.truth, prepared.get());
    benchmark::DoNotOptimize(result);
  }
  state.counters["workers"] = static_cast<double>(threads);
  state.counters["pairs"] = static_cast<double>(candidates.size());
}
BENCHMARK(BM_ExecutorDistinctMatching)
    ->ArgNames({"workers", "declared"})
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

}  // namespace
}  // namespace weber

WEBER_BENCH_MAIN("bench_parallel_scaling");
