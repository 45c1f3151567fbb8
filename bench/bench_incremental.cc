// E13 (§IV): resolve-on-ingest serving — delta blocking vs rebuild.
//
// Claims to measure: (a) ingest throughput stays flat as the store grows,
// because absorbing an entity touches only its own tokens' postings
// (index_updates per entity is constant) while a rebuild would touch the
// whole index; (b) Resolve is a sub-millisecond lookup (union-find Find
// plus a member-list copy) even over a 100k-entity store.
//
// The workload is the serving-shaped synthetic corpus: each entity holds
// one unique token and one group token shared with exactly one partner,
// and the online purge cap bounds any posting that still grows too large.
//
// Rows: store size. Counters: entities/s, per-entity index updates,
// candidates, merges, and p50/p99 Resolve latency (microseconds), timed
// around each call in the bench loop.

#include <benchmark/benchmark.h>

#include <random>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "incremental/resolver.h"
#include "matching/matcher.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace weber {
namespace {

std::vector<model::EntityDescription> ServingCorpus(size_t n) {
  std::vector<model::EntityDescription> entities;
  entities.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    model::EntityDescription d("u/" + std::to_string(i));
    d.AddPair("p", "uniq" + std::to_string(i) + " grp" +
                       std::to_string(i % (n / 2 + 1)));
    entities.push_back(std::move(d));
  }
  return entities;
}

incremental::ResolverOptions ServingOptions() {
  incremental::ResolverOptions options;
  options.match_threshold = 0.6;
  // Online purging keeps any degenerate posting bounded.
  options.index.max_block_size = 64;
  return options;
}

void IngestAll(incremental::IncrementalResolver& resolver,
               std::vector<model::EntityDescription> entities,
               size_t batch_size) {
  for (size_t start = 0; start < entities.size(); start += batch_size) {
    size_t end = std::min(start + batch_size, entities.size());
    resolver.Ingest(std::vector<model::EntityDescription>(
        entities.begin() + static_cast<int64_t>(start),
        entities.begin() + static_cast<int64_t>(end)));
  }
}

void BM_IngestThroughput(benchmark::State& state) {
  const size_t store_size = static_cast<size_t>(state.range(0));
  std::vector<model::EntityDescription> entities = ServingCorpus(store_size);
  matching::TokenJaccardMatcher matcher;
  uint64_t index_updates = 0;
  uint64_t candidates = 0;
  uint64_t merges = 0;
  for (auto _ : state) {
    incremental::IncrementalResolver resolver(&matcher, ServingOptions());
    IngestAll(resolver, entities, 256);
    index_updates = resolver.index_stats().updates;
    candidates = resolver.candidates();
    merges = resolver.merges();
  }
  state.counters["entities_per_s"] = benchmark::Counter(
      static_cast<double>(store_size) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["updates_per_entity"] =
      static_cast<double>(index_updates) / static_cast<double>(store_size);
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["merges"] = static_cast<double>(merges);
}
BENCHMARK(BM_IngestThroughput)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_ResolveLatency(benchmark::State& state) {
  const size_t store_size = static_cast<size_t>(state.range(0));
  matching::TokenJaccardMatcher matcher;
  incremental::IncrementalResolver resolver(&matcher, ServingOptions());
  IngestAll(resolver, ServingCorpus(store_size), 256);

  std::mt19937 rng(7);
  std::uniform_int_distribution<model::EntityId> pick(
      0, static_cast<model::EntityId>(store_size - 1));
  obs::Histogram histogram(obs::Histogram::DefaultBounds());
  for (auto _ : state) {
    model::EntityId id = pick(rng);
    util::Timer timer;
    auto resolution = resolver.Resolve(id);
    histogram.Record(timer.ElapsedSeconds());
    benchmark::DoNotOptimize(resolution);
  }
  obs::HistogramSnapshot latency = histogram.Snapshot();
  state.counters["resolve_p50_us"] = latency.Quantile(0.5) * 1e6;
  state.counters["resolve_p99_us"] = latency.Quantile(0.99) * 1e6;
}
BENCHMARK(BM_ResolveLatency)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace weber

WEBER_BENCH_MAIN("bench_incremental");
