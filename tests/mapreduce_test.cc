#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <ostream>
#include <string>

#include "blocking/token_blocking.h"
#include "datagen/corpus_generator.h"
#include "mapreduce/engine.h"
#include "mapreduce/parallel_meta_blocking.h"
#include "mapreduce/parallel_token_blocking.h"
#include "metablocking/pruning_schemes.h"
#include "obs/metrics.h"

namespace weber::mapreduce {
namespace {

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(100, 4, [&hits](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroItemsAndOneWorker) {
  int calls = 0;
  ParallelFor(0, 4, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> order;
  ParallelFor(5, 1, [&order](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MapReduceJobTest, WordCount) {
  std::vector<std::string> lines = {"a b a", "b c", "a"};
  MapReduceJob<std::string, std::string, int, std::pair<std::string, int>>
      job(
          [](const std::string& line, const auto& emit) {
            size_t start = 0;
            while (start < line.size()) {
              size_t end = line.find(' ', start);
              if (end == std::string::npos) end = line.size();
              if (end > start) emit(line.substr(start, end - start), 1);
              start = end + 1;
            }
          },
          [](const std::string& word, std::vector<int>& counts, auto& out) {
            out.emplace_back(word,
                             std::accumulate(counts.begin(), counts.end(), 0));
          });
  for (size_t workers : {1, 2, 4}) {
    JobStats stats;
    auto counts = job.Run(lines, workers, &stats);
    std::sort(counts.begin(), counts.end());
    ASSERT_EQ(counts.size(), 3u) << workers;
    EXPECT_EQ(counts[0], (std::pair<std::string, int>{"a", 3}));
    EXPECT_EQ(counts[1], (std::pair<std::string, int>{"b", 2}));
    EXPECT_EQ(counts[2], (std::pair<std::string, int>{"c", 1}));
    EXPECT_EQ(stats.intermediate_pairs, 6u);
    EXPECT_EQ(stats.distinct_keys, 3u);
  }
}

TEST(MapReduceJobTest, BalanceSpeedupReflectsPartitioning) {
  // A compute-heavy mapper split across 4 workers should report a load
  // balance close to 4 even on a single-core host (thread CPU time, not
  // wall time).
  std::vector<int> inputs(64, 20000);
  MapReduceJob<int, int, double, double> job(
      [](const int& n, const auto& emit) {
        double acc = 0.0;
        for (int i = 1; i <= n; ++i) acc += 1.0 / i;
        emit(n % 8, acc);
      },
      [](const int&, std::vector<double>& vs, auto& out) {
        double total = 0.0;
        for (double v : vs) total += v;
        out.push_back(total);
      });
  JobStats stats;
  job.Run(inputs, 4, &stats);
  EXPECT_GT(stats.map_balance_speedup, 2.0);
  EXPECT_LE(stats.map_balance_speedup, 4.0 + 1e-9);
  JobStats single;
  job.Run(inputs, 1, &single);
  EXPECT_DOUBLE_EQ(single.map_balance_speedup, 1.0);
}

TEST(MapReduceJobTest, StridedIntegerKeysSpreadAcrossReducers) {
  // libstdc++ hashes integers to themselves, so keys k*4 all satisfy
  // hash(key) % 4 == 0: without fingerprint mixing every group lands on
  // reducer 0 and reduce_balance_speedup collapses to 1. The splitmix64
  // finalizer must spread them across partitions.
  std::vector<int> inputs(256);
  std::iota(inputs.begin(), inputs.end(), 0);
  MapReduceJob<int, int, int, double> job(
      [](const int& i, const auto& emit) { emit(i * 4, i); },
      [](const int&, std::vector<int>& vs, auto& out) {
        // Heavy enough that the balance measurement sees real CPU time.
        double acc = 0.0;
        for (int v : vs) {
          for (int k = 1; k <= 20000; ++k) {
            acc += static_cast<double>(v) / k;
          }
        }
        out.push_back(acc);
      });
  JobStats stats;
  auto outputs = job.Run(inputs, 4, &stats);
  EXPECT_EQ(outputs.size(), 256u);
  EXPECT_EQ(stats.distinct_keys, 256u);
  EXPECT_GT(stats.reduce_balance_speedup, 2.0);
  EXPECT_LE(stats.reduce_balance_speedup, 4.0 + 1e-9);
}

TEST(ParallelForTest, WorkerCpuReported) {
  std::vector<double> cpu;
  ParallelFor(
      100, 4,
      [](size_t i) {
        volatile double acc = 0.0;
        for (size_t k = 0; k < 1000; ++k) {
          acc = acc + static_cast<double>(i + k);
        }
      },
      &cpu);
  ASSERT_EQ(cpu.size(), 4u);
  for (double c : cpu) EXPECT_GE(c, 0.0);
}

TEST(MapReduceJobTest, EmptyInput) {
  MapReduceJob<int, int, int, int> job(
      [](const int& x, const auto& emit) { emit(x, x); },
      [](const int&, std::vector<int>& vs, auto& out) {
        out.push_back(static_cast<int>(vs.size()));
      });
  EXPECT_TRUE(job.Run({}, 4).empty());
}

TEST(MapReduceJobTest, EmptyInputReportsZeroedStatsWithoutDispatch) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry attach(&registry);
  MapReduceJob<int, int, int, int> job(
      [](const int& x, const auto& emit) { emit(x, x); },
      [](const int&, std::vector<int>& vs, auto& out) {
        out.push_back(static_cast<int>(vs.size()));
      });
  JobStats stats;
  EXPECT_TRUE(job.Run({}, 8, &stats).empty());
  EXPECT_EQ(stats.intermediate_pairs, 0u);
  EXPECT_EQ(stats.distinct_keys, 0u);
  EXPECT_DOUBLE_EQ(stats.map_balance_speedup, 1.0);
  EXPECT_DOUBLE_EQ(stats.reduce_balance_speedup, 1.0);
  // The job is still accounted for, but no phase tasks were dispatched.
  obs::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("weber.mapreduce.jobs"), 1u);
  EXPECT_EQ(snap.counters.at("weber.mapreduce.intermediate_pairs"), 0u);
}

TEST(MapReduceJobTest, MoreWorkersThanInputs) {
  MapReduceJob<int, int, int, int> job(
      [](const int& x, const auto& emit) { emit(x % 2, x); },
      [](const int&, std::vector<int>& vs, auto& out) {
        out.push_back(std::accumulate(vs.begin(), vs.end(), 0));
      });
  auto sums = job.Run({1, 2, 3}, 16);
  std::sort(sums.begin(), sums.end());
  EXPECT_EQ(sums, (std::vector<int>{2, 4}));
}

// ---------------------------------------------------------------------------
// Parallel token blocking
// ---------------------------------------------------------------------------

class ParallelTokenBlockingWorkers : public ::testing::TestWithParam<size_t> {
};

TEST_P(ParallelTokenBlockingWorkers, MatchesSequentialBlocks) {
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.duplicate_fraction = 0.5;
  config.seed = 81;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection sequential =
      blocking::TokenBlocking().Build(corpus.collection);
  JobStats stats;
  blocking::BlockCollection parallel = ParallelTokenBlocking(
      corpus.collection, GetParam(), {}, &stats);
  ASSERT_EQ(parallel.NumBlocks(), sequential.NumBlocks());
  // Sequential blocks are keyed in sorted order (std::map); parallel
  // output is sorted explicitly — compare block by block.
  for (size_t b = 0; b < sequential.NumBlocks(); ++b) {
    EXPECT_EQ(parallel.blocks()[b].key, sequential.blocks()[b].key);
    EXPECT_EQ(parallel.blocks()[b].entities,
              sequential.blocks()[b].entities);
  }
  EXPECT_GT(stats.intermediate_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelTokenBlockingWorkers,
                         ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(ParallelTokenBlockingTest, HonoursOptions) {
  datagen::CorpusConfig config;
  config.num_entities = 60;
  config.seed = 82;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::TokenBlockingOptions options;
  options.min_token_length = 8;
  blocking::BlockCollection sequential =
      blocking::TokenBlocking(options).Build(corpus.collection);
  blocking::BlockCollection parallel =
      ParallelTokenBlocking(corpus.collection, 4, options);
  EXPECT_EQ(parallel.NumBlocks(), sequential.NumBlocks());
}

// ---------------------------------------------------------------------------
// Parallel meta-blocking
// ---------------------------------------------------------------------------

struct ParallelComboCase {
  metablocking::WeightScheme weights;
  metablocking::PruningScheme pruning;
  bool reciprocal;
  size_t workers;
};

// Without a printer gtest dumps the case's raw bytes, padding included,
// into the discovered test name.
void PrintTo(const ParallelComboCase& param, std::ostream* os) {
  *os << metablocking::ToString(param.weights) << "+"
      << metablocking::ToString(param.pruning)
      << (param.reciprocal ? " reciprocal" : "")
      << " workers=" << param.workers;
}

class ParallelMetaBlockingCombos
    : public ::testing::TestWithParam<ParallelComboCase> {};

TEST_P(ParallelMetaBlockingCombos, MatchesSequentialPairs) {
  datagen::CorpusConfig config;
  config.num_entities = 120;
  config.duplicate_fraction = 0.5;
  config.seed = 83;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);

  const ParallelComboCase& param = GetParam();
  metablocking::PruneOptions options;
  options.reciprocal = param.reciprocal;
  std::vector<model::IdPair> sequential = metablocking::MetaBlock(
      blocks, param.weights, param.pruning, options);
  std::sort(sequential.begin(), sequential.end());

  ParallelMetaBlockingStats stats;
  std::vector<model::IdPair> parallel = ParallelMetaBlock(
      blocks, param.weights, param.pruning, options, param.workers, &stats);

  EXPECT_EQ(parallel, sequential);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ParallelMetaBlockingCombos,
    ::testing::Values(
        ParallelComboCase{metablocking::WeightScheme::kCbs,
                          metablocking::PruningScheme::kWep, false, 4},
        ParallelComboCase{metablocking::WeightScheme::kJs,
                          metablocking::PruningScheme::kCep, false, 4},
        ParallelComboCase{metablocking::WeightScheme::kEcbs,
                          metablocking::PruningScheme::kWnp, false, 4},
        ParallelComboCase{metablocking::WeightScheme::kEcbs,
                          metablocking::PruningScheme::kWnp, true, 3},
        ParallelComboCase{metablocking::WeightScheme::kArcs,
                          metablocking::PruningScheme::kCnp, false, 2},
        ParallelComboCase{metablocking::WeightScheme::kArcs,
                          metablocking::PruningScheme::kCnp, true, 8},
        ParallelComboCase{metablocking::WeightScheme::kEjs,
                          metablocking::PruningScheme::kWnp, false, 4}),
    [](const ::testing::TestParamInfo<ParallelComboCase>& info) {
      return metablocking::ToString(info.param.weights) + "_" +
             metablocking::ToString(info.param.pruning) +
             (info.param.reciprocal ? "_recip" : "") + "_w" +
             std::to_string(info.param.workers);
    });

TEST(ParallelMetaBlockingTest, SingleWorkerWorks) {
  datagen::CorpusConfig config;
  config.num_entities = 50;
  config.seed = 84;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  auto sequential = metablocking::MetaBlock(
      blocks, metablocking::WeightScheme::kJs,
      metablocking::PruningScheme::kWep);
  std::sort(sequential.begin(), sequential.end());
  auto parallel = ParallelMetaBlock(blocks, metablocking::WeightScheme::kJs,
                                    metablocking::PruningScheme::kWep, {}, 1);
  EXPECT_EQ(parallel, sequential);
}

TEST(ParallelMetaBlockingTest, EmptyBlocks) {
  model::EntityCollection c;
  blocking::BlockCollection blocks(&c);
  auto pairs = ParallelMetaBlock(blocks, metablocking::WeightScheme::kCbs,
                                 metablocking::PruningScheme::kWep, {}, 4);
  EXPECT_TRUE(pairs.empty());
}

TEST(JobStatsObsTest, JobsPublishIntoAmbientRegistry) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry attach(&registry);

  std::vector<std::string> lines = {"a b a", "b c", "a", "c c d"};
  MapReduceJob<std::string, std::string, int, std::pair<std::string, int>>
      job(
          [](const std::string& line, const auto& emit) {
            std::string token;
            for (char c : line) {
              if (c == ' ') {
                if (!token.empty()) emit(token, 1);
                token.clear();
              } else {
                token += c;
              }
            }
            if (!token.empty()) emit(token, 1);
          },
          [](const std::string& key, std::vector<int>& values,
             std::vector<std::pair<std::string, int>>& out) {
            int total = 0;
            for (int v : values) total += v;
            out.emplace_back(key, total);
          });

  JobStats stats;
  job.Run(lines, /*workers=*/2, &stats);
  job.Run(lines, /*workers=*/2);  // Second job, no stats struct.

  obs::RegistrySnapshot snap = registry.TakeSnapshot();
  // The JobStats facade and the registry agree, and the registry
  // accumulates across jobs where the facade only sees the last one.
  EXPECT_EQ(snap.counters.at("weber.mapreduce.jobs"), 2u);
  EXPECT_EQ(snap.counters.at("weber.mapreduce.intermediate_pairs"),
            2 * stats.intermediate_pairs);
  EXPECT_EQ(snap.counters.at("weber.mapreduce.distinct_keys"),
            2 * stats.distinct_keys);
  EXPECT_EQ(snap.histograms.at("weber.mapreduce.map_seconds").count, 2u);
  EXPECT_GT(snap.gauges.at("weber.mapreduce.map_balance_speedup"), 0.0);
}

TEST(JobStatsObsTest, DetachedJobStillFillsFacade) {
  std::vector<int> inputs = {1, 2, 3, 4};
  MapReduceJob<int, int, int, int> job(
      [](int v, const auto& emit) { emit(v % 2, v); },
      [](int, std::vector<int>& values, std::vector<int>& out) {
        for (int v : values) out.push_back(v);
      });
  JobStats stats;
  std::vector<int> out = job.Run(inputs, 2, &stats);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(stats.intermediate_pairs, 4u);
  EXPECT_EQ(stats.distinct_keys, 2u);
}

}  // namespace
}  // namespace weber::mapreduce
