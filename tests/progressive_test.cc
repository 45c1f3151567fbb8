#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "datagen/corpus_generator.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "obs/metrics.h"
#include "progressive/benefit_cost.h"
#include "progressive/ordered_blocks.h"
#include "progressive/partition_hierarchy.h"
#include "progressive/progressive_sn.h"
#include "progressive/psnm.h"
#include "progressive/scheduler.h"
#include "tests/test_corpus.h"

namespace weber::progressive {
namespace {

using ::weber::testing::TinyDirty;

datagen::Corpus MediumCorpus(uint64_t seed = 7) {
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.duplicate_fraction = 0.5;
  config.seed = seed;
  return datagen::CorpusGenerator(config).GenerateDirty();
}

// ---------------------------------------------------------------------------
// StaticListScheduler and RunProgressive
// ---------------------------------------------------------------------------

TEST(StaticListSchedulerTest, EmitsInOrderThenExhausts) {
  StaticListScheduler scheduler(
      {model::IdPair::Of(0, 1), model::IdPair::Of(2, 3)});
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(0, 1));
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(2, 3));
  EXPECT_FALSE(scheduler.NextPair().has_value());
}

TEST(RunProgressiveTest, BudgetCapsComparisons) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  std::vector<model::IdPair> all;
  for (model::EntityId i = 0; i < c.size(); ++i) {
    for (model::EntityId j = i + 1; j < c.size(); ++j) {
      all.push_back(model::IdPair::Of(i, j));
    }
  }
  StaticListScheduler scheduler(all);
  matching::TokenJaccardMatcher matcher;
  ProgressiveRunResult result =
      RunProgressive(c, scheduler, {&matcher, 0.4}, 5, truth);
  EXPECT_EQ(result.comparisons, 5u);
  EXPECT_EQ(result.curve.NumComparisons(), 5u);
}

TEST(RunProgressiveTest, DeduplicatesPairs) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  StaticListScheduler scheduler({model::IdPair::Of(0, 1),
                                 model::IdPair::Of(0, 1),
                                 model::IdPair::Of(2, 3)});
  matching::TokenJaccardMatcher matcher;
  ProgressiveRunResult result =
      RunProgressive(c, scheduler, {&matcher, 0.4}, 100, truth);
  EXPECT_EQ(result.comparisons, 2u);
}

TEST(RunProgressiveTest, ReportedMatchesAreMatcherPositives) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  StaticListScheduler scheduler({model::IdPair::Of(0, 1),
                                 model::IdPair::Of(0, 4)});
  matching::TokenJaccardMatcher matcher;
  ProgressiveRunResult result =
      RunProgressive(c, scheduler, {&matcher, 0.4}, 100, truth);
  ASSERT_EQ(result.reported.size(), 1u);
  EXPECT_EQ(result.reported[0], model::IdPair::Of(0, 1));
}

// ---------------------------------------------------------------------------
// Declared-distinct schedules (StaticListScheduler::FromDistinct)
// ---------------------------------------------------------------------------

TEST(StaticListSchedulerTest, OnlyFromDistinctDeclaresItsList) {
  std::vector<model::IdPair> pairs = {model::IdPair::Of(0, 1),
                                      model::IdPair::Of(2, 3)};
  EXPECT_EQ(StaticListScheduler(pairs).DistinctList(), nullptr);
  StaticListScheduler declared = StaticListScheduler::FromDistinct(pairs);
  ASSERT_NE(declared.DistinctList(), nullptr);
  EXPECT_EQ(*declared.DistinctList(), pairs);
  EXPECT_EQ(declared.NextPair(), model::IdPair::Of(0, 1));
}

// Everything a run reports that the two runner paths must agree on.
struct RunOutcome {
  uint64_t comparisons = 0;
  std::vector<model::IdPair> reported;
  std::vector<uint64_t> cumulative;
  double auc = 0.0;
  std::vector<uint64_t> counters;

  friend bool operator==(const RunOutcome&, const RunOutcome&) = default;
};

RunOutcome RunAndObserve(const model::EntityCollection& collection,
                         PairScheduler& scheduler,
                         const matching::ThresholdMatcher& matcher,
                         uint64_t budget, const model::GroundTruth& truth,
                         const matching::PreparedMatcher* prepared) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry attach(&registry);
  ProgressiveRunResult run = RunProgressive(collection, scheduler, matcher,
                                            budget, truth, prepared);
  RunOutcome outcome;
  outcome.comparisons = run.comparisons;
  outcome.reported = std::move(run.reported);
  outcome.cumulative = run.curve.CumulativeMatches();
  outcome.auc = run.curve.AreaUnderCurve();
  for (const char* name :
       {"weber.progressive.scheduled_pairs", "weber.progressive.skipped_pairs",
        "weber.progressive.comparisons", "weber.progressive.matches"}) {
    outcome.counters.push_back(registry.GetCounter(name).Value());
  }
  return outcome;
}

// A random list of distinct comparable pairs, in random order.
std::vector<model::IdPair> RandomDistinctPairs(
    const model::EntityCollection& collection, std::mt19937_64& rng) {
  std::vector<model::IdPair> all;
  for (model::EntityId a = 0; a < collection.size(); ++a) {
    for (model::EntityId b = a + 1; b < collection.size(); ++b) {
      if (collection.Comparable(a, b)) all.push_back({a, b});
    }
  }
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::uniform_int_distribution<size_t>(1, all.size())(rng));
  return all;
}

TEST(DistinctListProperty, SliceRunEqualsScreenedRun) {
  datagen::CorpusConfig config;
  config.num_entities = 40;
  config.duplicate_fraction = 0.5;
  matching::TokenJaccardMatcher jaccard;
  matching::ThresholdMatcher matcher(&jaccard, 0.5);
  for (bool clean_clean : {false, true}) {
    for (uint64_t seed : {1u, 2u}) {
      config.seed = seed;
      datagen::CorpusGenerator generator(config);
      datagen::Corpus corpus = clean_clean ? generator.GenerateCleanClean()
                                           : generator.GenerateDirty();
      const model::EntityCollection& c = corpus.collection;
      matching::SignatureStore store = matching::SignatureStore::Build(
          c, matching::OptionsFor(jaccard));
      std::unique_ptr<matching::PreparedMatcher> prepared =
          matching::Prepare(jaccard, store);
      ASSERT_NE(prepared, nullptr);
      std::mt19937_64 rng(seed);
      std::vector<model::IdPair> list = RandomDistinctPairs(c, rng);
      const uint64_t n = list.size();
      for (uint64_t budget : {uint64_t{0}, uint64_t{1}, n / 2, n, n + 5}) {
        for (size_t parallelism : {1u, 2u, 4u, 8u}) {
          core::ScopedParallelism scoped(parallelism);
          const matching::PreparedMatcher* engines[] = {nullptr,
                                                        prepared.get()};
          for (const matching::PreparedMatcher* engine : engines) {
            SCOPED_TRACE(::testing::Message()
                         << "clean_clean=" << clean_clean << " seed=" << seed
                         << " n=" << n << " budget=" << budget
                         << " parallelism=" << parallelism
                         << " prepared=" << (engine != nullptr));
            StaticListScheduler screened(list);
            StaticListScheduler declared =
                StaticListScheduler::FromDistinct(list);
            RunOutcome expected =
                RunAndObserve(c, screened, matcher, budget, corpus.truth,
                              engine);
            RunOutcome actual = RunAndObserve(c, declared, matcher, budget,
                                              corpus.truth, engine);
            EXPECT_EQ(actual.comparisons, std::min(budget, n));
            EXPECT_TRUE(actual == expected);
          }
        }
      }
    }
  }
}

#if WEBER_DCHECK_IS_ON()
TEST(DistinctListDeathTest, DuplicateSelfOrIncomparablePairFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  model::GroundTruth truth;
  model::EntityCollection dirty = TinyDirty(&truth);
  model::GroundTruth clean_truth;
  model::EntityCollection clean =
      ::weber::testing::TinyCleanClean(&clean_truth);
  matching::TokenJaccardMatcher matcher;
  auto run = [&](const model::EntityCollection& c,
                 const model::GroundTruth& t,
                 std::vector<model::IdPair> pairs) {
    StaticListScheduler scheduler =
        StaticListScheduler::FromDistinct(std::move(pairs));
    RunProgressive(c, scheduler, {&matcher, 0.4}, 100, t);
  };
  EXPECT_DEATH(run(dirty, truth,
                   {model::IdPair::Of(0, 1), model::IdPair::Of(2, 3),
                    model::IdPair::Of(0, 1)}),
               "\\(0, 1\\)");
  EXPECT_DEATH(run(dirty, truth, {model::IdPair{2, 2}}),
               "\\(2, 2\\)");
  EXPECT_DEATH(run(dirty, truth, {model::IdPair{3, 1}}),
               "\\(3, 1\\)");
  // Entities 0 and 1 come from the same source.
  EXPECT_DEATH(run(clean, clean_truth, {model::IdPair::Of(0, 1)}),
               "incomparable pair");
}
#endif

// ---------------------------------------------------------------------------
// Progressive sorted neighbourhood
// ---------------------------------------------------------------------------

TEST(ProgressiveSnTest, EmitsAllPairsExactlyOnce) {
  model::EntityCollection c = TinyDirty(nullptr);
  ProgressiveSnScheduler scheduler(c);
  model::IdPairSet seen;
  while (auto pair = scheduler.NextPair()) {
    EXPECT_TRUE(seen.insert(*pair).second);
  }
  EXPECT_EQ(seen.size(), c.TotalComparisons());
}

TEST(ProgressiveSnTest, DistanceOnePairsComeFirst) {
  model::EntityCollection c = TinyDirty(nullptr);
  ProgressiveSnScheduler scheduler(c);
  // First n-1 pairs are the adjacent-in-sort pairs.
  std::vector<model::IdPair> first;
  for (size_t k = 0; k + 1 < c.size(); ++k) {
    first.push_back(*scheduler.NextPair());
  }
  // Keys of 0 and 1 are identical ("alice paris"), so they are adjacent.
  EXPECT_NE(std::find(first.begin(), first.end(), model::IdPair::Of(0, 1)),
            first.end());
}

TEST(ProgressiveSnTest, FrontLoadsMatches) {
  datagen::Corpus corpus = MediumCorpus();
  matching::TokenJaccardMatcher matcher;
  uint64_t budget = corpus.collection.size() * 3;

  ProgressiveSnScheduler sn(corpus.collection);
  ProgressiveRunResult sn_run = RunProgressive(
      corpus.collection, sn, {&matcher, 0.5}, budget, corpus.truth);

  // Unordered baseline: the same budget over blocking pairs in hash
  // order.
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  std::vector<model::IdPair> unordered;
  for (const model::IdPair& pair : blocks.DistinctPairs()) {
    unordered.push_back(pair);
  }
  StaticListScheduler baseline(unordered);
  ProgressiveRunResult base_run = RunProgressive(
      corpus.collection, baseline, {&matcher, 0.5}, budget, corpus.truth);

  EXPECT_GT(sn_run.curve.RecallAt(budget), base_run.curve.RecallAt(budget));
}

// ---------------------------------------------------------------------------
// Partition hierarchy
// ---------------------------------------------------------------------------

TEST(PartitionHierarchyTest, CompleteAndDuplicateFree) {
  model::EntityCollection c = TinyDirty(nullptr);
  PartitionHierarchyScheduler scheduler(c);
  model::IdPairSet seen;
  while (auto pair = scheduler.NextPair()) {
    EXPECT_TRUE(seen.insert(*pair).second)
        << "duplicate " << pair->low << "," << pair->high;
  }
  EXPECT_EQ(seen.size(), c.TotalComparisons());
}

TEST(PartitionHierarchyTest, TightPartitionsFirst) {
  model::EntityCollection c = TinyDirty(nullptr);
  PartitionHierarchyScheduler scheduler(c);
  // The first emitted pair must be the identical-key pair {0,1}
  // ("alice paris" == "alice paris", 11-char common prefix).
  auto first = scheduler.NextPair();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, model::IdPair::Of(0, 1));
}

TEST(PartitionHierarchyTest, FrontLoadsMatches) {
  datagen::Corpus corpus = MediumCorpus(8);
  matching::TokenJaccardMatcher matcher;
  uint64_t budget = corpus.collection.size() * 3;
  // Sort on a full attribute value (not the global-token key, whose
  // Zipf-popular first tokens create huge shallow partitions).
  blocking::SortedOrderOptions sort_options;
  sort_options.key_attribute = "attr0";
  PartitionHierarchyScheduler hierarchy(
      corpus.collection, {16, 12, 8, 4, 2, 0}, sort_options);
  ProgressiveRunResult run = RunProgressive(
      corpus.collection, hierarchy, {&matcher, 0.5}, budget, corpus.truth);
  // Early recall with a tiny budget must clearly beat the uniform-random
  // expectation (budget / total_pairs).
  double uniform_expectation =
      static_cast<double>(budget) /
      static_cast<double>(corpus.collection.TotalComparisons());
  EXPECT_GT(run.curve.RecallAt(budget), 3 * uniform_expectation);
}

TEST(PartitionHierarchyTest, DegenerateLevels) {
  model::EntityCollection c = TinyDirty(nullptr);
  PartitionHierarchyScheduler scheduler(c, {0});
  EXPECT_EQ(scheduler.num_levels(), 1u);
  model::IdPairSet seen;
  while (auto pair = scheduler.NextPair()) seen.insert(*pair);
  EXPECT_EQ(seen.size(), c.TotalComparisons());
}

// ---------------------------------------------------------------------------
// Ordered blocks
// ---------------------------------------------------------------------------

TEST(OrderedBlocksTest, CoversDistinctPairsExactlyOnce) {
  datagen::Corpus corpus = MediumCorpus(11);
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  OrderedBlocksScheduler scheduler(blocks);
  model::IdPairSet seen;
  while (auto pair = scheduler.NextPair()) {
    EXPECT_TRUE(seen.insert(*pair).second)
        << "duplicate " << pair->low << "," << pair->high;
  }
  EXPECT_EQ(seen, blocks.DistinctPairs());
}

TEST(OrderedBlocksTest, SmallestBlocksFirst) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"big", {0, 1, 2, 3}});
  blocks.AddBlock(blocking::Block{"small", {4, 5}});
  OrderedBlocksScheduler scheduler(blocks);
  // The small block's single pair comes first despite being added last.
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(4, 5));
}

TEST(OrderedBlocksTest, FrontLoadsMatches) {
  datagen::Corpus corpus = MediumCorpus(12);
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  matching::TokenJaccardMatcher matcher;
  uint64_t budget = corpus.collection.size() * 3;
  OrderedBlocksScheduler ordered(blocks);
  ProgressiveRunResult ordered_run = RunProgressive(
      corpus.collection, ordered, {&matcher, 0.5}, budget, corpus.truth);
  std::vector<model::IdPair> unordered;
  for (const model::IdPair& pair : blocks.DistinctPairs()) {
    unordered.push_back(pair);
  }
  StaticListScheduler baseline(unordered);
  ProgressiveRunResult base_run = RunProgressive(
      corpus.collection, baseline, {&matcher, 0.5}, budget, corpus.truth);
  EXPECT_GT(ordered_run.curve.RecallAt(budget),
            base_run.curve.RecallAt(budget));
}

TEST(OrderedBlocksTest, EmptyBlocks) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  OrderedBlocksScheduler scheduler(blocks);
  EXPECT_FALSE(scheduler.NextPair().has_value());
}

// ---------------------------------------------------------------------------
// PSNM lookahead
// ---------------------------------------------------------------------------

TEST(PsnmTest, StillEmitsEveryPair) {
  model::EntityCollection c = TinyDirty(nullptr);
  PsnmScheduler scheduler(c);
  matching::TokenJaccardMatcher matcher;
  model::GroundTruth truth;
  model::EntityCollection c2 = TinyDirty(&truth);
  ProgressiveRunResult run =
      RunProgressive(c, scheduler, {&matcher, 0.4}, 10'000, truth);
  EXPECT_EQ(run.comparisons, c.TotalComparisons());
}

TEST(PsnmTest, LookaheadPromotesNeighbours) {
  // Construct a sort order with a dense duplicate region: after the match
  // at distance 1, PSNM should immediately probe the adjacent pairs
  // instead of finishing the distance-1 sweep.
  model::EntityCollection c;
  auto add = [&c](const std::string& name) {
    model::EntityDescription d("u" + std::to_string(c.size()));
    d.AddPair("name", name);
    c.Add(d);
  };
  add("aaa common");  // 0
  add("aaa common");  // 1
  add("aaa common");  // 2
  add("zzz other1");  // 3
  add("zzz other2");  // 4
  PsnmScheduler scheduler(c);
  matching::TokenJaccardMatcher matcher;
  // First pair: (0,1) at distance 1 -> match -> lookahead (1,2)* promoted
  // ((0,2) comes via (i, j+1)).
  auto first = scheduler.NextPair();
  ASSERT_TRUE(first.has_value());
  scheduler.OnResult(*first, true);
  auto second = scheduler.NextPair();
  ASSERT_TRUE(second.has_value());
  // The promoted pair involves entity 2 (the sort-neighbour), not the
  // unrelated tail of the distance-1 sweep.
  EXPECT_TRUE(second->low == 2 || second->high == 2)
      << second->low << "," << second->high;
}

TEST(PsnmTest, BeatsPlainSnOnClusteredDuplicates) {
  // PSNM pays off when matches concentrate in a few dense regions of the
  // sort (Papenbrock et al.): a minority of entities with many duplicates
  // amid singletons. Plain SN's distance-1 sweep wastes most of its
  // budget on singleton boundaries; PSNM chain-harvests each cluster the
  // moment its first pair matches.
  datagen::CorpusConfig config;
  config.num_entities = 100;
  config.duplicate_fraction = 0.15;
  config.max_extra_descriptions = 8;
  config.seed = 10;
  // Light noise so intra-cluster pairs reliably match.
  config.highly_similar_noise.token_edit_prob = 0.02;
  config.highly_similar_noise.token_drop_prob = 0.02;
  config.highly_similar_noise.attribute_drop_prob = 0.02;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  matching::TokenJaccardMatcher matcher;
  uint64_t budget = corpus.collection.size();

  ProgressiveSnScheduler sn(corpus.collection);
  ProgressiveRunResult sn_run = RunProgressive(
      corpus.collection, sn, {&matcher, 0.5}, budget, corpus.truth);
  PsnmScheduler psnm(corpus.collection);
  ProgressiveRunResult psnm_run = RunProgressive(
      corpus.collection, psnm, {&matcher, 0.5}, budget, corpus.truth);

  EXPECT_GT(psnm_run.curve.RecallAt(budget), sn_run.curve.RecallAt(budget));
}

// ---------------------------------------------------------------------------
// Benefit/cost windows
// ---------------------------------------------------------------------------

TEST(BenefitCostTest, ServesHighBenefitFirst) {
  model::EntityCollection c = TinyDirty(nullptr);
  std::vector<matching::ScoredPair> candidates = {
      {0, 2, 0.1}, {0, 1, 0.9}, {2, 3, 0.5}};
  BenefitCostScheduler scheduler(c, candidates, {});
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(0, 1));
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(2, 3));
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(0, 2));
  EXPECT_FALSE(scheduler.NextPair().has_value());
}

TEST(BenefitCostTest, WindowsAreRebuilt) {
  model::EntityCollection c = TinyDirty(nullptr);
  std::vector<matching::ScoredPair> candidates;
  for (model::EntityId i = 0; i < c.size(); ++i) {
    for (model::EntityId j = i + 1; j < c.size(); ++j) {
      candidates.push_back({i, j, 0.1});
    }
  }
  BenefitCostOptions options;
  options.window_size = 4;
  BenefitCostScheduler scheduler(c, candidates, options);
  size_t served = 0;
  while (scheduler.NextPair()) ++served;
  EXPECT_EQ(served, candidates.size());
  EXPECT_GE(scheduler.windows_built(), candidates.size() / 4);
}

TEST(BenefitCostTest, InfluenceBoostReordersNextWindow) {
  model::EntityCollection c = TinyDirty(nullptr);
  // Window 1 serves {0,1}; a match there must pull {1,2} (shares entity
  // 1) ahead of the higher-seeded {4,5} in window 2.
  std::vector<matching::ScoredPair> candidates = {
      {0, 1, 0.9}, {1, 2, 0.10}, {4, 5, 0.3}};
  BenefitCostOptions options;
  options.window_size = 1;
  options.entity_share_boost = 0.5;
  BenefitCostScheduler scheduler(c, candidates, options);
  auto first = scheduler.NextPair();
  ASSERT_EQ(first, model::IdPair::Of(0, 1));
  scheduler.OnResult(*first, true);
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(1, 2));
}

TEST(BenefitCostTest, NoBoostWithoutMatch) {
  model::EntityCollection c = TinyDirty(nullptr);
  std::vector<matching::ScoredPair> candidates = {
      {0, 1, 0.9}, {1, 2, 0.1}, {4, 5, 0.3}};
  BenefitCostOptions options;
  options.window_size = 1;
  BenefitCostScheduler scheduler(c, candidates, options);
  auto first = scheduler.NextPair();
  scheduler.OnResult(*first, false);
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(4, 5));
}

TEST(BenefitCostTest, RelationalInfluenceChannel) {
  // Two heads referencing two descriptions of the same tail: when the
  // tail pair matches, the head pair gets boosted.
  model::EntityCollection c;
  model::EntityDescription t1("kb/tail/1", "architect");
  t1.AddPair("name", "mies rohe");
  model::EntityDescription t2("kb/tail/2", "architect");
  t2.AddPair("name", "mies van rohe");
  model::EntityDescription h1("kb/head/1", "building");
  h1.AddPair("name", "pavilion");
  h1.AddRelation("architect", "kb/tail/1");
  model::EntityDescription h2("kb/head/2", "building");
  h2.AddPair("name", "pavillon");
  h2.AddRelation("architect", "kb/tail/2");
  model::EntityDescription u1("kb/other/1", "misc");
  u1.AddPair("name", "unrelated one");
  model::EntityDescription u2("kb/other/2", "misc");
  u2.AddPair("name", "unrelated two");
  c.Add(t1);  // 0
  c.Add(t2);  // 1
  c.Add(h1);  // 2
  c.Add(h2);  // 3
  c.Add(u1);  // 4
  c.Add(u2);  // 5
  std::vector<matching::ScoredPair> candidates = {
      {0, 1, 0.9},   // Tail pair, served first.
      {2, 3, 0.05},  // Head pair, low seed benefit.
      {4, 5, 0.3},   // Distractor sharing nothing with the match.
  };
  BenefitCostOptions options;
  options.window_size = 1;
  options.influence_boost = 0.6;
  BenefitCostScheduler scheduler(c, candidates, options);
  auto first = scheduler.NextPair();
  ASSERT_EQ(first, model::IdPair::Of(0, 1));
  scheduler.OnResult(*first, true);
  // Head pair boosted to 0.65 > distractor 0.3.
  EXPECT_EQ(scheduler.NextPair(), model::IdPair::Of(2, 3));
}

TEST(BenefitCostTest, DuplicateCandidatesIgnored) {
  model::EntityCollection c = TinyDirty(nullptr);
  std::vector<matching::ScoredPair> candidates = {
      {0, 1, 0.9}, {1, 0, 0.8}, {2, 3, 0.5}};
  BenefitCostScheduler scheduler(c, candidates, {});
  size_t served = 0;
  while (scheduler.NextPair()) ++served;
  EXPECT_EQ(served, 2u);
}

}  // namespace
}  // namespace weber::progressive
