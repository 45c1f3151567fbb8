// Edge-condition coverage for the progressive machinery that the main
// progressive_test exercises only on happy paths.

#include <gtest/gtest.h>

#include <string>

#include "blocking/token_blocking.h"
#include "datagen/corpus_generator.h"
#include "matching/matcher.h"
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

TEST(SchedulerEdgeTest, BudgetZeroExecutesNothing) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  StaticListScheduler scheduler({model::IdPair::Of(0, 1)});
  matching::TokenJaccardMatcher matcher;
  ProgressiveRunResult result =
      RunProgressive(c, scheduler, {&matcher, 0.5}, 0, truth);
  EXPECT_EQ(result.comparisons, 0u);
  EXPECT_TRUE(result.reported.empty());
}

TEST(SchedulerEdgeTest, SelfPairsAndIncomparablePairsSkippedFree) {
  model::GroundTruth truth;
  model::EntityCollection c = ::weber::testing::TinyCleanClean(&truth);
  // Self-pair, same-source pair, then a real cross pair.
  StaticListScheduler scheduler({model::IdPair{1, 1},
                                 model::IdPair::Of(0, 1),
                                 model::IdPair::Of(0, 2)});
  matching::TokenJaccardMatcher matcher;
  ProgressiveRunResult result =
      RunProgressive(c, scheduler, {&matcher, 0.5}, 10, truth);
  // Only the comparable pair consumed budget.
  EXPECT_EQ(result.comparisons, 1u);
  ASSERT_EQ(result.reported.size(), 1u);
  EXPECT_EQ(result.reported[0], model::IdPair::Of(0, 2));
}

TEST(SchedulerEdgeTest, PsnmOnResultForUnknownPairIsHarmless) {
  model::EntityCollection c = TinyDirty(nullptr);
  PsnmScheduler scheduler(c);
  // Feedback about a pair that never came from this scheduler.
  scheduler.OnResult(model::IdPair::Of(100, 200), true);
  // Scheduler still works.
  EXPECT_TRUE(scheduler.NextPair().has_value());
}

TEST(SchedulerEdgeTest, PartitionHierarchyLevelProgression) {
  model::EntityCollection c = TinyDirty(nullptr);
  PartitionHierarchyScheduler scheduler(c, {8, 2, 0});
  EXPECT_EQ(scheduler.num_levels(), 3u);
  size_t last_level = 0;
  while (auto pair = scheduler.NextPair()) {
    // Levels only move forward.
    EXPECT_GE(scheduler.current_level(), last_level);
    last_level = scheduler.current_level();
  }
  EXPECT_EQ(last_level, 2u);
}

TEST(SchedulerEdgeTest, PartitionHierarchyDuplicateLevelsCollapsed) {
  model::EntityCollection c = TinyDirty(nullptr);
  PartitionHierarchyScheduler scheduler(c, {4, 4, 4, 0, 0});
  EXPECT_EQ(scheduler.num_levels(), 2u);
}

TEST(SchedulerEdgeTest, BenefitCostWindowLargerThanCandidates) {
  model::EntityCollection c = TinyDirty(nullptr);
  BenefitCostOptions options;
  options.window_size = 1000;
  BenefitCostScheduler scheduler(c, {{0, 1, 0.5}, {2, 3, 0.4}}, options);
  EXPECT_TRUE(scheduler.NextPair().has_value());
  EXPECT_TRUE(scheduler.NextPair().has_value());
  EXPECT_FALSE(scheduler.NextPair().has_value());
  EXPECT_EQ(scheduler.windows_built(), 1u);
}

TEST(SchedulerEdgeTest, OrderedBlocksWithRedundantBlocksStaysDistinct) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"a", {0, 1, 2}});
  blocks.AddBlock(blocking::Block{"b", {0, 1}});      // Subset block.
  blocks.AddBlock(blocking::Block{"c", {1, 2, 3}});
  OrderedBlocksScheduler scheduler(blocks);
  model::IdPairSet seen;
  while (auto pair = scheduler.NextPair()) {
    EXPECT_TRUE(seen.insert(*pair).second);
  }
  EXPECT_EQ(seen, blocks.DistinctPairs());
}

// A collection whose descriptions all share one blocking key, so every
// sort position ties with every other and every hierarchy level holds one
// partition of all of them.
model::EntityCollection TiedKeys(size_t n) {
  model::EntityCollection c;
  for (size_t i = 0; i < n; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("name", "same key");
    c.Add(d);
  }
  return c;
}

TEST(SchedulerEdgeTest, ProgressiveSnWithTiedKeysStaysDistinct) {
  model::EntityCollection c = TiedKeys(7);
  ProgressiveSnScheduler scheduler(c);
  model::IdPairSet seen;
  while (auto pair = scheduler.NextPair()) {
    EXPECT_LT(pair->low, pair->high);
    EXPECT_TRUE(seen.insert(*pair).second);
  }
  EXPECT_EQ(seen.size(), c.TotalComparisons());
}

TEST(SchedulerEdgeTest, PartitionHierarchyWithTiedKeysStaysDistinct) {
  model::EntityCollection c = TiedKeys(7);
  // Unsorted, repeated levels that all cover the one tied partition.
  PartitionHierarchyScheduler scheduler(c, {2, 8, 2, 0, 4});
  model::IdPairSet seen;
  while (auto pair = scheduler.NextPair()) {
    EXPECT_LT(pair->low, pair->high);
    EXPECT_TRUE(seen.insert(*pair).second);
  }
  EXPECT_EQ(seen.size(), c.TotalComparisons());
}

TEST(SchedulerEdgeTest, RunProgressiveStopsWhenScheduleExhausts) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  StaticListScheduler scheduler({model::IdPair::Of(0, 1)});
  matching::TokenJaccardMatcher matcher;
  ProgressiveRunResult result =
      RunProgressive(c, scheduler, {&matcher, 0.5}, 1'000'000, truth);
  EXPECT_EQ(result.comparisons, 1u);
}

TEST(SchedulerEdgeTest, SnSchedulerWithCustomKeyAttribute) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::SortedOrderOptions options;
  options.key_attribute = "city";
  ProgressiveSnScheduler scheduler(c, options);
  model::IdPairSet seen;
  while (auto pair = scheduler.NextPair()) seen.insert(*pair);
  EXPECT_EQ(seen.size(), c.TotalComparisons());
}

}  // namespace
}  // namespace weber::progressive
