#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

#include "util/random.h"
#include "util/stamp_set.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace weber::util {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  bool any_difference = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedZeroReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, NextBoundedOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    if (v == -2) saw_lo = true;
    if (v == 2) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoolEdges) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolRoughlyMatchesProbability) {
  Rng rng(17);
  int heads = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.NextBool(0.3)) ++heads;
  }
  double rate = static_cast<double>(heads) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, ZipfSkewPrefersSmallIndices) {
  Rng rng(11);
  int first_bucket = 0;
  const int kTrials = 5000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.NextZipf(100, 1.0) == 0) ++first_bucket;
  }
  // Under skew 1.0 index 0 has probability ~1/H(100) ~ 0.19.
  EXPECT_GT(first_bucket, kTrials / 10);
}

TEST(RngTest, ZipfUniformWhenSkewZero) {
  Rng rng(13);
  int first_bucket = 0;
  const int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.NextZipf(10, 0.0) == 0) ++first_bucket;
  }
  EXPECT_NEAR(static_cast<double>(first_bucket) / kTrials, 0.1, 0.02);
}

TEST(RngTest, NextTokenHasRequestedLengthAndAlphabet) {
  Rng rng(19);
  std::string token = rng.NextToken(12);
  ASSERT_EQ(token.size(), 12u);
  for (char c : token) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<size_t> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementCappedAtN) {
  Rng rng(31);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(timer.ElapsedMicros(), 9000);
  EXPECT_GE(timer.ElapsedSeconds(), 0.009);
}

TEST(TimerTest, RestartResets) {
  Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  timer.Restart();
  EXPECT_LT(timer.ElapsedMicros(), 5000);
}

TEST(TimerTest, ElapsedIsMonotonic) {
  Timer timer;
  double previous = 0.0;
  for (int i = 0; i < 1000; ++i) {
    double now = timer.ElapsedSeconds();
    EXPECT_GE(now, previous);
    previous = now;
  }
  int64_t micros_before = timer.ElapsedMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(timer.ElapsedMicros(), micros_before);
}

TEST(TimerTest, ThreadCpuSecondsNonDecreasingUnderWork) {
  double previous = ThreadCpuSeconds();
  EXPECT_GE(previous, 0.0);
  volatile uint64_t sink = 0;
  for (int round = 0; round < 10; ++round) {
    for (uint64_t i = 0; i < 200000; ++i) sink += i;
    double now = ThreadCpuSeconds();
    EXPECT_GE(now, previous);
    previous = now;
  }
  // Enough work ran that the thread must have accumulated CPU time.
  EXPECT_GT(previous, 0.0);
}

TEST(TimerTest, ThreadCpuSecondsIsPerThread) {
  // A fresh thread starts from (near) zero CPU, independent of ours.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 2000000; ++i) sink += i;
  double fresh_thread_cpu = 1e9;
  std::thread probe([&fresh_thread_cpu] {
    fresh_thread_cpu = ThreadCpuSeconds();
  });
  probe.join();
  EXPECT_LT(fresh_thread_cpu, ThreadCpuSeconds());
}

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind forest(5);
  EXPECT_EQ(forest.num_sets(), 5u);
  EXPECT_FALSE(forest.Connected(0, 1));
  EXPECT_EQ(forest.SizeOf(3), 1u);
}

TEST(UnionFindTest, UnionMergesAndCounts) {
  UnionFind forest(6);
  EXPECT_TRUE(forest.Union(0, 1));
  EXPECT_TRUE(forest.Union(1, 2));
  EXPECT_FALSE(forest.Union(0, 2));  // Already connected.
  EXPECT_EQ(forest.num_sets(), 4u);
  EXPECT_TRUE(forest.Connected(0, 2));
  EXPECT_EQ(forest.SizeOf(1), 3u);
}

TEST(UnionFindTest, GroupsReturnsNonSingletons) {
  UnionFind forest(6);
  forest.Union(0, 1);
  forest.Union(3, 4);
  auto groups = forest.Groups();
  ASSERT_EQ(groups.size(), 2u);
  for (auto& group : groups) {
    std::sort(group.begin(), group.end());
  }
  std::sort(groups.begin(), groups.end());
  EXPECT_EQ(groups[0], (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<uint32_t>{3, 4}));
}

TEST(UnionFindTest, GroupsWithSingletonsCoversAll) {
  UnionFind forest(4);
  forest.Union(1, 2);
  auto groups = forest.Groups(/*include_singletons=*/true);
  size_t total = 0;
  for (const auto& group : groups) total += group.size();
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(groups.size(), 3u);
}

TEST(UnionFindTest, GrowAddsSingletons) {
  UnionFind forest(2);
  forest.Union(0, 1);
  forest.Grow(5);
  EXPECT_EQ(forest.num_elements(), 5u);
  EXPECT_EQ(forest.num_sets(), 4u);
  EXPECT_FALSE(forest.Connected(0, 4));
  EXPECT_TRUE(forest.Union(4, 0));
  EXPECT_TRUE(forest.Connected(1, 4));
}

TEST(UnionFindTest, GrowSmallerIsNoop) {
  UnionFind forest(5);
  forest.Grow(3);
  EXPECT_EQ(forest.num_elements(), 5u);
}

TEST(StampSetTest, ResetEmptiesTheSet) {
  StampSet set;
  set.Reset(8);
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));
  EXPECT_TRUE(set.Insert(7));
  set.Reset(8);
  EXPECT_TRUE(set.Insert(3));
  EXPECT_TRUE(set.Insert(7));
  // Growing the bound keeps the set's semantics for old and new ids.
  set.Reset(20);
  EXPECT_TRUE(set.Insert(3));
  EXPECT_TRUE(set.Insert(19));
  EXPECT_FALSE(set.Insert(19));
}

TEST(StampSetTest, NothingReadsAsSeenAfterTheGenerationWraps) {
  // An 8-bit stamp wraps every 255 resets. Id 0 is stamped in the first
  // generation only, id 1 never, id 2 in every generation: across three
  // wraps, a stale stamp that equals a restarted generation (or a
  // generation that comes back round to the fresh-array value) would make
  // id 0 or id 1 read as seen.
  BasicStampSet<uint8_t> set;
  set.Reset(3);
  EXPECT_TRUE(set.Insert(0));
  for (int round = 1; round <= 3 * 256; ++round) {
    set.Reset(3);
    EXPECT_FALSE(set.Contains(0)) << "round " << round;
    EXPECT_FALSE(set.Contains(1)) << "round " << round;
    EXPECT_TRUE(set.Insert(2)) << "round " << round;
    EXPECT_TRUE(set.Contains(2)) << "round " << round;
  }
}

}  // namespace
}  // namespace weber::util
