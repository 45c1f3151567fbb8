// Property tests against independent reference implementations and
// random inputs: the fast/pruned algorithms must agree with their naive
// counterparts, and core invariants must hold over randomised corpora.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "blocking/token_blocking.h"
#include "datagen/corpus_generator.h"
#include "eval/blocking_metrics.h"
#include "metablocking/pruning_schemes.h"
#include "metablocking/weight_schemes.h"
#include "progressive/partition_hierarchy.h"
#include "progressive/progressive_sn.h"
#include "text/similarity.h"
#include "util/random.h"

namespace weber {
namespace {

// ---------------------------------------------------------------------------
// Levenshtein vs full-matrix reference
// ---------------------------------------------------------------------------

size_t ReferenceLevenshtein(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> dp(a.size() + 1,
                                      std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) dp[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) dp[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      dp[i][j] = std::min({dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] +
                               (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return dp[a.size()][b.size()];
}

class RandomStringsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomStringsProperty, LevenshteinMatchesReference) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    std::string a = rng.NextToken(rng.NextBounded(14));
    std::string b = rng.NextToken(rng.NextBounded(14));
    EXPECT_EQ(text::LevenshteinDistance(a, b), ReferenceLevenshtein(a, b))
        << a << " vs " << b;
  }
}

TEST_P(RandomStringsProperty, CharacterSimilaritiesBoundedAndReflexive) {
  util::Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 60; ++trial) {
    std::string a = rng.NextToken(1 + rng.NextBounded(12));
    std::string b = rng.NextToken(1 + rng.NextBounded(12));
    for (auto fn : {text::LevenshteinSimilarity, text::JaroSimilarity}) {
      double sim = fn(a, b);
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0);
      EXPECT_DOUBLE_EQ(fn(a, a), 1.0);
      EXPECT_DOUBLE_EQ(fn(a, b), fn(b, a)) << a << " " << b;
    }
    double jw = text::JaroWinklerSimilarity(a, b);
    EXPECT_GE(jw, text::JaroSimilarity(a, b) - 1e-12);
    EXPECT_LE(jw, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStringsProperty,
                         ::testing::Values(1, 2, 3, 4, 5),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Least-common-block walk vs hash-set reference over random blocks
// ---------------------------------------------------------------------------

// The reference distinct-pair enumerator: every block in block order, its
// pairs in (low, high) order, a pair kept the first time a set sees it.
// So each pair lands in its least common block.
std::vector<model::IdPair> ReferenceDistinctPairs(
    const blocking::BlockCollection& blocks) {
  const model::EntityCollection* collection = blocks.collection();
  std::vector<model::IdPair> pairs;
  model::IdPairSet seen;
  for (const blocking::Block& block : blocks.blocks()) {
    for (size_t i = 0; i < block.entities.size(); ++i) {
      for (size_t j = i + 1; j < block.entities.size(); ++j) {
        model::IdPair pair{block.entities[i], block.entities[j]};
        if (collection != nullptr &&
            !collection->Comparable(pair.low, pair.high)) {
          continue;
        }
        if (seen.insert(pair).second) pairs.push_back(pair);
      }
    }
  }
  return pairs;
}

constexpr int kRandomEntities = 40;

model::EntityCollection RandomCollection(bool clean_clean) {
  std::vector<model::EntityDescription> descriptions;
  for (int i = 0; i < kRandomEntities; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("p", "x");
    descriptions.push_back(d);
  }
  if (!clean_clean) return model::EntityCollection::Dirty(descriptions);
  std::vector<model::EntityDescription> second(descriptions.begin() + 15,
                                               descriptions.end());
  descriptions.resize(15);
  return model::EntityCollection::CleanClean(descriptions, second);
}

// Random, overlapping blocks over ids [0, kRandomEntities); AddBlock drops
// the ones that collapse below two members or suggest no comparison.
blocking::BlockCollection RandomBlocks(util::Rng& rng,
                                       const model::EntityCollection* c) {
  blocking::BlockCollection blocks(c);
  size_t num_blocks = 5 + rng.NextBounded(15);
  for (size_t b = 0; b < num_blocks; ++b) {
    blocking::Block block;
    block.key = "b" + std::to_string(b);
    size_t size = 1 + rng.NextBounded(9);
    for (size_t k = 0; k < size; ++k) {
      block.entities.push_back(
          static_cast<model::EntityId>(rng.NextBounded(kRandomEntities)));
    }
    blocks.AddBlock(std::move(block));
  }
  return blocks;
}

// Random truth over a wider id range, so some matches fall outside every
// block (and, for a null collection, outside the walk's index).
model::GroundTruth RandomTruth(util::Rng& rng) {
  model::GroundTruth truth;
  for (int k = 0; k < 25; ++k) {
    truth.AddMatch(
        static_cast<model::EntityId>(rng.NextBounded(kRandomEntities + 5)),
        static_cast<model::EntityId>(rng.NextBounded(kRandomEntities + 5)));
  }
  return truth;
}

void ExpectWalkMatchesReference(const blocking::BlockCollection& blocks,
                                const model::GroundTruth& truth) {
  std::vector<model::IdPair> reference = ReferenceDistinctPairs(blocks);
  // Each pair once, in its least common block, in (low, high) order.
  EXPECT_EQ(blocks.CandidatePairs(), reference);
  EXPECT_EQ(blocks.CountDistinctPairs(), reference.size());
  std::vector<model::IdPair> visited;
  blocks.VisitDistinctPairs([&visited](model::EntityId a, model::EntityId b) {
    visited.push_back(model::IdPair{a, b});
  });
  EXPECT_EQ(visited, reference);
  EXPECT_EQ(blocks.DistinctPairs(),
            model::IdPairSet(reference.begin(), reference.end()));

  // The truth-side coverage count equals a per-pair IsMatch count.
  uint64_t covered = 0;
  for (const model::IdPair& pair : reference) {
    if (truth.IsMatch(pair)) ++covered;
  }
  eval::BlockingQuality quality = eval::EvaluateBlocks(blocks, truth);
  EXPECT_EQ(quality.comparisons, reference.size());
  EXPECT_EQ(quality.matches_covered, covered);
}

class RandomBlocksProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomBlocksProperty, LeCoBIEqualsHashSetDedup) {
  util::Rng rng(GetParam());
  model::EntityCollection dirty = RandomCollection(/*clean_clean=*/false);
  model::EntityCollection clean_clean = RandomCollection(/*clean_clean=*/true);
  std::vector<const model::EntityCollection*> collections = {
      &dirty, &clean_clean, nullptr};
  for (const model::EntityCollection* c : collections) {
    SCOPED_TRACE(c == nullptr ? "null collection"
                 : c == &dirty ? "dirty" : "clean-clean");
    for (int trial = 0; trial < 20; ++trial) {
      ExpectWalkMatchesReference(RandomBlocks(rng, c), RandomTruth(rng));
    }
  }
  // No blocks at all: nothing to enumerate, nothing covered.
  ExpectWalkMatchesReference(blocking::BlockCollection(), RandomTruth(rng));
}

TEST_P(RandomBlocksProperty, MetaBlockingReciprocalSubsetInvariant) {
  datagen::CorpusConfig config;
  config.num_entities = 60;
  config.seed = GetParam() * 1000;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  for (auto weights : metablocking::kAllWeightSchemes) {
    for (auto pruning : {metablocking::PruningScheme::kWnp,
                         metablocking::PruningScheme::kCnp}) {
      auto union_kept =
          metablocking::MetaBlock(blocks, weights, pruning, {false});
      auto reciprocal_kept =
          metablocking::MetaBlock(blocks, weights, pruning, {true});
      model::IdPairSet union_set(union_kept.begin(), union_kept.end());
      for (const model::IdPair& pair : reciprocal_kept) {
        EXPECT_TRUE(union_set.contains(pair))
            << metablocking::ToString(weights) << "+"
            << metablocking::ToString(pruning);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBlocksProperty,
                         ::testing::Values(11, 12, 13),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Progressive schedules: completeness over generated corpora
// ---------------------------------------------------------------------------

class ScheduleCompleteness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScheduleCompleteness, SnAndHierarchyCoverAllPairsOnce) {
  datagen::CorpusConfig config;
  config.num_entities = 35;  // Small: full coverage is quadratic.
  config.duplicate_fraction = 0.4;
  config.seed = GetParam();
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  uint64_t total = corpus.collection.TotalComparisons();
  {
    progressive::ProgressiveSnScheduler sn(corpus.collection);
    model::IdPairSet seen;
    while (auto pair = sn.NextPair()) {
      EXPECT_TRUE(seen.insert(*pair).second);
    }
    EXPECT_EQ(seen.size(), total);
  }
  {
    progressive::PartitionHierarchyScheduler hierarchy(corpus.collection);
    model::IdPairSet seen;
    while (auto pair = hierarchy.NextPair()) {
      EXPECT_TRUE(seen.insert(*pair).second);
    }
    EXPECT_EQ(seen.size(), total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleCompleteness,
                         ::testing::Values(21, 22, 23, 24),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Datagen determinism across corpus kinds
// ---------------------------------------------------------------------------

TEST(DatagenDeterminism, CleanCleanAndRelationalStable) {
  datagen::CorpusConfig config;
  config.num_entities = 40;
  config.schema_divergence = 0.5;
  config.seed = 31;
  auto a = datagen::CorpusGenerator(config).GenerateCleanClean();
  auto b = datagen::CorpusGenerator(config).GenerateCleanClean();
  ASSERT_EQ(a.collection.size(), b.collection.size());
  for (model::EntityId i = 0; i < a.collection.size(); ++i) {
    EXPECT_EQ(a.collection[i], b.collection[i]);
  }

  datagen::RelationalConfig relational;
  relational.tail.num_entities = 15;
  relational.head.num_entities = 20;
  relational.seed = 33;
  auto r1 = datagen::RelationalCorpusGenerator(relational).Generate();
  auto r2 = datagen::RelationalCorpusGenerator(relational).Generate();
  ASSERT_EQ(r1.collection.size(), r2.collection.size());
  for (model::EntityId i = 0; i < r1.collection.size(); ++i) {
    EXPECT_EQ(r1.collection[i], r2.collection[i]);
  }
  EXPECT_EQ(r1.truth.NumMatches(), r2.truth.NumMatches());
}

}  // namespace
}  // namespace weber
