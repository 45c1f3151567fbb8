#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>

#include "blocking/attribute_clustering.h"
#include "blocking/block.h"
#include "blocking/canopy_clustering.h"
#include "blocking/frequent_tokens.h"
#include "blocking/lsh_blocking.h"
#include "blocking/multidimensional.h"
#include "blocking/phonetic_blocking.h"
#include "blocking/prefix_infix_suffix.h"
#include "blocking/qgrams_blocking.h"
#include "blocking/sorted_neighborhood.h"
#include "blocking/standard_blocking.h"
#include "blocking/suffix_blocking.h"
#include "blocking/token_blocking.h"
#include "datagen/corpus_generator.h"
#include "eval/blocking_metrics.h"
#include "tests/test_corpus.h"

namespace weber::blocking {
namespace {

using ::weber::testing::TinyCleanClean;
using ::weber::testing::TinyDirty;

// ---------------------------------------------------------------------------
// Block / BlockCollection
// ---------------------------------------------------------------------------

TEST(BlockTest, NumComparisonsDirty) {
  model::EntityCollection c = TinyDirty(nullptr);
  Block block{"k", {0, 1, 2}};
  EXPECT_EQ(block.NumComparisons(c), 3u);
}

TEST(BlockTest, NumComparisonsCleanCleanCrossSourceOnly) {
  model::EntityCollection c = TinyCleanClean(nullptr);
  Block cross{"k", {0, 1, 2}};  // Two from source 1, one from source 2.
  EXPECT_EQ(cross.NumComparisons(c), 2u);
  Block same_source{"k", {0, 1}};
  EXPECT_EQ(same_source.NumComparisons(c), 0u);
}

TEST(BlockCollectionTest, AddBlockSortsDedupsAndDropsTrivial) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"k1", {3, 1, 3, 2}});
  blocks.AddBlock(Block{"k2", {4}});        // Singleton: dropped.
  blocks.AddBlock(Block{"k3", {5, 5, 5}});  // Dedups to singleton: dropped.
  ASSERT_EQ(blocks.NumBlocks(), 1u);
  EXPECT_EQ(blocks.blocks()[0].entities, (std::vector<model::EntityId>{1, 2, 3}));
}

TEST(BlockCollectionTest, CleanCleanSingleSourceBlockDropped) {
  model::EntityCollection c = TinyCleanClean(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"k", {0, 1}});  // Both in source 1.
  EXPECT_EQ(blocks.NumBlocks(), 0u);
}

TEST(BlockCollectionTest, DistinctPairsDeduplicatesAcrossBlocks) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"k1", {0, 1}});
  blocks.AddBlock(Block{"k2", {0, 1, 2}});
  EXPECT_EQ(blocks.TotalComparisonsWithRedundancy(), 4u);
  EXPECT_EQ(blocks.DistinctPairs().size(), 3u);
}

TEST(BlockCollectionTest, EntityToBlocksIndex) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"k1", {0, 1}});
  blocks.AddBlock(Block{"k2", {1, 2}});
  auto index = blocks.EntityToBlocks();
  ASSERT_EQ(index.size(), c.size());
  EXPECT_EQ(index[1], (std::vector<uint32_t>{0, 1}));
  EXPECT_TRUE(index[5].empty());
}

TEST(BlockCollectionTest, LargestBlockAndSort) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection blocks(&c);
  blocks.AddBlock(Block{"small", {0, 1}});
  blocks.AddBlock(Block{"big", {0, 1, 2, 3}});
  EXPECT_EQ(blocks.LargestBlock(), 1);
  blocks.SortBlocksBySize();
  EXPECT_EQ(blocks.blocks()[0].key, "small");
}

// ---------------------------------------------------------------------------
// Token blocking
// ---------------------------------------------------------------------------

TEST(TokenBlockingTest, SharedTokensCoOccur) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  BlockCollection blocks = TokenBlocking().Build(c);
  // "alice" block contains 0 and 1; "paris" too; "bob"+"jones" contain 2,3.
  auto pairs = blocks.DistinctPairs();
  EXPECT_TRUE(pairs.contains(model::IdPair::Of(0, 1)));
  EXPECT_TRUE(pairs.contains(model::IdPair::Of(2, 3)));
  // Perfect PC on this corpus.
  eval::BlockingQuality q = eval::EvaluateBlocks(blocks, truth);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 1.0);
}

TEST(TokenBlockingTest, SchemaAgnostic) {
  // Same token under different attribute names still co-occurs.
  model::EntityCollection c;
  model::EntityDescription a("u1");
  a.AddPair("name", "turing");
  model::EntityDescription b("u2");
  b.AddPair("label", "turing");
  c.Add(a);
  c.Add(b);
  BlockCollection blocks = TokenBlocking().Build(c);
  EXPECT_EQ(blocks.DistinctPairs().size(), 1u);
}

TEST(TokenBlockingTest, MinTokenLengthFiltersShortTokens) {
  model::EntityCollection c;
  model::EntityDescription a("u1");
  a.AddPair("name", "al x");
  model::EntityDescription b("u2");
  b.AddPair("name", "al y");
  c.Add(a);
  c.Add(b);
  TokenBlockingOptions opts;
  opts.min_token_length = 3;
  EXPECT_EQ(TokenBlocking(opts).Build(c).NumBlocks(), 0u);
  EXPECT_EQ(TokenBlocking().Build(c).NumBlocks(), 1u);
}

TEST(TokenBlockingTest, MaxBlockSizeDropsStopwordBlocks) {
  model::EntityCollection c;
  for (int i = 0; i < 10; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("name", "the entity" + std::to_string(i));
    c.Add(d);
  }
  TokenBlockingOptions opts;
  opts.max_block_size = 5;
  BlockCollection blocks = TokenBlocking(opts).Build(c);
  EXPECT_EQ(blocks.NumBlocks(), 0u);  // "the" block (size 10) dropped.
}

TEST(TokenBlockingTest, CleanCleanOnlyCrossSourcePairs) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyCleanClean(&truth);
  BlockCollection blocks = TokenBlocking().Build(c);
  blocks.VisitDistinctPairs([&c](model::EntityId a, model::EntityId b) {
    EXPECT_TRUE(c.Comparable(a, b));
  });
  eval::BlockingQuality q = eval::EvaluateBlocks(blocks, truth);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 1.0);
}

// ---------------------------------------------------------------------------
// Standard blocking
// ---------------------------------------------------------------------------

TEST(StandardBlockingTest, ExactKeyEquality) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  // Key on city: only the {0,1} pair shares "paris".
  BlockCollection blocks = StandardBlocking({"city"}).Build(c);
  auto pairs = blocks.DistinctPairs();
  EXPECT_TRUE(pairs.contains(model::IdPair::Of(0, 1)));
  EXPECT_FALSE(pairs.contains(model::IdPair::Of(2, 3)));  // Cities differ.
}

TEST(StandardBlockingTest, MissesRenamedAttributes) {
  // The heterogeneity failure mode: source 2 calls the attribute "label".
  model::GroundTruth truth;
  model::EntityCollection c = TinyCleanClean(&truth);
  BlockCollection blocks = StandardBlocking({"name"}).Build(c);
  eval::BlockingQuality q = eval::EvaluateBlocks(blocks, truth);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 0.0);
}

TEST(StandardBlockingTest, ValuePrefixTruncation) {
  model::EntityCollection c = TinyDirty(nullptr);
  // 5-char name prefix: "alice" == "alice".
  BlockCollection blocks = StandardBlocking({"name"}, 5).Build(c);
  auto pairs = blocks.DistinctPairs();
  EXPECT_TRUE(pairs.contains(model::IdPair::Of(0, 1)));
}

TEST(StandardBlockingTest, KeyBuilder) {
  model::EntityDescription d("u");
  d.AddPair("name", "Alice Smith");
  d.AddPair("city", "Paris");
  EXPECT_EQ(StandardBlockingKey(d, {"name", "city"}), "alice smith|paris");
  EXPECT_EQ(StandardBlockingKey(d, {"missing"}), "");
  EXPECT_EQ(StandardBlockingKey(d, {"name"}, 3), "ali");
}

// ---------------------------------------------------------------------------
// Sorted neighbourhood
// ---------------------------------------------------------------------------

TEST(SortedNeighborhoodTest, WindowPairsAtSortDistance) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  // Window 2: adjacent entities in key order. Keys 0 and 1 are both
  // "alice paris", so the pair is suggested immediately.
  auto pairs_w2 = SortedNeighborhood(2).Build(c).DistinctPairs();
  EXPECT_TRUE(pairs_w2.contains(model::IdPair::Of(0, 1)));
  // Keys "berlin bob" (2) and "bob jones" (3) sort at distance 2 ("black
  // dave" sits between them), so window 3 is needed for that pair.
  EXPECT_FALSE(pairs_w2.contains(model::IdPair::Of(2, 3)));
  auto pairs_w3 = SortedNeighborhood(3).Build(c).DistinctPairs();
  EXPECT_TRUE(pairs_w3.contains(model::IdPair::Of(2, 3)));
}

TEST(SortedNeighborhoodTest, LargerWindowSuggestsMorePairs) {
  model::EntityCollection c = TinyDirty(nullptr);
  size_t w2 = SortedNeighborhood(2).Build(c).DistinctPairs().size();
  size_t w4 = SortedNeighborhood(4).Build(c).DistinctPairs().size();
  EXPECT_GT(w4, w2);
}

TEST(SortedNeighborhoodTest, WindowOfSizeNCoversEverything) {
  model::EntityCollection c = TinyDirty(nullptr);
  size_t all = c.TotalComparisons();
  EXPECT_EQ(SortedNeighborhood(c.size()).Build(c).DistinctPairs().size(),
            all);
}

TEST(SortedNeighborhoodTest, DegenerateWindows) {
  model::EntityCollection c = TinyDirty(nullptr);
  EXPECT_TRUE(SortedNeighborhood(0).Build(c).empty());
  EXPECT_TRUE(SortedNeighborhood(1).Build(c).empty());
}

TEST(MultiPassSortedNeighborhoodTest, SecondPassRescuesCorruptedKey) {
  // Entity pair identical on "city" but differing in "name": a name-keyed
  // single pass separates them; adding a city-keyed pass rescues it.
  model::EntityCollection c;
  auto person = [](const std::string& uri, const std::string& name,
                   const std::string& city) {
    model::EntityDescription d(uri, "person");
    d.AddPair("name", name);
    d.AddPair("city", city);
    return d;
  };
  c.Add(person("u0", "aaaa", "zzz1"));
  c.Add(person("u1", "mmmm", "zzz1"));  // Same city as u0.
  c.Add(person("u2", "bbbb", "qqq"));
  c.Add(person("u3", "cccc", "rrr"));
  c.Add(person("u4", "dddd", "sss"));
  blocking::SortedOrderOptions by_name;
  by_name.key_attribute = "name";
  blocking::SortedOrderOptions by_city;
  by_city.key_attribute = "city";
  auto single = SortedNeighborhood(2, by_name).Build(c).DistinctPairs();
  EXPECT_FALSE(single.contains(model::IdPair::Of(0, 1)));
  auto multi = MultiPassSortedNeighborhood(2, {by_name, by_city})
                   .Build(c)
                   .DistinctPairs();
  EXPECT_TRUE(multi.contains(model::IdPair::Of(0, 1)));
  // And every single-pass pair survives.
  for (const model::IdPair& pair : single) {
    EXPECT_TRUE(multi.contains(pair));
  }
}

TEST(MultiPassSortedNeighborhoodTest, NoPassesYieldsEmpty) {
  model::EntityCollection c = TinyDirty(nullptr);
  EXPECT_TRUE(MultiPassSortedNeighborhood(3, {}).Build(c).empty());
}

TEST(SortedOrderTest, SortsByKeyWithKeysOut) {
  model::EntityCollection c = TinyDirty(nullptr);
  std::vector<std::string> keys;
  auto order = SortedOrder(c, {}, &keys);
  ASSERT_EQ(order.size(), c.size());
  ASSERT_EQ(keys.size(), c.size());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(SortedOrderTest, CustomKeyAttribute) {
  model::EntityCollection c = TinyDirty(nullptr);
  SortedOrderOptions opts;
  opts.key_attribute = "city";
  std::vector<std::string> keys;
  SortedOrder(c, opts, &keys);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), "berlin");
}

// ---------------------------------------------------------------------------
// Q-grams / suffix blocking
// ---------------------------------------------------------------------------

TEST(QGramsBlockingTest, SurvivesTypos) {
  model::EntityCollection c;
  model::EntityDescription a("u1");
  a.AddPair("name", "johnson");
  model::EntityDescription b("u2");
  b.AddPair("name", "jonhson");  // Transposition.
  c.Add(a);
  c.Add(b);
  // Token blocking fails (different tokens)...
  EXPECT_EQ(TokenBlocking().Build(c).DistinctPairs().size(), 0u);
  // ...q-grams blocking still co-blocks them.
  EXPECT_GE(QGramsBlocking(3).Build(c).DistinctPairs().size(), 1u);
}

TEST(SuffixBlockingTest, SharedSuffixBlocks) {
  model::EntityCollection c;
  model::EntityDescription a("u1");
  a.AddPair("name", "xjohnson");  // Prefix typo.
  model::EntityDescription b("u2");
  b.AddPair("name", "johnson");
  c.Add(a);
  c.Add(b);
  EXPECT_GE(SuffixBlocking(4).Build(c).DistinctPairs().size(), 1u);
}

TEST(SuffixBlockingTest, OversizedSuffixBlocksDropped) {
  model::EntityCollection c;
  for (int i = 0; i < 8; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("name", "common");
    c.Add(d);
  }
  BlockCollection blocks = SuffixBlocking(4, /*max_block_size=*/4).Build(c);
  EXPECT_EQ(blocks.NumBlocks(), 0u);
}

// ---------------------------------------------------------------------------
// MinHash-LSH blocking
// ---------------------------------------------------------------------------

TEST(LshBlockingTest, HighJaccardPairsCoOccur) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  LshOptions opts;
  opts.bands = 32;       // Threshold ~ (1/32)^(1/2) ~ 0.18: permissive.
  opts.rows_per_band = 2;
  BlockCollection blocks = LshBlocking(opts).Build(c);
  auto pairs = blocks.DistinctPairs();
  EXPECT_TRUE(pairs.contains(model::IdPair::Of(0, 1)));
  EXPECT_TRUE(pairs.contains(model::IdPair::Of(2, 3)));
}

TEST(LshBlockingTest, StricterBandsPruneLowSimilarityPairs) {
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.duplicate_fraction = 0.5;
  config.seed = 71;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  LshOptions permissive;
  permissive.bands = 32;
  permissive.rows_per_band = 2;
  LshOptions strict;
  strict.bands = 8;
  strict.rows_per_band = 8;  // Threshold ~ 0.77.
  auto permissive_pairs =
      LshBlocking(permissive).Build(corpus.collection).DistinctPairs();
  auto strict_pairs =
      LshBlocking(strict).Build(corpus.collection).DistinctPairs();
  EXPECT_LT(strict_pairs.size(), permissive_pairs.size());
}

TEST(LshBlockingTest, RecallTracksTheSCurve) {
  // At a configuration whose threshold (~0.18) sits far below the
  // duplicates' typical Jaccard, nearly all matches must be covered.
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.duplicate_fraction = 0.5;
  config.seed = 73;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  LshOptions opts;
  opts.bands = 32;
  opts.rows_per_band = 2;
  LshBlocking blocker(opts);
  EXPECT_NEAR(blocker.ThresholdEstimate(), std::pow(1.0 / 32, 0.5), 1e-12);
  BlockCollection blocks = blocker.Build(corpus.collection);
  eval::BlockingQuality q = eval::EvaluateBlocks(blocks, corpus.truth);
  EXPECT_GT(q.PairCompleteness(), 0.9);
  EXPECT_GT(q.ReductionRatio(), 0.5);
}

TEST(LshBlockingTest, DeterministicForSeed) {
  model::EntityCollection c = TinyDirty(nullptr);
  auto a = LshBlocking().Build(c).DistinctPairs();
  auto b = LshBlocking().Build(c).DistinctPairs();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Phonetic blocking
// ---------------------------------------------------------------------------

TEST(PhoneticBlockingTest, SoundAlikeTokensCoOccur) {
  model::EntityCollection c;
  model::EntityDescription a("u1");
  a.AddPair("name", "smith");
  model::EntityDescription b("u2");
  b.AddPair("name", "smyth");
  c.Add(a);
  c.Add(b);
  // Exact tokens differ...
  EXPECT_EQ(TokenBlocking().Build(c).DistinctPairs().size(), 0u);
  // ...but they sound alike.
  EXPECT_EQ(PhoneticBlocking().Build(c).DistinctPairs().size(), 1u);
}

TEST(PhoneticBlockingTest, PhoneticKeyVariantIsMoreDiscriminative) {
  datagen::CorpusConfig config;
  config.num_entities = 80;
  config.seed = 61;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  auto soundex_pairs =
      PhoneticBlocking(true).Build(corpus.collection).DistinctPairs();
  auto key_pairs =
      PhoneticBlocking(false).Build(corpus.collection).DistinctPairs();
  // 4-char Soundex codes collide far more than full phonetic keys.
  EXPECT_GT(soundex_pairs.size(), key_pairs.size());
}

// ---------------------------------------------------------------------------
// Frequent token pairs
// ---------------------------------------------------------------------------

TEST(FrequentTokenPairTest, RequiresTwoSharedTokens) {
  model::EntityCollection c;
  auto add = [&c](const std::string& value) {
    model::EntityDescription d("u" + std::to_string(c.size()));
    d.AddPair("p", value);
    c.Add(d);
  };
  add("alpha beta gamma");   // 0
  add("alpha beta delta");   // 1: shares {alpha, beta} with 0.
  add("alpha epsilon zeta"); // 2: shares only {alpha} with 0 and 1.
  FrequentTokenOptions opts;
  opts.min_support = 2;
  auto pairs = FrequentTokenPairBlocking(opts).Build(c).DistinctPairs();
  EXPECT_TRUE(pairs.contains(model::IdPair::Of(0, 1)));
  EXPECT_FALSE(pairs.contains(model::IdPair::Of(0, 2)));
  EXPECT_FALSE(pairs.contains(model::IdPair::Of(1, 2)));
}

TEST(FrequentTokenPairTest, PairsAreSubsetOfTokenBlocking) {
  datagen::CorpusConfig config;
  config.num_entities = 80;
  config.seed = 51;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  auto token_pairs = TokenBlocking().Build(corpus.collection).DistinctPairs();
  auto frequent_pairs =
      FrequentTokenPairBlocking().Build(corpus.collection).DistinctPairs();
  EXPECT_LT(frequent_pairs.size(), token_pairs.size());
  for (const model::IdPair& pair : frequent_pairs) {
    EXPECT_TRUE(token_pairs.contains(pair));
  }
}

TEST(FrequentTokenPairTest, MinSupportDropsRarePairs) {
  model::EntityCollection c;
  auto add = [&c](const std::string& value) {
    model::EntityDescription d("u" + std::to_string(c.size()));
    d.AddPair("p", value);
    c.Add(d);
  };
  add("alpha beta");
  add("alpha beta");
  add("alpha beta");
  FrequentTokenOptions strict;
  strict.min_support = 4;  // Only 3 supporters exist.
  EXPECT_EQ(FrequentTokenPairBlocking(strict).Build(c).NumBlocks(), 0u);
  FrequentTokenOptions loose;
  loose.min_support = 3;
  EXPECT_EQ(FrequentTokenPairBlocking(loose).Build(c).NumBlocks(), 1u);
}

TEST(FrequentTokenPairTest, StopwordFrequencyCap) {
  model::EntityCollection c;
  for (int i = 0; i < 10; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("p", "the of entity" + std::to_string(i / 2));
    c.Add(d);
  }
  FrequentTokenOptions opts;
  opts.max_token_frequency = 5;  // "the"/"of" (freq 10) excluded.
  BlockCollection blocks = FrequentTokenPairBlocking(opts).Build(c);
  for (const Block& block : blocks.blocks()) {
    EXPECT_EQ(block.key.find("the"), std::string::npos) << block.key;
  }
}

// ---------------------------------------------------------------------------
// Multidimensional aggregation
// ---------------------------------------------------------------------------

TEST(MultidimensionalTest, AgreementThresholdFiltersPairs) {
  model::EntityCollection c = TinyDirty(nullptr);
  BlockCollection dim1(&c);
  dim1.AddBlock(Block{"a", {0, 1}});
  dim1.AddBlock(Block{"b", {2, 3}});
  BlockCollection dim2(&c);
  dim2.AddBlock(Block{"c", {0, 1}});
  BlockCollection dim3(&c);
  dim3.AddBlock(Block{"d", {0, 1, 4}});

  auto agree2 = AggregateMultidimensional({&dim1, &dim2, &dim3}, 2)
                    .DistinctPairs();
  EXPECT_TRUE(agree2.contains(model::IdPair::Of(0, 1)));   // 3 votes.
  EXPECT_FALSE(agree2.contains(model::IdPair::Of(2, 3)));  // 1 vote.
  EXPECT_FALSE(agree2.contains(model::IdPair::Of(0, 4)));  // 1 vote.

  auto agree1 = AggregateMultidimensional({&dim1, &dim2, &dim3}, 1)
                    .DistinctPairs();
  EXPECT_TRUE(agree1.contains(model::IdPair::Of(2, 3)));  // Union.
  EXPECT_EQ(agree1.size(), 4u);  // {0,1},{2,3},{0,4},{1,4}.
}

TEST(MultidimensionalTest, BlockerWrapperImprovesPrecision) {
  datagen::CorpusConfig config;
  config.num_entities = 100;
  config.duplicate_fraction = 0.5;
  config.seed = 57;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  TokenBlocking token;
  QGramsBlocking qgrams(3);
  SortedNeighborhood sn(6);
  // A shared token implies shared q-grams, so agreement 2 would be nearly
  // the token dimension alone; all three dimensions must concur.
  MultidimensionalBlocking multi({&token, &qgrams, &sn}, 3);
  BlockCollection agreed = multi.Build(corpus.collection);
  BlockCollection single = token.Build(corpus.collection);
  eval::BlockingQuality q_multi = eval::EvaluateBlocks(agreed, corpus.truth);
  eval::BlockingQuality q_single =
      eval::EvaluateBlocks(single, corpus.truth);
  // Agreement trades recall for a large precision gain.
  EXPECT_GT(q_multi.PairQuality(), 3 * q_single.PairQuality());
  EXPECT_GE(q_multi.PairCompleteness(),
            0.5 * q_single.PairCompleteness());
}

TEST(MultidimensionalTest, EmptyDimensions) {
  EXPECT_TRUE(AggregateMultidimensional({}, 2).empty());
}

// ---------------------------------------------------------------------------
// Attribute clustering
// ---------------------------------------------------------------------------

TEST(AttributeClusteringTest, AlignsRenamedAttributes) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyCleanClean(&truth);
  AttributeClusteringBlocking blocker;
  auto clusters = blocker.ClusterAttributes(c);
  // "name" and "label" share value tokens -> same cluster; same for
  // "city"/"location".
  EXPECT_EQ(clusters.at("name"), clusters.at("label"));
  EXPECT_EQ(clusters.at("city"), clusters.at("location"));
}

TEST(AttributeClusteringTest, RetainsRecallOnHeterogeneousSources) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyCleanClean(&truth);
  BlockCollection blocks = AttributeClusteringBlocking().Build(c);
  eval::BlockingQuality q = eval::EvaluateBlocks(blocks, truth);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 1.0);
}

TEST(AttributeClusteringTest, SeparatesUnrelatedAttributes) {
  // Token "1912" under "born" and under "page_count" should not place
  // unrelated attributes in one cluster when their profiles differ.
  model::EntityCollection c;
  for (int i = 0; i < 4; ++i) {
    model::EntityDescription d("u" + std::to_string(i));
    d.AddPair("born", "year" + std::to_string(1900 + i));
    d.AddPair("color", "shade" + std::to_string(i));
    c.Add(d);
  }
  AttributeClusteringBlocking blocker;
  auto clusters = blocker.ClusterAttributes(c);
  // Disjoint profiles: both land in the glue cluster (0) rather than a
  // shared dedicated cluster.
  EXPECT_EQ(clusters.at("born"), 0u);
  EXPECT_EQ(clusters.at("color"), 0u);
}

// ---------------------------------------------------------------------------
// Canopy clustering
// ---------------------------------------------------------------------------

TEST(CanopyClusteringTest, DuplicatesShareACanopy) {
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  CanopyOptions opts;
  opts.loose_threshold = 0.1;
  opts.tight_threshold = 0.9;
  BlockCollection blocks = CanopyClustering(opts).Build(c);
  eval::BlockingQuality q = eval::EvaluateBlocks(blocks, truth);
  EXPECT_DOUBLE_EQ(q.PairCompleteness(), 1.0);
}

TEST(CanopyClusteringTest, EveryEntityCoveredOrSingleton) {
  model::EntityCollection c = TinyDirty(nullptr);
  CanopyOptions opts;
  opts.loose_threshold = 0.99;  // Nothing is similar: all singletons.
  opts.tight_threshold = 0.995;
  BlockCollection blocks = CanopyClustering(opts).Build(c);
  EXPECT_EQ(blocks.NumBlocks(), 0u);  // Singleton canopies dropped.
}

TEST(CanopyClusteringTest, DeterministicForFixedSeed) {
  model::EntityCollection c = TinyDirty(nullptr);
  CanopyOptions opts;
  auto pairs_a = CanopyClustering(opts).Build(c).DistinctPairs();
  auto pairs_b = CanopyClustering(opts).Build(c).DistinctPairs();
  EXPECT_EQ(pairs_a.size(), pairs_b.size());
}

// ---------------------------------------------------------------------------
// Prefix-infix-suffix
// ---------------------------------------------------------------------------

TEST(SplitUriTest, Decomposition) {
  UriParts parts = SplitUri("http://kb1/resource/alice_smith/0");
  EXPECT_EQ(parts.infix, "alice_smith");
  EXPECT_EQ(parts.suffix, "0");
  EXPECT_EQ(parts.prefix, "http://kb1/resource/");
}

TEST(SplitUriTest, NoSuffix) {
  UriParts parts = SplitUri("http://kb/resource/berlin");
  EXPECT_EQ(parts.infix, "berlin");
  EXPECT_TRUE(parts.suffix.empty());
}

TEST(SplitUriTest, HashFragmentAndBareString) {
  EXPECT_EQ(SplitUri("http://kb/doc#section").infix, "section");
  EXPECT_EQ(SplitUri("plainstring").infix, "plainstring");
  EXPECT_TRUE(SplitUri("").infix.empty());
}

TEST(PrefixInfixSuffixTest, UriOnlySignalStillBlocks) {
  // Descriptions share nothing in values but their URIs embed the name.
  model::EntityCollection c;
  model::EntityDescription a("http://kb1/resource/ada_lovelace/0");
  a.AddPair("p", "uniquetokena");
  model::EntityDescription b("http://kb2/page/ada_lovelace/1");
  b.AddPair("q", "uniquetokenb");
  c.Add(a);
  c.Add(b);
  EXPECT_EQ(TokenBlocking().Build(c).DistinctPairs().size(), 0u);
  BlockCollection blocks =
      PrefixInfixSuffixBlocking(/*include_value_tokens=*/false).Build(c);
  EXPECT_GE(blocks.DistinctPairs().size(), 1u);
}

// ---------------------------------------------------------------------------
// Cross-method property sweep on a generated corpus
// ---------------------------------------------------------------------------

struct NamedBlocker {
  std::string label;
  std::shared_ptr<const Blocker> blocker;
};

// Without a printer gtest dumps the case's raw bytes, heap addresses
// included, into the discovered test name.
void PrintTo(const NamedBlocker& param, std::ostream* os) {
  *os << param.blocker->name();
}

class BlockerProperty : public ::testing::TestWithParam<NamedBlocker> {};

TEST_P(BlockerProperty, ValidBlocksOnGeneratedCorpus) {
  datagen::CorpusConfig config;
  config.num_entities = 60;
  config.duplicate_fraction = 0.5;
  config.seed = 5;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  BlockCollection blocks = GetParam().blocker->Build(corpus.collection);
  for (const Block& block : blocks.blocks()) {
    // Entities sorted, distinct, and in range.
    EXPECT_TRUE(std::is_sorted(block.entities.begin(), block.entities.end()));
    EXPECT_EQ(std::adjacent_find(block.entities.begin(),
                                 block.entities.end()),
              block.entities.end());
    EXPECT_GE(block.entities.size(), 2u);
    for (model::EntityId id : block.entities) {
      EXPECT_LT(id, corpus.collection.size());
    }
  }
  // Distinct pairs never exceed the quadratic bound.
  EXPECT_LE(blocks.DistinctPairs().size(),
            corpus.collection.TotalComparisons());
}

INSTANTIATE_TEST_SUITE_P(
    AllBlockers, BlockerProperty,
    ::testing::Values(
        NamedBlocker{"token", std::make_shared<TokenBlocking>()},
        NamedBlocker{"standard",
                     std::make_shared<StandardBlocking>(
                         std::vector<std::string>{"attr0"})},
        NamedBlocker{"sorted_neighborhood",
                     std::make_shared<SortedNeighborhood>(4)},
        NamedBlocker{"qgrams", std::make_shared<QGramsBlocking>(3)},
        NamedBlocker{"suffix", std::make_shared<SuffixBlocking>(4, 32)},
        NamedBlocker{"attribute_clustering",
                     std::make_shared<AttributeClusteringBlocking>()},
        NamedBlocker{"canopy", std::make_shared<CanopyClustering>()},
        NamedBlocker{"prefix_infix_suffix",
                     std::make_shared<PrefixInfixSuffixBlocking>()}),
    [](const ::testing::TestParamInfo<NamedBlocker>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace weber::blocking
