#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "blocking/token_blocking.h"
#include "datagen/corpus_generator.h"
#include "eval/blocking_metrics.h"
#include "metablocking/blocking_graph.h"
#include "metablocking/pruning_schemes.h"
#include "metablocking/weight_schemes.h"
#include "tests/test_corpus.h"

namespace weber::metablocking {
namespace {

using ::weber::testing::TinyDirty;

blocking::BlockCollection TwoOverlappingBlocks(
    const model::EntityCollection& c) {
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"k1", {0, 1, 2}});
  blocks.AddBlock(blocking::Block{"k2", {0, 1, 3}});
  return blocks;
}

// ---------------------------------------------------------------------------
// Graph construction and weights
// ---------------------------------------------------------------------------

TEST(BlockingGraphTest, OneEdgePerDistinctPair) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kCbs);
  // Pairs: {0,1}x2 blocks, {0,2},{1,2},{0,3},{1,3} -> 5 distinct edges.
  EXPECT_EQ(graph.num_edges(), 5u);
  EXPECT_EQ(graph.num_nodes(), c.size());
}

TEST(BlockingGraphTest, CbsCountsCommonBlocks) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kCbs);
  for (const WeightedEdge& edge : graph.edges()) {
    if (edge.pair() == model::IdPair::Of(0, 1)) {
      EXPECT_DOUBLE_EQ(edge.weight, 2.0);
    } else {
      EXPECT_DOUBLE_EQ(edge.weight, 1.0);
    }
  }
}

TEST(BlockingGraphTest, JsIsNormalisedCbs) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kJs);
  for (const WeightedEdge& edge : graph.edges()) {
    if (edge.pair() == model::IdPair::Of(0, 1)) {
      EXPECT_DOUBLE_EQ(edge.weight, 1.0);  // 2 common / (2+2-2).
    } else {
      EXPECT_GT(edge.weight, 0.0);
      EXPECT_LT(edge.weight, 1.0);
    }
  }
}

TEST(BlockingGraphTest, ArcsFavoursSmallBlocks) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  blocks.AddBlock(blocking::Block{"small", {0, 1}});
  blocks.AddBlock(blocking::Block{"large", {2, 3, 4, 5}});
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kArcs);
  double small_weight = 0.0;
  double large_weight = 0.0;
  for (const WeightedEdge& edge : graph.edges()) {
    if (edge.pair() == model::IdPair::Of(0, 1)) small_weight = edge.weight;
    if (edge.pair() == model::IdPair::Of(2, 3)) large_weight = edge.weight;
  }
  EXPECT_GT(small_weight, large_weight);
}

TEST(BlockingGraphTest, DuplicateEdgesWeighHigherUnderEverySCheme) {
  // On a real corpus, true duplicates should on average out-weigh
  // non-duplicates under every scheme.
  datagen::CorpusConfig config;
  config.num_entities = 120;
  config.duplicate_fraction = 0.5;
  config.seed = 9;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  for (WeightScheme scheme : kAllWeightSchemes) {
    BlockingGraph graph = BlockingGraph::Build(blocks, scheme);
    double matching = 0.0;
    double non_matching = 0.0;
    size_t num_matching = 0;
    size_t num_non_matching = 0;
    for (const WeightedEdge& edge : graph.edges()) {
      if (corpus.truth.IsMatch(edge.a, edge.b)) {
        matching += edge.weight;
        ++num_matching;
      } else {
        non_matching += edge.weight;
        ++num_non_matching;
      }
    }
    ASSERT_GT(num_matching, 0u) << ToString(scheme);
    ASSERT_GT(num_non_matching, 0u) << ToString(scheme);
    EXPECT_GT(matching / num_matching, non_matching / num_non_matching)
        << ToString(scheme);
  }
}

TEST(BlockingGraphTest, MeanWeightAndNodeEdges) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kCbs);
  EXPECT_NEAR(graph.MeanWeight(), (2.0 + 1 + 1 + 1 + 1) / 5.0, 1e-12);
  auto node_edges = graph.NodeEdges();
  ASSERT_EQ(node_edges.size(), c.size());
  EXPECT_EQ(node_edges[0].size(), 3u);  // Edges to 1, 2, 3.
  EXPECT_TRUE(node_edges[4].empty());
  EXPECT_TRUE(node_edges[5].empty());
}

TEST(WeightSchemeTest, ParseRoundTrip) {
  for (WeightScheme scheme : kAllWeightSchemes) {
    EXPECT_EQ(ParseWeightScheme(ToString(scheme)), scheme);
  }
  EXPECT_EQ(ParseWeightScheme("ecbs"), WeightScheme::kEcbs);
  EXPECT_FALSE(ParseWeightScheme("nope").has_value());
}

// ---------------------------------------------------------------------------
// Pruning schemes
// ---------------------------------------------------------------------------

TEST(PruningTest, WepKeepsAboveMeanOnly) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kCbs);
  auto kept = Prune(graph, blocks, PruningScheme::kWep);
  // Mean = 1.2; only {0,1} (weight 2) survives.
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].pair(), model::IdPair::Of(0, 1));
}

TEST(PruningTest, CepRespectsGlobalBudget) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks = TwoOverlappingBlocks(c);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kCbs);
  auto kept = Prune(graph, blocks, PruningScheme::kCep);
  // Budget = total assignments / 2 = 6/2 = 3.
  EXPECT_EQ(kept.size(), 3u);
  // Heaviest first.
  EXPECT_EQ(kept[0].pair(), model::IdPair::Of(0, 1));
}

TEST(PruningTest, WnpReciprocalIsSubsetOfUnion) {
  datagen::CorpusConfig config;
  config.num_entities = 100;
  config.seed = 13;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kJs);
  auto union_kept = Prune(graph, blocks, PruningScheme::kWnp, {false});
  auto reciprocal_kept = Prune(graph, blocks, PruningScheme::kWnp, {true});
  EXPECT_LE(reciprocal_kept.size(), union_kept.size());
  model::IdPairSet union_set;
  for (const WeightedEdge& e : union_kept) union_set.insert(e.pair());
  for (const WeightedEdge& e : reciprocal_kept) {
    EXPECT_TRUE(union_set.contains(e.pair()));
  }
}

TEST(PruningTest, CnpReciprocalIsSubsetOfUnion) {
  datagen::CorpusConfig config;
  config.num_entities = 100;
  config.seed = 14;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kArcs);
  auto union_kept = Prune(graph, blocks, PruningScheme::kCnp, {false});
  auto reciprocal_kept = Prune(graph, blocks, PruningScheme::kCnp, {true});
  EXPECT_LE(reciprocal_kept.size(), union_kept.size());
}

// Property sweep: every (weight, pruning) combination prunes comparisons
// substantially while keeping most matches on a generated corpus.
struct SchemeCombo {
  WeightScheme weights;
  PruningScheme pruning;
};

void PrintTo(const SchemeCombo& combo, std::ostream* os) {
  *os << ToString(combo.weights) << "+" << ToString(combo.pruning);
}

class MetaBlockingSweep : public ::testing::TestWithParam<SchemeCombo> {};

TEST_P(MetaBlockingSweep, PrunesComparisonsKeepsMatches) {
  datagen::CorpusConfig config;
  config.num_entities = 200;
  config.duplicate_fraction = 0.5;
  config.seed = 17;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::BlockCollection blocks =
      blocking::TokenBlocking().Build(corpus.collection);
  eval::BlockingQuality before = eval::EvaluateBlocks(blocks, corpus.truth);

  auto pairs = MetaBlock(blocks, GetParam().weights, GetParam().pruning);
  eval::BlockingQuality after =
      eval::EvaluatePairs(pairs, corpus.truth, corpus.collection);

  EXPECT_LT(after.comparisons, before.comparisons) << "no pruning happened";
  EXPECT_GE(after.PairCompleteness(), 0.5 * before.PairCompleteness());
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MetaBlockingSweep,
    ::testing::Values(
        SchemeCombo{WeightScheme::kCbs, PruningScheme::kWep},
        SchemeCombo{WeightScheme::kCbs, PruningScheme::kCep},
        SchemeCombo{WeightScheme::kEcbs, PruningScheme::kWnp},
        SchemeCombo{WeightScheme::kJs, PruningScheme::kWep},
        SchemeCombo{WeightScheme::kJs, PruningScheme::kCnp},
        SchemeCombo{WeightScheme::kEjs, PruningScheme::kWnp},
        SchemeCombo{WeightScheme::kArcs, PruningScheme::kCep},
        SchemeCombo{WeightScheme::kArcs, PruningScheme::kCnp}),
    [](const ::testing::TestParamInfo<SchemeCombo>& info) {
      return ToString(info.param.weights) + "_" +
             ToString(info.param.pruning);
    });

TEST(PruningTest, EmptyGraph) {
  model::EntityCollection c = TinyDirty(nullptr);
  blocking::BlockCollection blocks(&c);
  BlockingGraph graph = BlockingGraph::Build(blocks, WeightScheme::kCbs);
  EXPECT_EQ(graph.num_edges(), 0u);
  for (PruningScheme scheme : kAllPruningSchemes) {
    EXPECT_TRUE(Prune(graph, blocks, scheme).empty()) << ToString(scheme);
  }
}

}  // namespace
}  // namespace weber::metablocking
