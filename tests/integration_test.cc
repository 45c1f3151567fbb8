// Cross-module integration: every blocker composes with cleaning,
// meta-blocking, scheduling, matching and clustering, on both ER
// settings, and ends with sane quality.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "blocking/attribute_clustering.h"
#include "blocking/canopy_clustering.h"
#include "blocking/frequent_tokens.h"
#include "blocking/lsh_blocking.h"
#include "blocking/phonetic_blocking.h"
#include "blocking/prefix_infix_suffix.h"
#include "blocking/qgrams_blocking.h"
#include "blocking/sorted_neighborhood.h"
#include "blocking/suffix_blocking.h"
#include "blocking/token_blocking.h"
#include "core/pipeline.h"
#include "datagen/corpus_generator.h"
#include "eval/match_metrics.h"
#include "matching/matcher.h"
#include "progressive/progressive_sn.h"

namespace weber {
namespace {

struct IntegrationCase {
  std::string label;
  std::shared_ptr<const blocking::Blocker> blocker;
  bool clean_clean;
  /// Minimum acceptable end-to-end recall for this blocker on the
  /// standard corpus (the weaker windowed/phonetic methods recall less).
  double min_recall;
};

// The label already names each case. Without this printer gtest dumps the
// case's raw bytes, heap addresses included, into the discovered test name,
// so the name changed with every build.
void PrintTo(const IntegrationCase& param, std::ostream* os) {
  *os << "min_recall=" << param.min_recall;
}

class PipelineIntegration : public ::testing::TestWithParam<IntegrationCase> {
};

datagen::Corpus CorpusFor(bool clean_clean) {
  datagen::CorpusConfig config;
  config.num_entities = 120;
  config.duplicate_fraction = 0.5;
  config.seed = 67;
  datagen::CorpusGenerator generator(config);
  return clean_clean ? generator.GenerateCleanClean()
                     : generator.GenerateDirty();
}

TEST_P(PipelineIntegration, EndToEnd) {
  const IntegrationCase& param = GetParam();
  datagen::Corpus corpus = CorpusFor(param.clean_clean);
  matching::TokenJaccardMatcher matcher;
  core::PipelineConfig config;
  config.blocker = param.blocker.get();
  config.auto_purge = true;
  config.matcher = &matcher;
  config.match_threshold = 0.5;
  core::PipelineResult result =
      core::RunPipeline(corpus.collection, corpus.truth, config);

  eval::MatchQuality quality =
      eval::EvaluateMatchPairs(result.matches, corpus.truth);
  EXPECT_GE(quality.Recall(), param.min_recall) << param.label;
  EXPECT_GE(quality.Precision(), 0.95) << param.label;
  // All reported pairs respect the setting.
  for (const model::IdPair& pair : result.matches) {
    EXPECT_TRUE(corpus.collection.Comparable(pair.low, pair.high))
        << param.label;
  }
  // Cluster sizes in clean-clean never exceed 2 under transitive
  // closure of cross-source-only matches... unless chains bridge via
  // both sources; just check clusters partition the universe.
  size_t covered = 0;
  for (const auto& cluster : result.clusters) covered += cluster.size();
  EXPECT_EQ(covered, corpus.collection.size()) << param.label;

  // B-cubed agrees with pairwise on direction.
  eval::BCubedQuality bcubed = eval::EvaluateBCubed(
      result.clusters, corpus.truth, corpus.collection.size());
  EXPECT_GE(bcubed.precision, 0.9) << param.label;
}

INSTANTIATE_TEST_SUITE_P(
    Blockers, PipelineIntegration,
    ::testing::Values(
        IntegrationCase{"token_dirty",
                        std::make_shared<blocking::TokenBlocking>(), false,
                        0.8},
        IntegrationCase{"token_cleanclean",
                        std::make_shared<blocking::TokenBlocking>(), true,
                        0.8},
        IntegrationCase{"qgrams_dirty",
                        std::make_shared<blocking::QGramsBlocking>(3), false,
                        0.8},
        IntegrationCase{"suffix_dirty",
                        std::make_shared<blocking::SuffixBlocking>(4, 64),
                        false, 0.5},
        IntegrationCase{
            "sorted_neighborhood_dirty",
            std::make_shared<blocking::SortedNeighborhood>(8), false, 0.3},
        IntegrationCase{
            "attribute_clustering_cleanclean",
            std::make_shared<blocking::AttributeClusteringBlocking>(), true,
            0.7},
        IntegrationCase{"canopy_dirty",
                        std::make_shared<blocking::CanopyClustering>(
                            blocking::CanopyOptions{0.08, 0.5, 7}),
                        false, 0.4},
        IntegrationCase{
            "prefix_infix_suffix_dirty",
            std::make_shared<blocking::PrefixInfixSuffixBlocking>(), false,
            0.8},
        IntegrationCase{
            "frequent_pairs_dirty",
            std::make_shared<blocking::FrequentTokenPairBlocking>(), false,
            0.6},
        IntegrationCase{"phonetic_dirty",
                        std::make_shared<blocking::PhoneticBlocking>(),
                        false, 0.6},
        IntegrationCase{"lsh_dirty",
                        std::make_shared<blocking::LshBlocking>(
                            blocking::LshOptions{32, 2, 1}),
                        false, 0.7},
        IntegrationCase{
            "multipass_sn_dirty",
            std::make_shared<blocking::MultiPassSortedNeighborhood>(
                6, std::vector<blocking::SortedOrderOptions>{
                       {"attr0"}, {"attr1"}}),
            false, 0.3}),
    [](const ::testing::TestParamInfo<IntegrationCase>& info) {
      return info.param.label;
    });

// Meta-blocking composed with a progressive scheduler end to end.
TEST(PipelineIntegrationExtra, MetaBlockingPlusProgressiveScheduler) {
  datagen::Corpus corpus = CorpusFor(false);
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  core::PipelineConfig config;
  config.blocker = &blocker;
  config.auto_purge = true;
  config.meta_blocking = {{metablocking::WeightScheme::kArcs,
                           metablocking::PruningScheme::kCnp}};
  config.matcher = &matcher;
  config.match_threshold = 0.5;
  config.budget = corpus.collection.size() * 4;
  config.make_scheduler = [](const model::EntityCollection& /*collection*/,
                             std::vector<model::IdPair> candidates)
      -> std::unique_ptr<progressive::PairScheduler> {
    // Candidates from meta-blocking arrive heaviest-first; keep order.
    return std::make_unique<progressive::StaticListScheduler>(
        std::move(candidates), "MetaOrdered");
  };
  core::PipelineResult result =
      core::RunPipeline(corpus.collection, corpus.truth, config);
  eval::MatchQuality quality =
      eval::EvaluateMatchPairs(result.matches, corpus.truth);
  EXPECT_GT(quality.Recall(), 0.6);
  EXPECT_GT(result.curve.AreaUnderCurve(config.budget), 0.3);
}

}  // namespace
}  // namespace weber
