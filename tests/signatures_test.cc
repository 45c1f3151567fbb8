// Property tests for the signature-based comparison engine: every
// prepared matcher must be bit-equal to its string twin over random
// corpora and thread counts, the shared intersection kernels must agree
// with a naive reference, and the algorithms that default to signatures
// (pipeline, Swoosh, iterative blocking, incremental) must produce
// identical results with the engine on and off.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "core/pipeline.h"
#include "datagen/corpus_generator.h"
#include "incremental/resolver.h"
#include "iterative/iterative_blocking.h"
#include "iterative/rswoosh.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "model/entity.h"
#include "tests/test_corpus.h"
#include "util/intersect.h"
#include "util/random.h"

namespace weber::matching {
namespace {

using ::weber::testing::TinyDirty;

// ---------------------------------------------------------------------------
// Intersection kernels vs naive reference
// ---------------------------------------------------------------------------

std::vector<uint32_t> RandomSortedSet(util::Rng& rng, size_t max_size,
                                      uint32_t universe) {
  std::vector<uint32_t> out;
  size_t n = rng.NextBounded(max_size + 1);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<uint32_t>(rng.NextBounded(universe)));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t ReferenceIntersect(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

TEST(IntersectKernelTest, MergeAndGallopAgreeWithReference) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    // Alternate balanced and heavily skewed shapes so both the merge and
    // the galloping paths are exercised.
    bool skewed = trial % 2 == 0;
    std::vector<uint32_t> a = RandomSortedSet(rng, skewed ? 4 : 40, 120);
    std::vector<uint32_t> b = RandomSortedSet(rng, skewed ? 90 : 40, 120);
    size_t expected = ReferenceIntersect(a, b);
    std::span<const uint32_t> sa(a.data(), a.size());
    std::span<const uint32_t> sb(b.data(), b.size());
    EXPECT_EQ(util::MergeIntersectSize(sa, sb), expected);
    EXPECT_EQ(util::SortedIntersectSize(sa, sb), expected);
    EXPECT_EQ(util::SortedIntersectSize(sb, sa), expected);
    if (!a.empty()) {
      EXPECT_EQ(util::GallopIntersectSize(sa, sb), expected);
    }
  }
}

TEST(IntersectKernelTest, AtLeastMatchesThresholdedSize) {
  util::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint32_t> a = RandomSortedSet(rng, trial % 2 ? 50 : 3, 80);
    std::vector<uint32_t> b = RandomSortedSet(rng, 50, 80);
    size_t expected = ReferenceIntersect(a, b);
    std::span<const uint32_t> sa(a.data(), a.size());
    std::span<const uint32_t> sb(b.data(), b.size());
    for (size_t required = 0; required <= expected + 2; ++required) {
      EXPECT_EQ(util::SortedIntersectAtLeast(sa, sb, required),
                expected >= required)
          << "required=" << required << " expected=" << expected;
    }
  }
}

// ---------------------------------------------------------------------------
// Prepared matchers bit-equal to their string twins
// ---------------------------------------------------------------------------

// Exhaustively compares `prepared` against `matcher` over every pair of
// the collection: exact (bitwise) similarity equality plus verdict
// equality at a spread of thresholds, including the engine's early-exit
// filters' edge values.
void ExpectBitEqual(const model::EntityCollection& collection,
                    const Matcher& matcher, const PreparedMatcher& prepared) {
  const double thresholds[] = {0.0, 0.25, 0.5,
                               0.75, 1.0, std::nextafter(1.0, 2.0),
                               std::numeric_limits<double>::quiet_NaN()};
  for (model::EntityId a = 0; a < collection.size(); ++a) {
    for (model::EntityId b = a; b < collection.size(); ++b) {
      double expected = matcher.Similarity(collection[a], collection[b]);
      double got = prepared.Similarity(a, b);
      ASSERT_EQ(expected, got)
          << matcher.name() << " pair (" << a << "," << b << ")";
      for (double t : thresholds) {
        ASSERT_EQ(expected >= t, prepared.Matches(a, b, t))
            << matcher.name() << " pair (" << a << "," << b
            << ") threshold " << t;
      }
    }
  }
}

// Every matcher type the engine prepares, over one collection; the oracle
// comes last so the cross-store check can leave it out.
struct AllMatchers {
  AllMatchers(const model::EntityCollection& collection,
              const model::GroundTruth& truth)
      : tfidf(collection),
        oracle(collection, truth, /*error_rate=*/0.1, /*seed=*/5) {}

  std::vector<const Matcher*> All() const {
    return {&jaccard, &overlap, &tfidf,   &weighted,
            &average, &maximum, &minimum, &oracle};
  }

  TokenJaccardMatcher jaccard;
  TokenOverlapMatcher overlap;
  TfIdfCosineMatcher tfidf;
  WeightedAttributeMatcher weighted{{{"attr0", 2.0, true},
                                     {"attr1", 1.0, false},
                                     {"no_such_attribute", 0.5, true}}};
  CompositeMatcher average{{&jaccard, &weighted},
                           {0.7, 0.3},
                           CompositeMatcher::Combine::kWeightedAverage};
  CompositeMatcher maximum{
      {&jaccard, &overlap}, {}, CompositeMatcher::Combine::kMax};
  CompositeMatcher minimum{
      {&jaccard, &overlap}, {}, CompositeMatcher::Combine::kMin};
  OracleMatcher oracle;
};

// Every reachable dispatch level must reproduce the string path
// bit-for-bit: the SIMD kernels count exactly, so switching them can
// never move a similarity or flip a verdict.
std::vector<util::IntersectKernel> AvailableKernels() {
  std::vector<util::IntersectKernel> kernels = {util::IntersectKernel::kScalar};
  for (util::IntersectKernel kernel :
       {util::IntersectKernel::kSse4, util::IntersectKernel::kAvx2}) {
    if (util::SetIntersectKernel(kernel)) kernels.push_back(kernel);
  }
  util::ResetIntersectKernel();
  return kernels;
}

// Runs the bit-equality check for every prepared matcher type over one
// collection, under the given parallelism (the store build is parallel;
// its arenas must not depend on the thread count).
void CheckAllMatchers(const model::EntityCollection& collection,
                      const model::GroundTruth& truth, size_t threads) {
  core::ScopedParallelism parallelism(threads);
  AllMatchers matchers(collection, truth);
  std::vector<util::IntersectKernel> kernels = AvailableKernels();
  for (const Matcher* matcher : matchers.All()) {
    ASSERT_TRUE(Preparable(*matcher)) << matcher->name();
    SignatureStore store =
        SignatureStore::Build(collection, OptionsFor(*matcher));
    std::unique_ptr<PreparedMatcher> prepared = Prepare(*matcher, store);
    ASSERT_NE(prepared, nullptr) << matcher->name();
    for (util::IntersectKernel kernel : kernels) {
      ASSERT_TRUE(util::SetIntersectKernel(kernel));
      ExpectBitEqual(collection, *matcher, *prepared);
    }
    util::ResetIntersectKernel();
  }
}

// Re-homes every signature of `source` into kCrossStores stores built with
// the same options, laid out like the sharded resolver's shards: entity id
// lives in store id % kCrossStores at row id / kCrossStores. Each store
// resolves its rows' descriptions for the string-path fallback.
constexpr model::EntityId kCrossStores = 3;

std::vector<SignatureStore> SplitAcrossStores(
    const SignatureStore& source, const model::EntityCollection& collection) {
  std::vector<SignatureStore> stores;
  stores.reserve(kCrossStores);
  for (model::EntityId k = 0; k < kCrossStores; ++k) {
    stores.emplace_back(source.options());
    stores.back().SetDescriptionProvider(
        [&collection, k](model::EntityId row) -> const model::EntityDescription* {
          model::EntityId id = row * kCrossStores + k;
          return id < collection.size() ? &collection[id] : nullptr;
        });
  }
  for (model::EntityId id = 0; id < collection.size(); ++id) {
    InternedSignature signature;
    signature.token_ids = source.TokenSet(id);
    if (source.has_tfidf(id)) {
      for (const TfIdfTerm& term : source.tfidf(id)) {
        signature.tfidf.entries.emplace_back(term.token, term.weight);
      }
    }
    if (source.has_attributes(id)) {
      for (const SignatureStore::AttributeSlot& slot :
           source.attribute_slots(id)) {
        InternedSignature::Attribute& attribute =
            signature.attributes.emplace_back();
        if (slot.value_index == SignatureStore::kNoValue) continue;
        attribute.present = true;
        attribute.value = source.value(slot.value_index);
        std::span<const uint32_t> tokens = source.slot_tokens(slot);
        attribute.token_ids.assign(tokens.begin(), tokens.end());
      }
    }
    stores[id % kCrossStores].AbsorbPrepared(id / kCrossStores,
                                             std::move(signature));
  }
  return stores;
}

// The cross-store form of CheckAllMatchers: PrepareCross scoring signatures
// that live in different stores must be bit-equal to the string path on
// every ordered pair, at every kernel, for every matcher but the oracle
// (whose canonical-id table is bound to one collection).
void CheckAllMatchersCrossStore(const model::EntityCollection& collection,
                                const model::GroundTruth& truth) {
  AllMatchers matchers(collection, truth);
  EXPECT_EQ(PrepareCross(matchers.oracle, OptionsFor(matchers.oracle)),
            nullptr);
  const double thresholds[] = {0.0, 0.25, 0.5,
                               0.75, 1.0, std::nextafter(1.0, 2.0),
                               std::numeric_limits<double>::quiet_NaN()};
  for (const Matcher* matcher : matchers.All()) {
    if (matcher == &matchers.oracle) continue;
    SignatureOptions options = OptionsFor(*matcher);
    SignatureStore source = SignatureStore::Build(collection, options);
    std::vector<SignatureStore> stores = SplitAcrossStores(source, collection);
    auto cross = PrepareCross(*matcher, options);
    ASSERT_NE(cross, nullptr) << matcher->name();
    for (util::IntersectKernel kernel : AvailableKernels()) {
      ASSERT_TRUE(util::SetIntersectKernel(kernel));
      for (model::EntityId a = 0; a < collection.size(); ++a) {
        const SignatureStore& sa = stores[a % kCrossStores];
        for (model::EntityId b = 0; b < collection.size(); ++b) {
          const SignatureStore& sb = stores[b % kCrossStores];
          double expected = matcher->Similarity(collection[a], collection[b]);
          double got = cross->Similarity(sa, a / kCrossStores, sb,
                                         b / kCrossStores);
          ASSERT_EQ(std::bit_cast<uint64_t>(expected),
                    std::bit_cast<uint64_t>(got))
              << matcher->name() << " pair (" << a << "," << b << "): "
              << expected << " vs " << got;
          for (double t : thresholds) {
            ASSERT_EQ(expected >= t,
                      cross->Matches(sa, a / kCrossStores, sb,
                                     b / kCrossStores, t))
                << matcher->name() << " pair (" << a << "," << b
                << ") threshold " << t;
          }
        }
      }
    }
    util::ResetIntersectKernel();
  }
}

class SignatureProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SignatureProperty, PreparedMatchersBitEqualOnDirtyCorpus) {
  datagen::CorpusConfig config;
  config.num_entities = 30;
  config.duplicate_fraction = 0.6;
  config.somehow_similar_fraction = 0.4;
  config.seed = GetParam();
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    CheckAllMatchers(corpus.collection, corpus.truth, threads);
  }
}

TEST_P(SignatureProperty, PreparedMatchersBitEqualOnCleanCleanCorpus) {
  datagen::CorpusConfig config;
  config.num_entities = 30;
  config.duplicate_fraction = 0.5;
  config.schema_divergence = 0.3;
  config.seed = GetParam() ^ 0xC1EA;
  datagen::Corpus corpus =
      datagen::CorpusGenerator(config).GenerateCleanClean();
  for (size_t threads : {size_t{1}, size_t{8}}) {
    CheckAllMatchers(corpus.collection, corpus.truth, threads);
  }
}

TEST_P(SignatureProperty, CrossStoreMatchersBitEqualAcrossThreeStores) {
  datagen::CorpusConfig dirty;
  dirty.num_entities = 30;
  dirty.duplicate_fraction = 0.6;
  dirty.somehow_similar_fraction = 0.4;
  dirty.seed = GetParam();
  datagen::Corpus corpus = datagen::CorpusGenerator(dirty).GenerateDirty();
  CheckAllMatchersCrossStore(corpus.collection, corpus.truth);

  datagen::CorpusConfig clean;
  clean.num_entities = 30;
  clean.duplicate_fraction = 0.5;
  clean.schema_divergence = 0.3;
  clean.seed = GetParam() ^ 0xC1EA;
  corpus = datagen::CorpusGenerator(clean).GenerateCleanClean();
  CheckAllMatchersCrossStore(corpus.collection, corpus.truth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureProperty,
                         ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(SignatureStoreTest, VocabularyIdenticalForAnyThreadCount) {
  datagen::CorpusConfig config;
  config.num_entities = 50;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();

  std::vector<std::vector<uint32_t>> serial_tokens;
  {
    core::ScopedParallelism one(1);
    SignatureStore store = SignatureStore::Build(corpus.collection);
    for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
      serial_tokens.push_back(store.TokenSet(id));
    }
  }
  for (size_t threads : {size_t{2}, size_t{8}}) {
    core::ScopedParallelism parallelism(threads);
    SignatureStore store = SignatureStore::Build(corpus.collection);
    for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
      ASSERT_EQ(serial_tokens[id], store.TokenSet(id))
          << "entity " << id << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

TEST(SignatureEdgeTest, EmptyDescriptionsScoreLikeStringPath) {
  // Jaccard(∅, ∅) = 1 (empty union), overlap(∅, ∅) = 1 (equal sizes) and
  // overlap(∅, x) = 0; the prepared filters must honour those exactly.
  model::EntityCollection c;
  c.Add(model::EntityDescription("u/empty1"));
  c.Add(model::EntityDescription("u/empty2"));
  model::EntityDescription full("u/full");
  full.AddPair("p", "alpha beta");
  c.Add(full);

  TokenJaccardMatcher jaccard;
  TokenOverlapMatcher overlap;
  for (const Matcher* matcher :
       std::vector<const Matcher*>{&jaccard, &overlap}) {
    SignatureStore store =
        SignatureStore::Build(c, OptionsFor(*matcher));
    std::unique_ptr<PreparedMatcher> prepared = Prepare(*matcher, store);
    ASSERT_NE(prepared, nullptr);
    ExpectBitEqual(c, *matcher, *prepared);
    EXPECT_EQ(prepared->Similarity(0, 1), 1.0) << matcher->name();
    EXPECT_EQ(prepared->Similarity(0, 2), 0.0) << matcher->name();
  }
}

TEST(SignatureEdgeTest, MergedSlotsStayBitEqualAfterUnions) {
  // Chain a few AppendMerged calls and verify the merged slots score
  // exactly like the string-path MergeFrom descriptions.
  model::GroundTruth truth;
  model::EntityCollection c = TinyDirty(&truth);
  TokenJaccardMatcher jaccard;
  SignatureStore store = SignatureStore::Build(c, OptionsFor(jaccard));
  std::unique_ptr<PreparedMatcher> prepared = Prepare(jaccard, store);
  ASSERT_NE(prepared, nullptr);

  model::EntityDescription merged01 = c[0];
  merged01.MergeFrom(c[1]);
  model::EntityId sig01 = store.AppendMerged(0, 1);
  model::EntityDescription merged01_23 = merged01;
  model::EntityDescription merged23 = c[2];
  merged23.MergeFrom(c[3]);
  model::EntityId sig23 = store.AppendMerged(2, 3);
  merged01_23.MergeFrom(merged23);
  model::EntityId sig0123 = store.AppendMerged(sig01, sig23);

  for (model::EntityId other = 0; other < c.size(); ++other) {
    EXPECT_EQ(jaccard.Similarity(merged01, c[other]),
              prepared->Similarity(sig01, other));
    EXPECT_EQ(jaccard.Similarity(merged01_23, c[other]),
              prepared->Similarity(sig0123, other));
  }
  EXPECT_EQ(jaccard.Similarity(merged01, merged23),
            prepared->Similarity(sig01, sig23));

  // Releasing a constituent must not disturb the merged slot.
  store.Release(0);
  store.Release(1);
  EXPECT_FALSE(store.contains(0));
  EXPECT_TRUE(store.contains(sig01));
  EXPECT_EQ(jaccard.Similarity(merged01, merged23),
            prepared->Similarity(sig01, sig23));
  EXPECT_GT(store.released_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Consumers: signatures on == signatures off
// ---------------------------------------------------------------------------

TEST(SignatureConsumerTest, RSwooshIdenticalWithAndWithoutSignatures) {
  datagen::CorpusConfig config;
  config.num_entities = 40;
  config.duplicate_fraction = 0.7;
  config.max_extra_descriptions = 3;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  TokenOverlapMatcher matcher;
  matching::ThresholdMatcher threshold(&matcher, 0.6);

  iterative::SwooshResult with =
      iterative::RSwoosh(corpus.collection, threshold, true);
  iterative::SwooshResult without =
      iterative::RSwoosh(corpus.collection, threshold, false);
  EXPECT_EQ(with.comparisons, without.comparisons);
  EXPECT_EQ(with.merges, without.merges);
  EXPECT_EQ(with.clusters, without.clusters);
  ASSERT_EQ(with.resolved.size(), without.resolved.size());

  iterative::SwooshResult naive_with =
      iterative::NaivePairwiseResolve(corpus.collection, threshold, true);
  iterative::SwooshResult naive_without =
      iterative::NaivePairwiseResolve(corpus.collection, threshold, false);
  EXPECT_EQ(naive_with.comparisons, naive_without.comparisons);
  EXPECT_EQ(naive_with.merges, naive_without.merges);
  EXPECT_EQ(naive_with.clusters, naive_without.clusters);
}

TEST(SignatureConsumerTest, IterativeBlockingIdenticalWithAndWithoutSignatures) {
  datagen::CorpusConfig config;
  config.num_entities = 40;
  config.duplicate_fraction = 0.6;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::TokenBlocking blocker;
  blocking::BlockCollection blocks = blocker.Build(corpus.collection);
  TokenJaccardMatcher matcher;
  matching::ThresholdMatcher threshold(&matcher, 0.5);

  iterative::IterativeBlockingResult with =
      iterative::IterativeBlocking(blocks, threshold, true);
  iterative::IterativeBlockingResult without =
      iterative::IterativeBlocking(blocks, threshold, false);
  EXPECT_EQ(with.comparisons, without.comparisons);
  EXPECT_EQ(with.merges, without.merges);
  EXPECT_EQ(with.block_passes, without.block_passes);
  EXPECT_EQ(with.clusters, without.clusters);

  iterative::IterativeBlockingResult indep_with =
      iterative::IndependentBlockER(blocks, threshold, true);
  iterative::IterativeBlockingResult indep_without =
      iterative::IndependentBlockER(blocks, threshold, false);
  EXPECT_EQ(indep_with.comparisons, indep_without.comparisons);
  EXPECT_EQ(indep_with.clusters, indep_without.clusters);
}

TEST(SignatureConsumerTest, IncrementalIdenticalWithTombstones) {
  datagen::CorpusConfig config;
  config.num_entities = 30;
  config.duplicate_fraction = 0.7;
  config.max_extra_descriptions = 3;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  TokenJaccardMatcher matcher;

  auto run = [&](bool prepared) {
    incremental::ResolverOptions options;
    options.match_threshold = 0.5;
    options.prepared_matching = prepared;
    incremental::IncrementalResolver resolver(&matcher, options);
    // Ingest in two batches with removals in between so tombstoned slots
    // are exercised on the signature path.
    std::vector<model::EntityDescription> first, second;
    for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
      (id < corpus.collection.size() / 2 ? first : second)
          .push_back(corpus.collection.at(id));
    }
    std::vector<model::EntityId> ids = resolver.Ingest(std::move(first));
    resolver.Remove(ids[0]);
    resolver.Remove(ids[ids.size() / 2]);
    resolver.Ingest(std::move(second));
    return std::make_pair(resolver.Clusters(), resolver.comparisons());
  };

  auto [clusters_with, comparisons_with] = run(true);
  auto [clusters_without, comparisons_without] = run(false);
  EXPECT_EQ(comparisons_with, comparisons_without);
  EXPECT_EQ(clusters_with, clusters_without);
}

TEST(SignatureConsumerTest, PipelineClustersIdenticalAcrossThreads) {
  datagen::CorpusConfig config;
  config.num_entities = 60;
  config.duplicate_fraction = 0.5;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  blocking::TokenBlocking blocker;
  TokenJaccardMatcher matcher;

  core::PipelineConfig string_config;
  string_config.blocker = &blocker;
  string_config.matcher = &matcher;
  string_config.match_threshold = 0.5;
  string_config.prepared_matching = false;
  string_config.num_threads = 1;
  core::PipelineResult reference =
      core::RunPipeline(corpus.collection, corpus.truth, string_config);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    core::PipelineConfig prepared_config = string_config;
    prepared_config.prepared_matching = true;
    prepared_config.num_threads = threads;
    core::PipelineResult result =
        core::RunPipeline(corpus.collection, corpus.truth, prepared_config);
    EXPECT_EQ(result.comparisons, reference.comparisons)
        << "threads " << threads;
    EXPECT_EQ(result.matches, reference.matches) << "threads " << threads;
    EXPECT_EQ(result.clusters, reference.clusters) << "threads " << threads;
  }
}

}  // namespace
}  // namespace weber::matching
