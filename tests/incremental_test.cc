#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "blocking/sorted_neighborhood.h"
#include "blocking/token_blocking.h"
#include "core/executor.h"
#include "core/pipeline.h"
#include "datagen/corpus_generator.h"
#include "incremental/delta_index.h"
#include "incremental/entity_store.h"
#include "incremental/resolver.h"
#include "matching/matcher.h"
#include "model/ground_truth.h"
#include "obs/metrics.h"
#include "storage/file_io.h"
#include "tests/test_corpus.h"

namespace weber::incremental {
namespace {

using ::weber::testing::TinyDirty;

model::EntityDescription Person(const std::string& uri,
                                const std::string& name,
                                const std::string& city) {
  model::EntityDescription d(uri, "person");
  d.AddPair("name", name);
  d.AddPair("city", city);
  return d;
}

std::vector<model::EntityDescription> Descriptions(
    const model::EntityCollection& collection) {
  std::vector<model::EntityDescription> out;
  out.reserve(collection.size());
  for (model::EntityId id = 0; id < collection.size(); ++id) {
    out.push_back(collection.at(id));
  }
  return out;
}

/// Clusters as a canonical set of sorted URI lists, so runs over
/// differently-ordered collections (and differently-ordered cluster
/// output) compare equal iff they resolved the same real-world entities.
std::set<std::vector<std::string>> CanonicalClusters(
    const matching::Clusters& clusters,
    const model::EntityCollection& collection) {
  std::set<std::vector<std::string>> canonical;
  for (const std::vector<model::EntityId>& cluster : clusters) {
    std::vector<std::string> uris;
    uris.reserve(cluster.size());
    for (model::EntityId id : cluster) uris.push_back(collection[id].uri());
    std::sort(uris.begin(), uris.end());
    canonical.insert(std::move(uris));
  }
  return canonical;
}

/// A throwaway data directory, removed with its per-shard subdirectories
/// when the test ends.
class TempDir {
 public:
  TempDir() {
    char pattern[] = "/tmp/weber-incremental-test-XXXXXX";
    char* made = mkdtemp(pattern);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::vector<std::string> entries;
    if (storage::ListDirectory(path_, &entries).ok()) {
      for (const std::string& entry : entries) {
        std::string child = path_ + "/" + entry;
        std::vector<std::string> nested;
        if (storage::ListDirectory(child, &nested).ok()) {
          for (const std::string& inner : nested) {
            std::remove((child + "/" + inner).c_str());
          }
        }
        std::remove(child.c_str());
      }
    }
    std::remove(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// EntityStore
// ---------------------------------------------------------------------------

TEST(EntityStoreTest, AppendIssuesDenseIdsLikeCollectionAdd) {
  EntityStore store;
  EXPECT_EQ(store.Append(Person("u/0", "alice", "paris")), 0u);
  EXPECT_EQ(store.Append(Person("u/1", "bob", "berlin")), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_TRUE(store.alive(0));
  EXPECT_FALSE(store.alive(2));
  EXPECT_EQ(store.at(1).uri(), "u/1");
  EXPECT_EQ(store.FindByUri("u/0"), std::optional<model::EntityId>(0));
}

TEST(EntityStoreTest, UpdateBumpsVersionAndReindexesUri) {
  EntityStore store;
  store.Append(Person("u/0", "alice", "paris"));
  EXPECT_EQ(store.version(0), 0u);
  EXPECT_TRUE(store.Update(0, Person("u/renamed", "alice", "lyon")));
  EXPECT_EQ(store.version(0), 1u);
  EXPECT_EQ(store.FindByUri("u/0"), std::nullopt);
  EXPECT_EQ(store.FindByUri("u/renamed"), std::optional<model::EntityId>(0));
  EXPECT_FALSE(store.Update(7, Person("u/x", "x", "x")));
}

TEST(EntityStoreTest, TombstoneRetiresIdWithoutReuse) {
  EntityStore store;
  store.Append(Person("u/0", "alice", "paris"));
  store.Append(Person("u/1", "bob", "berlin"));
  EXPECT_TRUE(store.Tombstone(0));
  EXPECT_FALSE(store.Tombstone(0));  // Already dead.
  EXPECT_FALSE(store.alive(0));
  EXPECT_EQ(store.FindByUri("u/0"), std::nullopt);
  EXPECT_EQ(store.size(), 2u);  // Ids never reused.
  EXPECT_EQ(store.live_count(), 1u);
  EXPECT_EQ(store.Append(Person("u/2", "carol", "lisbon")), 2u);
  StoreStats stats = store.Stats();
  EXPECT_EQ(stats.total, 3u);
  EXPECT_EQ(stats.live, 2u);
  EXPECT_EQ(stats.tombstoned, 1u);
}

TEST(EntityStoreTest, SnapshotHoldsLiveDescriptionsInIdOrder) {
  EntityStore store;
  store.Append(Person("u/0", "alice", "paris"));
  store.Append(Person("u/1", "bob", "berlin"));
  store.Append(Person("u/2", "carol", "lisbon"));
  store.Tombstone(1);
  std::vector<model::EntityId> origin;
  model::EntityCollection snapshot = store.Snapshot(&origin);
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].uri(), "u/0");
  EXPECT_EQ(snapshot[1].uri(), "u/2");
  EXPECT_EQ(origin, (std::vector<model::EntityId>{0, 2}));
}

// ---------------------------------------------------------------------------
// Delta indexes
// ---------------------------------------------------------------------------

TEST(IncrementalTokenIndexTest, EmitsExactlyTheBatchPairSet) {
  datagen::CorpusConfig config;
  config.num_entities = 80;
  config.duplicate_fraction = 0.5;
  config.seed = 11;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();

  blocking::TokenBlockingOptions options;
  model::IdPairSet batch_pairs =
      blocking::TokenBlocking(options).Build(corpus.collection).DistinctPairs();

  IncrementalTokenIndex index(options);
  std::vector<model::IdPair> streamed;
  for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
    index.Absorb(id, corpus.collection.at(id), &streamed);
  }
  model::IdPairSet streamed_set(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed_set.size(), streamed.size())  // Each pair exactly once.
      << "delta index emitted a duplicate pair";
  EXPECT_EQ(streamed_set, batch_pairs);
}

TEST(IncrementalTokenIndexTest, ToBlocksMatchesBatchBuilder) {
  datagen::CorpusConfig config;
  config.num_entities = 50;
  config.seed = 12;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();

  blocking::TokenBlockingOptions options;
  blocking::BlockCollection batch =
      blocking::TokenBlocking(options).Build(corpus.collection);

  IncrementalTokenIndex index(options);
  for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
    index.Absorb(id, corpus.collection.at(id), nullptr);
  }
  blocking::BlockCollection streamed = index.ToBlocks(&corpus.collection);
  ASSERT_EQ(streamed.NumBlocks(), batch.NumBlocks());
  for (size_t i = 0; i < batch.NumBlocks(); ++i) {
    EXPECT_EQ(streamed.blocks()[i].key, batch.blocks()[i].key);
    EXPECT_EQ(streamed.blocks()[i].entities, batch.blocks()[i].entities);
  }
}

TEST(IncrementalTokenIndexTest, OnlinePurgingRetiresOversizedPostings) {
  blocking::TokenBlockingOptions options;
  options.max_block_size = 2;
  IncrementalTokenIndex index(options);
  std::vector<model::IdPair> pairs;
  // Four entities sharing the token "common": the posting crosses the cap
  // at the third absorb and must emit nothing afterwards.
  for (model::EntityId id = 0; id < 4; ++id) {
    index.Absorb(id, Person("u/" + std::to_string(id), "common", ""), &pairs);
  }
  // Absorb #2 saw {0,1} before the posting crossed the cap: 2 pairs.
  // Absorb #3 hits the retired posting: no pairs.
  EXPECT_EQ(pairs.size(), 3u);  // (0,1), (0,2), (1,2).
  EXPECT_GE(index.stats().purged_tokens, 1u);
  // Purged tokens are excluded from the export, like batch purging drops
  // the oversized block.
  model::EntityCollection collection;
  for (model::EntityId id = 0; id < 4; ++id) {
    collection.Add(Person("u/" + std::to_string(id), "common", ""));
  }
  EXPECT_EQ(index.ToBlocks(&collection).NumBlocks(), 0u);
}

TEST(IncrementalTokenIndexTest, RemoveDropsEntityFromPairsAndQueries) {
  IncrementalTokenIndex index;
  std::vector<model::IdPair> pairs;
  index.Absorb(0, Person("u/0", "shared token", ""), &pairs);
  index.Absorb(1, Person("u/1", "shared token", ""), &pairs);
  ASSERT_EQ(pairs.size(), 1u);
  index.Remove(0);
  pairs.clear();
  index.Absorb(2, Person("u/2", "shared token", ""), &pairs);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], model::IdPair::Of(1, 2));
  std::vector<model::EntityId> probe;
  index.Query(Person("u/q", "shared", ""), &probe);
  EXPECT_EQ(probe, (std::vector<model::EntityId>{1, 2}));
}

TEST(IncrementalSortedNeighborhoodTest, StreamedPairsCoverBatchWindows) {
  datagen::CorpusConfig config;
  config.num_entities = 60;
  config.duplicate_fraction = 0.4;
  config.seed = 13;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();

  const size_t window = 4;
  model::IdPairSet batch_pairs = blocking::SortedNeighborhood(window)
                                     .Build(corpus.collection)
                                     .DistinctPairs();

  IncrementalSortedNeighborhood index(window);
  std::vector<model::IdPair> streamed;
  for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
    index.Absorb(id, corpus.collection.at(id), &streamed);
  }
  // Streaming emits a superset: every batch window pair is present (later
  // inserts can only have pushed entities apart after their pair was
  // already emitted).
  model::IdPairSet streamed_set(streamed.begin(), streamed.end());
  for (const model::IdPair& pair : batch_pairs) {
    EXPECT_TRUE(streamed_set.contains(pair))
        << "missing batch pair (" << pair.low << "," << pair.high << ")";
  }
}

// ---------------------------------------------------------------------------
// IncrementalResolver
// ---------------------------------------------------------------------------

TEST(IncrementalResolverTest, ResolvesTinyCorpusOnIngest) {
  matching::TokenJaccardMatcher matcher;
  ResolverOptions options;
  options.match_threshold = 0.45;
  IncrementalResolver resolver(&matcher, options);

  model::GroundTruth truth;
  model::EntityCollection tiny = TinyDirty(&truth);
  std::vector<model::EntityId> ids = resolver.Ingest(Descriptions(tiny));
  ASSERT_EQ(ids.size(), 6u);
  EXPECT_EQ(ids.front(), 0u);

  auto resolution = resolver.Resolve(0);
  ASSERT_TRUE(resolution.has_value());
  EXPECT_EQ(resolution->members, (std::vector<model::EntityId>{0, 1}));
  auto singleton = resolver.Resolve(4);
  ASSERT_TRUE(singleton.has_value());
  EXPECT_EQ(singleton->members, (std::vector<model::EntityId>{4}));

  matching::Clusters clusters = resolver.Clusters();
  EXPECT_EQ(clusters.size(), 4u);
  EXPECT_GT(resolver.comparisons(), 0u);
  EXPECT_EQ(resolver.merges(), 2u);
}

TEST(IncrementalResolverTest, SingleEntityAndEmptyBatchAreNoops) {
  matching::TokenJaccardMatcher matcher;
  IncrementalResolver resolver(&matcher);
  EXPECT_TRUE(resolver.Ingest({}).empty());
  std::vector<model::EntityId> ids =
      resolver.Ingest({Person("u/solo", "alice", "paris")});
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(resolver.comparisons(), 0u);
  auto resolution = resolver.Resolve(ids[0]);
  ASSERT_TRUE(resolution.has_value());
  EXPECT_EQ(resolution->members, std::vector<model::EntityId>{ids[0]});
}

TEST(IncrementalResolverTest, RemoveDissolvesTransitiveLinks) {
  // a -- bridge -- b: both links need the bridge; removing it must split
  // the cluster back into singletons.
  matching::TokenJaccardMatcher matcher;
  ResolverOptions options;
  options.match_threshold = 0.45;
  IncrementalResolver resolver(&matcher, options);
  model::EntityDescription a("u/a");
  a.AddPair("p", "alpha beta gamma");
  model::EntityDescription bridge("u/bridge");
  bridge.AddPair("p", "alpha beta gamma delta epsilon zeta");
  model::EntityDescription b("u/b");
  b.AddPair("p", "delta epsilon zeta");
  std::vector<model::EntityId> ids = resolver.Ingest({a, bridge, b});

  auto before = resolver.Resolve(ids[0]);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->members.size(), 3u);

  EXPECT_TRUE(resolver.Remove(ids[1]));
  EXPECT_FALSE(resolver.Remove(ids[1]));
  EXPECT_EQ(resolver.Resolve(ids[1]), std::nullopt);
  auto after_a = resolver.Resolve(ids[0]);
  ASSERT_TRUE(after_a.has_value());
  EXPECT_EQ(after_a->members, std::vector<model::EntityId>{ids[0]});
  auto after_b = resolver.Resolve(ids[2]);
  ASSERT_TRUE(after_b.has_value());
  EXPECT_EQ(after_b->members, std::vector<model::EntityId>{ids[2]});
  EXPECT_EQ(resolver.Clusters().size(), 2u);
}

TEST(IncrementalResolverTest, RemovedEntityStopsBlockingNewIngests) {
  matching::TokenJaccardMatcher matcher;
  ResolverOptions options;
  options.match_threshold = 0.45;
  IncrementalResolver resolver(&matcher, options);
  std::vector<model::EntityId> ids =
      resolver.Ingest({Person("u/0", "alice smith", "paris")});
  resolver.Remove(ids[0]);
  uint64_t before = resolver.comparisons();
  resolver.Ingest({Person("u/1", "alice smith", "paris")});
  // The only potential candidate is dead: no comparison may happen.
  EXPECT_EQ(resolver.comparisons(), before);
  EXPECT_EQ(resolver.Clusters().size(), 1u);
}

TEST(IncrementalResolverTest, MergePropagationFindsBridgedMatch) {
  // Jaccard arithmetic (threshold 0.55):
  //   a-bridge: 4/6 = 0.67 -> match; bridge-b: 3/6 -> no; a-b: 3/6 -> no;
  //   merged{a,bridge} = {t1..t6} vs b: 4/6 = 0.67 -> match.
  // Only re-blocking the merged representative can link b.
  model::EntityDescription a("u/a");
  a.AddPair("p", "t1 t2 t3 t4 t5");
  model::EntityDescription bridge("u/bridge");
  bridge.AddPair("p", "t2 t3 t4 t5 t6");
  model::EntityDescription b("u/b");
  b.AddPair("p", "t1 t2 t3 t6");

  matching::TokenJaccardMatcher matcher;
  ResolverOptions replay;
  replay.match_threshold = 0.55;
  IncrementalResolver without(&matcher, replay);
  without.Ingest({a, bridge, b});
  EXPECT_EQ(without.Clusters().size(), 2u);  // {a,bridge}, {b}.

  ResolverOptions propagating = replay;
  propagating.merge_propagation = true;
  IncrementalResolver with(&matcher, propagating);
  with.Ingest({a, bridge, b});
  matching::Clusters clusters = with.Clusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 3u);
  EXPECT_EQ(with.merges(), 2u);
}

TEST(IncrementalResolverTest, MergePropagationAcrossBatches) {
  // Same corpus, but b arrives in a later batch: the index must hand the
  // merged {a,bridge} representative to the new entity's candidates.
  model::EntityDescription a("u/a");
  a.AddPair("p", "t1 t2 t3 t4 t5");
  model::EntityDescription bridge("u/bridge");
  bridge.AddPair("p", "t2 t3 t4 t5 t6");
  model::EntityDescription b("u/b");
  b.AddPair("p", "t1 t2 t3 t6");
  matching::TokenJaccardMatcher matcher;
  ResolverOptions options;
  options.match_threshold = 0.55;
  options.merge_propagation = true;
  IncrementalResolver resolver(&matcher, options);
  resolver.Ingest({a, bridge});
  resolver.Ingest({b});
  matching::Clusters clusters = resolver.Clusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 3u);
}

TEST(IncrementalResolverTest, PublishesIncrementalMetrics) {
  obs::MetricsRegistry registry;
  matching::TokenJaccardMatcher matcher;
  ResolverOptions options;
  options.match_threshold = 0.45;
  options.metrics = &registry;
  IncrementalResolver resolver(&matcher, options);
  resolver.Ingest(Descriptions(TinyDirty(nullptr)));
  resolver.Remove(0);

  obs::RegistrySnapshot snapshot = registry.TakeSnapshot();
  EXPECT_EQ(snapshot.counters["weber.incremental.ingested"], 6u);
  EXPECT_EQ(snapshot.counters["weber.incremental.batches"], 1u);
  EXPECT_GT(snapshot.counters["weber.incremental.candidates"], 0u);
  EXPECT_GT(snapshot.counters["weber.incremental.comparisons"], 0u);
  EXPECT_GT(snapshot.counters["weber.incremental.index_updates"], 0u);
  EXPECT_EQ(snapshot.counters["weber.incremental.index_full_builds"], 0u);
  EXPECT_EQ(snapshot.counters["weber.incremental.removed"], 1u);
  EXPECT_EQ(snapshot.histograms["weber.incremental.ingest_seconds"].count,
            1u);
}

// ---------------------------------------------------------------------------
// Replay equivalence (property test)
// ---------------------------------------------------------------------------

// Figures recorded from the hash-set token index this resolver shipped
// with before its dedup moved to a stamp set: FNV-1a over the match edges
// in commit order, and the comparison count, for a ~2k-entity stream with
// removes interleaved.
TEST(IncrementalResolverTest, DigestPinnedToParent) {
  struct Pin {
    size_t max_block_size;
    size_t batch;
    uint64_t matches_fnv;
    uint64_t comparisons;
  };
  constexpr Pin kPins[] = {
      {0, 7, 5877024382089887430u, 1515242},
      {0, 64, 11349272310465954673u, 1585621},
      {64, 7, 15881070422922061670u, 201340},
      {64, 64, 9832138066882537505u, 201852},
  };
  const std::vector<model::EntityDescription> stream =
      ::weber::testing::DirtyStream(42, 1200);
  for (const Pin& pin : kPins) {
    SCOPED_TRACE("cap=" + std::to_string(pin.max_block_size) +
                 " batch=" + std::to_string(pin.batch));
    matching::TokenJaccardMatcher matcher;
    ResolverOptions options;
    options.index.max_block_size = pin.max_block_size;
    IncrementalResolver resolver(&matcher, options);
    size_t batch_index = 0;
    for (size_t i = 0; i < stream.size(); i += pin.batch, ++batch_index) {
      size_t end = std::min(i + pin.batch, stream.size());
      resolver.Ingest(std::vector<model::EntityDescription>(
          stream.begin() + i, stream.begin() + end));
      if (batch_index % 3 == 2) {
        resolver.Remove(static_cast<model::EntityId>(
            (batch_index * 7) % resolver.store().size()));
      }
    }
    uint64_t fnv = 14695981039346656037ULL;
    for (const model::IdPair& pair : resolver.matches()) {
      for (uint32_t word : {pair.low, pair.high}) {
        fnv = (fnv ^ word) * 1099511628211ULL;
      }
    }
    EXPECT_EQ(fnv, pin.matches_fnv);
    EXPECT_EQ(resolver.comparisons(), pin.comparisons);
  }
}

TEST(IncrementalReplayTest, ShuffledStreamMatchesBatchPipeline) {
  datagen::CorpusConfig config;
  config.num_entities = 150;
  config.duplicate_fraction = 0.6;
  config.seed = 21;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();

  // Reference: the one-shot batch pipeline over the original order.
  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  core::PipelineConfig batch_config;
  batch_config.blocker = &blocker;
  batch_config.matcher = &matcher;
  batch_config.match_threshold = 0.5;
  core::PipelineResult batch =
      core::RunPipeline(corpus.collection, corpus.truth, batch_config);
  std::set<std::vector<std::string>> expected =
      CanonicalClusters(batch.clusters, corpus.collection);

  std::vector<model::EntityDescription> shuffled =
      Descriptions(corpus.collection);
  std::mt19937 rng(12345);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      core::ScopedParallelism parallelism(threads);
      ResolverOptions options;
      options.match_threshold = 0.5;
      IncrementalResolver resolver(&matcher, options);
      for (size_t start = 0; start < shuffled.size(); start += batch_size) {
        size_t end = std::min(start + batch_size, shuffled.size());
        resolver.Ingest(std::vector<model::EntityDescription>(
            shuffled.begin() + static_cast<int64_t>(start),
            shuffled.begin() + static_cast<int64_t>(end)));
      }
      std::set<std::vector<std::string>> streamed = CanonicalClusters(
          resolver.Clusters(), resolver.store().collection());
      EXPECT_EQ(streamed, expected)
          << "batch_size=" << batch_size << " threads=" << threads;
    }
  }
}

TEST(IncrementalReplayTest, PipelineIncrementalModeEqualsBatch) {
  datagen::CorpusConfig config;
  config.num_entities = 120;
  config.duplicate_fraction = 0.5;
  config.seed = 22;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();

  blocking::TokenBlocking blocker;
  matching::TokenJaccardMatcher matcher;
  core::PipelineConfig batch_config;
  batch_config.blocker = &blocker;
  batch_config.matcher = &matcher;
  batch_config.match_threshold = 0.5;
  core::PipelineResult batch =
      core::RunPipeline(corpus.collection, corpus.truth, batch_config);

  // Every streaming configuration — one store or four shards, in memory
  // or durable — must produce the identical run.
  std::optional<core::PipelineResult> first;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (bool durable : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " durable=" + std::to_string(durable));
      TempDir dir;
      core::PipelineConfig stream_config;
      stream_config.matcher = &matcher;
      stream_config.match_threshold = 0.5;
      stream_config.incremental = core::IncrementalMode{};
      stream_config.incremental->shards = shards;
      if (durable) stream_config.incremental->data_dir = dir.path();
      core::PipelineResult streamed =
          core::RunPipeline(corpus.collection, corpus.truth, stream_config);
      EXPECT_FALSE(streamed.store_collection.has_value());

      if (!first.has_value()) {
        EXPECT_EQ(streamed.candidates, batch.candidates);
        EXPECT_EQ(streamed.comparisons, batch.comparisons);
        model::IdPairSet batch_matches(batch.matches.begin(),
                                       batch.matches.end());
        model::IdPairSet stream_matches(streamed.matches.begin(),
                                        streamed.matches.end());
        EXPECT_EQ(stream_matches, batch_matches);
        EXPECT_EQ(CanonicalClusters(streamed.clusters, corpus.collection),
                  CanonicalClusters(batch.clusters, corpus.collection));
        EXPECT_DOUBLE_EQ(streamed.blocking_quality.PairCompleteness(),
                         batch.blocking_quality.PairCompleteness());
        EXPECT_DOUBLE_EQ(streamed.blocking_quality.PairQuality(),
                         batch.blocking_quality.PairQuality());
        EXPECT_EQ(streamed.curve.NumComparisons(),
                  batch.curve.NumComparisons());
        EXPECT_EQ(streamed.curve.MatchesAt(streamed.comparisons),
                  batch.curve.MatchesAt(batch.comparisons));
        first = std::move(streamed);
      } else {
        EXPECT_EQ(streamed.matches, first->matches);
        EXPECT_EQ(streamed.clusters, first->clusters);
        EXPECT_EQ(streamed.candidates, first->candidates);
        EXPECT_EQ(streamed.comparisons, first->comparisons);
        EXPECT_EQ(streamed.curve.CumulativeMatches(),
                  first->curve.CumulativeMatches());
        EXPECT_EQ(streamed.blocking_quality.PairCompleteness(),
                  first->blocking_quality.PairCompleteness());
        EXPECT_EQ(streamed.blocking_quality.PairQuality(),
                  first->blocking_quality.PairQuality());
      }

      if (durable) {
        // A second run over the same directory recovers the first run's
        // entities and appends the collection again.
        core::PipelineResult again =
            core::RunPipeline(corpus.collection, corpus.truth, stream_config);
        ASSERT_TRUE(again.store_collection.has_value());
        EXPECT_EQ(again.store_collection->size(),
                  2 * corpus.collection.size());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// No-rebuild guarantee
// ---------------------------------------------------------------------------

TEST(IncrementalScaleTest, SingleIngestIntoLargeStoreDoesNotRebuildIndex) {
  // 100k entities with two cheap tokens each. Ingesting one more entity
  // must touch only its own tokens' postings — the index_updates delta is
  // bounded by the new entity's token count, nowhere near the full-build
  // cost of ~200k posting updates.
  matching::TokenJaccardMatcher matcher;
  ResolverOptions options;
  options.match_threshold = 0.99;
  IncrementalResolver resolver(&matcher, options);

  constexpr size_t kStoreSize = 100000;
  std::vector<model::EntityDescription> batch;
  batch.reserve(kStoreSize);
  for (size_t i = 0; i < kStoreSize; ++i) {
    model::EntityDescription d("u/" + std::to_string(i));
    d.AddPair("p", "uniq" + std::to_string(i) + " grp" +
                       std::to_string(i % (kStoreSize / 2)));
    batch.push_back(std::move(d));
  }
  resolver.Ingest(std::move(batch));
  ASSERT_EQ(resolver.store().size(), kStoreSize);

  uint64_t updates_before = resolver.index_stats().updates;
  model::EntityDescription extra("u/extra");
  extra.AddPair("p", "uniqextra grp0");
  resolver.Ingest({std::move(extra)});
  uint64_t delta = resolver.index_stats().updates - updates_before;
  EXPECT_LE(delta, 2u);  // One update per token of the new entity.
  EXPECT_EQ(resolver.index_stats().full_builds, 0u);
  // And the new entity still got blocked against its group.
  EXPECT_GT(resolver.candidates(), 0u);
}

}  // namespace
}  // namespace weber::incremental
