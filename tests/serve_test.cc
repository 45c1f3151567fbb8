// Tests of the sharded serving path (src/serve/): the shard-count
// bit-equality property (the tentpole's correctness oracle), parity with
// the single-store IncrementalResolver, the coalescing front door's
// typed load shedding and oldest-waiter leadership handoff, the wire
// codec, and a socket round trip through UnixServer + ServeClient.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "datagen/corpus_generator.h"
#include "incremental/resolver.h"
#include "matching/matcher.h"
#include "model/entity.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/sharded_resolver.h"
#include "tests/test_corpus.h"

namespace weber::serve {
namespace {

using std::chrono::milliseconds;

model::EntityDescription Person(const std::string& uri,
                                const std::string& name,
                                const std::string& city) {
  model::EntityDescription d(uri, "person");
  d.AddPair("name", name);
  d.AddPair("city", city);
  return d;
}

/// A shuffled dirty corpus: duplicates are interleaved so matches span
/// ingest batches (the shuffle is seeded — every resolver under test
/// sees the identical stream).
std::vector<model::EntityDescription> ShuffledCorpus(size_t entities,
                                                     uint64_t seed) {
  datagen::CorpusConfig config;
  config.num_entities = entities;
  config.seed = seed;
  datagen::Corpus corpus = datagen::CorpusGenerator(config).GenerateDirty();
  std::vector<model::EntityDescription> stream;
  stream.reserve(corpus.collection.size());
  for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
    stream.push_back(corpus.collection.at(id));
  }
  std::mt19937_64 rng(seed * 977 + 13);
  std::shuffle(stream.begin(), stream.end(), rng);
  return stream;
}

/// Ingests the stream in fixed-size batches.
void IngestStream(ShardedResolver* resolver,
                  const std::vector<model::EntityDescription>& stream,
                  size_t batch_size) {
  for (size_t i = 0; i < stream.size(); i += batch_size) {
    size_t end = std::min(i + batch_size, stream.size());
    std::vector<model::EntityDescription> batch(stream.begin() + i,
                                                stream.begin() + end);
    resolver->Ingest(std::move(batch));
  }
}

// ---------------------------------------------------------------------------
// Shard-count bit-equality (the tentpole property).

TEST(ShardedResolverTest, DigestEqualAcrossShardCountsAndThreads) {
  const std::vector<model::EntityDescription> stream = ShuffledCorpus(120, 7);
  std::optional<uint64_t> expected;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      core::ScopedParallelism parallelism(threads);
      matching::TokenJaccardMatcher matcher;
      ShardedResolverOptions options;
      options.shards = shards;
      ShardedResolver resolver(&matcher, options);
      IngestStream(&resolver, stream, 7);
      uint64_t digest = resolver.StateDigest();
      if (!expected) {
        expected = digest;
      } else {
        EXPECT_EQ(digest, *expected);
      }
    }
  }
}

TEST(ShardedResolverTest, MatchesSingleStoreResolver) {
  const std::vector<model::EntityDescription> stream = ShuffledCorpus(100, 3);
  model::EntityCollection collection;
  for (const model::EntityDescription& description : stream) {
    collection.Add(description);
  }

  // Every matcher type the cross-store engine scores, so each prepared
  // scoring routine is pinned against the single-store resolver.
  matching::TokenJaccardMatcher jaccard;
  matching::TokenOverlapMatcher overlap;
  matching::TfIdfCosineMatcher tfidf(collection);
  matching::WeightedAttributeMatcher weighted(
      {{"attr0", 2.0, true}, {"attr1", 1.0, false}});
  matching::CompositeMatcher maximum(
      {&weighted, &overlap}, {}, matching::CompositeMatcher::Combine::kMax);
  for (const matching::Matcher* matcher :
       std::vector<const matching::Matcher*>{&jaccard, &overlap, &tfidf,
                                             &weighted, &maximum}) {
    SCOPED_TRACE(matcher->name());
    incremental::IncrementalResolver reference(matcher, {});
    for (size_t i = 0; i < stream.size(); i += 5) {
      size_t end = std::min(i + 5, stream.size());
      reference.Ingest(std::vector<model::EntityDescription>(
          stream.begin() + i, stream.begin() + end));
    }

    for (size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      obs::MetricsRegistry registry;
      ShardedResolverOptions options;
      options.shards = shards;
      options.metrics = &registry;
      ShardedResolver sharded(matcher, options);
      IngestStream(&sharded, stream, 5);
      EXPECT_EQ(sharded.matches(), reference.matches());
      EXPECT_EQ(sharded.Clusters(), reference.Clusters());
      EXPECT_EQ(sharded.comparisons(), reference.comparisons());

      // The string path is bit-equal, so only the counters can tell that
      // the prepared engine did the scoring.
      obs::RegistrySnapshot snapshot = registry.TakeSnapshot();
      EXPECT_GT(snapshot.counters["weber.matching.signature.comparisons"], 0u);
      EXPECT_EQ(snapshot.counters["weber.matching.signature.fallbacks"], 0u);
    }
  }
}

TEST(ShardedResolverTest, DigestEqualWithOnlinePurging) {
  // A small posting cap makes the purge fire constantly; the token index
  // is sharded by token hash exactly so the cap triggers at the same
  // per-token counts for every shard count.
  const std::vector<model::EntityDescription> stream = ShuffledCorpus(150, 11);
  std::optional<uint64_t> expected;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    matching::TokenJaccardMatcher matcher;
    ShardedResolverOptions options;
    options.shards = shards;
    options.index.max_block_size = 8;
    ShardedResolver resolver(&matcher, options);
    IngestStream(&resolver, stream, 9);
    uint64_t digest = resolver.StateDigest();
    if (!expected) {
      expected = digest;
    } else {
      EXPECT_EQ(digest, *expected);
    }
  }
}

TEST(ShardedResolverTest, DigestEqualWithRemovesInterleaved) {
  const std::vector<model::EntityDescription> stream = ShuffledCorpus(80, 5);
  auto run = [&](size_t shards) {
    matching::TokenJaccardMatcher matcher;
    ShardedResolverOptions options;
    options.shards = shards;
    ShardedResolver resolver(&matcher, options);
    size_t batch_index = 0;
    for (size_t i = 0; i < stream.size(); i += 6, ++batch_index) {
      size_t end = std::min(i + 6, stream.size());
      resolver.Ingest(std::vector<model::EntityDescription>(
          stream.begin() + i, stream.begin() + end));
      // Deterministic retire pattern, including repeats (second remove of
      // an id is a no-op on every shard count).
      if (batch_index % 2 == 1) {
        resolver.Remove(static_cast<model::EntityId>((batch_index * 5) %
                                                     resolver.size()));
        resolver.Remove(static_cast<model::EntityId>((batch_index * 3) %
                                                     resolver.size()));
      }
    }
    return resolver.StateDigest();
  };
  uint64_t d1 = run(1);
  EXPECT_EQ(run(2), d1);
  EXPECT_EQ(run(8), d1);
}

/// A matcher the engine cannot prepare (unknown type), forcing the
/// string-path fallback; scores like token Jaccard.
class UnpreparedMatcher : public matching::Matcher {
 public:
  double Similarity(const model::EntityDescription& a,
                    const model::EntityDescription& b) const override {
    return inner_.Similarity(a, b);
  }
  std::string name() const override { return "unprepared-jaccard"; }

 private:
  matching::TokenJaccardMatcher inner_;
};

TEST(ShardedResolverTest, StringPathMatchersStayDigestEqual) {
  // An unpreparable matcher has no cross-store twin, so candidates score
  // through the string fallback — the sharding must not care.
  const std::vector<model::EntityDescription> stream = ShuffledCorpus(60, 19);
  std::optional<uint64_t> expected;
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    UnpreparedMatcher matcher;
    ShardedResolverOptions options;
    options.shards = shards;
    options.match_threshold = 0.3;
    ShardedResolver resolver(&matcher, options);
    IngestStream(&resolver, stream, 4);
    uint64_t digest = resolver.StateDigest();
    if (!expected) {
      expected = digest;
    } else {
      EXPECT_EQ(digest, *expected);
    }
  }
}

TEST(ShardedResolverTest, ResolveRemoveAndIntrospection) {
  matching::TokenJaccardMatcher matcher;
  ShardedResolverOptions options;
  options.shards = 4;
  ShardedResolver resolver(&matcher, options);

  std::vector<model::EntityId> ids = resolver.Ingest({
      Person("http://kb/a", "alice smith", "paris"),
      Person("http://kb/a2", "alice smith", "paris"),
      Person("http://kb/b", "bob jones", "berlin"),
  });
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(resolver.size(), 3u);
  EXPECT_EQ(resolver.live_count(), 3u);

  auto resolution = resolver.Resolve(0);
  ASSERT_TRUE(resolution.has_value());
  EXPECT_EQ(resolution->members.size(), 2u);  // The two alices merged.
  EXPECT_EQ(resolver.DescriptionOf(2).uri(), "http://kb/b");

  EXPECT_TRUE(resolver.Remove(1));
  EXPECT_FALSE(resolver.Remove(1));
  EXPECT_FALSE(resolver.Resolve(1).has_value());
  EXPECT_EQ(resolver.live_count(), 2u);
  resolution = resolver.Resolve(0);
  ASSERT_TRUE(resolution.has_value());
  EXPECT_EQ(resolution->members.size(), 1u);

  EXPECT_FALSE(resolver.Resolve(99).has_value());
  EXPECT_EQ(resolver.osn(), 2u);  // One ingest batch + one remove.
}

TEST(ShardedResolverTest, ShardOfIsStableAndInRange) {
  for (size_t shards : {size_t{1}, size_t{3}, size_t{64}}) {
    for (model::EntityId id = 0; id < 100; ++id) {
      size_t shard = ShardedResolver::ShardOf(id, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, ShardedResolver::ShardOf(id, shards));
    }
  }
}

TEST(ShardedResolverTest, CollectionSnapshotPreservesIds) {
  matching::TokenJaccardMatcher matcher;
  ShardedResolverOptions options;
  options.shards = 3;
  ShardedResolver resolver(&matcher, options);
  const std::vector<model::EntityDescription> stream = ShuffledCorpus(30, 23);
  IngestStream(&resolver, stream, 8);
  model::EntityCollection snapshot = resolver.CollectionSnapshot();
  ASSERT_EQ(snapshot.size(), resolver.size());
  for (model::EntityId id = 0; id < snapshot.size(); ++id) {
    EXPECT_EQ(snapshot.at(id).uri(), resolver.DescriptionOf(id).uri());
  }
}

// ---------------------------------------------------------------------------
// The coalescing front door: shedding and leadership handoff.

/// A matcher that blocks every similarity call while the gate is closed —
/// the "slow ingest" the shedding and fairness tests need to hold a
/// leader inside the resolver deterministically.
class GatedMatcher : public matching::Matcher {
 public:
  double Similarity(const model::EntityDescription&,
                    const model::EntityDescription&) const override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
    return 1.0;
  }
  std::string name() const override { return "gated"; }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool open_ = false;
};

TEST(ShardedResolveServiceTest, ShedsTypedOverloadPastWatermark) {
  GatedMatcher matcher;
  ShardedServiceOptions options;
  options.max_batch = 2;
  options.max_queue_entities = 1;
  ShardedResolveService service(&matcher, options);

  // The leader's batch shares a token pair, so its ingest blocks inside
  // the gated matcher until Open().
  std::thread leader([&] {
    auto result = service.Ingest({
        Person("http://kb/l1", "alice smith", "paris"),
        Person("http://kb/l2", "alice smith", "paris"),
    });
    EXPECT_EQ(result.status, ServeErrc::kOk);
  });

  // With the leader held at the gate, the first admitted probe parks in
  // the queue and every later probe must shed (queue non-empty, one
  // entity >= the watermark). Probes run in their own threads because an
  // admitted ingest blocks until the gate opens; every probe must come
  // back typed — kOk or kOverloaded, never an error or a stall.
  std::atomic<uint64_t> ok{0}, overloaded{0};
  std::vector<std::thread> probes;
  for (int attempt = 0; attempt < 200 && service.shed() == 0; ++attempt) {
    probes.emplace_back([&service, &ok, &overloaded, attempt] {
      auto result = service.Ingest(
          {Person("http://kb/p" + std::to_string(attempt), "erin white",
                  "oslo")});
      ASSERT_TRUE(result.status == ServeErrc::kOk ||
                  result.status == ServeErrc::kOverloaded);
      (result.status == ServeErrc::kOk ? ok : overloaded).fetch_add(1);
    });
    std::this_thread::sleep_for(milliseconds(2));
  }

  matcher.Open();
  leader.join();
  for (std::thread& t : probes) t.join();
  EXPECT_GE(service.shed(), 1u);
  EXPECT_EQ(overloaded.load(), service.shed());
  EXPECT_EQ(service.resolver().size(), 2u + ok.load());
  service.BeginShutdown();
  service.Drain();
  EXPECT_EQ(service.Ingest({Person("http://kb/z", "x y", "z")}).status,
            ServeErrc::kShuttingDown);
  EXPECT_EQ(service.Remove(0), ServeErrc::kShuttingDown);
}

TEST(ShardedResolveServiceTest, WaitersCoalesceIntoOneHandedOffBatch) {
  GatedMatcher matcher;
  ShardedServiceOptions options;
  options.max_batch = 64;
  ShardedResolveService service(&matcher, options);

  std::thread leader([&] {
    auto result = service.Ingest({
        Person("http://kb/l1", "alice smith", "paris"),
        Person("http://kb/l2", "alice smith", "paris"),
    });
    EXPECT_EQ(result.status, ServeErrc::kOk);
  });

  // Six waiters pile up behind the gated leader; give them time to all
  // reach the queue before the gate opens.
  constexpr int kWaiters = 6;
  std::atomic<int> started{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      started.fetch_add(1);
      auto result = service.Ingest(
          {Person("http://kb/w" + std::to_string(i), "carol white",
                  "lisbon")});
      EXPECT_EQ(result.status, ServeErrc::kOk);
      EXPECT_EQ(result.ids.size(), 1u);
    });
  }
  while (started.load() < kWaiters) std::this_thread::sleep_for(
      milliseconds(1));
  std::this_thread::sleep_for(milliseconds(50));
  matcher.Open();
  leader.join();
  for (std::thread& t : waiters) t.join();

  EXPECT_EQ(service.requests(), 1u + kWaiters);
  // The handed-off leader (the oldest waiter) drains every queued request
  // into a single batch: one gated batch plus at most a couple of
  // coalesced ones if a waiter raced the gate.
  EXPECT_LE(service.batches_run(), 3u);
  EXPECT_GE(service.batches_run(), 2u);
  EXPECT_EQ(service.resolver().size(), 2u + kWaiters);

  // The service stays live after the handoff (a stale designated pointer
  // would deadlock this ingest).
  EXPECT_EQ(
      service.Ingest({Person("http://kb/after", "dave black", "oslo")})
          .status,
      ServeErrc::kOk);
}

TEST(ShardedResolveServiceTest, ServesTinyCorpus) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    matching::TokenJaccardMatcher matcher;
    ShardedServiceOptions options;
    options.resolver.shards = shards;
    options.resolver.match_threshold = 0.45;
    ShardedResolveService service(&matcher, options);
    model::EntityCollection tiny = ::weber::testing::TinyDirty(nullptr);
    std::vector<model::EntityDescription> batch;
    for (model::EntityId id = 0; id < tiny.size(); ++id) {
      batch.push_back(tiny.at(id));
    }
    ShardedResolveService::IngestResult ingest =
        service.Ingest(std::move(batch));
    ASSERT_EQ(ingest.status, ServeErrc::kOk);
    ASSERT_EQ(ingest.ids.size(), 6u);
    auto resolution = service.Resolve(ingest.ids[0]);
    ASSERT_TRUE(resolution.has_value());
    EXPECT_EQ(resolution->members.size(), 2u);
    EXPECT_EQ(service.Remove(ingest.ids[5]), ServeErrc::kOk);
    EXPECT_EQ(service.Clusters().size(), 3u);
    EXPECT_EQ(service.requests(), 1u);
    EXPECT_EQ(service.batches_run(), 1u);
  }
}

TEST(ShardedResolveServiceTest, ConcurrentIngestsResolveEveryEntity) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    matching::TokenJaccardMatcher matcher;
    ShardedServiceOptions options;
    options.max_batch = 32;
    options.resolver.shards = shards;
    options.resolver.match_threshold = 0.45;
    ShardedResolveService service(&matcher, options);

    constexpr size_t kThreads = 8;
    constexpr size_t kPerThread = 25;
    std::vector<std::vector<model::EntityId>> ids(kThreads);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&service, &ids, t] {
        for (size_t i = 0; i < kPerThread; ++i) {
          std::string tag = std::to_string(t * 1000 + i);
          // Each entity arrives twice with identical values (Jaccard 1.0)
          // so clusters must form regardless of request coalescing, while
          // distinct entities share only the city token (1/3 < threshold).
          ShardedResolveService::IngestResult got = service.Ingest(
              {Person("u/" + tag + "/0", "name" + tag, "metropolis"),
               Person("u/" + tag + "/1", "name" + tag, "metropolis")});
          ASSERT_EQ(got.status, ServeErrc::kOk);
          ids[t].insert(ids[t].end(), got.ids.begin(), got.ids.end());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    EXPECT_EQ(service.requests(), kThreads * kPerThread);
    EXPECT_LE(service.batches_run(), service.requests());
    EXPECT_EQ(service.resolver().size(), kThreads * kPerThread * 2);
    // Every ingested entity resolves, and each duplicate pair shares a
    // cluster regardless of how requests were coalesced.
    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(ids[t].size(), kPerThread * 2);
      for (size_t i = 0; i < kPerThread; ++i) {
        auto left = service.Resolve(ids[t][2 * i]);
        auto right = service.Resolve(ids[t][2 * i + 1]);
        ASSERT_TRUE(left.has_value());
        ASSERT_TRUE(right.has_value());
        EXPECT_EQ(left->representative, right->representative);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wire codec.

TEST(ProtocolTest, RequestRoundTripsEveryType) {
  Request ingest;
  ingest.type = MessageType::kIngest;
  ingest.entities = {Person("http://kb/a", "alice smith", "paris"),
                     Person("http://kb/b", "bob jones", "berlin")};
  Request remove;
  remove.type = MessageType::kRemove;
  remove.id = 17;
  Request resolve;
  resolve.type = MessageType::kResolve;
  resolve.id = 42;
  for (const Request& request :
       {Request{}, ingest, remove, resolve,
        Request{MessageType::kMetrics, {}, 0},
        Request{MessageType::kShutdown, {}, 0}}) {
    std::vector<uint8_t> body = EncodeRequest(request);
    std::optional<Request> decoded = DecodeRequest(body.data(), body.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, request.type);
    EXPECT_EQ(decoded->id, request.id);
    ASSERT_EQ(decoded->entities.size(), request.entities.size());
    for (size_t i = 0; i < request.entities.size(); ++i) {
      EXPECT_EQ(decoded->entities[i].uri(), request.entities[i].uri());
      EXPECT_EQ(decoded->entities[i].pairs(), request.entities[i].pairs());
    }
  }
}

TEST(ProtocolTest, ResponseRoundTrips) {
  Response response;
  response.status = ServeErrc::kOverloaded;
  response.ids = {1, 2, 3};
  response.representative = 9;
  response.members = {9, 11};
  response.text = "queue past watermark";
  std::vector<uint8_t> body = EncodeResponse(response);
  std::optional<Response> decoded = DecodeResponse(body.data(), body.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, ServeErrc::kOverloaded);
  EXPECT_EQ(decoded->ids, response.ids);
  EXPECT_EQ(decoded->representative, 9u);
  EXPECT_EQ(decoded->members, response.members);
  EXPECT_EQ(decoded->text, response.text);
}

TEST(ProtocolTest, MalformedBytesDecodeToNullopt) {
  EXPECT_FALSE(DecodeRequest(nullptr, 0).has_value());
  uint8_t unknown_type[] = {99};
  EXPECT_FALSE(DecodeRequest(unknown_type, 1).has_value());

  Request ingest;
  ingest.type = MessageType::kIngest;
  ingest.entities = {Person("http://kb/a", "alice smith", "paris")};
  std::vector<uint8_t> body = EncodeRequest(ingest);
  // Every strict prefix is short somewhere; the full body plus trailing
  // garbage must also be rejected.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeRequest(body.data(), cut).has_value())
        << "prefix of " << cut << " bytes decoded";
  }
  body.push_back(0xAB);
  EXPECT_FALSE(DecodeRequest(body.data(), body.size()).has_value());

  Response response;
  response.ids = {1};
  std::vector<uint8_t> rbody = EncodeResponse(response);
  for (size_t cut = 0; cut < rbody.size(); ++cut) {
    EXPECT_FALSE(DecodeResponse(rbody.data(), cut).has_value());
  }
  uint8_t bad_status[] = {200};
  EXPECT_FALSE(DecodeResponse(bad_status, 1).has_value());
}

// ---------------------------------------------------------------------------
// Socket round trip.

TEST(UnixServerTest, EndToEndOverSocket) {
  char pattern[] = "/tmp/weber-serve-test-XXXXXX";
  char* dir = mkdtemp(pattern);
  ASSERT_NE(dir, nullptr);
  std::string socket_path = std::string(dir) + "/serve.sock";

  matching::TokenJaccardMatcher matcher;
  ShardedServiceOptions options;
  options.resolver.shards = 2;
  ShardedResolveService service(&matcher, options);
  ServerOptions server_options;
  server_options.socket_path = socket_path;
  UnixServer server(&service, server_options);
  ASSERT_TRUE(server.Start().ok());
  std::thread serving([&] { server.Serve(); });

  ServeClient client;
  ASSERT_TRUE(client.Connect(socket_path));

  Response pong = client.Call(Request{MessageType::kPing, {}, 0});
  EXPECT_EQ(pong.status, ServeErrc::kOk);

  Request ingest;
  ingest.type = MessageType::kIngest;
  ingest.entities = {Person("http://kb/a", "alice smith", "paris"),
                     Person("http://kb/a2", "alice smith", "paris"),
                     Person("http://kb/b", "bob jones", "berlin")};
  Response ingested = client.Call(ingest);
  ASSERT_EQ(ingested.status, ServeErrc::kOk);
  ASSERT_EQ(ingested.ids.size(), 3u);
  EXPECT_EQ(ingested.ids[0], 0u);

  Response resolved = client.Call(Request{MessageType::kResolve, {}, 0});
  ASSERT_EQ(resolved.status, ServeErrc::kOk);
  EXPECT_EQ(resolved.members.size(), 2u);
  EXPECT_EQ(resolved.representative, resolved.members.front());

  EXPECT_EQ(client.Call(Request{MessageType::kResolve, {}, 999}).status,
            ServeErrc::kNotFound);
  EXPECT_EQ(client.Call(Request{MessageType::kRemove, {}, 2}).status,
            ServeErrc::kOk);
  EXPECT_EQ(client.Call(Request{MessageType::kRemove, {}, 2}).status,
            ServeErrc::kNotFound);

  Response metrics = client.Call(Request{MessageType::kMetrics, {}, 0});
  EXPECT_EQ(metrics.status, ServeErrc::kOk);
  EXPECT_NE(metrics.text.find("entities="), std::string::npos);
  EXPECT_NE(metrics.text.find("shards=2"), std::string::npos);

  // An undecodable frame gets a typed kBadRequest, not a dropped
  // connection — the next request on the same socket still works.
  {
    ServeClient raw;
    ASSERT_TRUE(raw.Connect(socket_path));
    Response bad = raw.Call(Request{static_cast<MessageType>(77), {}, 0});
    EXPECT_EQ(bad.status, ServeErrc::kBadRequest);
    EXPECT_EQ(raw.Call(Request{MessageType::kPing, {}, 0}).status,
              ServeErrc::kOk);
  }

  EXPECT_EQ(client.Call(Request{MessageType::kShutdown, {}, 0}).status,
            ServeErrc::kOk);
  serving.join();
  EXPECT_EQ(service.resolver().live_count(), 2u);

  std::remove(socket_path.c_str());
  std::remove(dir);
}

}  // namespace
}  // namespace weber::serve
