#ifndef WEBER_TESTS_TEST_CORPUS_H_
#define WEBER_TESTS_TEST_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "model/entity.h"
#include "model/ground_truth.h"
#include "util/random.h"

namespace weber::testing {

/// A small hand-built dirty collection with known duplicate structure:
///   0: alice smith, paris     -+
///   1: alice smyth, paris     -+- duplicates (entity A)
///   2: bob jones, berlin      -+
///   3: bob jones, munich      -+- duplicates (entity B)
///   4: carol white, lisbon        singleton
///   5: dave black, oslo           singleton
/// Truth: {0,1}, {2,3}.
inline model::EntityCollection TinyDirty(model::GroundTruth* truth) {
  auto person = [](const std::string& uri, const std::string& name,
                   const std::string& city) {
    model::EntityDescription d(uri, "person");
    d.AddPair("name", name);
    d.AddPair("city", city);
    return d;
  };
  model::EntityCollection c;
  c.Add(person("http://kb/a/0", "alice smith", "paris"));
  c.Add(person("http://kb/a/1", "alice smyth", "paris"));
  c.Add(person("http://kb/b/0", "bob jones", "berlin"));
  c.Add(person("http://kb/b/1", "bob jones", "munich"));
  c.Add(person("http://kb/c/0", "carol white", "lisbon"));
  c.Add(person("http://kb/d/0", "dave black", "oslo"));
  if (truth != nullptr) {
    truth->AddMatch(0, 1);
    truth->AddMatch(2, 3);
  }
  return c;
}

/// A clean-clean collection: source 1 = {alice, bob}, source 2 = {alice',
/// carol}; truth: {0, 2}. Source-2 uses different attribute names.
inline model::EntityCollection TinyCleanClean(model::GroundTruth* truth) {
  std::vector<model::EntityDescription> s1;
  {
    model::EntityDescription a("http://kb1/alice", "person");
    a.AddPair("name", "alice smith");
    a.AddPair("city", "paris");
    s1.push_back(a);
    model::EntityDescription b("http://kb1/bob", "person");
    b.AddPair("name", "bob jones");
    b.AddPair("city", "berlin");
    s1.push_back(b);
  }
  std::vector<model::EntityDescription> s2;
  {
    model::EntityDescription a("http://kb2/alice", "person");
    a.AddPair("label", "alice smith");
    a.AddPair("location", "paris");
    s2.push_back(a);
    model::EntityDescription c("http://kb2/carol", "person");
    c.AddPair("label", "carol white");
    c.AddPair("location", "lisbon");
    s2.push_back(c);
  }
  model::EntityCollection collection =
      model::EntityCollection::CleanClean(std::move(s1), std::move(s2));
  if (truth != nullptr) truth->AddMatch(0, 2);
  return collection;
}

/// bench::DirtyCorpus(seed, entities) as an ingest stream, shuffled with
/// the portable util::Rng so duplicates span batches and the stream is the
/// same on every standard library (digests pinned on it stay valid).
inline std::vector<model::EntityDescription> DirtyStream(uint64_t seed,
                                                         size_t entities) {
  datagen::Corpus corpus = bench::DirtyCorpus(seed, entities);
  std::vector<model::EntityDescription> stream;
  stream.reserve(corpus.collection.size());
  for (model::EntityId id = 0; id < corpus.collection.size(); ++id) {
    stream.push_back(corpus.collection.at(id));
  }
  util::Rng rng(seed);
  rng.Shuffle(stream);
  return stream;
}

}  // namespace weber::testing

#endif  // WEBER_TESTS_TEST_CORPUS_H_
