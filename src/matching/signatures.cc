#include "matching/signatures.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/executor.h"
#include "obs/metrics.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/check.h"
#include "util/intersect.h"

namespace weber::matching {

namespace {

void Bump(obs::Counter* counter) {
  if (counter != nullptr) counter->Add(1);
}

// ---------------------------------------------------------------------------
// Required-overlap filters.
//
// Early exit must never change a verdict, so the threshold comparison is
// moved into the integer domain: the smallest intersection count r whose
// similarity clears the threshold under the *exact* double division the
// string path performs. The closed-form guess only seeds the search; the
// fix-up loops below re-check the real double expression, so r is correct
// even when the guess is off by an ulp. Similarity is monotone in the
// intersection count (for fixed set sizes), hence verdict == (|A∩B| >= r).
// ---------------------------------------------------------------------------

/// Smallest o with double(o) / double(size_a + size_b - o) >= t, or
/// min(size_a, size_b) + 1 when no feasible o qualifies. Caller handles
/// size_a == size_b == 0 (similarity 1 by convention).
size_t RequiredOverlapJaccard(size_t size_a, size_t size_b, double t) {
  size_t total = size_a + size_b;
  size_t cap = std::min(size_a, size_b);
  auto sim = [total](size_t o) {
    return static_cast<double>(o) / static_cast<double>(total - o);
  };
  if (std::isnan(t)) return cap + 1;  // sim >= NaN is false for every o.
  if (!(t > 0.0)) return 0;           // sim(0) == 0.0 >= t already.
  double guess = std::ceil(t * static_cast<double>(total) / (1.0 + t));
  size_t r = guess >= static_cast<double>(cap + 1)
                 ? cap + 1
                 : static_cast<size_t>(std::max(guess, 0.0));
  while (r > 0 && sim(r - 1) >= t) --r;
  while (r <= cap && !(sim(r) >= t)) ++r;
  return r;
}

/// Smallest o with double(o) / double(smaller) >= t, or smaller + 1 when
/// none qualifies. Caller handles smaller == 0.
size_t RequiredOverlapCoefficient(size_t smaller, double t) {
  auto sim = [smaller](size_t o) {
    return static_cast<double>(o) / static_cast<double>(smaller);
  };
  if (std::isnan(t)) return smaller + 1;
  if (!(t > 0.0)) return 0;
  double guess = std::ceil(t * static_cast<double>(smaller));
  size_t r = guess >= static_cast<double>(smaller + 1)
                 ? smaller + 1
                 : static_cast<size_t>(std::max(guess, 0.0));
  while (r > 0 && sim(r - 1) >= t) --r;
  while (r <= smaller && !(sim(r) >= t)) ++r;
  return r;
}

/// First index in [from, data.size()) whose token id is >= key; the
/// TfIdfTerm analogue of util::GallopLowerBound for sparse vectors.
size_t GallopLowerBoundPairs(std::span<const TfIdfTerm> data, size_t from,
                             uint32_t key) {
  size_t n = data.size();
  if (from >= n || data[from].token >= key) return from;
  size_t lo = from;
  size_t step = 1;
  while (lo + step < n && data[lo + step].token < key) {
    lo += step;
    step <<= 1;
  }
  size_t hi = lo + step < n ? lo + step : n;
  ++lo;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    WEBER_DCHECK_LT(mid, n) << "gallop window escaped the sequence";
    if (data[mid].token < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Dot product of two sparse unit vectors. Both strategies accumulate the
/// matched products in ascending token-id order — the order TfIdfModel::
/// Cosine uses — so the sum is bit-equal no matter which one runs.
double SparseDot(std::span<const TfIdfTerm> a, std::span<const TfIdfTerm> b) {
  if (a.size() > b.size()) std::swap(a, b);
  double dot = 0.0;
  if (!a.empty() && a.size() * util::kGallopRatio < b.size()) {
    size_t at = 0;
    for (const TfIdfTerm& term : a) {
      at = GallopLowerBoundPairs(b, at, term.token);
      if (at == b.size()) break;
      if (b[at].token == term.token) {
        dot += term.weight * b[at].weight;
        ++at;
      }
    }
    return dot;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].token == b[j].token) {
      dot += a[i].weight * b[j].weight;
      ++i;
      ++j;
    } else if (a[i].token < b[j].token) {
      ++i;
    } else {
      ++j;
    }
  }
  return dot;
}

/// Scores a pair via the string twin on descriptions each side's store
/// resolves through its provider; the shared fallback of every prepared
/// matcher. An unresolvable id scores 0.0 — wired consumers always install
/// a provider that covers every id they compare.
double StringFallback(const Matcher& twin, const PreparedCounters& counters,
                      const SignatureStore& sa, model::EntityId a,
                      const SignatureStore& sb, model::EntityId b) {
  Bump(counters.fallbacks);
  const model::EntityDescription* desc_a = sa.description(a);
  const model::EntityDescription* desc_b = sb.description(b);
  if (desc_a == nullptr || desc_b == nullptr) return 0.0;
  return twin.Similarity(*desc_a, *desc_b);
}

// ---------------------------------------------------------------------------
// Prepared matchers. Each scores (sa, a) against (sb, b); `bound` is the
// store of the one-store forms, null for a PrepareCross matcher.
// ---------------------------------------------------------------------------

class PreparedTokenJaccard final : public PreparedMatcher {
 public:
  PreparedTokenJaccard(const TokenJaccardMatcher& twin,
                       const SignatureStore* bound)
      : PreparedMatcher(bound),
        twin_(twin),
        counters_(PreparedCounters::Ambient()) {}

  double Similarity(const SignatureStore& sa, model::EntityId a,
                    const SignatureStore& sb,
                    model::EntityId b) const override {
    if (!sa.contains(a) || !sb.contains(b)) {
      return StringFallback(twin_, counters_, sa, a, sb, b);
    }
    Bump(counters_.comparisons);
    const PostingView ta = sa.posting(a);
    const PostingView tb = sb.posting(b);
    size_t inter = PostingIntersectSize(ta, tb);
    size_t union_size = size_t{ta.size} + tb.size - inter;
    if (union_size == 0) return 1.0;
    return static_cast<double>(inter) / static_cast<double>(union_size);
  }

  bool Matches(const SignatureStore& sa, model::EntityId a,
               const SignatureStore& sb, model::EntityId b,
               double threshold) const override {
    if (!sa.contains(a) || !sb.contains(b)) {
      return StringFallback(twin_, counters_, sa, a, sb, b) >= threshold;
    }
    Bump(counters_.comparisons);
    const PostingView ta = sa.posting(a);
    const PostingView tb = sb.posting(b);
    if (ta.empty() && tb.empty()) return 1.0 >= threshold;
    size_t required = RequiredOverlapJaccard(ta.size, tb.size, threshold);
    if (required > std::min<size_t>(ta.size, tb.size)) {
      Bump(counters_.filter_hits);
      return false;
    }
    if (required == 0) {
      Bump(counters_.filter_hits);
      return true;
    }
    return PostingIntersectAtLeast(ta, tb, required);
  }

  std::string name() const override { return "Prepared(TokenJaccard)"; }

 private:
  const TokenJaccardMatcher& twin_;
  PreparedCounters counters_;
};

class PreparedTokenOverlap final : public PreparedMatcher {
 public:
  PreparedTokenOverlap(const TokenOverlapMatcher& twin,
                       const SignatureStore* bound)
      : PreparedMatcher(bound),
        twin_(twin),
        counters_(PreparedCounters::Ambient()) {}

  double Similarity(const SignatureStore& sa, model::EntityId a,
                    const SignatureStore& sb,
                    model::EntityId b) const override {
    if (!sa.contains(a) || !sb.contains(b)) {
      return StringFallback(twin_, counters_, sa, a, sb, b);
    }
    Bump(counters_.comparisons);
    const PostingView ta = sa.posting(a);
    const PostingView tb = sb.posting(b);
    size_t smaller = std::min<size_t>(ta.size, tb.size);
    if (smaller == 0) return ta.size == tb.size ? 1.0 : 0.0;
    size_t inter = PostingIntersectSize(ta, tb);
    return static_cast<double>(inter) / static_cast<double>(smaller);
  }

  bool Matches(const SignatureStore& sa, model::EntityId a,
               const SignatureStore& sb, model::EntityId b,
               double threshold) const override {
    if (!sa.contains(a) || !sb.contains(b)) {
      return StringFallback(twin_, counters_, sa, a, sb, b) >= threshold;
    }
    Bump(counters_.comparisons);
    const PostingView ta = sa.posting(a);
    const PostingView tb = sb.posting(b);
    size_t smaller = std::min<size_t>(ta.size, tb.size);
    if (smaller == 0) {
      return (ta.size == tb.size ? 1.0 : 0.0) >= threshold;
    }
    size_t required = RequiredOverlapCoefficient(smaller, threshold);
    if (required > smaller) {
      Bump(counters_.filter_hits);
      return false;
    }
    if (required == 0) {
      Bump(counters_.filter_hits);
      return true;
    }
    return PostingIntersectAtLeast(ta, tb, required);
  }

  std::string name() const override { return "Prepared(TokenOverlap)"; }

 private:
  const TokenOverlapMatcher& twin_;
  PreparedCounters counters_;
};

class PreparedTfIdfCosine final : public PreparedMatcher {
 public:
  PreparedTfIdfCosine(const TfIdfCosineMatcher& twin,
                      const SignatureStore* bound)
      : PreparedMatcher(bound),
        twin_(twin),
        counters_(PreparedCounters::Ambient()) {}

  // No Matches override: a partial dot product admits no sound bound
  // against the threshold (remaining weights are unknown), so the decision
  // always computes the full similarity.
  double Similarity(const SignatureStore& sa, model::EntityId a,
                    const SignatureStore& sb,
                    model::EntityId b) const override {
    if (!sa.has_tfidf(a) || !sb.has_tfidf(b)) {
      return StringFallback(twin_, counters_, sa, a, sb, b);
    }
    Bump(counters_.comparisons);
    return SparseDot(sa.tfidf(a), sb.tfidf(b));
  }

  std::string name() const override { return "Prepared(TfIdfCosine)"; }

 private:
  const TfIdfCosineMatcher& twin_;
  PreparedCounters counters_;
};

class PreparedWeightedAttribute final : public PreparedMatcher {
 public:
  PreparedWeightedAttribute(const WeightedAttributeMatcher& twin,
                            const SignatureStore* bound,
                            std::vector<size_t> rule_slots)
      : PreparedMatcher(bound),
        twin_(twin),
        rule_slots_(std::move(rule_slots)),
        counters_(PreparedCounters::Ambient()) {}

  double Similarity(const SignatureStore& sa, model::EntityId a,
                    const SignatureStore& sb,
                    model::EntityId b) const override {
    if (!sa.has_attributes(a) || !sb.has_attributes(b)) {
      return StringFallback(twin_, counters_, sa, a, sb, b);
    }
    Bump(counters_.comparisons);
    auto slots_a = sa.attribute_slots(a);
    auto slots_b = sb.attribute_slots(b);
    double total_weight = 0.0;
    double score = 0.0;
    const std::vector<AttributeRule>& rules = twin_.rules();
    for (size_t k = 0; k < rules.size(); ++k) {
      const AttributeRule& rule = rules[k];
      total_weight += rule.weight;
      const SignatureStore::AttributeSlot& slot_a = slots_a[rule_slots_[k]];
      const SignatureStore::AttributeSlot& slot_b = slots_b[rule_slots_[k]];
      if (slot_a.value_index == SignatureStore::kNoValue ||
          slot_b.value_index == SignatureStore::kNoValue) {
        continue;
      }
      double sim;
      if (rule.use_jaro_winkler) {
        sim = text::JaroWinklerSimilarity(sa.value(slot_a.value_index),
                                          sb.value(slot_b.value_index));
      } else {
        auto ta = sa.slot_tokens(slot_a);
        auto tb = sb.slot_tokens(slot_b);
        size_t inter = util::SortedIntersectSize(ta, tb);
        size_t union_size = ta.size() + tb.size() - inter;
        sim = union_size == 0 ? 1.0
                              : static_cast<double>(inter) /
                                    static_cast<double>(union_size);
      }
      score += rule.weight * sim;
    }
    if (total_weight <= 0.0) return 0.0;
    return score / total_weight;
  }

  std::string name() const override { return "Prepared(WeightedAttribute)"; }

 private:
  const WeightedAttributeMatcher& twin_;
  std::vector<size_t> rule_slots_;  // rules()[k] -> attribute slot index.
  PreparedCounters counters_;
};

/// Prepared wrapper for a composite component the engine cannot intern:
/// always scores via the string twin, so a Composite can still prepare the
/// components it does understand.
class PreparedStringBridge final : public PreparedMatcher {
 public:
  PreparedStringBridge(const Matcher& twin, const SignatureStore* bound)
      : PreparedMatcher(bound),
        twin_(twin),
        counters_(PreparedCounters::Ambient()) {}

  double Similarity(const SignatureStore& sa, model::EntityId a,
                    const SignatureStore& sb,
                    model::EntityId b) const override {
    return StringFallback(twin_, counters_, sa, a, sb, b);
  }

  std::string name() const override {
    return "PreparedBridge(" + twin_.name() + ")";
  }

 private:
  const Matcher& twin_;
  PreparedCounters counters_;
};

class PreparedComposite final : public PreparedMatcher {
 public:
  PreparedComposite(const CompositeMatcher& twin, const SignatureStore* bound,
                    std::vector<std::unique_ptr<PreparedMatcher>> components)
      : PreparedMatcher(bound),
        twin_(twin),
        components_(std::move(components)) {}

  double Similarity(const SignatureStore& sa, model::EntityId a,
                    const SignatureStore& sb,
                    model::EntityId b) const override {
    if (components_.empty()) return 0.0;
    switch (twin_.combine()) {
      case CompositeMatcher::Combine::kWeightedAverage: {
        const std::vector<double>& weights = twin_.weights();
        double total_weight = 0.0;
        double score = 0.0;
        for (size_t i = 0; i < components_.size(); ++i) {
          double weight = i < weights.size() ? weights[i] : 1.0;
          total_weight += weight;
          score += weight * components_[i]->Similarity(sa, a, sb, b);
        }
        return total_weight > 0.0 ? score / total_weight : 0.0;
      }
      case CompositeMatcher::Combine::kMax: {
        double best = 0.0;
        for (const auto& component : components_) {
          best = std::max(best, component->Similarity(sa, a, sb, b));
        }
        return best;
      }
      case CompositeMatcher::Combine::kMin: {
        double worst = 1.0;
        for (const auto& component : components_) {
          worst = std::min(worst, component->Similarity(sa, a, sb, b));
        }
        return worst;
      }
    }
    return 0.0;
  }

  bool Matches(const SignatureStore& sa, model::EntityId a,
               const SignatureStore& sb, model::EntityId b,
               double threshold) const override {
    if (components_.empty()) return 0.0 >= threshold;
    switch (twin_.combine()) {
      case CompositeMatcher::Combine::kMax:
        // max(0.0, sims) >= t  <=>  some sim >= t, or 0.0 >= t.
        for (const auto& component : components_) {
          if (component->Matches(sa, a, sb, b, threshold)) return true;
        }
        return 0.0 >= threshold;
      case CompositeMatcher::Combine::kMin:
        // min(1.0, sims) >= t  <=>  every sim >= t and 1.0 >= t.
        for (const auto& component : components_) {
          if (!component->Matches(sa, a, sb, b, threshold)) return false;
        }
        return 1.0 >= threshold;
      case CompositeMatcher::Combine::kWeightedAverage:
        break;  // No per-component shortcut is sound for an average.
    }
    return Similarity(sa, a, sb, b) >= threshold;
  }

  std::string name() const override { return "Prepared(Composite)"; }

 private:
  const CompositeMatcher& twin_;
  std::vector<std::unique_ptr<PreparedMatcher>> components_;
};

/// Single-store only: the canonical-id table indexes the one collection
/// the bound store interned, so both sides must be that store.
class PreparedOracle final : public PreparedMatcher {
 public:
  PreparedOracle(const OracleMatcher& twin, const SignatureStore& store)
      : PreparedMatcher(&store),
        twin_(twin),
        counters_(PreparedCounters::Ambient()) {
    // The string path resolves each description's URI through the
    // collection per pair; on duplicate URIs the first id wins. Resolving
    // every id once here reproduces that canonicalisation exactly.
    const model::EntityCollection& collection = *store.collection();
    canonical_.reserve(collection.size());
    for (const model::EntityDescription& description :
         collection.descriptions()) {
      canonical_.push_back(
          collection.FindByUri(description.uri()).value_or(0));
    }
  }

  double Similarity(const SignatureStore& sa, model::EntityId a,
                    const SignatureStore& sb,
                    model::EntityId b) const override {
    WEBER_DCHECK(&sa == &sb) << "the oracle scores within one store";
    if (a >= canonical_.size() || b >= canonical_.size()) {
      return StringFallback(twin_, counters_, sa, a, sb, b);
    }
    Bump(counters_.comparisons);
    return twin_.SimilarityById(canonical_[a], canonical_[b]);
  }

  std::string name() const override { return "Prepared(Oracle)"; }

 private:
  const OracleMatcher& twin_;
  std::vector<model::EntityId> canonical_;
  PreparedCounters counters_;
};

void CollectOptions(const Matcher& matcher, SignatureOptions& options) {
  if (const auto* tfidf = dynamic_cast<const TfIdfCosineMatcher*>(&matcher)) {
    options.tfidf_model = &tfidf->model();
    return;
  }
  if (const auto* weighted =
          dynamic_cast<const WeightedAttributeMatcher*>(&matcher)) {
    for (const AttributeRule& rule : weighted->rules()) {
      if (std::find(options.attributes.begin(), options.attributes.end(),
                    rule.attribute) == options.attributes.end()) {
        options.attributes.push_back(rule.attribute);
      }
    }
    return;
  }
  if (const auto* composite = dynamic_cast<const CompositeMatcher*>(&matcher)) {
    for (const Matcher* component : composite->components()) {
      CollectOptions(*component, options);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SignatureStore
// ---------------------------------------------------------------------------

SignatureStore::SignatureStore(SignatureOptions options)
    : options_(std::move(options)) {}

SignatureStore SignatureStore::Build(const model::EntityCollection& collection,
                                     SignatureOptions options) {
  SignatureStore store(std::move(options));
  store.collection_ = &collection;
  store.provider_ =
      [&collection](model::EntityId id) -> const model::EntityDescription* {
    // lint: allow(indexed-access) the ternary bounds-checks id itself
    return id < collection.size() ? &collection.descriptions()[id] : nullptr;
  };
  size_t n = collection.size();
  if (n == 0) return store;

  // Pass 1 (parallel): tokenise every entity; each chunk records its local
  // vocabulary in first-occurrence order.
  struct ChunkVocab {
    std::unordered_set<std::string> seen;
    std::vector<std::string> order;
  };
  size_t chunks = std::min(n, core::EffectiveParallelism());
  std::vector<ChunkVocab> partial(chunks);
  std::vector<std::vector<std::string>> entity_tokens(n);
  core::Executor::Shared().ParallelChunks(
      n, chunks, [&](size_t chunk, size_t begin, size_t end) {
        ChunkVocab& local = partial[chunk];
        for (size_t i = begin; i < end; ++i) {
          entity_tokens[i] = text::ValueTokens(collection.descriptions()[i],
                                               store.options_.normalize);
          for (const std::string& token : entity_tokens[i]) {
            if (local.seen.insert(token).second) local.order.push_back(token);
          }
        }
      });
  // Chunks are contiguous in entity order, so merging their vocabularies
  // serially in chunk order assigns ids by global first occurrence — the
  // same vocabulary for any chunk count.
  for (ChunkVocab& local : partial) {
    for (std::string& token : local.order) {
      store.vocabulary_.try_emplace(
          std::move(token), static_cast<uint32_t>(store.vocabulary_.size()));
    }
  }

  // Pass 2 (parallel): translate each entity into its signature parts.
  struct BuiltAttribute {
    bool present = false;
    std::string value;
    std::vector<uint32_t> tokens;
  };
  struct BuiltEntity {
    std::vector<uint32_t> tokens;
    text::TfIdfVector tfidf;
    std::vector<BuiltAttribute> attributes;
  };
  std::vector<BuiltEntity> built(n);
  const text::TfIdfModel* model = store.options_.tfidf_model;
  const std::vector<std::string>& attributes = store.options_.attributes;
  core::Executor::Shared().ParallelFor(n, [&](size_t i) {
    const model::EntityDescription& description = collection.descriptions()[i];
    BuiltEntity& out = built[i];
    out.tokens.reserve(entity_tokens[i].size());
    for (const std::string& token : entity_tokens[i]) {
      out.tokens.push_back(store.vocabulary_.find(token)->second);
    }
    std::sort(out.tokens.begin(), out.tokens.end());
    // ValueTokens returns distinct strings and the vocabulary is a
    // bijection, so the sorted ids must already form a set — the contract
    // every intersection kernel downstream relies on.
    WEBER_DCHECK_UNIQUE(out.tokens.begin(), out.tokens.end())
        << "entity " << i << " interned a non-set token signature";
    if (model != nullptr) out.tfidf = model->Vectorize(description);
    out.attributes.resize(attributes.size());
    for (size_t k = 0; k < attributes.size(); ++k) {
      auto value = description.FirstValueOf(attributes[k]);
      if (!value.has_value()) continue;
      BuiltAttribute& attr = out.attributes[k];
      attr.present = true;
      attr.value = std::string(*value);
      // Every token of any value is already in the vocabulary (ValueTokens
      // covers all attribute values with the same normalisation).
      for (const std::string& token :
           text::NormalizeAndTokenize(*value, store.options_.normalize)) {
        attr.tokens.push_back(store.vocabulary_.find(token)->second);
      }
      std::sort(attr.tokens.begin(), attr.tokens.end());
      attr.tokens.erase(std::unique(attr.tokens.begin(), attr.tokens.end()),
                        attr.tokens.end());
    }
  });

  // Serial append into the arenas, in entity order.
  size_t total_tokens = 0;
  size_t total_tfidf = 0;
  for (const BuiltEntity& be : built) {
    total_tfidf += be.tfidf.entries.size();
    for (const BuiltAttribute& attr : be.attributes) {
      total_tokens += attr.tokens.size();
    }
  }
  std::vector<uint32_t>& tokens = store.tokens_.MutableVector();
  std::vector<TfIdfTerm>& tfidf = store.tfidf_.MutableVector();
  std::vector<Entry>& entries = store.entries_.MutableVector();
  std::vector<AttributeSlot>& slots = store.attribute_slots_.MutableVector();
  tokens.reserve(total_tokens);
  tfidf.reserve(total_tfidf);
  entries.reserve(n);
  slots.reserve(n * attributes.size());
  for (BuiltEntity& be : built) {
    Entry entry;
    entry.posting = store.posting_arena_.AppendSorted(be.tokens);
    if (model != nullptr) {
      entry.has_tfidf = true;
      entry.tfidf_offset = static_cast<uint32_t>(tfidf.size());
      entry.tfidf_count = static_cast<uint32_t>(be.tfidf.entries.size());
      for (const auto& [token, weight] : be.tfidf.entries) {
        tfidf.push_back(TfIdfTerm{token, 0, weight});
      }
    }
    if (!attributes.empty()) {
      entry.has_attributes = true;
      entry.attribute_offset = static_cast<uint32_t>(slots.size());
      for (BuiltAttribute& attr : be.attributes) {
        AttributeSlot slot;
        if (attr.present) {
          slot.value_index = static_cast<uint32_t>(store.values_.size());
          store.values_.push_back(std::move(attr.value));
          slot.token_offset = static_cast<uint32_t>(tokens.size());
          slot.token_count = static_cast<uint32_t>(attr.tokens.size());
          tokens.insert(tokens.end(), attr.tokens.begin(), attr.tokens.end());
        }
        slots.push_back(slot);
      }
    }
    entry.present = true;
    entries.push_back(entry);
  }
  return store;
}

void SignatureStore::Absorb(model::EntityId id,
                            const model::EntityDescription& description) {
  Entry& entry = EnsureSlot(id);
  if (entry.present) Release(id);  // Re-absorbing abandons the old bytes.
  entry.posting = posting_arena_.AppendSorted(
      InternIds(text::ValueTokens(description, options_.normalize)));
  if (options_.tfidf_model != nullptr) FillTfIdf(entry, description);
  if (!options_.attributes.empty()) FillAttributes(entry, description);
  entry.present = true;
}

void SignatureStore::AbsorbPrepared(model::EntityId id,
                                    InternedSignature signature) {
  Entry& entry = EnsureSlot(id);
  if (entry.present) Release(id);  // Re-absorbing abandons the old bytes.
  entry.posting = posting_arena_.AppendSorted(signature.token_ids);
  if (options_.tfidf_model != nullptr) {
    entry.has_tfidf = true;
    entry.tfidf_offset = static_cast<uint32_t>(tfidf_.size());
    entry.tfidf_count = static_cast<uint32_t>(signature.tfidf.entries.size());
    std::vector<TfIdfTerm>& arena = tfidf_.MutableVector();
    for (const auto& [token, weight] : signature.tfidf.entries) {
      arena.push_back(TfIdfTerm{token, 0, weight});
    }
  }
  if (!options_.attributes.empty()) {
    WEBER_DCHECK_EQ(signature.attributes.size(), options_.attributes.size())
        << "prepared signature built against different attribute options";
    entry.has_attributes = true;
    entry.attribute_offset = static_cast<uint32_t>(attribute_slots_.size());
    std::vector<AttributeSlot> slots(options_.attributes.size());
    std::vector<uint32_t>& tokens = tokens_.MutableVector();
    for (size_t k = 0; k < slots.size(); ++k) {
      InternedSignature::Attribute& attr = signature.attributes[k];
      if (!attr.present) continue;
      AttributeSlot& slot = slots[k];
      slot.value_index = static_cast<uint32_t>(values_.size());
      values_.push_back(std::move(attr.value));
      slot.token_offset = static_cast<uint32_t>(tokens.size());
      slot.token_count = static_cast<uint32_t>(attr.token_ids.size());
      tokens.insert(tokens.end(), attr.token_ids.begin(),
                    attr.token_ids.end());
    }
    std::vector<AttributeSlot>& arena = attribute_slots_.MutableVector();
    arena.insert(arena.end(), slots.begin(), slots.end());
  }
  entry.present = true;
}

model::EntityId SignatureStore::AppendMerged(model::EntityId a,
                                             model::EntityId b) {
  // Merging reads both constituents' arena spans; an absent entry would
  // alias whatever bytes sit at offset 0 and silently corrupt the merge.
  WEBER_CHECK(contains(a)) << "AppendMerged: constituent " << a
                           << " has no signature";
  WEBER_CHECK(contains(b)) << "AppendMerged: constituent " << b
                           << " has no signature";
  Entry merged;
  // Chunk-wise union; AppendUnion stages in scratch storage, so the
  // views staying valid while the arena grows is its contract, not ours.
  merged.posting = posting_arena_.AppendUnion(posting(a), posting(b));
  // merged.has_tfidf stays false: TF-IDF weighs raw occurrence counts,
  // which the constituents' distinct-token signatures do not retain.
  if (entries_[a].has_attributes && entries_[b].has_attributes) {
    // Stage a's and b's slots before detaching the arena: the spans may
    // alias snapshot-borrowed memory the first mutation would retire.
    std::vector<AttributeSlot> staged;
    staged.reserve(options_.attributes.size());
    auto slots_a = attribute_slots(a);
    auto slots_b = attribute_slots(b);
    for (size_t k = 0; k < options_.attributes.size(); ++k) {
      // FirstValueOf on the merged description sees a's pairs first.
      staged.push_back(slots_a[k].value_index != kNoValue ? slots_a[k]
                                                          : slots_b[k]);
    }
    std::vector<AttributeSlot>& slots = attribute_slots_.MutableVector();
    merged.has_attributes = true;
    merged.attribute_offset = static_cast<uint32_t>(slots.size());
    slots.insert(slots.end(), staged.begin(), staged.end());
  }
  merged.present = true;
  auto id = static_cast<model::EntityId>(entries_.size());
  entries_.push_back(merged);
  return id;
}

void SignatureStore::Release(model::EntityId id) {
  if (!contains(id)) return;
  // lint: allow(indexed-access) contains(id) above bounds-checks id
  const Entry& entry = entries_[id];
  uint64_t bytes = posting_arena_.RefBytes(entry.posting);
  if (entry.has_tfidf) {
    bytes += uint64_t{entry.tfidf_count} * sizeof(TfIdfTerm);
  }
  if (entry.has_attributes) {
    for (const AttributeSlot& slot : attribute_slots(id)) {
      bytes += sizeof(AttributeSlot) +
               uint64_t{slot.token_count} * sizeof(uint32_t);
      if (slot.value_index != kNoValue) bytes += values_[slot.value_index].size();
    }
  }
  released_bytes_ += bytes;
  // lint: allow(indexed-access) contains(id) above bounds-checks id
  entries_.MutableVector()[id] = Entry{};
}

size_t SignatureStore::ArenaBytes() const {
  size_t bytes = posting_arena_.ByteSize() +
                 tokens_.size() * sizeof(uint32_t) +
                 tfidf_.size() * sizeof(TfIdfTerm) +
                 attribute_slots_.size() * sizeof(AttributeSlot) +
                 entries_.size() * sizeof(Entry);
  for (const std::string& value : values_) bytes += value.size();
  return bytes;
}

void SignatureStore::PublishMetrics(double build_seconds) const {
  obs::MetricsRegistry* registry = obs::Current();
  if (registry == nullptr) return;
  registry->GetHistogram("weber.matching.signature.build_seconds")
      .Record(build_seconds);
  registry->GetGauge("weber.matching.signature.entities")
      .Set(static_cast<double>(entries_.size()));
  registry->GetGauge("weber.matching.signature.vocabulary")
      .Set(static_cast<double>(vocabulary_size()));
  registry->GetGauge("weber.matching.signature.arena_bytes")
      .Set(static_cast<double>(ArenaBytes()));
  registry->GetGauge("weber.matching.signature.released_bytes")
      .Set(static_cast<double>(released_bytes_));
  registry->GetGauge("weber.matching.signature.posting_bytes")
      .Set(static_cast<double>(posting_arena_.ByteSize()));
  registry->GetGauge("weber.matching.signature.array_chunks")
      .Set(static_cast<double>(posting_arena_.array_chunks()));
  registry->GetGauge("weber.matching.signature.bitset_chunks")
      .Set(static_cast<double>(posting_arena_.bitset_chunks()));
  // Kernel dispatch state, surfaced alongside the signature gauges so one
  // metrics snapshot pins which intersection code path produced it.
  registry->GetGauge("weber.matching.kernel.level")
      .Set(static_cast<double>(util::ActiveIntersectKernel()));
  registry->GetGauge("weber.matching.kernel.cpu_level")
      .Set(static_cast<double>(util::CpuBestKernel()));
  registry->GetGauge("weber.matching.kernel.forced_scalar")
      .Set(util::KernelForcedScalar() ? 1.0 : 0.0);
}

SignatureStore::Entry& SignatureStore::EnsureSlot(model::EntityId id) {
  std::vector<Entry>& entries = entries_.MutableVector();
  if (id >= entries.size()) entries.resize(size_t{id} + 1);
  // lint: allow(indexed-access) resized above to cover id
  return entries[id];
}

uint32_t SignatureStore::InternToken(const std::string& token) {
  if (!pending_vocab_offsets_.empty()) HydrateVocabulary();
  auto [it, inserted] =
      vocabulary_.try_emplace(token, static_cast<uint32_t>(vocabulary_.size()));
  return it->second;
}

void SignatureStore::HydrateVocabulary() {
  // Ids were assigned in first-occurrence order when the snapshot's source
  // store interned them; restoring id i from slot i reproduces the map
  // exactly, so post-load interning continues the same id sequence.
  size_t count = PendingVocabularyCount();
  vocabulary_.reserve(count);
  const char* blob = pending_vocab_blob_.data();
  for (size_t i = 0; i < count; ++i) {
    uint32_t begin = pending_vocab_offsets_[i];
    uint32_t end = pending_vocab_offsets_[i + 1];
    vocabulary_.emplace(std::string(blob + begin, blob + end),
                        static_cast<uint32_t>(i));
  }
  pending_vocab_blob_.clear();
  pending_vocab_offsets_.clear();
}

std::vector<uint32_t> SignatureStore::InternIds(
    const std::vector<std::string>& tokens) {
  std::vector<uint32_t> ids;
  ids.reserve(tokens.size());
  for (const std::string& token : tokens) ids.push_back(InternToken(token));
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::pair<uint32_t, uint32_t> SignatureStore::InternSortedSet(
    const std::vector<std::string>& tokens) {
  std::vector<uint32_t> ids = InternIds(tokens);
  std::vector<uint32_t>& arena = tokens_.MutableVector();
  auto offset = static_cast<uint32_t>(arena.size());
  arena.insert(arena.end(), ids.begin(), ids.end());
  return {offset, static_cast<uint32_t>(ids.size())};
}

void SignatureStore::FillAttributes(
    Entry& entry, const model::EntityDescription& description) {
  entry.has_attributes = true;
  entry.attribute_offset = static_cast<uint32_t>(attribute_slots_.size());
  // Slots for this entry must be contiguous: build them first, then append
  // (InternSortedSet grows the token arena in between).
  std::vector<AttributeSlot> slots(options_.attributes.size());
  for (size_t k = 0; k < options_.attributes.size(); ++k) {
    auto value = description.FirstValueOf(options_.attributes[k]);
    if (!value.has_value()) continue;
    AttributeSlot& slot = slots[k];
    slot.value_index = static_cast<uint32_t>(values_.size());
    values_.emplace_back(*value);
    auto [offset, count] =
        InternSortedSet(text::NormalizeAndTokenize(*value, options_.normalize));
    slot.token_offset = offset;
    slot.token_count = count;
  }
  std::vector<AttributeSlot>& arena = attribute_slots_.MutableVector();
  arena.insert(arena.end(), slots.begin(), slots.end());
}

void SignatureStore::FillTfIdf(Entry& entry,
                               const model::EntityDescription& description) {
  text::TfIdfVector vec = options_.tfidf_model->Vectorize(description);
  entry.has_tfidf = true;
  entry.tfidf_offset = static_cast<uint32_t>(tfidf_.size());
  entry.tfidf_count = static_cast<uint32_t>(vec.entries.size());
  std::vector<TfIdfTerm>& arena = tfidf_.MutableVector();
  for (const auto& [token, weight] : vec.entries) {
    arena.push_back(TfIdfTerm{token, 0, weight});
  }
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

PreparedCounters PreparedCounters::Ambient() {
  PreparedCounters counters;
  obs::MetricsRegistry* registry = obs::Current();
  if (registry == nullptr) return counters;
  counters.comparisons =
      &registry->GetCounter("weber.matching.signature.comparisons");
  counters.filter_hits =
      &registry->GetCounter("weber.matching.signature.filter_hits");
  counters.fallbacks =
      &registry->GetCounter("weber.matching.signature.fallbacks");
  return counters;
}

SignatureOptions OptionsFor(const Matcher& matcher) {
  SignatureOptions options;
  CollectOptions(matcher, options);
  return options;
}

bool Preparable(const Matcher& matcher) {
  if (dynamic_cast<const TokenJaccardMatcher*>(&matcher) != nullptr ||
      dynamic_cast<const TokenOverlapMatcher*>(&matcher) != nullptr ||
      dynamic_cast<const TfIdfCosineMatcher*>(&matcher) != nullptr ||
      dynamic_cast<const WeightedAttributeMatcher*>(&matcher) != nullptr ||
      dynamic_cast<const OracleMatcher*>(&matcher) != nullptr) {
    return true;
  }
  return dynamic_cast<const CompositeMatcher*>(&matcher) != nullptr;
}

namespace {

/// The one factory ladder behind Prepare (`bound` = the store) and
/// PrepareCross (`bound` = null): both build the same classes over stores
/// configured with `options`.
std::unique_ptr<PreparedMatcher> PrepareFor(const Matcher& matcher,
                                            const SignatureOptions& options,
                                            const SignatureStore* bound) {
  if (const auto* jaccard = dynamic_cast<const TokenJaccardMatcher*>(&matcher)) {
    return std::make_unique<PreparedTokenJaccard>(*jaccard, bound);
  }
  if (const auto* overlap = dynamic_cast<const TokenOverlapMatcher*>(&matcher)) {
    return std::make_unique<PreparedTokenOverlap>(*overlap, bound);
  }
  if (const auto* tfidf = dynamic_cast<const TfIdfCosineMatcher*>(&matcher)) {
    // Vectors from a different model would not be bit-equal.
    if (options.tfidf_model != &tfidf->model()) return nullptr;
    return std::make_unique<PreparedTfIdfCosine>(*tfidf, bound);
  }
  if (const auto* weighted =
          dynamic_cast<const WeightedAttributeMatcher*>(&matcher)) {
    const std::vector<std::string>& attributes = options.attributes;
    std::vector<size_t> rule_slots;
    rule_slots.reserve(weighted->rules().size());
    for (const AttributeRule& rule : weighted->rules()) {
      auto it = std::find(attributes.begin(), attributes.end(), rule.attribute);
      if (it == attributes.end()) return nullptr;
      rule_slots.push_back(static_cast<size_t>(it - attributes.begin()));
    }
    return std::make_unique<PreparedWeightedAttribute>(*weighted, bound,
                                                       std::move(rule_slots));
  }
  if (const auto* composite = dynamic_cast<const CompositeMatcher*>(&matcher)) {
    std::vector<std::unique_ptr<PreparedMatcher>> components;
    components.reserve(composite->components().size());
    for (const Matcher* component : composite->components()) {
      std::unique_ptr<PreparedMatcher> prepared =
          PrepareFor(*component, options, bound);
      if (prepared == nullptr) {
        prepared = std::make_unique<PreparedStringBridge>(*component, bound);
      }
      components.push_back(std::move(prepared));
    }
    return std::make_unique<PreparedComposite>(*composite, bound,
                                               std::move(components));
  }
  if (const auto* oracle = dynamic_cast<const OracleMatcher*>(&matcher)) {
    // The canonical-id table only reproduces the string path when one
    // store interned the very collection the oracle resolves against.
    if (bound == nullptr || bound->collection() != &oracle->collection()) {
      return nullptr;
    }
    return std::make_unique<PreparedOracle>(*oracle, *bound);
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<PreparedMatcher> Prepare(const Matcher& matcher,
                                         const SignatureStore& store) {
  return PrepareFor(matcher, store.options(), &store);
}

std::unique_ptr<PreparedMatcher> PrepareCross(const Matcher& matcher,
                                              const SignatureOptions& options) {
  return PrepareFor(matcher, options, nullptr);
}

}  // namespace weber::matching
