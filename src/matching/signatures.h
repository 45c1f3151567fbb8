#ifndef WEBER_MATCHING_SIGNATURES_H_
#define WEBER_MATCHING_SIGNATURES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "matching/matcher.h"
#include "matching/posting_set.h"
#include "model/entity.h"
#include "text/normalizer.h"
#include "text/tfidf.h"
#include "util/arena_vec.h"
#include "util/check.h"

namespace weber::obs {
class Counter;
}  // namespace weber::obs

namespace weber::storage {
class SnapshotCodec;
}  // namespace weber::storage

namespace weber::matching {

/// One entry of a sparse TF-IDF vector in the signature arena. The
/// explicit layout (instead of std::pair<uint32_t, double>) keeps the
/// struct padding-free so snapshots can frame the arena byte-for-byte.
struct TfIdfTerm {
  uint32_t token = 0;
  uint32_t reserved = 0;  ///< Always 0; keeps the 16-byte layout explicit.
  double weight = 0.0;
};
static_assert(sizeof(TfIdfTerm) == 16 && alignof(TfIdfTerm) == 8,
              "TfIdfTerm must stay padding-free for snapshot framing");

/// What a SignatureStore materialises per entity. Token-id sets are always
/// built; the TF-IDF vectors and per-attribute caches are opt-in because
/// only their matchers pay for them.
struct SignatureOptions {
  /// Normalisation applied before interning — must equal the options the
  /// string-path matchers use (they all use the defaults).
  text::NormalizeOptions normalize;

  /// Precompute one sparse TF-IDF vector per entity with this model
  /// (borrowed; must outlive the store). Null skips the vectors.
  const text::TfIdfModel* tfidf_model = nullptr;

  /// Attributes whose first value (raw string + interned sorted token ids)
  /// is cached per entity, for WeightedAttributeMatcher rules.
  std::vector<std::string> attributes;
};

/// A signature computed away from the store (the sharded resolver's
/// parallel intern phase): the sorted distinct value-token ids, the sparse
/// TF-IDF vector when the store carries a model, and one cache per
/// configured attribute. Token ids must come from the same logical
/// vocabulary the target store's ids are drawn from — AbsorbPrepared
/// appends the arenas verbatim, with no re-interning.
struct InternedSignature {
  std::vector<uint32_t> token_ids;  ///< Sorted distinct value-token ids.
  text::TfIdfVector tfidf;          ///< Ignored without a store model.
  struct Attribute {
    bool present = false;
    std::string value;                ///< Raw first value.
    std::vector<uint32_t> token_ids;  ///< Sorted distinct ids of its tokens.
  };
  /// Parallel to SignatureOptions::attributes (empty when none configured).
  std::vector<Attribute> attributes;
};

/// Interned, comparison-ready view of entity descriptions.
///
/// The token vocabulary is interned once — executor-parallel over
/// contiguous entity chunks, with the chunk vocabularies merged serially
/// in chunk order, so token ids follow global first-occurrence order for
/// any thread count — and every entity's signature lives in shared arenas:
///   - the value-token set (ValueTokens, sorted distinct ids) as a
///     compressed posting set (roaring-style array/bitset chunks, see
///     matching/posting_set.h),
///   - optionally a unit-length sparse TF-IDF vector (ascending token id),
///   - optionally, per configured attribute, the raw first value plus the
///     sorted distinct token ids of its normalised form (flat uint32).
///
/// The store is growable: Absorb interns one more description (incremental
/// ingest), AppendMerged derives a merged signature from two existing ones
/// by sorted union — no re-tokenisation — and Release tombstones a slot.
/// Arenas are append-only; Release only detaches the entry and accounts
/// the freed bytes (weber.matching.signature.released_bytes).
class SignatureStore {
 public:
  static constexpr uint32_t kNoValue = UINT32_MAX;

  /// One cached attribute of one entity.
  struct AttributeSlot {
    uint32_t value_index = kNoValue;  // Into values(); kNoValue = absent.
    uint32_t token_offset = 0;        // Into the token arena.
    uint32_t token_count = 0;
  };

  SignatureStore() = default;
  explicit SignatureStore(SignatureOptions options);

  /// Builds signatures for every description of the collection (slot ==
  /// EntityId). Parallel and deterministic: bit-identical arenas for any
  /// thread count. The collection is borrowed as the default description
  /// provider for string-path fallbacks.
  static SignatureStore Build(const model::EntityCollection& collection,
                              SignatureOptions options = {});

  /// Interns `description` into slot `id` (slots above the current size
  /// are created on demand). New tokens extend the vocabulary; not
  /// thread-safe against concurrent readers.
  void Absorb(model::EntityId id, const model::EntityDescription& description);

  /// Interns a pre-built signature into slot `id` without touching the
  /// vocabulary: arena-append only, so concurrent const reads of *other*
  /// slots stay safe in externally synchronised pipelines. The signature's
  /// token ids must come from the vocabulary this store scores against;
  /// produces byte-identical arenas to Absorb(id, description) when the
  /// signature was derived from `description` with matching options.
  void AbsorbPrepared(model::EntityId id, InternedSignature signature);

  /// Derives the signature of merge(a, b) — a's pairs first, then b's, the
  /// MergeFrom order — into a fresh slot and returns its id. Token ids are
  /// the sorted union of the constituents; attribute slots take a's value
  /// when present, else b's (exactly FirstValueOf on the merged
  /// description). TF-IDF vectors are not derivable from the constituents
  /// (they weigh raw occurrence counts), so merged slots have none and
  /// TF-IDF scoring falls back to the string path.
  model::EntityId AppendMerged(model::EntityId a, model::EntityId b);

  /// Tombstones a slot: contains(id) becomes false and the slot's arena
  /// bytes are accounted as released. The arena memory itself is append-
  /// only and reclaimed when the store is destroyed.
  void Release(model::EntityId id);

  bool contains(model::EntityId id) const {
    return id < entries_.size() && entries_[id].present;
  }

  /// Compressed value-token set of a contained slot. Invalidated by any
  /// store mutation (same lifetime rule as the spans it replaced).
  PostingView posting(model::EntityId id) const {
    return posting_arena_.View(entries_[id].posting);
  }

  /// Count of value tokens in a contained slot.
  size_t token_count(model::EntityId id) const {
    return entries_[id].posting.size;
  }

  /// Decompressed (sorted distinct u32) value-token ids of a contained
  /// slot — the diagnostic/test accessor; the scoring paths stay on
  /// posting() and never materialise this.
  std::vector<uint32_t> TokenSet(model::EntityId id) const {
    std::vector<uint32_t> out;
    posting_arena_.Decompress(entries_[id].posting, &out);
    return out;
  }

  bool has_tfidf(model::EntityId id) const {
    return contains(id) && entries_[id].has_tfidf;
  }
  std::span<const TfIdfTerm> tfidf(model::EntityId id) const {
    const Entry& e = entries_[id];
    return {tfidf_.data() + e.tfidf_offset, e.tfidf_count};
  }

  bool has_attributes(model::EntityId id) const {
    return contains(id) && entries_[id].has_attributes;
  }
  /// The cached slots of a contained id, parallel to options().attributes.
  std::span<const AttributeSlot> attribute_slots(model::EntityId id) const {
    const Entry& e = entries_[id];
    return {attribute_slots_.data() + e.attribute_offset,
            options_.attributes.size()};
  }
  const std::string& value(uint32_t value_index) const {
    return values_[value_index];
  }
  std::span<const uint32_t> slot_tokens(const AttributeSlot& slot) const {
    return {tokens_.data() + slot.token_offset, slot.token_count};
  }

  const SignatureOptions& options() const { return options_; }
  size_t size() const { return entries_.size(); }
  size_t vocabulary_size() const {
    return vocabulary_.empty() ? PendingVocabularyCount()
                               : vocabulary_.size();
  }

  /// The collection Build() interned (slot == EntityId for its ids), or
  /// null for stores grown purely via Absorb. PreparedOracle needs it to
  /// precompute the URI-canonical ids the string path resolves per pair.
  const model::EntityCollection* collection() const { return collection_; }

  /// Approximate resident arena footprint, for the
  /// weber.matching.signature.arena_bytes gauge.
  size_t ArenaBytes() const;
  uint64_t released_bytes() const { return released_bytes_; }

  /// Resolves an id to its description for string-path fallbacks. The
  /// default provider (installed by Build) reads the source collection;
  /// algorithms that mint merged slots install their own. The returned
  /// pointer is only used for the duration of one similarity call.
  using DescriptionProvider =
      std::function<const model::EntityDescription*(model::EntityId)>;
  void SetDescriptionProvider(DescriptionProvider provider) {
    provider_ = std::move(provider);
  }
  const model::EntityDescription* description(model::EntityId id) const {
    return provider_ ? provider_(id) : nullptr;
  }

  /// Publishes build/arena gauges and counters to the ambient registry
  /// (weber.matching.signature.*); no-op when detached.
  void PublishMetrics(double build_seconds) const;

 private:
  friend class weber::storage::SnapshotCodec;

  struct Entry {
    PostingRef posting;  // Compressed value-token set.
    uint32_t tfidf_offset = 0;
    uint32_t tfidf_count = 0;
    uint32_t attribute_offset = 0;
    bool present = false;
    bool has_tfidf = false;
    bool has_attributes = false;
    uint8_t reserved = 0;  // Keeps the struct padding-free for snapshots.
  };
  static_assert(sizeof(Entry) == 28 && alignof(Entry) == 4,
                "Entry must stay padding-free for snapshot framing");

  Entry& EnsureSlot(model::EntityId id);
  uint32_t InternToken(const std::string& token);
  /// Hydrates a snapshot-loaded vocabulary blob into the hash map; called
  /// before the first post-load intern so zero-copy opens stay O(1).
  void HydrateVocabulary();
  size_t PendingVocabularyCount() const {
    return pending_vocab_offsets_.empty() ? 0
                                          : pending_vocab_offsets_.size() - 1;
  }
  /// Interns `tokens` and returns their sorted distinct ids.
  std::vector<uint32_t> InternIds(const std::vector<std::string>& tokens);
  /// Appends the sorted distinct ids of `tokens` (interning new ones) to
  /// the flat token arena; returns {offset, count}. Attribute slots only —
  /// value-token sets go through the posting arena.
  std::pair<uint32_t, uint32_t> InternSortedSet(
      const std::vector<std::string>& tokens);
  void FillAttributes(Entry& entry,
                      const model::EntityDescription& description);
  void FillTfIdf(Entry& entry, const model::EntityDescription& description);

  SignatureOptions options_;
  std::unordered_map<std::string, uint32_t> vocabulary_;
  // Snapshot-loaded vocabulary awaiting hydration: token strings packed
  // into one blob with an offsets directory (offsets.size() == count + 1),
  // borrowed straight from the mapping until the first intern needs the
  // hash map.
  util::ArenaVec<char> pending_vocab_blob_;
  util::ArenaVec<uint32_t> pending_vocab_offsets_;
  util::ArenaVec<Entry> entries_;
  PostingArena posting_arena_;                        // Value-token sets.
  util::ArenaVec<uint32_t> tokens_;                   // Attribute token ids.
  util::ArenaVec<TfIdfTerm> tfidf_;                   // TF-IDF arena.
  util::ArenaVec<AttributeSlot> attribute_slots_;     // Attribute arena.
  std::vector<std::string> values_;                   // Raw first values.
  uint64_t released_bytes_ = 0;
  const model::EntityCollection* collection_ = nullptr;
  DescriptionProvider provider_;
};

/// A pairwise similarity over interned signatures: the prepared twin of a
/// Matcher, and the one scoring engine of every consumer. Each side of a
/// pair is a (store, id); the two stores may be one and the same or
/// different ones (the sharded resolver keeps one SignatureStore per entity
/// shard) — PostingView and the TF-IDF/attribute spans are self-contained,
/// so the arithmetic is the same either way. Similarity(sa, a, sb, b) is
/// bit-equal to the twin's string-path Similarity on the descriptions
/// behind a and b; Matches(...) is the same verdict as Similarity(...) >= t
/// but may prove it cheaper (length and required-overlap filters). Ids
/// without a signature fall back to the string twin via each side's
/// description provider.
///
/// Prepare() binds the matcher to one store, which the one-store forms
/// Similarity(a, b) and Matches(a, b, t) pass as both sides (one virtual
/// call per pair either way). A PrepareCross() matcher is unbound: only
/// the two-sided forms apply, and a one-store call fails a WEBER_DCHECK.
class PreparedMatcher {
 public:
  virtual ~PreparedMatcher() = default;

  virtual double Similarity(const SignatureStore& sa, model::EntityId a,
                            const SignatureStore& sb,
                            model::EntityId b) const = 0;

  /// Decision with early-exit; identical verdict to
  /// Similarity(sa, a, sb, b) >= threshold for every input.
  virtual bool Matches(const SignatureStore& sa, model::EntityId a,
                       const SignatureStore& sb, model::EntityId b,
                       double threshold) const {
    return Similarity(sa, a, sb, b) >= threshold;
  }

  virtual std::string name() const = 0;

  double Similarity(model::EntityId a, model::EntityId b) const {
    return Similarity(Bound(), a, Bound(), b);
  }
  bool Matches(model::EntityId a, model::EntityId b, double threshold) const {
    return Matches(Bound(), a, Bound(), b, threshold);
  }

 protected:
  /// `bound` is the store of the one-store forms; null when unbound.
  explicit PreparedMatcher(const SignatureStore* bound) : bound_(bound) {}

 private:
  const SignatureStore& Bound() const {
    WEBER_DCHECK(bound_ != nullptr)
        << name() << ": one-store call on an unbound (PrepareCross) matcher";
    return *bound_;
  }

  const SignatureStore* bound_;
};

/// Instrumentation handles shared by the prepared matchers; bound to the
/// ambient registry once at Prepare() time (hot paths must not take the
/// registry lock per pair). Null pointers = detached.
struct PreparedCounters {
  obs::Counter* comparisons = nullptr;
  obs::Counter* filter_hits = nullptr;
  obs::Counter* fallbacks = nullptr;

  /// Binds to obs::Current(), or leaves everything null when detached.
  static PreparedCounters Ambient();
};

/// The SignatureOptions a store must be built with for Prepare(matcher)
/// to succeed: attribute caches for WeightedAttribute rules, a TF-IDF
/// model for TfIdfCosine, the union over Composite components.
SignatureOptions OptionsFor(const Matcher& matcher);

/// True when Prepare(matcher, store) can succeed for a store built with
/// OptionsFor(matcher) — lets callers skip the store build entirely for
/// matcher types the engine does not know.
bool Preparable(const Matcher& matcher);

/// Builds the prepared twin of `matcher` bound to `store`, or null when
/// the matcher type is unknown or the store lacks what it needs (the caller
/// then stays on the string path). Composite components that cannot be
/// prepared individually are wrapped to score via the string path.
std::unique_ptr<PreparedMatcher> Prepare(const Matcher& matcher,
                                         const SignatureStore& store);

/// Builds the same prepared twin as Prepare(), unbound, for scoring pairs
/// whose sides live in different stores configured with `options`
/// (normally OptionsFor(matcher)); every store must share one logical
/// vocabulary. Null when Prepare() would be null for such a store, and
/// always for OracleMatcher, whose canonical-id table is bound to one
/// collection — so PrepareCross never yields an oracle, and an oracle
/// inside a composite is bridged through the string path.
std::unique_ptr<PreparedMatcher> PrepareCross(const Matcher& matcher,
                                              const SignatureOptions& options);

}  // namespace weber::matching

#endif  // WEBER_MATCHING_SIGNATURES_H_
