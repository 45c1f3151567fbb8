#include "storage/snapshot.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "incremental/resolver.h"
#include "storage/buffer.h"
#include "storage/crc32c.h"
#include "storage/entity_codec.h"
#include "storage/file_io.h"
#include "util/check.h"

namespace weber::storage {
namespace {

constexpr uint64_t kSnapshotMagic = 0x504E535245424557ull;  // "WEBERSNP"
constexpr size_t kPageSize = 4096;
constexpr size_t kHeaderFixedBytes = 48;
constexpr size_t kSectionEntryBytes = 24;

/// Section inventory. Manifest sections are decoded eagerly; arena
/// sections are raw element arrays eligible for zero-copy borrowing.
enum SectionKind : uint32_t {
  kStoreManifest = 1,
  kResolverManifest = 2,
  kSigManifest = 3,
  kAnnex = 4,  // Digest-excluded (delta-index lifetime counters).
  kSigEntries = 5,
  kSigPostingChunks = 6,
  kSigPostingArrays = 7,
  kSigPostingBitsets = 8,
  kSigTokens = 9,
  kSigTfIdf = 10,
  kSigAttrSlots = 11,
  kVocabBlob = 12,
  kVocabOffsets = 13,
};

const char* SectionName(uint32_t kind) {
  switch (kind) {
    case kStoreManifest: return "store-manifest";
    case kResolverManifest: return "resolver-manifest";
    case kSigManifest: return "signature-manifest";
    case kAnnex: return "annex";
    case kSigEntries: return "signature-entries";
    case kSigPostingChunks: return "posting-chunks";
    case kSigPostingArrays: return "posting-arrays";
    case kSigPostingBitsets: return "posting-bitsets";
    case kSigTokens: return "attribute-tokens";
    case kSigTfIdf: return "tfidf-terms";
    case kSigAttrSlots: return "attribute-slots";
    case kVocabBlob: return "vocabulary-blob";
    case kVocabOffsets: return "vocabulary-offsets";
  }
  return "unknown";
}

struct SectionEntry {
  uint32_t kind = 0;
  uint32_t crc = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
};

struct SectionSpec {
  uint32_t kind = 0;
  const uint8_t* data = nullptr;
  size_t size = 0;
};

size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

static_assert(std::is_trivially_copyable_v<model::IdPair> &&
                  sizeof(model::IdPair) == 8,
              "IdPair is framed raw in the resolver manifest");

std::vector<uint8_t> AssembleImage(const std::vector<SectionSpec>& sections,
                                   uint64_t config_fingerprint,
                                   uint64_t op_count) {
  size_t header_len =
      kHeaderFixedBytes + sections.size() * kSectionEntryBytes;
  std::vector<SectionEntry> directory(sections.size());
  size_t offset = AlignUp(header_len, kPageSize);
  for (size_t i = 0; i < sections.size(); ++i) {
    directory[i].kind = sections[i].kind;
    directory[i].crc = Crc32c(sections[i].data, sections[i].size);
    directory[i].offset = offset;
    directory[i].size = sections[i].size;
    offset = AlignUp(offset + sections[i].size, kPageSize);
  }
  size_t file_size = sections.empty()
                         ? header_len
                         : directory.back().offset + directory.back().size;

  std::vector<uint8_t> image(file_size, 0);
  auto put = [&image](size_t at, const void* data, size_t size) {
    std::memcpy(image.data() + at, data, size);
  };
  uint64_t magic = kSnapshotMagic;
  uint32_t version = SnapshotCodec::kFormatVersion;
  uint64_t size64 = file_size;
  uint32_t section_count = static_cast<uint32_t>(sections.size());
  put(0, &magic, 8);
  put(8, &version, 4);
  // Header CRC at [12, 16) is filled in last.
  put(16, &config_fingerprint, 8);
  put(24, &op_count, 8);
  put(32, &size64, 8);
  put(40, &section_count, 4);
  for (size_t i = 0; i < directory.size(); ++i) {
    size_t at = kHeaderFixedBytes + i * kSectionEntryBytes;
    put(at, &directory[i].kind, 4);
    put(at + 4, &directory[i].crc, 4);
    put(at + 8, &directory[i].offset, 8);
    put(at + 16, &directory[i].size, 8);
  }
  uint32_t header_crc = Crc32c(image.data(), header_len);
  put(12, &header_crc, 4);
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].size != 0) {
      put(directory[i].offset, sections[i].data, sections[i].size);
    }
  }
  return image;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct ParsedImage {
  const uint8_t* data = nullptr;
  size_t size = 0;
  uint64_t config_fingerprint = 0;
  uint64_t op_count = 0;
  std::vector<SectionEntry> sections;
  // Keepalive for borrowed arenas (null on the eager path).
  std::shared_ptr<MappedFile> mapping;
  // Backing bytes of the eager path.
  std::vector<uint8_t> bytes;

  const SectionEntry* Find(uint32_t kind) const {
    for (const SectionEntry& section : sections) {
      if (section.kind == kind) return &section;
    }
    return nullptr;
  }
  const uint8_t* SectionData(const SectionEntry& section) const {
    return data + section.offset;
  }
};

Status CorruptSection(uint32_t kind, const std::string& detail) {
  return Status(StorageErrc::kCorruptSection,
                std::string("section ") + SectionName(kind) + ": " + detail);
}

Status ParseHeader(ParsedImage* image) {
  if (image->size < kHeaderFixedBytes) {
    return Status(StorageErrc::kCorruptHeader,
                  "file smaller than the snapshot header");
  }
  auto get = [image](size_t at, void* out, size_t size) {
    std::memcpy(out, image->data + at, size);
  };
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t header_crc = 0;
  uint64_t file_size = 0;
  uint32_t section_count = 0;
  get(0, &magic, 8);
  if (magic != kSnapshotMagic) {
    return Status(StorageErrc::kBadMagic, "not a weber snapshot file");
  }
  get(8, &version, 4);
  if (version != SnapshotCodec::kFormatVersion) {
    return Status(StorageErrc::kBadVersion,
                  "snapshot format v" + std::to_string(version) +
                      "; this build reads v" +
                      std::to_string(SnapshotCodec::kFormatVersion));
  }
  get(12, &header_crc, 4);
  get(16, &image->config_fingerprint, 8);
  get(24, &image->op_count, 8);
  get(32, &file_size, 8);
  get(40, &section_count, 4);
  size_t header_len =
      kHeaderFixedBytes + size_t{section_count} * kSectionEntryBytes;
  if (header_len > image->size || file_size != image->size) {
    return Status(StorageErrc::kCorruptHeader,
                  "snapshot truncated: header claims " +
                      std::to_string(file_size) + " bytes, file has " +
                      std::to_string(image->size));
  }
  std::vector<uint8_t> header(image->data, image->data + header_len);
  std::memset(header.data() + 12, 0, 4);
  if (Crc32c(header.data(), header_len) != header_crc) {
    return Status(StorageErrc::kCorruptHeader,
                  "snapshot header fails its CRC32C");
  }
  image->sections.resize(section_count);
  for (size_t i = 0; i < section_count; ++i) {
    size_t at = kHeaderFixedBytes + i * kSectionEntryBytes;
    get(at, &image->sections[i].kind, 4);
    get(at + 4, &image->sections[i].crc, 4);
    get(at + 8, &image->sections[i].offset, 8);
    get(at + 16, &image->sections[i].size, 8);
    const SectionEntry& section = image->sections[i];
    if (section.offset > image->size ||
        section.size > image->size - section.offset) {
      return Status(StorageErrc::kCorruptHeader,
                    std::string("section ") + SectionName(section.kind) +
                        " extends past end of file");
    }
  }
  return Status::Ok();
}

Status VerifySection(const ParsedImage& image, const SectionEntry& section) {
  if (Crc32c(image.SectionData(section), section.size) != section.crc) {
    return Status(StorageErrc::kCorruptSection,
                  std::string("section ") + SectionName(section.kind) +
                      " fails its CRC32C");
  }
  return Status::Ok();
}

Status VerifyAll(const ParsedImage& image, bool verify_arenas) {
  for (const SectionEntry& section : image.sections) {
    bool manifest = section.kind == kStoreManifest ||
                    section.kind == kResolverManifest ||
                    section.kind == kSigManifest || section.kind == kAnnex;
    if (!manifest && !verify_arenas) continue;
    Status status = VerifySection(image, section);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status OpenImage(const std::string& path, bool mapped, ParsedImage* image) {
  if (mapped) {
    Status status = MappedFile::Open(path, &image->mapping);
    if (!status.ok()) return status;
    image->data = image->mapping->data();
    image->size = image->mapping->size();
  } else {
    Status status = ReadFileBytes(path, &image->bytes);
    if (!status.ok()) return status;
    image->data = image->bytes.data();
    image->size = image->bytes.size();
  }
  return ParseHeader(image);
}

/// Restores one arena: borrowed straight from the mapping when the load
/// is mapped, copied out otherwise. The element count must divide evenly
/// or the section is corrupt.
template <typename T>
Status RestoreArena(const ParsedImage& image, uint32_t kind,
                    util::ArenaVec<T>* arena) {
  const SectionEntry* section = image.Find(kind);
  if (section == nullptr) return CorruptSection(kind, "section missing");
  if (section->size % sizeof(T) != 0) {
    return CorruptSection(kind, "size not a multiple of the element size");
  }
  size_t count = section->size / sizeof(T);
  const uint8_t* data = image.SectionData(*section);
  if (image.mapping != nullptr) {
    *arena = util::ArenaVec<T>::Borrowed(reinterpret_cast<const T*>(data),
                                         count, image.mapping);
  } else {
    std::vector<T> owned(count);
    // An empty vector's data() may be null, and memcpy to null is UB even
    // for zero bytes.
    if (count > 0) std::memcpy(owned.data(), data, section->size);
    arena->Assign(std::move(owned));
  }
  return Status::Ok();
}

struct SigManifest {
  uint64_t vocab_count = 0;
  std::vector<std::string> values;
  uint64_t released_bytes = 0;
  uint64_t array_chunks = 0;
  uint64_t bitset_chunks = 0;
};

Status DecodeSigManifest(const ParsedImage& image, SigManifest* manifest) {
  const SectionEntry* section = image.Find(kSigManifest);
  if (section == nullptr) {
    return CorruptSection(kSigManifest, "section missing");
  }
  ByteReader in(image.SectionData(*section), section->size);
  manifest->vocab_count = in.GetU64();
  uint64_t value_count = in.GetU64();
  for (uint64_t i = 0; i < value_count && !in.failed(); ++i) {
    manifest->values.push_back(in.GetString());
  }
  manifest->released_bytes = in.GetU64();
  manifest->array_chunks = in.GetU64();
  manifest->bitset_chunks = in.GetU64();
  if (!in.Exhausted()) {
    return CorruptSection(kSigManifest, "malformed signature manifest");
  }
  return Status::Ok();
}

Status DecodeResolverManifest(const ParsedImage& image,
                              std::vector<model::IdPair>* matches,
                              uint64_t counters[6],
                              std::vector<std::string>* purged) {
  const SectionEntry* section = image.Find(kResolverManifest);
  if (section == nullptr) {
    return CorruptSection(kResolverManifest, "section missing");
  }
  ByteReader in(image.SectionData(*section), section->size);
  uint64_t match_count = in.GetU64();
  if (in.failed() || match_count * sizeof(model::IdPair) > in.remaining()) {
    return CorruptSection(kResolverManifest, "truncated match list");
  }
  matches->resize(match_count);
  in.GetRaw(matches->data(), match_count * sizeof(model::IdPair));
  for (size_t i = 0; i < 6; ++i) counters[i] = in.GetU64();
  uint64_t purged_count = in.GetU64();
  for (uint64_t i = 0; i < purged_count && !in.failed(); ++i) {
    purged->push_back(in.GetString());
  }
  if (!in.Exhausted()) {
    return CorruptSection(kResolverManifest, "malformed resolver manifest");
  }
  return Status::Ok();
}

Status DecodeAnnex(const ParsedImage& image,
                   incremental::DeltaIndexStats* stats) {
  const SectionEntry* section = image.Find(kAnnex);
  if (section == nullptr) return CorruptSection(kAnnex, "section missing");
  ByteReader in(image.SectionData(*section), section->size);
  stats->updates = in.GetU64();
  stats->full_builds = in.GetU64();
  stats->purged_tokens = in.GetU64();
  stats->tokens = static_cast<size_t>(in.GetU64());
  if (!in.Exhausted()) return CorruptSection(kAnnex, "malformed annex");
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Friend-access helpers. As a nested class, Impl shares the codec's access
// rights, so the friend grants on the stores cover it without friending
// every helper individually.
// ---------------------------------------------------------------------------

struct SnapshotCodec::Impl {
  template <typename T>
  static SectionSpec ArenaSection(uint32_t kind,
                                  const util::ArenaVec<T>& arena) {
    return {kind, reinterpret_cast<const uint8_t*>(arena.data()),
            arena.size() * sizeof(T)};
  }

  static void EncodeStoreManifest(const incremental::EntityStore& store,
                                  ByteWriter* out) {
    const model::EntityCollection& collection = store.collection_;
    out->PutU64(collection.size());
    for (size_t id = 0; id < collection.size(); ++id) {
      EncodeDescription(collection.at(static_cast<model::EntityId>(id)),
                        out);
    }
    out->PutU8(collection.setting() == model::ErSetting::kDirty ? 0 : 1);
    out->PutU64(collection.split());
    out->PutRaw(store.alive_.data(), store.alive_.size());
    out->PutRaw(store.versions_.data(),
                store.versions_.size() * sizeof(uint64_t));
    // The URI index is serialized by content, sorted by URI: its entries
    // are history-dependent (first-wins on Append, conditional erase on
    // Update/Tombstone), so rebuilding it from the live rows would not be
    // bit-equal to the never-crashed process.
    std::vector<std::pair<std::string_view, model::EntityId>> uris;
    uris.reserve(store.uri_index_.size());
    for (const auto& [uri, id] : store.uri_index_) {
      uris.emplace_back(uri, id);
    }
    std::sort(uris.begin(), uris.end());
    out->PutU64(uris.size());
    for (const auto& [uri, id] : uris) {
      out->PutU32(static_cast<uint32_t>(uri.size()));
      out->PutRaw(uri.data(), uri.size());
      out->PutU32(id);
    }
    out->PutU64(store.live_);
    out->PutU64(store.updates_);
  }

  static Status DecodeStoreManifest(const ParsedImage& image,
                                    incremental::EntityStore* store) {
    const SectionEntry* section = image.Find(kStoreManifest);
    if (section == nullptr) {
      return CorruptSection(kStoreManifest, "section missing");
    }
    ByteReader in(image.SectionData(*section), section->size);
    uint64_t count = in.GetU64();
    std::vector<model::EntityDescription> descriptions;
    if (!in.failed() && count <= section->size) descriptions.reserve(count);
    for (uint64_t i = 0; i < count && !in.failed(); ++i) {
      descriptions.push_back(DecodeDescription(&in));
    }
    uint8_t setting = in.GetU8();
    uint64_t split = in.GetU64();
    if (in.failed()) {
      return CorruptSection(kStoreManifest, "truncated description table");
    }
    if (setting == 0) {
      store->collection_ =
          model::EntityCollection::Dirty(std::move(descriptions));
    } else {
      if (split > descriptions.size()) {
        return CorruptSection(kStoreManifest, "split past collection end");
      }
      std::vector<model::EntityDescription> second(
          std::make_move_iterator(descriptions.begin() +
                                  static_cast<int64_t>(split)),
          std::make_move_iterator(descriptions.end()));
      descriptions.resize(split);
      store->collection_ = model::EntityCollection::CleanClean(
          std::move(descriptions), std::move(second));
    }
    store->alive_.resize(count);
    in.GetRaw(store->alive_.data(), count);
    store->versions_.resize(count);
    in.GetRaw(store->versions_.data(), count * sizeof(uint64_t));
    uint64_t uri_count = in.GetU64();
    store->uri_index_.clear();
    if (!in.failed() && uri_count <= section->size) {
      store->uri_index_.reserve(uri_count);
    }
    for (uint64_t i = 0; i < uri_count && !in.failed(); ++i) {
      std::string uri = in.GetString();
      uint32_t id = in.GetU32();
      store->uri_index_.emplace(std::move(uri), id);
    }
    store->live_ = in.GetU64();
    store->updates_ = in.GetU64();
    if (!in.Exhausted()) {
      return CorruptSection(kStoreManifest, "malformed store manifest");
    }
    return Status::Ok();
  }

  static void EncodeResolverManifest(
      const incremental::IncrementalResolver& resolver, ByteWriter* out) {
    const std::vector<model::IdPair>& matches = resolver.clusters_.matches();
    out->PutU64(matches.size());
    out->PutRaw(matches.data(), matches.size() * sizeof(model::IdPair));
    out->PutU64(resolver.comparisons_);
    out->PutU64(resolver.candidates_);
    out->PutU64(resolver.clusters_.merges());
    out->PutU64(resolver.requeues_);
    out->PutU64(resolver.batches_);
    out->PutU64(resolver.removed_);
    // Purged tokens must survive recovery verbatim: a token purged by the
    // pre-crash process has already stopped emitting pairs, and a rebuilt
    // index that resurrected it would emit candidates the never-crashed
    // run does not see.
    std::vector<std::string_view> purged;
    for (const auto& [token, posting] :
         resolver.token_index_.postings_) {
      if (posting.purged) purged.push_back(token);
    }
    std::sort(purged.begin(), purged.end());
    out->PutU64(purged.size());
    for (std::string_view token : purged) {
      out->PutU32(static_cast<uint32_t>(token.size()));
      out->PutRaw(token.data(), token.size());
    }
  }

  static void EncodeSigManifest(const matching::SignatureStore& store,
                                size_t vocab_count, ByteWriter* out) {
    out->PutU64(vocab_count);
    out->PutU64(store.values_.size());
    for (const std::string& value : store.values_) out->PutString(value);
    out->PutU64(store.released_bytes_);
    out->PutU64(store.posting_arena_.array_chunks_);
    out->PutU64(store.posting_arena_.bitset_chunks_);
  }

  static void EncodeAnnex(const incremental::IncrementalResolver& resolver,
                          ByteWriter* out) {
    const incremental::DeltaIndexStats& stats =
        resolver.token_index_.stats_;
    out->PutU64(stats.updates);
    out->PutU64(stats.full_builds);
    out->PutU64(stats.purged_tokens);
    out->PutU64(stats.tokens);
  }

  /// Restores the signature-engine state of `store` in place (options,
  /// provider and collection pointer untouched — the store object was
  /// configured by its owner; the snapshot only replaces its contents).
  static Status RestoreSignatures(const ParsedImage& image,
                                  const LoadOptions& options,
                                  matching::SignatureStore* store) {
    SigManifest manifest;
    Status status = DecodeSigManifest(image, &manifest);
    if (!status.ok()) return status;

    status = RestoreArena(image, kSigEntries, &store->entries_);
    if (!status.ok()) return status;
    status = RestoreArena(image, kSigPostingChunks,
                          &store->posting_arena_.chunks_);
    if (!status.ok()) return status;
    status = RestoreArena(image, kSigPostingArrays,
                          &store->posting_arena_.array_values_);
    if (!status.ok()) return status;
    status = RestoreArena(image, kSigPostingBitsets,
                          &store->posting_arena_.bitset_words_);
    if (!status.ok()) return status;
    status = RestoreArena(image, kSigTokens, &store->tokens_);
    if (!status.ok()) return status;
    status = RestoreArena(image, kSigTfIdf, &store->tfidf_);
    if (!status.ok()) return status;
    status = RestoreArena(image, kSigAttrSlots, &store->attribute_slots_);
    if (!status.ok()) return status;
    status = RestoreArena(image, kVocabBlob, &store->pending_vocab_blob_);
    if (!status.ok()) return status;
    status = RestoreArena(image, kVocabOffsets,
                          &store->pending_vocab_offsets_);
    if (!status.ok()) return status;

    store->vocabulary_.clear();
    if (manifest.vocab_count == 0) {
      store->pending_vocab_blob_.clear();
      store->pending_vocab_offsets_.clear();
    } else {
      if (store->pending_vocab_offsets_.size() !=
          manifest.vocab_count + 1) {
        return CorruptSection(
            kVocabOffsets, "offset count does not match vocabulary size");
      }
      if (options.verify_arenas) {
        const util::ArenaVec<uint32_t>& offsets =
            store->pending_vocab_offsets_;
        if (offsets[0] != 0 ||
            offsets[offsets.size() - 1] !=
                store->pending_vocab_blob_.size() ||
            !std::is_sorted(offsets.begin(), offsets.end())) {
          return CorruptSection(kVocabOffsets,
                                "offsets not a monotone cover of the blob");
        }
      }
    }
    store->values_ = std::move(manifest.values);
    store->released_bytes_ = manifest.released_bytes;
    store->posting_arena_.array_chunks_ =
        static_cast<size_t>(manifest.array_chunks);
    store->posting_arena_.bitset_chunks_ =
        static_cast<size_t>(manifest.bitset_chunks);
    return Status::Ok();
  }
};

std::vector<uint8_t> SnapshotCodec::Encode(
    const incremental::IncrementalResolver& resolver,
    uint64_t config_fingerprint, uint64_t op_count) {
  ByteWriter store_manifest;
  Impl::EncodeStoreManifest(resolver.store_, &store_manifest);
  ByteWriter resolver_manifest;
  Impl::EncodeResolverManifest(resolver, &resolver_manifest);
  ByteWriter annex;
  Impl::EncodeAnnex(resolver, &annex);

  std::vector<SectionSpec> sections;
  sections.push_back({kStoreManifest, store_manifest.bytes().data(),
                      store_manifest.size()});
  sections.push_back({kResolverManifest, resolver_manifest.bytes().data(),
                      resolver_manifest.size()});

  ByteWriter sig_manifest;
  std::vector<char> vocab_blob;
  std::vector<uint32_t> vocab_offsets;
  if (resolver.signatures_.has_value()) {
    const matching::SignatureStore& sigs = *resolver.signatures_;
    const char* blob_data = nullptr;
    size_t blob_size = 0;
    const uint32_t* offsets_data = nullptr;
    size_t offsets_size = 0;
    size_t vocab_count = sigs.vocabulary_size();
    if (!sigs.vocabulary_.empty()) {
      // Serialize the hash map in id order: ids were assigned in
      // first-occurrence order, so this is deterministic.
      std::vector<const std::string*> by_id(sigs.vocabulary_.size());
      for (const auto& [token, id] : sigs.vocabulary_) {
        by_id[id] = &token;
      }
      vocab_offsets.reserve(by_id.size() + 1);
      vocab_offsets.push_back(0);
      for (const std::string* token : by_id) {
        vocab_blob.insert(vocab_blob.end(), token->begin(), token->end());
        vocab_offsets.push_back(static_cast<uint32_t>(vocab_blob.size()));
      }
      blob_data = vocab_blob.data();
      blob_size = vocab_blob.size();
      offsets_data = vocab_offsets.data();
      offsets_size = vocab_offsets.size();
    } else if (vocab_count > 0) {
      // Loaded and never re-interned: the pending blob is already the
      // id-ordered encoding. Round-tripping it verbatim keeps the digest
      // stable across load/save cycles.
      blob_data = sigs.pending_vocab_blob_.data();
      blob_size = sigs.pending_vocab_blob_.size();
      offsets_data = sigs.pending_vocab_offsets_.data();
      offsets_size = sigs.pending_vocab_offsets_.size();
    }
    Impl::EncodeSigManifest(sigs, vocab_count, &sig_manifest);
    sections.push_back(
        {kSigManifest, sig_manifest.bytes().data(), sig_manifest.size()});
    sections.push_back(Impl::ArenaSection(kSigEntries, sigs.entries_));
    sections.push_back(
        Impl::ArenaSection(kSigPostingChunks, sigs.posting_arena_.chunks_));
    sections.push_back(Impl::ArenaSection(
        kSigPostingArrays, sigs.posting_arena_.array_values_));
    sections.push_back(Impl::ArenaSection(
        kSigPostingBitsets, sigs.posting_arena_.bitset_words_));
    sections.push_back(Impl::ArenaSection(kSigTokens, sigs.tokens_));
    sections.push_back(Impl::ArenaSection(kSigTfIdf, sigs.tfidf_));
    sections.push_back(
        Impl::ArenaSection(kSigAttrSlots, sigs.attribute_slots_));
    sections.push_back({kVocabBlob,
                        reinterpret_cast<const uint8_t*>(blob_data),
                        blob_size});
    sections.push_back({kVocabOffsets,
                        reinterpret_cast<const uint8_t*>(offsets_data),
                        offsets_size * sizeof(uint32_t)});
  }
  sections.push_back({kAnnex, annex.bytes().data(), annex.size()});
  return AssembleImage(sections, config_fingerprint, op_count);
}

Status SnapshotCodec::Load(const std::string& path,
                           uint64_t config_fingerprint,
                           const LoadOptions& options,
                           incremental::IncrementalResolver* resolver,
                           uint64_t* op_count) {
  ParsedImage image;
  Status status = OpenImage(path, options.mapped, &image);
  if (!status.ok()) return status;
  if (image.config_fingerprint != config_fingerprint) {
    return Status(StorageErrc::kConfigMismatch,
                  "snapshot was produced under a different resolver "
                  "configuration");
  }
  status = VerifyAll(image, options.verify_arenas);
  if (!status.ok()) return status;

  bool snapshot_has_sigs = image.Find(kSigManifest) != nullptr;
  if (snapshot_has_sigs != resolver->signatures_.has_value()) {
    return Status(StorageErrc::kConfigMismatch,
                  snapshot_has_sigs
                      ? "snapshot carries signatures but the resolver "
                        "prepared none"
                      : "resolver expects signatures the snapshot lacks");
  }

  status = Impl::DecodeStoreManifest(image, &resolver->store_);
  if (!status.ok()) return status;

  uint64_t counters[6] = {};
  std::vector<model::IdPair> matches;
  std::vector<std::string> purged;
  status = DecodeResolverManifest(image, &matches, counters, &purged);
  if (!status.ok()) return status;
  // The union-find forest is the transitive closure of the matches; the
  // cluster state rebuilds it exactly on the next public call.
  resolver->clusters_.Reset(std::move(matches), counters[2]);
  resolver->comparisons_ = counters[0];
  resolver->candidates_ = counters[1];
  resolver->requeues_ = counters[3];
  resolver->batches_ = counters[4];
  resolver->removed_ = counters[5];

  if (snapshot_has_sigs) {
    status = Impl::RestoreSignatures(image, options,
                                     &*resolver->signatures_);
    if (!status.ok()) return status;
  }

  // The delta indexes are not serialized: they are rebuilt from the live
  // rows, which is observationally identical to the pre-crash index (its
  // lazily-compacted postings only ever differ by removed ids that
  // compaction drops before any pair is emitted). Purge marks go in
  // first so re-absorbed entities cannot resurrect retired tokens.
  resolver->token_index_ =
      incremental::IncrementalTokenIndex(resolver->options_.index);
  for (const std::string& token : purged) {
    resolver->token_index_.postings_[token].purged = true;
  }
  if (resolver->sn_index_ != nullptr) {
    resolver->sn_index_ =
        std::make_unique<incremental::IncrementalSortedNeighborhood>(
            resolver->options_.sn_window, resolver->options_.sn_options);
  }
  resolver->store_.ForEachLive(
      [resolver](model::EntityId id,
                 const model::EntityDescription& description) {
        resolver->token_index_.Absorb(id, description, nullptr);
        if (resolver->sn_index_ != nullptr) {
          resolver->sn_index_->Absorb(id, description, nullptr);
        }
      });
  status = DecodeAnnex(image, &resolver->token_index_.stats_);
  if (!status.ok()) return status;

  resolver->rep_cache_.clear();
  resolver->scored_roots_.clear();

  if (op_count != nullptr) *op_count = image.op_count;
  return Status::Ok();
}

Status SnapshotCodec::OpenSignatures(const std::string& path,
                                     const LoadOptions& options,
                                     matching::SignatureStore* store) {
  ParsedImage image;
  Status status = OpenImage(path, options.mapped, &image);
  if (!status.ok()) return status;
  if (image.Find(kSigManifest) == nullptr) {
    return Status(StorageErrc::kConfigMismatch,
                  "snapshot carries no signature sections");
  }
  for (const SectionEntry& section : image.sections) {
    bool needed = section.kind == kSigManifest ||
                  (section.kind >= kSigEntries && options.verify_arenas);
    if (!needed) continue;
    status = VerifySection(image, section);
    if (!status.ok()) return status;
  }
  return Impl::RestoreSignatures(image, options, store);
}

Status SnapshotCodec::ImageDigest(std::span<const uint8_t> image,
                                  uint32_t* digest) {
  ParsedImage parsed;
  parsed.data = image.data();
  parsed.size = image.size();
  Status status = ParseHeader(&parsed);
  if (!status.ok()) return status;
  uint32_t crc = 0;
  for (const SectionEntry& section : parsed.sections) {
    if (section.kind == kAnnex) continue;
    crc = Crc32c(parsed.SectionData(section), section.size, crc);
  }
  *digest = crc;
  return Status::Ok();
}

uint32_t SnapshotCodec::StateDigest(
    const incremental::IncrementalResolver& resolver) {
  std::vector<uint8_t> image = Encode(resolver, 0, 0);
  uint32_t digest = 0;
  Status status = ImageDigest(image, &digest);
  WEBER_CHECK(status.ok()) << "self-encoded snapshot failed to parse: "
                           << status.ToString();
  return digest;
}

}  // namespace weber::storage
