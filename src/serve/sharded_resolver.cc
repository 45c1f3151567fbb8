#include "serve/sharded_resolver.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "core/executor.h"
#include "mapreduce/engine.h"
#include "obs/metrics.h"
#include "storage/buffer.h"
#include "storage/crc32c.h"
#include "storage/durable.h"
#include "storage/entity_codec.h"
#include "storage/file_io.h"
#include "text/tokenizer.h"
#include "util/check.h"
#include "util/timer.h"

namespace weber::serve {
namespace {

// Serve WAL record types. The payload always leads with the operation
// sequence number and the shard participant mask, so recovery can prove a
// batch's records are all present before replaying any of them.
constexpr uint8_t kServeIngest = 1;  // osn u64, mask u64, count u32,
                                     // count x { gid u32, description }.
constexpr uint8_t kServeRemove = 2;  // osn u64, mask u64, gid u32.

constexpr char kMetaMagic[8] = {'W', 'E', 'B', 'E', 'R', 'S', 'R', 'V'};
constexpr uint32_t kMetaVersion = 1;

size_t TokenShardOf(const std::string& token, size_t shards) {
  return mapreduce::MixFingerprint(std::hash<std::string>{}(token)) % shards;
}

}  // namespace

size_t ShardedResolver::ShardOf(model::EntityId id, size_t shards) {
  return mapreduce::MixFingerprint(id) % shards;
}

void MergeMail(const std::vector<TokenShardMail>& mailboxes,
               const std::vector<std::span<const uint8_t>>& token_owners,
               model::EntityId first_gid, util::StampSet* seen,
               std::vector<model::IdPair>* candidates) {
  size_t total = 0;
  for (const TokenShardMail& box : mailboxes) total += box.mail.size();
  candidates->reserve(candidates->size() + total);
  const size_t bound = first_gid + token_owners.size();
  // cursor[t]: the first unmerged mail of shard t. Entity k's runs are
  // merged completely before entity k + 1's, so the cursor always sits
  // inside (or at the end of) entity k's run.
  std::vector<size_t> cursor(mailboxes.size(), 0);
  for (size_t k = 0; k < token_owners.size(); ++k) {
    const auto gid = static_cast<model::EntityId>(first_gid + k);
    std::span<const uint8_t> owner = token_owners[k];
    seen->Reset(bound);
    for (uint32_t pos = 0; pos < owner.size(); ++pos) {
      if (owner[pos] == kUnindexedToken) continue;
      const TokenShardMail& box = mailboxes[owner[pos]];
      size_t& c = cursor[owner[pos]];
      for (; c < box.ends[k] && box.mail[c].position == pos; ++c) {
        model::EntityId other = box.mail[c].other;
        if (seen->Insert(other)) {
          candidates->push_back(model::IdPair::Of(other, gid));
        }
      }
    }
  }
  for (size_t t = 0; t < mailboxes.size(); ++t) {
    WEBER_DCHECK_EQ(cursor[t], mailboxes[t].mail.size())
        << "token shard " << t << " mailed a run out of position order";
  }
}

ShardedResolver::ShardedResolver(const matching::Matcher* matcher,
                                 ShardedResolverOptions options)
    : matcher_(matcher, options.match_threshold),
      options_(std::move(options)) {
  WEBER_CHECK(options_.shards >= 1 && options_.shards <= kMaxShards)
      << "shard count " << options_.shards << " outside [1, " << kMaxShards
      << "]";
  token_shards_.reserve(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    shards_.emplace_back();
    token_shards_.emplace_back(options_.index);
  }
  if (options_.prepared_matching) {
    signature_options_ = matching::OptionsFor(*matcher);
    // Bind the prepared counters to the configured registry (falls through
    // to the caller's ambient one when options_.metrics is null).
    obs::ScopedRegistry attach(options_.metrics);
    cross_ = matching::PrepareCross(matcher_.matcher(), signature_options_);
    if (cross_ != nullptr) {
      for (Shard& shard : shards_) {
        shard.signatures.emplace(signature_options_);
        // Rows are shard-local, so the fallback provider resolves against
        // this shard's store. &shard stays valid: shards_ never resizes.
        Shard* owner = &shard;
        shard.signatures->SetDescriptionProvider(
            [owner](model::EntityId row) -> const model::EntityDescription* {
              return owner->store.alive(row) ? &owner->store.at(row)
                                             : nullptr;
            });
      }
    }
  }
  if (!options_.data_dir.empty()) {
    durable_ = true;
    recovery_status_ = RecoverOrInit();
  }
}

obs::MetricsRegistry* ShardedResolver::Registry() const {
  return options_.metrics != nullptr ? options_.metrics : obs::Current();
}

// ---------------------------------------------------------------------------
// Ingest
// ---------------------------------------------------------------------------

std::vector<model::EntityId> ShardedResolver::Ingest(
    std::vector<model::EntityDescription> batch) {
  return IngestLocked(std::move(batch), /*log=*/true);
}

std::vector<model::EntityId> ShardedResolver::IngestLocked(
    std::vector<model::EntityDescription> batch, bool log) {
  if (batch.empty()) return {};
  util::Timer timer;
  clusters_.Refresh(row_of_.size());
  const size_t n = batch.size();
  const size_t num_shards = options_.shards;
  uint64_t index_updates_before = 0;
  for (const auto& index : token_shards_) {
    index_updates_before += index.stats().updates;
  }

  // Global id assignment: dense, insertion order — identical to the
  // single-store sequence for any shard count.
  const auto first_gid = static_cast<model::EntityId>(row_of_.size());
  std::vector<uint8_t> entity_shard(n);
  std::vector<size_t> shard_entity_counts(num_shards, 0);
  uint64_t participant_mask = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t s = ShardOf(first_gid + static_cast<model::EntityId>(i),
                       num_shards);
    entity_shard[i] = static_cast<uint8_t>(s);
    ++shard_entity_counts[s];
    participant_mask |= uint64_t{1} << s;
  }
  std::vector<model::EntityId> gids(n);
  for (size_t i = 0; i < n; ++i) {
    gids[i] = first_gid + static_cast<model::EntityId>(i);
  }
  row_of_.resize(row_of_.size() + n);
  clusters_.Grow(row_of_.size());

  // Executor affinity: every parallel phase below cuts at most `shards`
  // chunks, so the shard count is the unit of scaling (shards=1 runs the
  // whole batch inline).
  core::ScopedParallelism affinity(num_shards);
  core::Executor& executor = core::Executor::Shared();
  const bool prepared = cross_ != nullptr;

  // Phase A — parallel per entity: tokenise once (when the index and
  // signature normalisations agree, one distinct-token list serves both),
  // name each token's owning token shard, vectorise for signatures, and
  // resolve what the shared vocabulary already knows.
  struct PrepAttr {
    bool present = false;
    std::string value;
    std::vector<std::string> tokens;
    std::vector<uint32_t> ids;
  };
  struct Prep {
    // The index's token list (TokensOf order) before its length filter;
    // filtered tokens stay in place with owner kUnindexedToken.
    std::vector<std::string> tokens;
    std::vector<uint8_t> token_owner;
    // The signature tokens when the normalisations differ (else `tokens`).
    std::vector<std::string> own_sig_tokens;
    std::vector<uint32_t> sig_ids;
    text::TfIdfVector tfidf;
    std::vector<PrepAttr> attrs;
  };
  const bool shared_tokens =
      signature_options_.normalize == options_.index.normalize;
  auto sig_tokens_of =
      [&](const Prep& prep) -> const std::vector<std::string>& {
    return shared_tokens ? prep.tokens : prep.own_sig_tokens;
  };
  std::vector<Prep> preps(n);
  auto prepare = [&](size_t i) {
    Prep& prep = preps[i];
    const model::EntityDescription& description = batch[i];
    prep.tokens = text::ValueTokens(description, options_.index.normalize);
    prep.token_owner.resize(prep.tokens.size());
    for (size_t pos = 0; pos < prep.tokens.size(); ++pos) {
      // TokensOf's length filter, applied in place.
      const std::string& token = prep.tokens[pos];
      prep.token_owner[pos] =
          token.size() < options_.index.min_token_length
              ? kUnindexedToken
              : static_cast<uint8_t>(TokenShardOf(token, num_shards));
    }
    if (!prepared) return;
    if (!shared_tokens) {
      prep.own_sig_tokens =
          text::ValueTokens(description, signature_options_.normalize);
    }
    const std::vector<std::string>& sig_tokens = sig_tokens_of(prep);
    prep.sig_ids.resize(sig_tokens.size());
    for (size_t j = 0; j < sig_tokens.size(); ++j) {
      prep.sig_ids[j] = vocabulary_.Lookup(sig_tokens[j]);
    }
    if (signature_options_.tfidf_model != nullptr) {
      prep.tfidf = signature_options_.tfidf_model->Vectorize(description);
    }
    prep.attrs.resize(signature_options_.attributes.size());
    for (size_t k = 0; k < prep.attrs.size(); ++k) {
      auto value = description.FirstValueOf(signature_options_.attributes[k]);
      if (!value.has_value()) continue;
      PrepAttr& attr = prep.attrs[k];
      attr.present = true;
      attr.value = std::string(*value);
      attr.tokens =
          text::NormalizeAndTokenize(*value, signature_options_.normalize);
      attr.ids.resize(attr.tokens.size());
      for (size_t j = 0; j < attr.tokens.size(); ++j) {
        attr.ids[j] = vocabulary_.Lookup(attr.tokens[j]);
      }
    }
  };
  executor.ParallelFor(n, prepare);

  // Phase B — serial: intern the batch's unknown tokens in (entity,
  // position) order. Deterministic and shard-count independent; the exact
  // ids never influence scoring (similarities see ids only through set
  // intersections, invariant under any injective renaming).
  if (prepared) {
    for (Prep& prep : preps) {
      const std::vector<std::string>& sig_tokens = sig_tokens_of(prep);
      for (size_t j = 0; j < prep.sig_ids.size(); ++j) {
        if (prep.sig_ids[j] == SharedVocabulary::kUnknown) {
          prep.sig_ids[j] = vocabulary_.Intern(sig_tokens[j]);
        }
      }
      for (PrepAttr& attr : prep.attrs) {
        for (size_t j = 0; j < attr.ids.size(); ++j) {
          if (attr.ids[j] == SharedVocabulary::kUnknown) {
            attr.ids[j] = vocabulary_.Intern(attr.tokens[j]);
          }
        }
      }
    }
  }

  // Phase C — parallel per entity shard: append store rows, absorb the
  // pre-built signatures, frame and append this shard's WAL record.
  const uint64_t batch_osn = osn_next_;
  auto absorb_entities = [&](size_t, size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      Shard& shard = shards_[s];
      storage::ByteWriter entities_bytes;
      uint32_t logged = 0;
      for (size_t i = 0; i < n; ++i) {
        if (entity_shard[i] != s) continue;
        model::EntityId row = shard.store.Append(std::move(batch[i]));
        row_of_[gids[i]] = static_cast<uint32_t>(row);
        if (prepared) {
          Prep& prep = preps[i];
          matching::InternedSignature signature;
          signature.token_ids = std::move(prep.sig_ids);
          std::sort(signature.token_ids.begin(), signature.token_ids.end());
          signature.token_ids.erase(
              std::unique(signature.token_ids.begin(),
                          signature.token_ids.end()),
              signature.token_ids.end());
          signature.tfidf = std::move(prep.tfidf);
          signature.attributes.resize(prep.attrs.size());
          for (size_t k = 0; k < prep.attrs.size(); ++k) {
            PrepAttr& attr = prep.attrs[k];
            if (!attr.present) continue;
            auto& out = signature.attributes[k];
            out.present = true;
            out.value = std::move(attr.value);
            out.token_ids = std::move(attr.ids);
            std::sort(out.token_ids.begin(), out.token_ids.end());
            out.token_ids.erase(
                std::unique(out.token_ids.begin(), out.token_ids.end()),
                out.token_ids.end());
          }
          shard.signatures->AbsorbPrepared(row, std::move(signature));
        }
        if (log && durable_) {
          ++logged;
          entities_bytes.PutU32(gids[i]);
          storage::EncodeDescription(shard.store.at(row), &entities_bytes);
        }
      }
      if (log && durable_ && logged > 0) {
        storage::ByteWriter payload;
        payload.PutU64(batch_osn);
        payload.PutU64(participant_mask);
        payload.PutU32(logged);
        std::vector<uint8_t> body = entities_bytes.Take();
        payload.PutRaw(body.data(), body.size());
        storage::Status status =
            shard.wal.Append(kServeIngest, payload.Take());
        WEBER_CHECK(status.ok())
            << "shard " << s << " WAL append failed: " << status.ToString();
      }
    }
  };
  executor.ParallelChunks(num_shards, num_shards, absorb_entities);

  // Phase D — parallel per token shard: positioned absorb of each
  // entity's owned tokens (passed as positions into its token list),
  // mailing candidates tagged with the token position; one entity's run
  // ascends in (position, posting order).
  std::vector<TokenShardMail> mailboxes(num_shards);
  auto absorb_tokens = [&](size_t, size_t begin, size_t end) {
    std::vector<uint32_t> owned;
    for (size_t t = begin; t < end; ++t) {
      TokenShardMail& box = mailboxes[t];
      box.ends.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const Prep& prep = preps[i];
        owned.clear();
        for (size_t pos = 0; pos < prep.token_owner.size(); ++pos) {
          if (prep.token_owner[pos] == t) {
            owned.push_back(static_cast<uint32_t>(pos));
          }
        }
        if (!owned.empty()) {
          token_shards_[t].AbsorbTokens(gids[i], prep.tokens, owned,
                                        &box.mail);
        }
        box.ends[i] = box.mail.size();
      }
    }
  };
  executor.ParallelChunks(num_shards, num_shards, absorb_tokens);

  // Phase E — serial merge of the token shards' runs by position, which
  // reproduces the single-index emission order exactly.
  std::vector<std::span<const uint8_t>> token_owners(n);
  for (size_t i = 0; i < n; ++i) token_owners[i] = preps[i].token_owner;
  std::vector<model::IdPair> candidates;
  MergeMail(mailboxes, token_owners, first_gid, &seen_, &candidates);
  candidates_ += candidates.size();

  // Phase F — parallel scoring on immutable state (the prepared twin over
  // both sides' shard stores, bit-equal to the string path), phase G —
  // ordered serial commit.
  uint64_t comparisons_before = comparisons_;
  uint64_t merges_before = clusters_.merges();
  if (!candidates.empty()) {
    std::vector<char> verdicts(candidates.size(), 0);
    auto score = [&](size_t i) {
      const model::IdPair& pair = candidates[i];
      bool matched;
      if (cross_ != nullptr) {
        const Shard& sa = shards_[ShardOf(pair.low, num_shards)];
        const Shard& sb = shards_[ShardOf(pair.high, num_shards)];
        matched = cross_->Matches(*sa.signatures, row_of_[pair.low],
                                  *sb.signatures, row_of_[pair.high],
                                  matcher_.threshold());
      } else {
        matched = matcher_.Matches(DescriptionOf(pair.low),
                                   DescriptionOf(pair.high));
      }
      verdicts[i] = matched ? 1 : 0;
    };
    executor.ParallelFor(candidates.size(), score);
    for (size_t i = 0; i < candidates.size(); ++i) {
      bool matched = verdicts[i] != 0;
      ++comparisons_;
      if (observer_) observer_(candidates[i], matched);
      if (matched) clusters_.Commit(candidates[i]);
    }
  }
  ++batches_;
  ++osn_next_;

  if (obs::MetricsRegistry* registry = Registry()) {
    incremental::DeltaIndexStats index = IndexStats();
    registry->GetCounter("weber.incremental.ingested").Add(n);
    registry->GetCounter("weber.incremental.batches").Increment();
    registry->GetCounter("weber.incremental.candidates")
        .Add(candidates.size());
    registry->GetCounter("weber.incremental.comparisons")
        .Add(comparisons_ - comparisons_before);
    registry->GetCounter("weber.incremental.merges")
        .Add(clusters_.merges() - merges_before);
    registry->GetCounter("weber.incremental.index_updates")
        .Add(index.updates - index_updates_before);
    registry->GetGauge("weber.incremental.live_entities")
        .Set(static_cast<double>(live_count()));
    registry->GetGauge("weber.incremental.index_tokens")
        .Set(static_cast<double>(index.tokens));
    registry->GetHistogram("weber.incremental.ingest_seconds")
        .Record(timer.ElapsedSeconds());
    registry->GetHistogram("weber.incremental.batch_entities")
        .Record(static_cast<double>(n));
    if (num_shards > 1) {
      size_t heaviest = *std::max_element(shard_entity_counts.begin(),
                                          shard_entity_counts.end());
      double mean = static_cast<double>(n) / static_cast<double>(num_shards);
      registry->GetHistogram("weber.serve.shard_imbalance")
          .Record(static_cast<double>(heaviest) / mean);
    }
  }
  return gids;
}

std::optional<incremental::IncrementalResolver::Resolution>
ShardedResolver::Resolve(model::EntityId id) {
  if (!alive(id)) return std::nullopt;
  clusters_.Refresh(row_of_.size());
  incremental::IncrementalResolver::Resolution resolution;
  resolution.representative = clusters_.Find(id);
  resolution.members = clusters_.MembersOf(resolution.representative);
  return resolution;
}

bool ShardedResolver::Remove(model::EntityId id) {
  return RemoveLocked(id, /*log=*/true);
}

bool ShardedResolver::RemoveLocked(model::EntityId id, bool log) {
  if (id >= row_of_.size()) return false;
  size_t s = ShardOf(id, options_.shards);
  Shard& shard = shards_[s];
  uint32_t row = row_of_[id];
  if (!shard.store.Tombstone(row)) return false;
  // The id's tokens may live on any token shard; the removed-set insert is
  // a no-op wherever the id was never posted.
  for (auto& index : token_shards_) index.Remove(id);
  if (shard.signatures.has_value()) shard.signatures->Release(row);
  clusters_.Retire(id);
  ++removed_;
  if (log && durable_) {
    storage::ByteWriter payload;
    payload.PutU64(osn_next_);
    payload.PutU64(uint64_t{1} << s);
    payload.PutU32(id);
    storage::Status status = shard.wal.Append(kServeRemove, payload.Take());
    WEBER_CHECK(status.ok())
        << "shard " << s << " WAL append failed: " << status.ToString();
  }
  ++osn_next_;
  if (obs::MetricsRegistry* registry = Registry()) {
    registry->GetCounter("weber.incremental.removed").Increment();
    registry->GetGauge("weber.incremental.live_entities")
        .Set(static_cast<double>(live_count()));
  }
  return true;
}

matching::Clusters ShardedResolver::Clusters() {
  matching::Clusters clusters = clusters_.Clusters(
      row_of_.size(), [this](model::EntityId id) { return alive(id); });
  if (obs::MetricsRegistry* registry = Registry()) {
    registry->GetGauge("weber.incremental.clusters")
        .Set(static_cast<double>(clusters.size()));
  }
  return clusters;
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

bool ShardedResolver::alive(model::EntityId id) const {
  if (id >= row_of_.size()) return false;
  return shards_[ShardOf(id, options_.shards)].store.alive(row_of_[id]);
}

const model::EntityDescription& ShardedResolver::DescriptionOf(
    model::EntityId id) const {
  return shards_[ShardOf(id, options_.shards)].store.at(row_of_[id]);
}

size_t ShardedResolver::live_count() const {
  size_t live = 0;
  for (const Shard& shard : shards_) live += shard.store.live_count();
  return live;
}

incremental::DeltaIndexStats ShardedResolver::IndexStats() const {
  incremental::DeltaIndexStats total;
  for (const auto& index : token_shards_) {
    const incremental::DeltaIndexStats& stats = index.stats();
    total.updates += stats.updates;
    total.full_builds += stats.full_builds;
    total.purged_tokens += stats.purged_tokens;
    total.tokens += stats.tokens;
  }
  return total;
}

uint64_t ShardedResolver::StateDigest() const {
  uint32_t crc = 0;
  storage::ByteWriter writer;
  writer.PutU64(row_of_.size());
  for (model::EntityId id = 0; id < row_of_.size(); ++id) {
    bool is_alive = alive(id);
    writer.PutU8(is_alive ? 1 : 0);
    if (is_alive) storage::EncodeDescription(DescriptionOf(id), &writer);
    if (writer.size() >= 1 << 20) {
      std::vector<uint8_t> chunk = writer.Take();
      crc = storage::Crc32c(chunk.data(), chunk.size(), crc);
    }
  }
  writer.PutU64(matches().size());
  for (const model::IdPair& pair : matches()) {
    writer.PutU32(pair.low);
    writer.PutU32(pair.high);
  }
  std::vector<uint8_t> chunk = writer.Take();
  crc = storage::Crc32c(chunk.data(), chunk.size(), crc);
  return crc;
}

blocking::BlockCollection ShardedResolver::IndexBlocks(
    const model::EntityCollection* collection) const {
  std::vector<blocking::Block> all;
  for (const auto& index : token_shards_) {
    for (blocking::Block& block : index.ToBlocks(collection).TakeBlocks()) {
      all.push_back(std::move(block));
    }
  }
  // Tokens are disjoint across shards, so one sort restores the global
  // token order the single-index export produces.
  std::sort(all.begin(), all.end(),
            [](const blocking::Block& a, const blocking::Block& b) {
              return a.key < b.key;
            });
  blocking::BlockCollection merged(collection);
  for (blocking::Block& block : all) merged.AddBlock(std::move(block));
  return merged;
}

model::EntityCollection ShardedResolver::CollectionSnapshot() const {
  model::EntityCollection collection;
  for (model::EntityId id = 0; id < row_of_.size(); ++id) {
    collection.Add(model::EntityDescription(DescriptionOf(id)));
  }
  return collection;
}

storage::Status ShardedResolver::Checkpoint() {
  if (!durable_) return storage::Status::Ok();
  for (Shard& shard : shards_) {
    if (!shard.wal.is_open()) continue;
    storage::Status status = shard.wal.Sync();
    if (!status.ok()) return status;
  }
  return storage::Status::Ok();
}

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

std::string ShardedResolver::ShardDir(size_t shard) const {
  char name[16];
  std::snprintf(name, sizeof(name), "shard-%02zu", shard);
  return options_.data_dir + "/" + name;
}

std::string ShardedResolver::WalPath(size_t shard) const {
  return ShardDir(shard) + "/wal-0";
}

std::string ShardedResolver::MetaPath() const {
  return options_.data_dir + "/serve-meta";
}

uint64_t ShardedResolver::ConfigFingerprint() const {
  incremental::ResolverOptions resolver_options;
  resolver_options.match_threshold = options_.match_threshold;
  resolver_options.index = options_.index;
  resolver_options.prepared_matching = options_.prepared_matching;
  uint64_t fingerprint = storage::DurableResolver::ConfigFingerprint(
      &matcher_.matcher(), resolver_options);
  return fingerprint ^ mapreduce::MixFingerprint(options_.shards);
}

storage::Status ShardedResolver::RecoverOrInit() {
  if (!storage::DirectoryExists(options_.data_dir)) {
    return storage::Status(storage::StorageErrc::kIoError,
                           "durability data_dir does not exist: " +
                               options_.data_dir);
  }
  if (storage::FileExists(MetaPath())) return RecoverExisting();
  return InitFresh();
}

storage::Status ShardedResolver::InitFresh() {
  for (size_t s = 0; s < options_.shards; ++s) {
    storage::Status status = storage::MakeDirectory(ShardDir(s));
    if (!status.ok()) return status;
    status = shards_[s].wal.Create(WalPath(s), 0, options_.fsync,
                                   options_.batch_fsync_interval);
    if (!status.ok()) return status;
  }
  storage::ByteWriter meta;
  meta.PutRaw(kMetaMagic, sizeof(kMetaMagic));
  meta.PutU32(kMetaVersion);
  meta.PutU32(static_cast<uint32_t>(options_.shards));
  meta.PutU64(ConfigFingerprint());
  storage::Status status = storage::AtomicWriteFile(MetaPath(), meta.Take());
  if (!status.ok()) return status;
  return storage::SyncDirectory(options_.data_dir);
}

storage::Status ShardedResolver::RecoverExisting() {
  std::vector<uint8_t> meta_bytes;
  storage::Status status = storage::ReadFileBytes(MetaPath(), &meta_bytes);
  if (!status.ok()) return status;
  storage::ByteReader meta(meta_bytes.data(), meta_bytes.size());
  char magic[8] = {};
  meta.GetRaw(magic, sizeof(magic));
  if (meta.failed() ||
      std::memcmp(magic, kMetaMagic, sizeof(kMetaMagic)) != 0) {
    return storage::Status(storage::StorageErrc::kBadMagic,
                           "serve-meta is not a weber serve manifest");
  }
  uint32_t version = meta.GetU32();
  if (version != kMetaVersion) {
    return storage::Status(storage::StorageErrc::kBadVersion,
                           "serve-meta version " + std::to_string(version));
  }
  uint32_t shards = meta.GetU32();
  uint64_t fingerprint = meta.GetU64();
  if (meta.failed() || !meta.Exhausted()) {
    return storage::Status(storage::StorageErrc::kCorruptHeader,
                           "serve-meta truncated");
  }
  if (shards != options_.shards || fingerprint != ConfigFingerprint()) {
    return storage::Status(
        storage::StorageErrc::kConfigMismatch,
        "serve-meta was written under a different configuration");
  }

  // Decode every shard's WAL.
  struct DecodedRecord {
    uint64_t osn = 0;
    uint64_t mask = 0;
    uint8_t type = 0;
    std::vector<std::pair<model::EntityId, model::EntityDescription>>
        entities;
    model::EntityId remove_id = 0;
    uint64_t frame_bytes = 0;
  };
  struct ShardLog {
    std::vector<DecodedRecord> records;
    uint64_t good_size = 0;
    uint64_t file_size = 0;
  };
  std::vector<ShardLog> logs(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    storage::WriteAheadLog::Contents contents;
    status = storage::WriteAheadLog::Read(WalPath(s), &contents);
    if (!status.ok()) return status;
    ShardLog& log = logs[s];
    log.good_size = contents.good_size;
    log.file_size = contents.good_size + contents.torn_bytes;
    uint64_t previous_osn = 0;
    bool first = true;
    for (const storage::WriteAheadLog::Record& record : contents.records) {
      DecodedRecord decoded;
      decoded.type = record.type;
      decoded.frame_bytes = 9 + record.payload.size();
      storage::ByteReader reader(record.payload.data(),
                                 record.payload.size());
      decoded.osn = reader.GetU64();
      decoded.mask = reader.GetU64();
      if (record.type == kServeIngest) {
        uint32_t count = reader.GetU32();
        for (uint32_t i = 0; i < count && !reader.failed(); ++i) {
          model::EntityId gid = reader.GetU32();
          decoded.entities.emplace_back(
              gid, storage::DecodeDescription(&reader));
        }
      } else if (record.type == kServeRemove) {
        decoded.remove_id = reader.GetU32();
      } else {
        return storage::Status(storage::StorageErrc::kWalCorrupt,
                               "unknown serve WAL record type " +
                                   std::to_string(record.type));
      }
      if (reader.failed() || !reader.Exhausted()) {
        return storage::Status(storage::StorageErrc::kWalCorrupt,
                               "undecodable serve WAL record in shard " +
                                   std::to_string(s));
      }
      if ((decoded.mask & (uint64_t{1} << s)) == 0 ||
          (!first && decoded.osn <= previous_osn)) {
        return storage::Status(storage::StorageErrc::kWalCorrupt,
                               "inconsistent osn sequence in shard " +
                                   std::to_string(s));
      }
      first = false;
      previous_osn = decoded.osn;
      log.records.push_back(std::move(decoded));
    }
  }

  // Group the records by osn and prove each batch complete: every shard
  // named in the participant mask contributed its record. An incomplete
  // batch is legal only as the global tail (the crash hit mid-batch; the
  // op never acked) — anywhere else the log is corrupt.
  struct PendingOp {
    uint64_t mask = 0;
    uint64_t seen = 0;
    uint8_t type = 0;
    std::vector<std::pair<model::EntityId, model::EntityDescription>>
        entities;
    model::EntityId remove_id = 0;
  };
  std::map<uint64_t, PendingOp> ops;
  for (size_t s = 0; s < options_.shards; ++s) {
    for (DecodedRecord& record : logs[s].records) {
      PendingOp& op = ops[record.osn];
      if (op.seen == 0) {
        op.mask = record.mask;
        op.type = record.type;
        op.remove_id = record.remove_id;
      } else if (op.mask != record.mask || op.type != record.type) {
        return storage::Status(storage::StorageErrc::kWalCorrupt,
                               "disagreeing records for osn " +
                                   std::to_string(record.osn));
      }
      op.seen |= uint64_t{1} << s;
      for (auto& entity : record.entities) {
        op.entities.push_back(std::move(entity));
      }
    }
  }
  uint64_t dropped_osn = 0;
  bool have_dropped = false;
  uint64_t expected_osn = 0;
  for (auto& [osn, op] : ops) {
    if (osn != expected_osn) {
      return storage::Status(storage::StorageErrc::kWalCorrupt,
                             "osn gap at " + std::to_string(osn));
    }
    ++expected_osn;
    if (op.seen == op.mask) continue;
    if (osn != ops.rbegin()->first) {
      return storage::Status(storage::StorageErrc::kWalCorrupt,
                             "incomplete batch at interior osn " +
                                 std::to_string(osn));
    }
    dropped_osn = osn;
    have_dropped = true;
  }

  // Replay the complete prefix in osn order through the normal ingest
  // path (logging suppressed), reassigning the identical gids.
  for (auto& [osn, op] : ops) {
    if (have_dropped && osn == dropped_osn) break;
    if (op.type == kServeIngest) {
      std::sort(op.entities.begin(), op.entities.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      auto next = static_cast<model::EntityId>(row_of_.size());
      std::vector<model::EntityDescription> replay_batch;
      replay_batch.reserve(op.entities.size());
      for (size_t i = 0; i < op.entities.size(); ++i) {
        if (op.entities[i].first !=
            next + static_cast<model::EntityId>(i)) {
          return storage::Status(storage::StorageErrc::kWalCorrupt,
                                 "non-contiguous gids at osn " +
                                     std::to_string(osn));
        }
        replay_batch.push_back(std::move(op.entities[i].second));
      }
      osn_next_ = osn;
      IngestLocked(std::move(replay_batch), /*log=*/false);
    } else {
      osn_next_ = osn;
      if (!RemoveLocked(op.remove_id, /*log=*/false)) {
        return storage::Status(storage::StorageErrc::kWalCorrupt,
                               "replayed remove of dead id at osn " +
                                   std::to_string(osn));
      }
    }
  }

  // Reopen the WALs for appending, truncating away both torn tails and
  // the dropped incomplete batch's records (each is by construction the
  // last record of its shard's log).
  for (size_t s = 0; s < options_.shards; ++s) {
    ShardLog& log = logs[s];
    uint64_t good = log.good_size;
    if (have_dropped && !log.records.empty() &&
        log.records.back().osn == dropped_osn) {
      good -= log.records.back().frame_bytes;
    }
    status = shards_[s].wal.OpenExisting(WalPath(s), good, log.file_size,
                                         options_.fsync,
                                         options_.batch_fsync_interval);
    if (!status.ok()) return status;
  }
  return storage::Status::Ok();
}

}  // namespace weber::serve
