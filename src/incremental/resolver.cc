#include "incremental/resolver.h"

#include <algorithm>
#include <utility>

#include "core/executor.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace weber::incremental {

IncrementalResolver::IncrementalResolver(const matching::Matcher* matcher,
                                         ResolverOptions options)
    : matcher_(matcher, options.match_threshold),
      options_(std::move(options)),
      token_index_(options_.index) {
  if (options_.sn_window >= 2) {
    sn_index_ = std::make_unique<IncrementalSortedNeighborhood>(
        options_.sn_window, options_.sn_options);
  }
  if (options_.prepared_matching && matching::Preparable(*matcher)) {
    signatures_.emplace(
        matching::SignatureStore(matching::OptionsFor(*matcher)));
    signatures_->SetDescriptionProvider(
        [this](model::EntityId id) -> const model::EntityDescription* {
          return store_.alive(id) ? &store_.at(id) : nullptr;
        });
    // Bind the prepared counters to the configured registry (falls through
    // to the caller's ambient one when options_.metrics is null).
    obs::ScopedRegistry attach(options_.metrics);
    prepared_ = matching::Prepare(matcher_.matcher(), *signatures_);
    if (prepared_ == nullptr) signatures_.reset();  // e.g. OracleMatcher.
  }
}

obs::MetricsRegistry* IncrementalResolver::Registry() const {
  return options_.metrics != nullptr ? options_.metrics : obs::Current();
}

const model::EntityDescription& IncrementalResolver::RepOf(
    model::EntityId root) {
  const std::vector<model::EntityId>& members = clusters_.MembersOf(root);
  if (members.size() == 1) return store_.at(root);
  auto cached = rep_cache_.find(root);
  if (cached != rep_cache_.end()) return *cached->second;
  // Merge in ascending id order: deterministic regardless of the merge
  // history that produced the cluster.
  auto rep = std::make_unique<model::EntityDescription>(
      store_.at(members.front()));
  for (size_t i = 1; i < members.size(); ++i) {
    rep->MergeFrom(store_.at(members[i]));
  }
  const model::EntityDescription& result = *rep;
  rep_cache_.emplace(root, std::move(rep));
  return result;
}

void IncrementalResolver::ScoreRoots(model::EntityId ra, model::EntityId rb,
                                     std::vector<model::EntityId>* requeue) {
  model::IdPair key = model::IdPair::Of(ra, rb);
  std::pair<uint32_t, uint32_t> sizes{
      static_cast<uint32_t>(clusters_.SizeOf(key.low)),
      static_cast<uint32_t>(clusters_.SizeOf(key.high))};
  auto [it, inserted] = scored_roots_.try_emplace(key, sizes);
  if (!inserted) {
    if (it->second == sizes) return;  // Unchanged since last scored.
    it->second = sizes;
  }
  ++comparisons_;
  bool matched = matcher_.Matches(RepOf(ra), RepOf(rb));
  if (observer_) observer_(key, matched);
  if (matched) {
    rep_cache_.erase(ra);
    rep_cache_.erase(rb);
    requeue->push_back(clusters_.CommitRoots(ra, rb));
  }
}

void IncrementalResolver::ResolveBatchPropagating(
    const std::vector<model::IdPair>& candidates) {
  // R-Swoosh semantics: strictly serial, every comparison sees the merged
  // representatives produced by earlier ones, and each merge re-enters
  // the queue for re-blocking (iterative/rswoosh.cc compares against the
  // full resolved set; here the delta index narrows that to clusters
  // sharing a token).
  std::vector<model::EntityId> requeue;
  std::vector<model::EntityId> probe;
  for (const model::IdPair& pair : candidates) {
    model::EntityId ra = clusters_.Find(pair.low);
    model::EntityId rb = clusters_.Find(pair.high);
    if (ra == rb) continue;  // Already resolved together: merge saving.
    ScoreRoots(ra, rb, &requeue);
    while (!requeue.empty()) {
      model::EntityId root = clusters_.Find(requeue.back());
      requeue.pop_back();
      ++requeues_;
      probe.clear();
      token_index_.Query(RepOf(root), &probe);
      for (model::EntityId other : probe) {
        if (!store_.alive(other)) continue;
        model::EntityId merged_root = clusters_.Find(root);
        model::EntityId other_root = clusters_.Find(other);
        if (merged_root == other_root) continue;
        ScoreRoots(merged_root, other_root, &requeue);
      }
    }
  }
}

std::vector<model::EntityId> IncrementalResolver::Ingest(
    std::vector<model::EntityDescription> batch) {
  util::Timer timer;
  clusters_.Refresh(store_.size());
  uint64_t index_updates_before = token_index_.stats().updates;
  std::vector<model::EntityId> ids;
  ids.reserve(batch.size());
  for (model::EntityDescription& description : batch) {
    ids.push_back(store_.Append(std::move(description)));
  }
  clusters_.Grow(store_.size());
  if (signatures_.has_value()) {
    for (model::EntityId id : ids) signatures_->Absorb(id, store_.at(id));
  }

  // Delta blocking: absorb each new entity in id order; every index emits
  // only pairs that involve the entity being absorbed, so the slice per
  // entity is deduplicated locally and the whole list stays free of
  // repeats across batches by construction.
  std::vector<model::IdPair> candidates;
  for (model::EntityId id : ids) {
    size_t first = candidates.size();
    token_index_.Absorb(id, store_.at(id), &candidates);
    if (sn_index_ != nullptr) {
      sn_index_->Absorb(id, store_.at(id), &candidates);
      std::sort(candidates.begin() + static_cast<int64_t>(first),
                candidates.end());
      candidates.erase(
          std::unique(candidates.begin() + static_cast<int64_t>(first),
                      candidates.end()),
          candidates.end());
    }
  }
  candidates_ += candidates.size();

  uint64_t comparisons_before = comparisons_;
  uint64_t merges_before = clusters_.merges();
  if (options_.merge_propagation) {
    ResolveBatchPropagating(candidates);
  } else if (!candidates.empty()) {
    // Parallel scoring, ordered commit — the RunProgressive pattern. The
    // verdicts only depend on the immutable stored descriptions (or their
    // interned signatures, which score bit-equal), so any chunking of the
    // loop commits the identical result.
    std::vector<char> verdicts(candidates.size(), 0);
    auto score = [&](size_t i) {
      const model::IdPair& pair = candidates[i];
      bool matched =
          prepared_ != nullptr
              ? prepared_->Matches(pair.low, pair.high, matcher_.threshold())
              : matcher_.Matches(store_.at(pair.low), store_.at(pair.high));
      verdicts[i] = matched ? 1 : 0;
    };
    if (candidates.size() == 1) {
      score(0);
    } else {
      core::Executor::Shared().ParallelFor(candidates.size(), score);
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      bool matched = verdicts[i] != 0;
      ++comparisons_;
      if (observer_) observer_(candidates[i], matched);
      if (matched) clusters_.Commit(candidates[i]);
    }
  }
  ++batches_;

  if (obs::MetricsRegistry* registry = Registry()) {
    const DeltaIndexStats& index = token_index_.stats();
    registry->GetCounter("weber.incremental.ingested").Add(ids.size());
    registry->GetCounter("weber.incremental.batches").Increment();
    registry->GetCounter("weber.incremental.candidates")
        .Add(candidates.size());
    registry->GetCounter("weber.incremental.comparisons")
        .Add(comparisons_ - comparisons_before);
    registry->GetCounter("weber.incremental.merges")
        .Add(clusters_.merges() - merges_before);
    // Delta-index proof-of-work counters: updates grows by at most the
    // batch's token count per ingest; full_builds stays 0 on this path.
    registry->GetCounter("weber.incremental.index_updates")
        .Add(index.updates - index_updates_before);
    registry->GetCounter("weber.incremental.index_full_builds")
        .Add(index.full_builds);
    registry->GetGauge("weber.incremental.live_entities")
        .Set(static_cast<double>(store_.live_count()));
    registry->GetGauge("weber.incremental.index_tokens")
        .Set(static_cast<double>(index.tokens));
    registry->GetHistogram("weber.incremental.ingest_seconds")
        .Record(timer.ElapsedSeconds());
    registry->GetHistogram("weber.incremental.batch_entities")
        .Record(static_cast<double>(ids.size()));
    if (signatures_.has_value()) {
      registry->GetGauge("weber.matching.signature.arena_bytes")
          .Set(static_cast<double>(signatures_->ArenaBytes()));
      registry->GetGauge("weber.matching.signature.vocabulary")
          .Set(static_cast<double>(signatures_->vocabulary_size()));
      registry->GetGauge("weber.matching.signature.released_bytes")
          .Set(static_cast<double>(signatures_->released_bytes()));
    }
  }
  return ids;
}

std::optional<IncrementalResolver::Resolution> IncrementalResolver::Resolve(
    model::EntityId id) {
  if (!store_.alive(id)) return std::nullopt;
  clusters_.Refresh(store_.size());
  Resolution resolution;
  resolution.representative = clusters_.Find(id);
  resolution.members = clusters_.MembersOf(resolution.representative);
  return resolution;
}

bool IncrementalResolver::Remove(model::EntityId id) {
  if (!store_.Tombstone(id)) return false;
  token_index_.Remove(id);
  if (sn_index_ != nullptr) sn_index_->Remove(id);
  if (signatures_.has_value()) signatures_->Release(id);
  if (clusters_.Retire(id)) {
    rep_cache_.clear();
    scored_roots_.clear();
  }
  ++removed_;
  if (obs::MetricsRegistry* registry = Registry()) {
    registry->GetCounter("weber.incremental.removed").Increment();
    registry->GetGauge("weber.incremental.live_entities")
        .Set(static_cast<double>(store_.live_count()));
  }
  return true;
}

matching::Clusters IncrementalResolver::Clusters() {
  matching::Clusters clusters = clusters_.Clusters(
      store_.size(), [this](model::EntityId id) { return store_.alive(id); });
  if (obs::MetricsRegistry* registry = Registry()) {
    registry->GetGauge("weber.incremental.clusters")
        .Set(static_cast<double>(clusters.size()));
  }
  return clusters;
}

}  // namespace weber::incremental
