#include "incremental/delta_index.h"

#include <algorithm>
#include <map>

#include "text/tokenizer.h"
#include "util/check.h"

namespace weber::incremental {

std::vector<std::string> IncrementalTokenIndex::TokensOf(
    const model::EntityDescription& description) const {
  std::vector<std::string> tokens =
      text::ValueTokens(description, options_.normalize);
  if (options_.min_token_length > 1) {
    std::erase_if(tokens, [this](const std::string& token) {
      return token.size() < options_.min_token_length;
    });
  }
  return tokens;
}

template <typename Emit>
void IncrementalTokenIndex::Post(model::EntityId id, const std::string& token,
                                 bool emit_candidates, Emit&& emit) {
  Posting& posting = postings_[token];
  if (posting.purged) return;
  ++stats_.updates;
  // Lazy compaction: drop removed ids the next time a posting is touched,
  // so memory tracks the live set without a global sweep — and only when
  // an id was removed since this posting's last compaction.
  if (posting.compacted_at != removed_.size()) {
    std::erase_if(posting.entities, [this](model::EntityId e) {
      return removed_.contains(e);
    });
    posting.compacted_at = removed_.size();
  }
  if (emit_candidates) {
    for (model::EntityId other : posting.entities) {
      WEBER_DCHECK_NE(other, id)
          << "entity absorbed twice without Remove; would emit a self-pair";
      if (seen_.Insert(other)) emit(other);
    }
  }
  posting.entities.push_back(id);
  if (options_.max_block_size != 0 &&
      posting.entities.size() > options_.max_block_size) {
    posting.purged = true;
    posting.entities.clear();
    posting.entities.shrink_to_fit();
    ++stats_.purged_tokens;
  }
}

void IncrementalTokenIndex::Absorb(model::EntityId id,
                                   const model::EntityDescription& description,
                                   std::vector<model::IdPair>* new_pairs) {
  id_bound_ = std::max<size_t>(id_bound_, size_t{id} + 1);
  seen_.Reset(id_bound_);
  for (const std::string& token : TokensOf(description)) {
    Post(id, token, new_pairs != nullptr, [&](model::EntityId other) {
      new_pairs->push_back(model::IdPair::Of(other, id));
    });
  }
  stats_.tokens = postings_.size();
}

void IncrementalTokenIndex::AbsorbTokens(
    model::EntityId id, const std::vector<std::string>& tokens,
    std::span<const uint32_t> positions,
    std::vector<PositionedCandidate>* candidates) {
  // Per-call dedup: positions ascend and postings iterate in absorb
  // (ascending-id) order, so first-insertion-wins keeps each other-id's
  // minimal (position, posting-order) occurrence — the one the merge
  // across indexes must surface.
  id_bound_ = std::max<size_t>(id_bound_, size_t{id} + 1);
  seen_.Reset(id_bound_);
  for (uint32_t position : positions) {
    Post(id, tokens[position], candidates != nullptr,
         [&](model::EntityId other) {
           candidates->push_back(PositionedCandidate{other, position});
         });
  }
  stats_.tokens = postings_.size();
}

void IncrementalTokenIndex::Query(
    const model::EntityDescription& description,
    std::vector<model::EntityId>* candidates) {
  seen_.Reset(id_bound_);
  for (const std::string& token : TokensOf(description)) {
    auto it = postings_.find(token);
    if (it == postings_.end() || it->second.purged) continue;
    for (model::EntityId other : it->second.entities) {
      if (removed_.contains(other)) continue;
      if (seen_.Insert(other)) candidates->push_back(other);
    }
  }
}

void IncrementalTokenIndex::Remove(model::EntityId id) {
  removed_.insert(id);
}

blocking::BlockCollection IncrementalTokenIndex::ToBlocks(
    const model::EntityCollection* collection) const {
  // Token-sorted export so the result is byte-equal to the batch builder's
  // std::map iteration.
  std::map<std::string, const Posting*> sorted;
  for (const auto& [token, posting] : postings_) {
    if (!posting.purged) sorted.emplace(token, &posting);
  }
  blocking::BlockCollection result(collection);
  for (const auto& [token, posting] : sorted) {
    blocking::Block block;
    block.key = token;
    block.entities.reserve(posting->entities.size());
    for (model::EntityId id : posting->entities) {
      if (!removed_.contains(id)) block.entities.push_back(id);
    }
    result.AddBlock(std::move(block));
  }
  return result;
}

void IncrementalSortedNeighborhood::Absorb(
    model::EntityId id, const model::EntityDescription& description,
    std::vector<model::IdPair>* new_pairs) {
  std::string key = blocking::SortedNeighborhoodKey(description, options_);
  auto [it, inserted] = order_.emplace(key, id);
  if (!inserted) return;
  keys_.emplace(id, std::move(key));
  if (window_ < 2 || new_pairs == nullptr) return;
  auto backward = it;
  for (size_t i = 0; i + 1 < window_ && backward != order_.begin(); ++i) {
    --backward;
    new_pairs->push_back(model::IdPair::Of(backward->second, id));
  }
  auto forward = std::next(it);
  for (size_t i = 0; i + 1 < window_ && forward != order_.end();
       ++i, ++forward) {
    new_pairs->push_back(model::IdPair::Of(forward->second, id));
  }
}

void IncrementalSortedNeighborhood::Remove(model::EntityId id) {
  auto it = keys_.find(id);
  if (it == keys_.end()) return;
  order_.erase({it->second, id});
  keys_.erase(it);
}

}  // namespace weber::incremental
