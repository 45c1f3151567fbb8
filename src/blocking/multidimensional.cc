#include "blocking/multidimensional.h"

#include <unordered_map>

namespace weber::blocking {

BlockCollection AggregateMultidimensional(
    const std::vector<const BlockCollection*>& dimensions,
    size_t min_agreement) {
  const model::EntityCollection* collection = nullptr;
  for (const BlockCollection* dimension : dimensions) {
    if (dimension != nullptr && dimension->collection() != nullptr) {
      collection = dimension->collection();
      break;
    }
  }
  std::unordered_map<model::IdPair, uint32_t, model::IdPairHash> agreement;
  for (const BlockCollection* dimension : dimensions) {
    if (dimension == nullptr) continue;
    for (const model::IdPair& pair : dimension->CandidatePairs()) {
      ++agreement[pair];
    }
  }
  BlockCollection result(collection);
  min_agreement = std::max<size_t>(min_agreement, 1);
  for (const auto& [pair, votes] : agreement) {
    if (votes < min_agreement) continue;
    Block block;
    block.key = std::to_string(pair.low) + "_" + std::to_string(pair.high) +
                "@" + std::to_string(votes);
    block.entities = {pair.low, pair.high};
    result.AddBlock(std::move(block));
  }
  return result;
}

BlockCollection MultidimensionalBlocking::BuildBlocks(
    const model::EntityCollection& collection) const {
  std::vector<BlockCollection> built;
  built.reserve(dimensions_.size());
  for (const Blocker* blocker : dimensions_) {
    built.push_back(blocker->Build(collection));
  }
  std::vector<const BlockCollection*> views;
  views.reserve(built.size());
  for (const BlockCollection& dimension : built) {
    views.push_back(&dimension);
  }
  return AggregateMultidimensional(views, min_agreement_);
}

}  // namespace weber::blocking
