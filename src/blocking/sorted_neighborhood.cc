#include "blocking/sorted_neighborhood.h"

#include <algorithm>
#include <numeric>

#include "text/normalizer.h"
#include "text/tokenizer.h"

namespace weber::blocking {

std::string SortedNeighborhoodKey(const model::EntityDescription& entity,
                                  const SortedOrderOptions& options) {
  if (!options.key_attribute.empty()) {
    auto value = entity.FirstValueOf(options.key_attribute);
    return value.has_value() ? text::Normalize(*value) : std::string();
  }
  // Schema-agnostic key: the two lexicographically smallest value tokens.
  std::vector<std::string> tokens = text::ValueTokens(entity);
  if (tokens.empty()) return {};
  std::sort(tokens.begin(), tokens.end());
  std::string key = tokens[0];
  if (tokens.size() > 1) {
    key.push_back(' ');
    key.append(tokens[1]);
  }
  return key;
}

std::vector<model::EntityId> SortedOrder(
    const model::EntityCollection& collection,
    const SortedOrderOptions& options, std::vector<std::string>* keys_out) {
  std::vector<std::string> keys(collection.size());
  for (model::EntityId id = 0; id < collection.size(); ++id) {
    keys[id] = SortedNeighborhoodKey(collection[id], options);
  }
  std::vector<model::EntityId> order(collection.size());
  std::iota(order.begin(), order.end(), model::EntityId{0});
  std::sort(order.begin(), order.end(),
            [&keys](model::EntityId a, model::EntityId b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              return a < b;
            });
  if (keys_out != nullptr) {
    keys_out->resize(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      (*keys_out)[i] = keys[order[i]];
    }
  }
  return order;
}

BlockCollection SortedNeighborhood::BuildBlocks(
    const model::EntityCollection& collection) const {
  BlockCollection result(&collection);
  if (window_ < 2 || collection.size() < 2) return result;
  std::vector<model::EntityId> order = SortedOrder(collection, options_);
  for (size_t start = 0; start + 1 < order.size(); ++start) {
    size_t end = std::min(start + window_, order.size());
    Block block;
    block.key = "w" + std::to_string(start);
    block.entities.assign(order.begin() + start, order.begin() + end);
    result.AddBlock(std::move(block));
  }
  return result;
}

BlockCollection MultiPassSortedNeighborhood::BuildBlocks(
    const model::EntityCollection& collection) const {
  BlockCollection result(&collection);
  for (size_t pass = 0; pass < passes_.size(); ++pass) {
    std::vector<Block> single =
        SortedNeighborhood(window_, passes_[pass]).Build(collection)
            .TakeBlocks();
    for (Block& block : single) {
      block.key = "p" + std::to_string(pass) + block.key;
      result.AddBlock(std::move(block));
    }
  }
  return result;
}

}  // namespace weber::blocking
