#include "incremental/cluster_state.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace weber::incremental {

void ClusterState::Commit(const model::IdPair& edge) {
  matches_.push_back(edge);
  model::EntityId ra = forest_.Find(edge.low);
  model::EntityId rb = forest_.Find(edge.high);
  if (ra != rb) {
    Merge(ra, rb);
    ++merges_;
  }
}

model::EntityId ClusterState::CommitRoots(model::EntityId ra,
                                          model::EntityId rb) {
  matches_.push_back(model::IdPair::Of(ra, rb));
  ++merges_;
  return Merge(ra, rb);
}

bool ClusterState::Retire(model::EntityId id) {
  size_t before = matches_.size();
  std::erase_if(matches_, [id](const model::IdPair& pair) {
    return pair.low == id || pair.high == id;
  });
  // Only a clustered entity can change anyone else's resolution; dropping
  // a singleton leaves the forest exact.
  if (matches_.size() == before) return false;
  dirty_ = true;
  return true;
}

void ClusterState::Reset(std::vector<model::IdPair> matches,
                         uint64_t merges) {
  matches_ = std::move(matches);
  merges_ = merges;
  members_.clear();
  dirty_ = true;
}

void ClusterState::Rebuild(size_t n) {
  dirty_ = false;
  forest_ = util::UnionFind(n);
  members_.clear();
  // matches_ only holds edges between live entities (Retire drops the
  // rest), so the surviving forest is their transitive closure.
  for (const model::IdPair& pair : matches_) {
    model::EntityId ra = forest_.Find(pair.low);
    model::EntityId rb = forest_.Find(pair.high);
    if (ra != rb) Merge(ra, rb);
  }
}

model::EntityId ClusterState::Merge(model::EntityId ra, model::EntityId rb) {
  auto take = [this](model::EntityId root) {
    auto it = members_.find(root);
    if (it == members_.end()) return std::vector<model::EntityId>{root};
    std::vector<model::EntityId> members = std::move(it->second);
    members_.erase(it);
    return members;
  };
  std::vector<model::EntityId> ma = take(ra);
  std::vector<model::EntityId> mb = take(rb);
  std::vector<model::EntityId> merged;
  merged.reserve(ma.size() + mb.size());
  std::merge(ma.begin(), ma.end(), mb.begin(), mb.end(),
             std::back_inserter(merged));
  forest_.Union(ra, rb);
  model::EntityId root = forest_.Find(ra);
  members_[root] = std::move(merged);
  return root;
}

}  // namespace weber::incremental
