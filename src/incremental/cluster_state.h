#ifndef WEBER_INCREMENTAL_CLUSTER_STATE_H_
#define WEBER_INCREMENTAL_CLUSTER_STATE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "matching/clustering.h"
#include "model/entity.h"
#include "model/ground_truth.h"
#include "util/union_find.h"

namespace weber::incremental {

/// The resolution a streaming resolver maintains: a union-find forest over
/// every issued id, member lists for non-singleton roots, and the accepted
/// match edges in commit order.
///
/// Retiring an entity drops its edges and marks the forest stale; the next
/// Refresh re-derives it from the surviving edges, so links that were only
/// transitive through the retired entity dissolve. Shared by
/// IncrementalResolver and serve::ShardedResolver, whose digests both
/// cover matches() in commit order.
class ClusterState {
 public:
  /// Makes room for ids < n (new ids are singletons).
  void Grow(size_t n) { forest_.Grow(n); }

  /// The root of an id's cluster, and the size of that cluster.
  model::EntityId Find(model::EntityId id) { return forest_.Find(id); }
  size_t SizeOf(model::EntityId id) { return forest_.SizeOf(id); }

  /// Records an accepted edge and unions its endpoints' clusters (counted
  /// as a merge when they were distinct).
  void Commit(const model::IdPair& edge);

  /// Records the edge between two distinct roots and unions them; `ra`
  /// survives a size tie. Returns the merged root.
  model::EntityId CommitRoots(model::EntityId ra, model::EntityId rb);

  /// Drops every edge touching `id`. Returns true when one was dropped,
  /// i.e. when the forest is now stale.
  bool Retire(model::EntityId id);

  /// Rebuilds the forest over ids < n from the surviving edges when a
  /// Retire or Reset left it stale.
  void Refresh(size_t n) {
    if (dirty_) Rebuild(n);
  }

  /// Live members of a root, ascending (singleton -> {root}).
  const std::vector<model::EntityId>& MembersOf(model::EntityId root) {
    auto it = members_.find(root);
    if (it != members_.end()) return it->second;
    singleton_scratch_.assign(1, root);
    return singleton_scratch_;
  }

  /// Every cluster over the ids < n that `alive(id)` accepts (singletons
  /// included, members ascending, clusters in order of their smallest
  /// member).
  template <typename Alive>
  matching::Clusters Clusters(size_t n, const Alive& alive) {
    Refresh(n);
    matching::Clusters clusters;
    std::unordered_map<model::EntityId, size_t> slot_of_root;
    for (model::EntityId id = 0; id < n; ++id) {
      if (!alive(id)) continue;
      model::EntityId root = forest_.Find(id);
      auto [it, inserted] = slot_of_root.try_emplace(root, clusters.size());
      if (inserted) clusters.emplace_back();
      clusters[it->second].push_back(id);
    }
    return clusters;
  }

  /// Replaces the edges and the merge count (snapshot restore); the forest
  /// is rebuilt on the next Refresh.
  void Reset(std::vector<model::IdPair> matches, uint64_t merges);

  /// Accepted edges in commit order, minus retired ones.
  const std::vector<model::IdPair>& matches() const { return matches_; }
  uint64_t merges() const { return merges_; }

 private:
  void Rebuild(size_t n);
  model::EntityId Merge(model::EntityId ra, model::EntityId rb);

  util::UnionFind forest_{0};
  bool dirty_ = false;
  // Member lists for non-singleton roots; singletons are implicit.
  std::unordered_map<model::EntityId, std::vector<model::EntityId>> members_;
  std::vector<model::EntityId> singleton_scratch_;
  std::vector<model::IdPair> matches_;
  uint64_t merges_ = 0;
};

}  // namespace weber::incremental

#endif  // WEBER_INCREMENTAL_CLUSTER_STATE_H_
