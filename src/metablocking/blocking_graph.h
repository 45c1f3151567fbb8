#ifndef WEBER_METABLOCKING_BLOCKING_GRAPH_H_
#define WEBER_METABLOCKING_BLOCKING_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "blocking/block.h"
#include "model/ground_truth.h"

namespace weber::metablocking {

/// Edge-weighting schemes for the blocking graph (Papadakis et al.,
/// TKDE'14). All weights are "higher = more likely to match".
enum class WeightScheme {
  /// Common Blocks Scheme: the number of blocks the pair co-occurs in.
  kCbs,
  /// Enhanced CBS: CBS scaled by log(|B| / |B_x|) for both endpoints,
  /// discounting entities that appear in many blocks.
  kEcbs,
  /// Jaccard Scheme: |common blocks| / |union of the two block lists|.
  kJs,
  /// Enhanced JS: JS scaled by log(|V| / degree(x)) for both endpoints.
  kEjs,
  /// Aggregate Reciprocal Comparisons Scheme: sum over common blocks of
  /// 1 / cardinality(block), favouring pairs that co-occur in small
  /// (discriminative) blocks.
  kArcs,
};

/// Returns the canonical short name of a scheme ("CBS", "EJS", ...).
std::string ToString(WeightScheme scheme);

/// A weighted edge of the blocking graph: one distinct candidate pair.
struct WeightedEdge {
  model::EntityId a;
  model::EntityId b;
  double weight;

  model::IdPair pair() const { return model::IdPair::Of(a, b); }
};

/// The heaviest-first edge order, ties broken by (a, b) ascending: the one
/// order every pruning scheme ranks and returns edges in.
inline bool HeavierFirst(const WeightedEdge& x, const WeightedEdge& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

/// The blocks one pair shares, as far as its edge weight needs them.
struct SharedBlocks {
  uint32_t count = 0;
  /// Sum over the shared blocks of 1 / cardinality, added in ascending
  /// block order.
  double arcs_sum = 0.0;
};

/// The edge-weight rule of one scheme over one block collection. Both
/// BlockingGraph::Build and the parallel meta-blocking in mapreduce/ weigh
/// their edges through it, so the two weigh every pair alike.
class EdgeWeigher {
 public:
  /// `degree` holds each node's degree in the blocking graph; only EJS
  /// reads it. `blocks` must outlive the weigher, unchanged.
  EdgeWeigher(WeightScheme scheme, const blocking::BlockCollection& blocks,
              std::vector<uint32_t> degree);

  /// Counts block `b` as one more block that a pair shares. Callers add
  /// a pair's blocks in ascending order, so that ARCS sums are bit-equal.
  void AddShared(uint32_t b, SharedBlocks& shared) const {
    ++shared.count;
    shared.arcs_sum += inverse_cardinality_[b];
  }

  /// The weight of the edge between `a` and `b`, which share `shared`.
  double Weight(model::EntityId a, model::EntityId b,
                const SharedBlocks& shared) const;

 private:
  WeightScheme scheme_;
  const blocking::BlockIndex& index_;
  std::vector<double> inverse_cardinality_;
  std::vector<uint32_t> degree_;
  double num_blocks_;
  double num_nodes_;
};

/// The blocking graph of a block collection: one node per entity, one
/// undirected edge per distinct co-occurring pair (redundant comparisons
/// collapse into a single edge), weighted by the chosen scheme.
///
/// Meta-blocking operates on this graph: pruning its low-weight edges
/// discards comparisons that are unlikely to be matches.
class BlockingGraph {
 public:
  /// Builds the graph from a block collection. Cost is linear in the
  /// number of block assignments plus the number of distinct pairs.
  static BlockingGraph Build(const blocking::BlockCollection& blocks,
                             WeightScheme scheme);

  const std::vector<WeightedEdge>& edges() const { return edges_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }

  /// Mean edge weight (0 for an empty graph).
  double MeanWeight() const;

  /// The per-node adjacency index: for node v, the indices into edges()
  /// of the edges incident to v.
  std::vector<std::vector<uint32_t>> NodeEdges() const;

  WeightScheme scheme() const { return scheme_; }

 private:
  std::vector<WeightedEdge> edges_;
  size_t num_nodes_ = 0;
  WeightScheme scheme_ = WeightScheme::kCbs;
};

}  // namespace weber::metablocking

#endif  // WEBER_METABLOCKING_BLOCKING_GRAPH_H_
