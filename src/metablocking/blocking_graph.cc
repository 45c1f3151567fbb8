#include "metablocking/blocking_graph.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "core/executor.h"
#include "util/check.h"

namespace weber::metablocking {

std::string ToString(WeightScheme scheme) {
  switch (scheme) {
    case WeightScheme::kCbs:
      return "CBS";
    case WeightScheme::kEcbs:
      return "ECBS";
    case WeightScheme::kJs:
      return "JS";
    case WeightScheme::kEjs:
      return "EJS";
    case WeightScheme::kArcs:
      return "ARCS";
  }
  return "?";
}

EdgeWeigher::EdgeWeigher(WeightScheme scheme,
                         const blocking::BlockCollection& blocks,
                         std::vector<uint32_t> degree)
    : scheme_(scheme),
      index_(blocks.Index()),
      degree_(std::move(degree)),
      num_blocks_(std::max<double>(blocks.NumBlocks(), 1.0)),
      num_nodes_(std::max<double>(index_.NumEntities(), 1.0)) {
  inverse_cardinality_.reserve(blocks.NumBlocks());
  for (const blocking::Block& block : blocks.blocks()) {
    uint64_t cardinality = blocks.Cardinality(block);
    inverse_cardinality_.push_back(
        cardinality > 0 ? 1.0 / static_cast<double>(cardinality) : 0.0);
  }
}

double EdgeWeigher::Weight(model::EntityId a, model::EntityId b,
                           const SharedBlocks& shared) const {
  // Every scheme is symmetric; one operand order keeps the floating-point
  // products bit-equal whichever endpoint asks.
  if (a > b) std::swap(a, b);
  double blocks_a = static_cast<double>(index_.BlocksOf(a).size());
  double blocks_b = static_cast<double>(index_.BlocksOf(b).size());
  double union_size = blocks_a + blocks_b - shared.count;
  double js = union_size > 0 ? shared.count / union_size : 0.0;
  switch (scheme_) {
    case WeightScheme::kCbs:
      return shared.count;
    case WeightScheme::kEcbs:
      return shared.count * std::log(num_blocks_ / blocks_a) *
             std::log(num_blocks_ / blocks_b);
    case WeightScheme::kJs:
      return js;
    case WeightScheme::kEjs: {
      WEBER_DCHECK_LT(b, degree_.size()) << "EJS weight without node degrees";
      double deg_a = std::max<uint32_t>(degree_[a], 1);
      double deg_b = std::max<uint32_t>(degree_[b], 1);
      return js * std::log(num_nodes_ / deg_a) * std::log(num_nodes_ / deg_b);
    }
    case WeightScheme::kArcs:
      return shared.arcs_sum;
  }
  return 0.0;
}

namespace {

// The blocks two ascending block lists share, by one merge scan.
SharedBlocks ScanSharedBlocks(std::span<const uint32_t> list_a,
                              std::span<const uint32_t> list_b,
                              const EdgeWeigher& weigher) {
  SharedBlocks shared;
  size_t i = 0;
  size_t j = 0;
  while (i < list_a.size() && j < list_b.size()) {
    if (list_a[i] == list_b[j]) {
      weigher.AddShared(list_a[i], shared);
      ++i;
      ++j;
    } else if (list_a[i] < list_b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return shared;
}

}  // namespace

BlockingGraph BlockingGraph::Build(const blocking::BlockCollection& blocks,
                                   WeightScheme scheme) {
  BlockingGraph graph;
  graph.scheme_ = scheme;
  const blocking::BlockIndex& index = blocks.Index();
  graph.num_nodes_ = index.NumEntities();

  // First pass: the distinct pairs. Needed up front for EJS degrees.
  std::vector<model::IdPair> pairs = blocks.CandidatePairs();

  std::vector<uint32_t> degree;
  if (scheme == WeightScheme::kEjs) {
    degree.assign(graph.num_nodes_, 0);
    for (const model::IdPair& pair : pairs) {
      ++degree[pair.low];
      ++degree[pair.high];
    }
  }
  const EdgeWeigher weigher(scheme, blocks, std::move(degree));

  // Each edge's weight depends only on the two endpoints' (read-only)
  // block lists, so the pairs parallelize into fixed slots: the edge list
  // is bit-equal to the serial scan for any thread count.
  graph.edges_.resize(pairs.size());
  core::Executor::Shared().ParallelFor(pairs.size(), [&](size_t e) {
    const model::IdPair& pair = pairs[e];
    WEBER_DCHECK_LT(pair.low, pair.high)
        << "blocking graph edge is a self-loop or unnormalised pair";
    WEBER_DCHECK_LT(pair.high, index.NumEntities())
        << "edge endpoint outside the node range";
    SharedBlocks shared = ScanSharedBlocks(
        index.BlocksOf(pair.low), index.BlocksOf(pair.high), weigher);
    graph.edges_[e] = {pair.low, pair.high,
                       weigher.Weight(pair.low, pair.high, shared)};
  });
  return graph;
}

double BlockingGraph::MeanWeight() const {
  if (edges_.empty()) return 0.0;
  double total = 0.0;
  for (const WeightedEdge& edge : edges_) total += edge.weight;
  return total / static_cast<double>(edges_.size());
}

std::vector<std::vector<uint32_t>> BlockingGraph::NodeEdges() const {
  std::vector<std::vector<uint32_t>> index(num_nodes_);
  for (uint32_t e = 0; e < edges_.size(); ++e) {
    WEBER_DCHECK_LT(edges_[e].b, index.size())
        << "edge " << e << " names a node the graph does not have";
    index[edges_[e].a].push_back(e);
    index[edges_[e].b].push_back(e);
  }
  return index;
}

}  // namespace weber::metablocking
