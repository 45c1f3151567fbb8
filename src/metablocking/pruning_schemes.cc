#include "metablocking/pruning_schemes.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/executor.h"
#include "obs/metrics.h"

namespace weber::metablocking {

std::string ToString(PruningScheme scheme) {
  switch (scheme) {
    case PruningScheme::kWep:
      return "WEP";
    case PruningScheme::kCep:
      return "CEP";
    case PruningScheme::kWnp:
      return "WNP";
    case PruningScheme::kCnp:
      return "CNP";
  }
  return "?";
}

namespace {

std::vector<WeightedEdge> SortHeaviestFirst(std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end(), HeavierFirst);
  return edges;
}

std::vector<WeightedEdge> PruneWep(const BlockingGraph& graph) {
  double threshold = graph.MeanWeight();
  std::vector<WeightedEdge> kept;
  for (const WeightedEdge& edge : graph.edges()) {
    if (edge.weight >= threshold) kept.push_back(edge);
  }
  return SortHeaviestFirst(std::move(kept));
}

std::vector<WeightedEdge> PruneCep(const BlockingGraph& graph,
                                   uint64_t budget) {
  std::vector<WeightedEdge> kept = SortHeaviestFirst(
      {graph.edges().begin(), graph.edges().end()});
  if (kept.size() > budget) kept.resize(budget);
  return kept;
}

// Marks, for every node, which incident edges it retains; an edge survives
// under union (reciprocal=false) or intersection (reciprocal=true)
// semantics.
std::vector<WeightedEdge> NodeCentricPrune(
    const BlockingGraph& graph,
    const std::function<std::vector<uint32_t>(
        model::EntityId, const std::vector<uint32_t>&)>& retained_of_node,
    bool reciprocal) {
  std::vector<std::vector<uint32_t>> node_edges = graph.NodeEdges();
  // Each node's retained set depends only on its own incident edges, so
  // the nodes parallelize into fixed slots; the integer vote combination
  // stays serial, making the result identical to the serial scan for any
  // thread count.
  std::vector<std::vector<uint32_t>> retained(node_edges.size());
  core::Executor::Shared().ParallelFor(node_edges.size(), [&](size_t v) {
    if (node_edges[v].empty()) return;
    retained[v] = retained_of_node(static_cast<model::EntityId>(v),
                                   node_edges[v]);
  });
  // Votes per edge: 0, 1, or 2 endpoints retained it.
  std::vector<uint8_t> votes(graph.num_edges(), 0);
  for (const std::vector<uint32_t>& node_retained : retained) {
    for (uint32_t e : node_retained) {
      if (votes[e] < 2) ++votes[e];
    }
  }
  uint8_t needed = reciprocal ? 2 : 1;
  std::vector<WeightedEdge> kept;
  for (uint32_t e = 0; e < graph.num_edges(); ++e) {
    if (votes[e] >= needed) kept.push_back(graph.edges()[e]);
  }
  return SortHeaviestFirst(std::move(kept));
}

std::vector<WeightedEdge> PruneWnp(const BlockingGraph& graph,
                                   bool reciprocal) {
  const std::vector<WeightedEdge>& edges = graph.edges();
  return NodeCentricPrune(
      graph,
      [&edges](model::EntityId, const std::vector<uint32_t>& incident) {
        double mean = 0.0;
        for (uint32_t e : incident) mean += edges[e].weight;
        mean /= static_cast<double>(incident.size());
        std::vector<uint32_t> retained;
        for (uint32_t e : incident) {
          if (edges[e].weight >= mean) retained.push_back(e);
        }
        return retained;
      },
      reciprocal);
}

std::vector<WeightedEdge> PruneCnp(const BlockingGraph& graph,
                                   size_t k_per_node, bool reciprocal) {
  const std::vector<WeightedEdge>& edges = graph.edges();
  return NodeCentricPrune(
      graph,
      [&edges, k_per_node](model::EntityId,
                           const std::vector<uint32_t>& incident) {
        std::vector<uint32_t> retained = incident;
        size_t k = std::min(k_per_node, retained.size());
        std::partial_sort(retained.begin(), retained.begin() + k,
                          retained.end(),
                          [&edges](uint32_t x, uint32_t y) {
                            return HeavierFirst(edges[x], edges[y]);
                          });
        retained.resize(k);
        return retained;
      },
      reciprocal);
}

}  // namespace

uint64_t CepBudget(const blocking::BlockCollection& blocks) {
  return std::max<uint64_t>(blocks.Index().NumAssignments() / 2, 1);
}

size_t CnpBudget(const blocking::BlockCollection& blocks) {
  const blocking::BlockIndex& index = blocks.Index();
  size_t nodes = std::max<size_t>(index.NumEntities(), 1);
  return static_cast<size_t>(std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             static_cast<double>(index.NumAssignments()) / nodes))));
}

std::vector<WeightedEdge> Prune(const BlockingGraph& graph,
                                const blocking::BlockCollection& blocks,
                                PruningScheme scheme,
                                const PruneOptions& options) {
  switch (scheme) {
    case PruningScheme::kWep:
      return PruneWep(graph);
    case PruningScheme::kCep:
      return PruneCep(graph, CepBudget(blocks));
    case PruningScheme::kWnp:
      return PruneWnp(graph, options.reciprocal);
    case PruningScheme::kCnp:
      return PruneCnp(graph, CnpBudget(blocks), options.reciprocal);
  }
  return {};
}

std::vector<model::IdPair> MetaBlock(const blocking::BlockCollection& blocks,
                                     WeightScheme weights,
                                     PruningScheme pruning,
                                     const PruneOptions& options) {
  BlockingGraph graph = BlockingGraph::Build(blocks, weights);
  std::vector<WeightedEdge> kept = Prune(graph, blocks, pruning, options);
  if (obs::MetricsRegistry* registry = obs::Current()) {
    registry->GetCounter("weber.metablocking.graph_nodes")
        .Add(graph.num_nodes());
    registry->GetCounter("weber.metablocking.graph_edges")
        .Add(graph.num_edges());
    registry->GetCounter("weber.metablocking.kept_edges").Add(kept.size());
    registry->GetCounter("weber.metablocking.pruned_edges")
        .Add(graph.num_edges() - kept.size());
    if (graph.num_edges() > 0) {
      registry->GetGauge("weber.metablocking.pruning_ratio")
          .Set(1.0 - static_cast<double>(kept.size()) /
                         static_cast<double>(graph.num_edges()));
    }
  }
  std::vector<model::IdPair> pairs;
  pairs.reserve(kept.size());
  for (const WeightedEdge& edge : kept) pairs.push_back(edge.pair());
  return pairs;
}

}  // namespace weber::metablocking
