#include "mapreduce/parallel_meta_blocking.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "metablocking/blocking_graph.h"
#include "util/timer.h"

namespace weber::mapreduce {

namespace {

using metablocking::PruningScheme;
using metablocking::WeightScheme;

// Gathers, for node v, every comparable co-occurring neighbour with the
// blocks the two share. v's blocks are visited ascending, so each
// neighbour's shared blocks are added in ascending order.
std::unordered_map<model::EntityId, metablocking::SharedBlocks>
GatherNeighbors(model::EntityId v, const blocking::BlockCollection& blocks,
                const blocking::BlockIndex& index,
                const metablocking::EdgeWeigher& weigher) {
  std::unordered_map<model::EntityId, metablocking::SharedBlocks> neighbors;
  const model::EntityCollection* collection = blocks.collection();
  for (uint32_t b : index.BlocksOf(v)) {
    for (model::EntityId u : blocks.blocks()[b].entities) {
      if (u == v) continue;
      if (collection != nullptr && !collection->Comparable(u, v)) continue;
      weigher.AddShared(b, neighbors[u]);
    }
  }
  return neighbors;
}

double BalanceSpeedup(const std::vector<double>& worker_cpu) {
  double sum = 0.0;
  double max = 0.0;
  for (double c : worker_cpu) {
    sum += c;
    max = std::max(max, c);
  }
  return max > 0.0 ? sum / max : 1.0;
}

}  // namespace

std::vector<model::IdPair> ParallelMetaBlock(
    const blocking::BlockCollection& blocks, WeightScheme weights,
    PruningScheme pruning, const metablocking::PruneOptions& options,
    size_t workers, ParallelMetaBlockingStats* stats) {
  workers = std::max<size_t>(workers, 1);
  ParallelMetaBlockingStats local_stats;

  const blocking::BlockIndex& index = blocks.Index();
  size_t num_nodes = index.NumEntities();

  util::Timer timer;

  // EJS needs global node degrees first (one parallel pass). That pass
  // only counts neighbours, so its weigher needs no degrees.
  std::vector<uint32_t> degree;
  if (weights == WeightScheme::kEjs) {
    const metablocking::EdgeWeigher counter(weights, blocks, {});
    degree.assign(num_nodes, 0);
    ParallelFor(num_nodes, workers, [&](size_t v) {
      degree[v] = static_cast<uint32_t>(
          GatherNeighbors(static_cast<model::EntityId>(v), blocks, index,
                          counter)
              .size());
    });
  }
  const metablocking::EdgeWeigher weigher(weights, blocks, std::move(degree));

  std::vector<model::IdPair> result;
  if (pruning == PruningScheme::kWep || pruning == PruningScheme::kCep) {
    // Edge-parallel: each edge is materialised once, at its lower
    // endpoint; global thresholding afterwards.
    std::vector<std::vector<metablocking::WeightedEdge>> per_node_edges(
        num_nodes);
    std::vector<double> worker_cpu;
    ParallelFor(
        num_nodes, workers,
        [&](size_t v_index) {
          model::EntityId v = static_cast<model::EntityId>(v_index);
          for (const auto& [u, shared] :
               GatherNeighbors(v, blocks, index, weigher)) {
            if (u < v) continue;  // Materialise at the lower endpoint only.
            per_node_edges[v_index].push_back(
                {v, u, weigher.Weight(v, u, shared)});
          }
        },
        &worker_cpu);
    local_stats.weighting_seconds = timer.ElapsedSeconds();
    local_stats.weighting_balance_speedup = BalanceSpeedup(worker_cpu);
    timer.Restart();

    std::vector<metablocking::WeightedEdge> edges;
    for (auto& part : per_node_edges) {
      edges.insert(edges.end(), part.begin(), part.end());
    }
    if (pruning == PruningScheme::kWep) {
      double mean = 0.0;
      for (const auto& edge : edges) mean += edge.weight;
      mean = edges.empty() ? 0.0 : mean / static_cast<double>(edges.size());
      for (const auto& edge : edges) {
        if (edge.weight >= mean) result.push_back(edge.pair());
      }
    } else {
      uint64_t budget = metablocking::CepBudget(blocks);
      std::sort(edges.begin(), edges.end(), metablocking::HeavierFirst);
      if (edges.size() > budget) edges.resize(budget);
      for (const auto& edge : edges) result.push_back(edge.pair());
    }
    local_stats.combine_seconds = timer.ElapsedSeconds();
  } else {
    // Node-parallel WNP / CNP: each node retains a subset of its incident
    // edges; union or intersection of the two endpoint votes afterwards.
    size_t k = metablocking::CnpBudget(blocks);

    std::vector<std::vector<model::IdPair>> retained_of_node(num_nodes);
    std::vector<double> worker_cpu;
    ParallelFor(
        num_nodes, workers,
        [&](size_t v_index) {
          model::EntityId v = static_cast<model::EntityId>(v_index);
          auto neighbors = GatherNeighbors(v, blocks, index, weigher);
          if (neighbors.empty()) return;
          std::vector<metablocking::WeightedEdge> incident;
          incident.reserve(neighbors.size());
          for (const auto& [u, shared] : neighbors) {
            model::IdPair pair = model::IdPair::Of(v, u);
            incident.push_back(
                {pair.low, pair.high, weigher.Weight(v, u, shared)});
          }
          std::vector<model::IdPair>& retained = retained_of_node[v_index];
          if (pruning == PruningScheme::kWnp) {
            double mean = 0.0;
            for (const auto& edge : incident) mean += edge.weight;
            mean /= static_cast<double>(incident.size());
            for (const auto& edge : incident) {
              if (edge.weight >= mean) retained.push_back(edge.pair());
            }
          } else {  // CNP.
            size_t keep = std::min(k, incident.size());
            std::partial_sort(incident.begin(), incident.begin() + keep,
                              incident.end(), metablocking::HeavierFirst);
            for (size_t i = 0; i < keep; ++i) {
              retained.push_back(incident[i].pair());
            }
          }
        },
        &worker_cpu);
    local_stats.weighting_seconds = timer.ElapsedSeconds();
    local_stats.weighting_balance_speedup = BalanceSpeedup(worker_cpu);
    timer.Restart();

    std::unordered_map<model::IdPair, uint8_t, model::IdPairHash> votes;
    for (const auto& retained : retained_of_node) {
      for (const model::IdPair& pair : retained) {
        ++votes[pair];
      }
    }
    uint8_t needed = options.reciprocal ? 2 : 1;
    for (const auto& [pair, count] : votes) {
      if (count >= needed) result.push_back(pair);
    }
    local_stats.combine_seconds = timer.ElapsedSeconds();
  }

  std::sort(result.begin(), result.end());
  if (stats != nullptr) *stats = local_stats;
  return result;
}

}  // namespace weber::mapreduce
