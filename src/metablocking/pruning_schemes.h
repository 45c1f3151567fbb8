#ifndef WEBER_METABLOCKING_PRUNING_SCHEMES_H_
#define WEBER_METABLOCKING_PRUNING_SCHEMES_H_

#include <array>
#include <string>
#include <vector>

#include "metablocking/blocking_graph.h"

namespace weber::metablocking {

/// Edge-pruning schemes for meta-blocking (Papadakis et al., TKDE'14).
enum class PruningScheme {
  /// Weighted Edge Pruning: keep edges whose weight is at least the mean
  /// edge weight of the whole graph.
  kWep,
  /// Cardinality Edge Pruning: keep the K globally heaviest edges, with
  /// K = half the total number of block assignments.
  kCep,
  /// Weighted Node Pruning: each node retains its incident edges weighing
  /// at least the node-local mean; an edge survives if either endpoint
  /// retains it (redistribution semantics).
  kWnp,
  /// Cardinality Node Pruning: each node retains its k heaviest incident
  /// edges, k derived from the average number of block assignments per
  /// entity; an edge survives if either endpoint retains it.
  kCnp,
};

/// Returns the canonical short name ("WEP", "CNP", ...).
std::string ToString(PruningScheme scheme);

inline constexpr std::array<PruningScheme, 4> kAllPruningSchemes = {
    PruningScheme::kWep, PruningScheme::kCep, PruningScheme::kWnp,
    PruningScheme::kCnp};

struct PruneOptions {
  /// Node-centric schemes (WNP/CNP) keep an edge retained by *either*
  /// endpoint. The reciprocal variants require *both* endpoints to retain
  /// it, trading recall for precision.
  bool reciprocal = false;
};

/// CEP's global budget: half the block assignments of `blocks`, at least
/// one edge.
uint64_t CepBudget(const blocking::BlockCollection& blocks);

/// CNP's per-node budget k: the mean block assignments per node of
/// `blocks`, rounded, at least one edge.
size_t CnpBudget(const blocking::BlockCollection& blocks);

/// Applies the pruning scheme to the graph, using the block collection
/// that produced it for the cardinality budgets of CEP/CNP. Returns the
/// surviving edges (the meta-blocked candidate pairs), heaviest first.
std::vector<WeightedEdge> Prune(const BlockingGraph& graph,
                                const blocking::BlockCollection& blocks,
                                PruningScheme scheme,
                                const PruneOptions& options = {});

/// End-to-end meta-blocking: build the graph under `weights`, prune under
/// `pruning`, and return the surviving candidate pairs.
std::vector<model::IdPair> MetaBlock(const blocking::BlockCollection& blocks,
                                     WeightScheme weights,
                                     PruningScheme pruning,
                                     const PruneOptions& options = {});

}  // namespace weber::metablocking

#endif  // WEBER_METABLOCKING_PRUNING_SCHEMES_H_
