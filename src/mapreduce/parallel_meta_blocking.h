#ifndef WEBER_MAPREDUCE_PARALLEL_META_BLOCKING_H_
#define WEBER_MAPREDUCE_PARALLEL_META_BLOCKING_H_

#include <vector>

#include "mapreduce/engine.h"
#include "metablocking/pruning_schemes.h"

namespace weber::mapreduce {

/// Per-phase timings of a parallel meta-blocking run.
struct ParallelMetaBlockingStats {
  /// Parallel edge weighting + node-local pruning.
  double weighting_seconds = 0.0;
  /// Load-balance speedup of the weighting phase: sum over workers of
  /// per-thread CPU seconds over the max single worker (the speedup ideal
  /// cores would realise; see JobStats::map_balance_speedup).
  double weighting_balance_speedup = 1.0;
  /// Final vote combination (union / reciprocal semantics).
  double combine_seconds = 0.0;
};

/// Parallel meta-blocking (Efthymiou et al., Inf. Syst.'17), entity-based
/// strategy: over the collection's entity-to-blocks index
/// (BlockCollection::Index()), the weighting and node-centric pruning of
/// each node proceed in parallel, each node seeing only its own block list
/// and those of its co-occurring neighbours. Edge weights, the
/// heaviest-first order and the CEP/CNP budgets are the sequential
/// metablocking ones, so it produces exactly the pairs of
/// metablocking::MetaBlock for the same schemes.
std::vector<model::IdPair> ParallelMetaBlock(
    const blocking::BlockCollection& blocks,
    metablocking::WeightScheme weights, metablocking::PruningScheme pruning,
    const metablocking::PruneOptions& options, size_t workers,
    ParallelMetaBlockingStats* stats = nullptr);

}  // namespace weber::mapreduce

#endif  // WEBER_MAPREDUCE_PARALLEL_META_BLOCKING_H_
