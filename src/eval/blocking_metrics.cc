#include "eval/blocking_metrics.h"

#include <algorithm>

#include "util/intersect.h"

namespace weber::eval {

double BlockingQuality::PairCompleteness() const {
  if (total_matches == 0) return 1.0;
  return static_cast<double>(matches_covered) /
         static_cast<double>(total_matches);
}

double BlockingQuality::PairQuality() const {
  if (comparisons == 0) return 0.0;
  return static_cast<double>(matches_covered) /
         static_cast<double>(comparisons);
}

double BlockingQuality::ReductionRatio() const {
  if (total_possible_comparisons == 0) return 0.0;
  double ratio = static_cast<double>(comparisons) /
                 static_cast<double>(total_possible_comparisons);
  return 1.0 - ratio;
}

double BlockingQuality::FMeasure() const {
  double pc = PairCompleteness();
  double rr = ReductionRatio();
  if (pc + rr <= 0.0) return 0.0;
  return 2.0 * pc * rr / (pc + rr);
}

BlockingQuality EvaluateBlocks(const blocking::BlockCollection& blocks,
                               const model::GroundTruth& truth) {
  BlockingQuality quality;
  quality.total_matches = truth.NumMatches();
  quality.comparisons_with_redundancy =
      blocks.TotalComparisonsWithRedundancy();
  if (blocks.collection() != nullptr) {
    quality.total_possible_comparisons =
        blocks.collection()->TotalComparisons();
  }
  quality.comparisons = blocks.CountDistinctPairs();
  // Covered matches from the truth side: a closure pair is a candidate
  // exactly when it is comparable and its two entities share a block.
  const model::EntityCollection* collection = blocks.collection();
  const blocking::BlockIndex& index = blocks.Index();
  for (const model::IdPair& pair : truth.AllMatches()) {
    if (pair.high >= index.NumEntities()) continue;
    if (collection != nullptr && !collection->Comparable(pair.low, pair.high)) {
      continue;
    }
    if (util::SortedIntersectAtLeast(index.BlocksOf(pair.low),
                                     index.BlocksOf(pair.high), 1)) {
      ++quality.matches_covered;
    }
  }
  return quality;
}

BlockingQuality EvaluatePairs(const std::vector<model::IdPair>& pairs,
                              const model::GroundTruth& truth,
                              const model::EntityCollection& collection) {
  BlockingQuality quality;
  quality.total_matches = truth.NumMatches();
  quality.total_possible_comparisons = collection.TotalComparisons();
  std::vector<model::IdPair> distinct = pairs;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  quality.comparisons = distinct.size();
  for (const model::IdPair& pair : distinct) {
    if (truth.IsMatch(pair)) ++quality.matches_covered;
  }
  quality.comparisons_with_redundancy = pairs.size();
  return quality;
}

}  // namespace weber::eval
