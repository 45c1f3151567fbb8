#include "eval/match_metrics.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace weber::eval {

double MatchQuality::Precision() const {
  if (reported == 0) return 0.0;
  return static_cast<double>(true_positives) / static_cast<double>(reported);
}

double MatchQuality::Recall() const {
  if (total_matches == 0) return 1.0;
  return static_cast<double>(true_positives) /
         static_cast<double>(total_matches);
}

double MatchQuality::F1() const {
  double p = Precision();
  double r = Recall();
  if (p + r <= 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

MatchQuality EvaluateMatchPairs(const std::vector<model::IdPair>& reported,
                                const model::GroundTruth& truth) {
  MatchQuality quality;
  quality.total_matches = truth.NumMatches();
  // Each distinct reported pair counts once.
  std::vector<model::IdPair> distinct = reported;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  quality.reported = distinct.size();
  for (const model::IdPair& pair : distinct) {
    if (truth.IsMatch(pair)) ++quality.true_positives;
  }
  return quality;
}

MatchQuality EvaluateClusters(const matching::Clusters& clusters,
                              const model::GroundTruth& truth) {
  return EvaluateMatchPairs(matching::ClusterPairs(clusters), truth);
}

double BCubedQuality::F1() const {
  if (precision + recall <= 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

namespace {

// Dense cluster labels over [0, n): provided clusters first, singletons
// for uncovered elements.
std::vector<uint32_t> LabelsOf(const matching::Clusters& clusters,
                               size_t n) {
  constexpr uint32_t kUnassigned = UINT32_MAX;
  std::vector<uint32_t> labels(n, kUnassigned);
  uint32_t next = 0;
  for (const std::vector<model::EntityId>& cluster : clusters) {
    for (model::EntityId id : cluster) {
      if (id < n) labels[id] = next;
    }
    ++next;
  }
  for (uint32_t& label : labels) {
    if (label == kUnassigned) label = next++;
  }
  return labels;
}

}  // namespace

BCubedQuality EvaluateBCubed(const matching::Clusters& clusters,
                             const model::GroundTruth& truth,
                             size_t num_entities) {
  BCubedQuality quality;
  if (num_entities == 0) return quality;
  std::vector<uint32_t> predicted = LabelsOf(clusters, num_entities);
  std::vector<uint32_t> actual = LabelsOf(truth.Clusters(), num_entities);

  // Member lists per label.
  auto members_of = [num_entities](const std::vector<uint32_t>& labels) {
    std::unordered_map<uint32_t, std::vector<model::EntityId>> members;
    for (model::EntityId id = 0; id < num_entities; ++id) {
      members[labels[id]].push_back(id);
    }
    return members;
  };
  auto predicted_members = members_of(predicted);
  auto actual_members = members_of(actual);

  double precision_sum = 0.0;
  double recall_sum = 0.0;
  for (model::EntityId id = 0; id < num_entities; ++id) {
    const std::vector<model::EntityId>& same_predicted =
        predicted_members[predicted[id]];
    const std::vector<model::EntityId>& same_actual =
        actual_members[actual[id]];
    size_t agree = 0;
    for (model::EntityId other : same_predicted) {
      if (actual[other] == actual[id]) ++agree;
    }
    precision_sum += static_cast<double>(agree) /
                     static_cast<double>(same_predicted.size());
    recall_sum += static_cast<double>(agree) /
                  static_cast<double>(same_actual.size());
  }
  quality.precision = precision_sum / static_cast<double>(num_entities);
  quality.recall = recall_sum / static_cast<double>(num_entities);
  return quality;
}

}  // namespace weber::eval
