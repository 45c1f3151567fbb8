#include "progressive/scheduler.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include "core/executor.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace weber::progressive {

namespace {

// The first pair, in (low, high) order, that breaks the contract of a
// declared-distinct list, as text, or "" when the list keeps it.
std::string DistinctListViolation(const model::EntityCollection& collection,
                                  const std::vector<model::IdPair>& pairs) {
  std::vector<model::IdPair> sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    const model::IdPair& pair = sorted[i];
    if (pair.low >= pair.high || !collection.Comparable(pair.low, pair.high) ||
        (i > 0 && pair == sorted[i - 1])) {
      return "(" + std::to_string(pair.low) + ", " +
             std::to_string(pair.high) + ")";
    }
  }
  return "";
}

}  // namespace

ProgressiveRunResult RunProgressive(const model::EntityCollection& collection,
                                    PairScheduler& scheduler,
                                    const matching::ThresholdMatcher& matcher,
                                    uint64_t budget,
                                    const model::GroundTruth& truth,
                                    const matching::PreparedMatcher* prepared) {
  ProgressiveRunResult result(truth.NumMatches());
  // Aggregated locally and published once at the end: the loop body is
  // the hot path of the whole matching phase.
  uint64_t scheduled = 0;
  uint64_t skipped = 0;
  std::vector<char> verdicts;  // Not vector<bool>: slots written in parallel.
  // The one scoring body of both paths: scores `pairs` concurrently, then
  // commits the verdicts serially in schedule order, so budget accounting,
  // the curve, and OnResult feedback are byte-identical to a serial run.
  auto score_and_commit = [&](std::span<const model::IdPair> pairs) {
    verdicts.assign(pairs.size(), 0);
    core::Executor::Shared().ParallelFor(pairs.size(), [&](size_t i) {
      const model::IdPair& pair = pairs[i];
      bool matched = prepared != nullptr
                         ? prepared->Matches(pair.low, pair.high,
                                             matcher.threshold())
                         : matcher.Matches(collection[pair.low],
                                           collection[pair.high]);
      verdicts[i] = matched ? 1 : 0;
    });
    for (size_t i = 0; i < pairs.size(); ++i) {
      const model::IdPair& pair = pairs[i];
      bool matched = verdicts[i] != 0;
      ++result.comparisons;
      result.curve.Record(matched && truth.IsMatch(pair));
      if (matched) result.reported.push_back(pair);
      scheduler.OnResult(pair, matched);
    }
  };

  if (const std::vector<model::IdPair>* list = scheduler.DistinctList()) {
    // A declared-distinct list has nothing to screen or deduplicate, so
    // its budgeted prefix is scored as one slice.
    WEBER_DCHECK_EQ(DistinctListViolation(collection, *list), std::string())
        << "a declared-distinct schedule holds a repeated, self, "
        << "unnormalised or incomparable pair";
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(list->size(), budget));
    scheduled = n;
    score_and_commit(std::span(list->data(), n));
  } else {
    model::IdPairSet executed;
    // An adaptive scheduler must see each verdict before handing out the
    // next pair, so its batch size is pinned to 1 — the loop below then
    // interleaves NextPair / score / OnResult exactly like a serial run.
    // Static schedules admit prefetching: pairs are popped and screened in
    // schedule order, then scored and committed as one batch.
    const size_t max_batch =
        scheduler.AdaptsToFeedback()
            ? 1
            : std::min<size_t>(core::EffectiveParallelism() * 8, 256);
    std::vector<model::IdPair> batch;
    bool exhausted = false;
    while (!exhausted && result.comparisons < budget) {
      batch.clear();
      const uint64_t remaining = budget - result.comparisons;
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(max_batch, remaining));
      while (batch.size() < want) {
        std::optional<model::IdPair> pair = scheduler.NextPair();
        if (!pair.has_value()) {
          exhausted = true;
          break;
        }
        ++scheduled;
        if (pair->low == pair->high ||
            !collection.Comparable(pair->low, pair->high) ||
            !executed.insert(*pair).second) {
          ++skipped;  // Self-pair, incomparable, or already evaluated.
          continue;
        }
        WEBER_DCHECK_LT(pair->low, pair->high)
            << "scheduler emitted an unnormalised pair";
        batch.push_back(*pair);
      }
      if (!batch.empty()) score_and_commit(batch);
    }
  }
  WEBER_DCHECK_LE(result.comparisons, budget)
      << "progressive run overspent its comparison budget";
  WEBER_DCHECK_EQ(scheduled, skipped + result.comparisons)
      << "progressive accounting leak: a scheduled pair was neither "
      << "skipped nor scored";

  if (obs::MetricsRegistry* registry = obs::Current()) {
    registry->GetCounter("weber.progressive.scheduled_pairs").Add(scheduled);
    registry->GetCounter("weber.progressive.skipped_pairs").Add(skipped);
    registry->GetCounter("weber.progressive.comparisons")
        .Add(result.comparisons);
    registry->GetCounter("weber.progressive.matches")
        .Add(result.reported.size());
    if (budget > 0 && budget != std::numeric_limits<uint64_t>::max()) {
      registry->GetGauge("weber.progressive.budget_used_ratio")
          .Set(static_cast<double>(result.comparisons) /
               static_cast<double>(budget));
    }
    if (result.comparisons > 0) {
      registry->GetGauge("weber.progressive.emission_rate")
          .Set(static_cast<double>(result.reported.size()) /
               static_cast<double>(result.comparisons));
    }
  }
  return result;
}

}  // namespace weber::progressive
