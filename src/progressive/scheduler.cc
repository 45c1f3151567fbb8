#include "progressive/scheduler.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "core/executor.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace weber::progressive {

namespace {

// Pairs a static schedule is popped, screened and scored in at a time:
// enough that one ParallelFor per chunk costs nothing next to the scoring,
// few enough that the chunk and its verdicts stay small (576 KiB).
constexpr size_t kStaticChunk = size_t{1} << 16;

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
  // An adaptive scheduler must see each verdict before handing out the
  // next pair, so it is popped one pair at a time, and `executed` skips
  // the pairs it hands out again. A static schedule hands out each pair at
  // most once, so it is popped in chunks, and only debug and
  // WEBER_HARDENED builds track `executed`, to check that contract.
  const bool adaptive = scheduler.AdaptsToFeedback();
  const bool track_executed = adaptive || WEBER_DCHECK_IS_ON();
  const size_t max_chunk = adaptive ? 1 : kStaticChunk;
  model::IdPairSet executed;
  std::vector<model::IdPair> chunk;
  chunk.reserve(static_cast<size_t>(std::min<uint64_t>(max_chunk, budget)));
  std::vector<char> verdicts;  // Not vector<bool>: slots written in parallel.
  bool exhausted = false;
  while (!exhausted && result.comparisons < budget) {
    chunk.clear();
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(max_chunk, budget - result.comparisons));
    // Pop until the chunk holds `want` pairs to score, screening each
    // popped run in place.
    while (!exhausted && chunk.size() < want) {
      const size_t first = chunk.size();
      const size_t popped = scheduler.NextPairs(want - first, chunk);
      exhausted = popped < want - first;
      scheduled += popped;
      size_t kept = first;
      for (size_t i = first; i < chunk.size(); ++i) {
        const model::IdPair pair = chunk[i];
        if (!collection.Comparable(pair.low, pair.high)) {
          ++skipped;  // Self or incomparable pair.
          continue;
        }
        if (track_executed && !executed.insert(pair).second) {
          WEBER_DCHECK(adaptive) << "static schedule handed out ("
                                 << pair.low << ", " << pair.high
                                 << ") twice";
          ++skipped;  // Already evaluated.
          continue;
        }
        WEBER_DCHECK_LT(pair.low, pair.high)
            << "scheduler emitted an unnormalised pair";
        chunk[kept++] = pair;
      }
      chunk.resize(kept);
    }
    // Score the chunk concurrently, then commit the verdicts serially in
    // schedule order, so budget accounting, the curve, and OnResult
    // feedback are byte-identical to a serial run.
    verdicts.assign(chunk.size(), 0);
    core::Executor::Shared().ParallelFor(chunk.size(), [&](size_t i) {
      const model::IdPair& pair = chunk[i];
      bool matched = prepared != nullptr
                         ? prepared->Matches(pair.low, pair.high,
                                             matcher.threshold())
                         : matcher.Matches(collection[pair.low],
                                           collection[pair.high]);
      verdicts[i] = matched ? 1 : 0;
    });
    for (size_t i = 0; i < chunk.size(); ++i) {
      const model::IdPair& pair = chunk[i];
      bool matched = verdicts[i] != 0;
      ++result.comparisons;
      result.curve.Record(matched && truth.IsMatch(pair));
      if (matched) result.reported.push_back(pair);
      scheduler.OnResult(pair, matched);
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
