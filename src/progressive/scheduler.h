#ifndef WEBER_PROGRESSIVE_SCHEDULER_H_
#define WEBER_PROGRESSIVE_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "eval/progressive_curve.h"
#include "matching/match_graph.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "model/entity.h"
#include "model/ground_truth.h"

namespace weber::progressive {

/// The scheduling phase of the progressive ER framework (Fig. 1 of the
/// tutorial): decides which candidate pair is compared next. The runner
/// feeds match results back through OnResult — the optional update phase —
/// so schedulers can promote pairs influenced by fresh matches.
///
/// A static schedule (AdaptsToFeedback() false) hands out each pair at
/// most once; it may hand out self and incomparable pairs, which the
/// runner skips free of budget. Only debug and WEBER_HARDENED builds check
/// the at-most-once contract.
class PairScheduler {
 public:
  virtual ~PairScheduler() = default;

  /// The next pair to compare, or nullopt when the schedule is exhausted.
  virtual std::optional<model::IdPair> NextPair() = 0;

  /// Appends the next pairs NextPair would hand out, at most `max` of
  /// them, to `out` and returns how many it appended: fewer than `max`
  /// only when the schedule is exhausted. The runner pops every schedule
  /// through this, so a list-backed schedule can hand out a whole chunk
  /// at once. Default: NextPair, pair by pair.
  virtual size_t NextPairs(size_t max, std::vector<model::IdPair>& out) {
    size_t n = 0;
    for (; n < max; ++n) {
      std::optional<model::IdPair> pair = NextPair();
      if (!pair.has_value()) break;
      out.push_back(*pair);
    }
    return n;
  }

  /// Update-phase hook: the outcome of the comparison most recently
  /// handed out. Default: ignore feedback (static schedules). A scheduler
  /// overriding this so that feedback influences future NextPair calls
  /// MUST also override AdaptsToFeedback to return true, or the runner
  /// will pop a chunk of pairs before delivering the feedback.
  virtual void OnResult(const model::IdPair& pair, bool matched) {
    (void)pair;
    (void)matched;
  }

  /// Whether OnResult changes the order NextPair hands pairs out. When
  /// false (the default), RunProgressive pops pairs in chunks and scores
  /// each chunk concurrently — results are still committed in schedule
  /// order, so the run is byte-identical either way. When true, the
  /// runner stays strictly serial (NextPair, score, OnResult, repeat), and
  /// the schedule may hand out a pair again: the runner skips a repeat
  /// free of budget.
  virtual bool AdaptsToFeedback() const { return false; }

  virtual std::string name() const = 0;
};

/// A static schedule over an explicit pair list, in the given order.
/// Models both the unordered baseline (pairs as blocking emitted them) and
/// ranked lists (pairs pre-sorted by a score). The list must hold each
/// pair at most once.
class StaticListScheduler : public PairScheduler {
 public:
  explicit StaticListScheduler(std::vector<model::IdPair> pairs,
                               std::string label = "StaticList")
      : pairs_(std::move(pairs)), label_(std::move(label)) {}

  std::optional<model::IdPair> NextPair() override {
    if (next_ >= pairs_.size()) return std::nullopt;
    return pairs_[next_++];
  }

  size_t NextPairs(size_t max, std::vector<model::IdPair>& out) override {
    const size_t n = std::min(max, pairs_.size() - next_);
    out.insert(out.end(), pairs_.begin() + next_, pairs_.begin() + next_ + n);
    next_ += n;
    return n;
  }

  std::string name() const override { return label_; }

 private:
  std::vector<model::IdPair> pairs_;
  size_t next_ = 0;
  std::string label_;
};

/// Outcome of a budgeted progressive run.
struct ProgressiveRunResult {
  /// Trajectory of true-match discovery (one step per comparison).
  eval::ProgressiveCurve curve;
  /// Pairs the matcher declared matching within the budget.
  std::vector<model::IdPair> reported;
  /// Comparisons actually executed (<= budget).
  uint64_t comparisons = 0;

  explicit ProgressiveRunResult(uint64_t total_matches)
      : curve(total_matches) {}
};

/// Executes the progressive loop: pop pairs from the scheduler, evaluate
/// the matcher, feed each verdict back, until `budget` comparisons have
/// run or the schedule is exhausted. Self and incomparable pairs are
/// skipped without spending budget, as is a pair an adaptive scheduler
/// hands out again. A static schedule is popped in fixed-size chunks,
/// each scored concurrently; an adaptive one, one pair at a time. Either
/// way verdicts are committed in schedule order, so a run is
/// byte-identical for any parallelism. The curve records *true* matches
/// (per `truth`) so that recall-vs-budget is directly comparable across
/// schedulers.
/// `prepared`, when non-null, scores pairs over interned signatures
/// instead of re-tokenising descriptions; it must be the prepared twin of
/// `matcher` over a store covering the collection's ids, so verdicts stay
/// bit-equal to the string path.
ProgressiveRunResult RunProgressive(
    const model::EntityCollection& collection, PairScheduler& scheduler,
    const matching::ThresholdMatcher& matcher, uint64_t budget,
    const model::GroundTruth& truth,
    const matching::PreparedMatcher* prepared = nullptr);

}  // namespace weber::progressive

#endif  // WEBER_PROGRESSIVE_SCHEDULER_H_
