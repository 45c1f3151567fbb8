#ifndef WEBER_PROGRESSIVE_SCHEDULER_H_
#define WEBER_PROGRESSIVE_SCHEDULER_H_

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
class PairScheduler {
 public:
  virtual ~PairScheduler() = default;

  /// The next pair to compare, or nullopt when the schedule is exhausted.
  virtual std::optional<model::IdPair> NextPair() = 0;

  /// Update-phase hook: the outcome of the comparison most recently
  /// handed out. Default: ignore feedback (static schedules). A scheduler
  /// overriding this so that feedback influences future NextPair calls
  /// MUST also override AdaptsToFeedback to return true, or the batched
  /// runner will prefetch pairs before delivering the feedback.
  virtual void OnResult(const model::IdPair& pair, bool matched) {
    (void)pair;
    (void)matched;
  }

  /// Whether OnResult changes the order NextPair hands pairs out. When
  /// false (the default), RunProgressive may pop a batch of pairs and
  /// score them concurrently — results are still committed in schedule
  /// order, so the run is byte-identical either way. When true, the
  /// runner stays strictly serial: NextPair, score, OnResult, repeat.
  virtual bool AdaptsToFeedback() const { return false; }

  /// The whole schedule at once, when the scheduler declares it distinct:
  /// static, and every pair normalised (low < high), comparable under the
  /// collection, and listed once. RunProgressive then scores the list's
  /// budgeted prefix as one slice, with no dedup set and no NextPair call
  /// (OnResult still sees every verdict); it reads the list without
  /// popping it, so such a schedule serves one run. Only debug and
  /// WEBER_HARDENED builds check the declaration, and that check sorts a
  /// copy of the whole list on every run: 8 bytes and O(log n) compares
  /// per pair (about 180 MB for 22M pairs). Default: null, so the runner
  /// pops, screens and deduplicates pair by pair.
  virtual const std::vector<model::IdPair>* DistinctList() const {
    return nullptr;
  }

  virtual std::string name() const = 0;
};

/// A static schedule over an explicit pair list, in the given order.
/// Models both the unordered baseline (pairs as blocking emitted them) and
/// ranked lists (pairs pre-sorted by a score).
class StaticListScheduler : public PairScheduler {
 public:
  explicit StaticListScheduler(std::vector<model::IdPair> pairs,
                               std::string label = "StaticList")
      : pairs_(std::move(pairs)), label_(std::move(label)) {}

  /// A static schedule over `pairs` declared distinct (see DistinctList),
  /// such as BlockCollection::CandidatePairs() or MetaBlock() output.
  static StaticListScheduler FromDistinct(std::vector<model::IdPair> pairs,
                                          std::string label = "StaticList") {
    StaticListScheduler scheduler(std::move(pairs), std::move(label));
    scheduler.distinct_ = true;
    return scheduler;
  }

  std::optional<model::IdPair> NextPair() override {
    if (next_ >= pairs_.size()) return std::nullopt;
    return pairs_[next_++];
  }

  const std::vector<model::IdPair>* DistinctList() const override {
    return distinct_ ? &pairs_ : nullptr;
  }

  std::string name() const override { return label_; }

 private:
  std::vector<model::IdPair> pairs_;
  size_t next_ = 0;
  std::string label_;
  bool distinct_ = false;
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

/// Executes the progressive loop: pop a pair from the scheduler, evaluate
/// the matcher, feed the verdict back, until `budget` comparisons have run
/// or the schedule is exhausted. Pairs are deduplicated (a pair handed out
/// twice is only evaluated once), and self or incomparable pairs are
/// skipped without spending budget — except in a declared-distinct list
/// (PairScheduler::DistinctList), which must hold no such pairs and is
/// checked only in debug and WEBER_HARDENED builds. Either way verdicts
/// are committed in schedule order, so a run is byte-identical for any
/// parallelism. The curve records *true* matches (per
/// `truth`) so that recall-vs-budget is directly comparable across
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
