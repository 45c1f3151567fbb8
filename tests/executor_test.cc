#include "core/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace weber::core {
namespace {

// ---------------------------------------------------------------------------
// ParallelFor / ParallelChunks
// ---------------------------------------------------------------------------

TEST(ExecutorParallelForTest, CoversAllIndicesExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  Executor::Shared().ParallelFor(hits.size(),
                                 [&hits](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutorParallelForTest, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  Executor::Shared().ParallelFor(0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ExecutorParallelForTest, SerialParallelismPreservesOrder) {
  // Parallelism 1 must run inline, in index order, on the calling thread.
  ScopedParallelism serial(1);
  std::vector<int> order;
  std::thread::id caller = std::this_thread::get_id();
  Executor::Shared().ParallelFor(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ExecutorParallelChunksTest, CeilSizedContiguousChunks) {
  // 10 items in 4 chunks: ceil(10/4) = 3 -> [0,3) [3,6) [6,9) [9,10).
  std::vector<std::pair<size_t, size_t>> ranges(4, {0, 0});
  Executor::Shared().ParallelChunks(
      10, 4, [&ranges](size_t chunk, size_t begin, size_t end) {
        ranges[chunk] = {begin, end};
      });
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 3}));
  EXPECT_EQ(ranges[1], (std::pair<size_t, size_t>{3, 6}));
  EXPECT_EQ(ranges[2], (std::pair<size_t, size_t>{6, 9}));
  EXPECT_EQ(ranges[3], (std::pair<size_t, size_t>{9, 10}));
}

TEST(ExecutorParallelChunksTest, TrailingEmptyChunksNotDispatched) {
  // 5 items in 4 chunks: ceil(5/4) = 2 -> [0,2) [2,4) [4,5); chunk 3 is
  // empty and must not be dispatched, but its cpu slot still exists.
  std::atomic<int> dispatched{0};
  std::vector<double> cpu;
  Executor::Shared().ParallelChunks(
      5, 4, [&dispatched](size_t, size_t, size_t) { ++dispatched; }, &cpu);
  EXPECT_EQ(dispatched.load(), 3);
  EXPECT_EQ(cpu.size(), 4u);
  EXPECT_EQ(cpu[3], 0.0);
}

TEST(ExecutorParallelChunksTest, ZeroItemsZeroesCpuAndSkipsWork) {
  int calls = 0;
  std::vector<double> cpu = {1.0, 2.0};
  Executor::Shared().ParallelChunks(
      0, 4, [&calls](size_t, size_t, size_t) { ++calls; }, &cpu);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(cpu, (std::vector<double>{0.0, 0.0, 0.0, 0.0}));
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(ExecutorDeterminismTest, FixedSlotResultsIdenticalAcrossParallelism) {
  const size_t n = 512;
  auto run = [n](size_t parallelism) {
    ScopedParallelism scoped(parallelism);
    std::vector<uint64_t> out(n);
    Executor::Shared().ParallelFor(n, [&out](size_t i) {
      uint64_t v = static_cast<uint64_t>(i) * 2654435761u;
      out[i] = v ^ (v >> 13);
    });
    return out;
  };
  std::vector<uint64_t> serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(ExecutorReduceTest, DeterministicChunkOrderCombine) {
  const size_t n = 1000;
  uint64_t sum = Executor::Shared().ParallelReduce<uint64_t>(
      n, 0,
      [](size_t i, uint64_t acc) { return acc + i; },
      [](uint64_t a, uint64_t b) { return a + b; });
  EXPECT_EQ(sum, static_cast<uint64_t>(n) * (n - 1) / 2);
}

TEST(ExecutorReduceTest, EmptyRangeReturnsIdentity) {
  int result = Executor::Shared().ParallelReduce<int>(
      0, 42, [](size_t, int acc) { return acc; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, 42);
}

// ---------------------------------------------------------------------------
// TaskGroup: nesting, exceptions, inline fallback
// ---------------------------------------------------------------------------

TEST(ExecutorTaskGroupTest, RunsAllSubmittedTasks) {
  std::atomic<int> done{0};
  {
    Executor::TaskGroup group(Executor::Shared());
    for (int i = 0; i < 64; ++i) group.Run([&done] { ++done; });
    group.Wait();
    EXPECT_EQ(done.load(), 64);
  }
}

TEST(ExecutorTaskGroupTest, NestedSubmissionDoesNotDeadlock) {
  // Every outer task opens its own parallel region; with all pool workers
  // occupied by outer tasks the inner chunks can only finish because
  // waiters help execute queued tasks.
  size_t workers = Executor::Shared().num_workers();
  std::atomic<int> inner{0};
  Executor::Shared().ParallelFor(workers * 2, [&inner](size_t) {
    Executor::Shared().ParallelFor(16, [&inner](size_t) { ++inner; });
  });
  EXPECT_EQ(inner.load(), static_cast<int>(workers) * 2 * 16);
}

TEST(ExecutorTaskGroupTest, WaitRethrowsTaskException) {
  Executor::TaskGroup group(Executor::Shared());
  group.Run([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(ExecutorParallelForTest, RethrowsFirstChunkException) {
  EXPECT_THROW(Executor::Shared().ParallelFor(
                   100,
                   [](size_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ExecutorSingleThreadTest, OneWorkerSpawnsNoThreadsAndRunsInline) {
  Executor inline_executor(1);
  EXPECT_EQ(inline_executor.num_workers(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  {
    Executor::TaskGroup group(inline_executor);
    for (int i = 0; i < 8; ++i) {
      group.Run([&order, caller, i] {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      });
    }
    group.Wait();
  }
  // Submission order: the waiting thread drains its own deque LIFO but
  // steals FIFO from the front; with one queue and no workers, Wait pops
  // own-first (helpers have no own queue -> steal path, FIFO).
  ASSERT_EQ(order.size(), 8u);
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ExecutorSingleThreadTest, ParallelChunksInlineOnOneWorkerExecutor) {
  Executor inline_executor(1);
  std::atomic<int> total{0};
  inline_executor.ParallelChunks(
      100, 4, [&total](size_t, size_t begin, size_t end) {
        total += static_cast<int>(end - begin);
      });
  EXPECT_EQ(total.load(), 100);
}

// ---------------------------------------------------------------------------
// ScopedParallelism
// ---------------------------------------------------------------------------

TEST(ScopedParallelismTest, OverridesAndRestores) {
  size_t ambient = EffectiveParallelism();
  {
    ScopedParallelism outer(3);
    EXPECT_EQ(EffectiveParallelism(), 3u);
    {
      ScopedParallelism inner(7);
      EXPECT_EQ(EffectiveParallelism(), 7u);
    }
    EXPECT_EQ(EffectiveParallelism(), 3u);
    {
      ScopedParallelism noop(0);  // 0 leaves the previous value in place.
      EXPECT_EQ(EffectiveParallelism(), 3u);
    }
    EXPECT_EQ(EffectiveParallelism(), 3u);
  }
  EXPECT_EQ(EffectiveParallelism(), ambient);
}

// ---------------------------------------------------------------------------
// Stats and metrics
// ---------------------------------------------------------------------------

TEST(ExecutorStatsTest, SnapshotCountsWork) {
  Executor executor(2);
  ExecutorStats before = executor.Snapshot();
  {
    Executor::TaskGroup group(executor);
    for (int i = 0; i < 32; ++i) group.Run([] {});
    group.Wait();
  }
  ExecutorStats after = executor.Snapshot();
  EXPECT_EQ(after.workers, 2u);
  EXPECT_EQ(after.tasks_submitted - before.tasks_submitted, 32u);
  EXPECT_EQ(after.tasks_run - before.tasks_run, 32u);
  EXPECT_GE(after.max_queue_depth, 1u);
  EXPECT_EQ(after.worker_busy_seconds.size(), 2u);
  EXPECT_GT(after.uptime_seconds, 0.0);
}

TEST(ExecutorStatsTest, PublishMetricsEmitsDeltas) {
  Executor executor(2);
  obs::MetricsRegistry registry;
  obs::ScopedRegistry attach(&registry);
  {
    Executor::TaskGroup group(executor);
    for (int i = 0; i < 16; ++i) group.Run([] {});
    group.Wait();
  }
  executor.PublishMetrics();
  obs::RegistrySnapshot first = registry.TakeSnapshot();
  EXPECT_EQ(first.counters.at("weber.executor.tasks_run"), 16u);
  EXPECT_EQ(first.counters.at("weber.executor.tasks_submitted"), 16u);
  EXPECT_EQ(first.gauges.at("weber.executor.workers"), 2.0);

  // Publishing again with no new work adds nothing to the counters.
  executor.PublishMetrics();
  obs::RegistrySnapshot second = registry.TakeSnapshot();
  EXPECT_EQ(second.counters.at("weber.executor.tasks_run"), 16u);
  EXPECT_EQ(second.counters.at("weber.executor.tasks_submitted"), 16u);
}

TEST(ExecutorStatsTest, ParallelForPublishesBalance) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry attach(&registry);
  ScopedParallelism parallel(4);
  Executor::Shared().ParallelFor(256, [](size_t i) {
    volatile double acc = 0.0;
    for (size_t k = 0; k < 2000; ++k) acc = acc + static_cast<double>(i + k);
  });
  obs::RegistrySnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("weber.executor.parallel_fors"), 1u);
  EXPECT_GT(snap.gauges.at("weber.executor.balance_speedup"), 0.0);
  EXPECT_EQ(snap.histograms.at("weber.executor.parallel_for_balance").count,
            1u);
}

}  // namespace
}  // namespace weber::core
