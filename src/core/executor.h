#ifndef WEBER_CORE_EXECUTOR_H_
#define WEBER_CORE_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace weber::core {

/// Point-in-time view of an executor's lifetime counters.
struct ExecutorStats {
  size_t workers = 0;
  /// Tasks handed to the pool (one per TaskGroup::Run / chunk).
  uint64_t tasks_submitted = 0;
  /// Tasks executed to completion (by workers or helping waiters).
  uint64_t tasks_run = 0;
  /// Tasks a thread took from another worker's deque.
  uint64_t steals = 0;
  /// High-water mark of tasks queued and not yet started.
  uint64_t max_queue_depth = 0;
  /// Tasks queued and not yet started at snapshot time (the instantaneous
  /// backlog the telemetry sampler turns into a queue-depth curve).
  uint64_t queue_depth = 0;
  /// Per-worker CPU seconds spent inside tasks (index == worker).
  std::vector<double> worker_busy_seconds;
  /// CPU seconds spent inside tasks by non-pool threads helping in Wait().
  double helper_busy_seconds = 0.0;
  /// Wall seconds since the executor was constructed.
  double uptime_seconds = 0.0;
};

/// A process-wide work-stealing thread pool.
///
/// Each worker owns a deque: the owner pushes and pops at the back (LIFO,
/// cache-friendly for nested submission) while idle workers steal from the
/// front (FIFO, oldest task first). Threads blocked in TaskGroup::Wait()
/// execute queued tasks instead of sleeping, so nested parallel regions
/// (a task that itself calls ParallelFor) cannot deadlock even when every
/// pool thread is busy. An executor constructed with one worker spawns no
/// threads at all: tasks run inline on the submitting/waiting thread — the
/// graceful single-thread fallback.
///
/// All pipeline hot paths share Shared(); its size is WEBER_NUM_THREADS
/// when set, else max(hardware_concurrency, 4) so parallel code paths are
/// exercised (and race-checked) even on single-core containers. The
/// effective *parallelism* of a region — how many chunks ParallelFor cuts —
/// is controlled separately by ScopedParallelism, so a pipeline configured
/// with num_threads=1 runs serially on a warm pool without respawning
/// threads.
class Executor {
  struct GroupState;

 public:
  /// num_workers == 0 picks the default described above; 1 spawns no
  /// threads (inline execution); N > 1 spawns N worker threads.
  explicit Executor(size_t num_workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool used by all parallel hot paths.
  static Executor& Shared();

  size_t num_workers() const { return queues_.size(); }

  /// A set of tasks completed together. Run() submits, Wait() blocks until
  /// all tasks finished, executing queued tasks itself while it waits.
  /// Rethrows the first exception any task threw. The destructor waits
  /// (and swallows the exception) if Wait() was not called.
  class TaskGroup {
   public:
    explicit TaskGroup(Executor& executor);
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Run(std::function<void()> fn);
    void Wait();

   private:
    Executor& executor_;
    std::shared_ptr<GroupState> state_;
  };

  /// Runs fn(chunk, begin, end) for `chunks` contiguous chunks covering
  /// [0, n), sized ceil(n / chunks) like the historical MapReduce phases
  /// (trailing chunks may be empty and are not dispatched). chunk_cpu, when
  /// non-null, receives one thread-CPU-seconds entry per chunk regardless
  /// of which thread ran it — the input of the *_balance_speedup metrics;
  /// with chunk_cpu null no CPU clock is read.
  /// Runs inline when only one chunk is non-empty. Rethrows the first
  /// chunk exception.
  void ParallelChunks(
      size_t n, size_t chunks,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn,
      std::vector<double>* chunk_cpu = nullptr);

  /// Runs fn(i) for i in [0, n), cut into EffectiveParallelism() chunks.
  /// fn must be safe to call concurrently for distinct i. Publishes the
  /// chunk balance speedup (sum of chunk CPU over max chunk CPU) to the
  /// ambient metrics registry under weber.executor.*.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Deterministic parallel fold: each chunk folds its range serially with
  /// `fold`, chunk results are combined with `combine` in ascending chunk
  /// order on the calling thread. The chunk count is pinned to
  /// EffectiveParallelism(), so the result is reproducible for a fixed
  /// parallelism (floating-point folds still depend on that chunk count —
  /// hot paths needing bit-equality across thread counts must not reduce
  /// floating point in parallel).
  template <typename T>
  T ParallelReduce(size_t n, T identity,
                   const std::function<T(size_t index, T acc)>& fold,
                   const std::function<T(T, T)>& combine) {
    if (n == 0) return identity;
    size_t chunks = ChunksFor(n);
    std::vector<T> partial(chunks, identity);
    ParallelChunks(n, chunks, [&](size_t c, size_t begin, size_t end) {
      T acc = identity;
      for (size_t i = begin; i < end; ++i) acc = fold(i, acc);
      partial[c] = acc;
    });
    T result = identity;
    for (T& p : partial) result = combine(std::move(result), std::move(p));
    return result;
  }

  ExecutorStats Snapshot() const;

  /// Re-expresses the stats on the ambient metrics registry (no-op when
  /// none is attached): counter deltas since the previous publish for
  /// volumes, gauges for workers / queue depth / aggregate utilization,
  /// and a per-worker utilization histogram.
  void PublishMetrics() EXCLUDES(publish_mu_);

 private:
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<GroupState> group;
  };
  struct alignas(64) WorkerQueue {
    util::Mutex mu;
    std::deque<Task> tasks GUARDED_BY(mu);
  };

  friend class TaskGroup;

  void Enqueue(Task task) EXCLUDES(sleep_mu_);
  bool TryRunOneTask(int self);
  bool PopOwn(size_t w, Task* task);
  bool StealFrom(int self, Task* task);
  void RunTask(int self, Task& task);
  void WorkerLoop(size_t w) EXCLUDES(sleep_mu_);
  size_t ChunksFor(size_t n) const;

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  util::Mutex sleep_mu_;
  util::CondVar sleep_cv_;
  std::atomic<uint64_t> pending_{0};
  bool stop_ GUARDED_BY(sleep_mu_) = false;

  std::atomic<size_t> next_queue_{0};
  std::atomic<uint64_t> tasks_submitted_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> max_queue_depth_{0};
  std::vector<std::unique_ptr<std::atomic<double>>> worker_busy_;
  std::atomic<double> helper_busy_{0.0};
  std::chrono::steady_clock::time_point start_time_;

  // Delta baseline for PublishMetrics.
  util::Mutex publish_mu_;
  ExecutorStats last_published_ GUARDED_BY(publish_mu_);
};

/// Scoped override of the ambient parallelism: how many chunks
/// Executor::ParallelFor cuts a range into (1 = serial inline execution).
/// Thread-local, so concurrent pipelines with different num_threads do not
/// interfere. Passing 0 leaves the previous value in place, mirroring
/// obs::ScopedRegistry, so callers can install an optional config field
/// unconditionally.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(size_t parallelism);
  ~ScopedParallelism();

  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  size_t prev_;
  bool installed_;
};

/// The parallelism parallel regions should use on this thread: the
/// innermost ScopedParallelism override, else Shared().num_workers().
size_t EffectiveParallelism();

}  // namespace weber::core

#endif  // WEBER_CORE_EXECUTOR_H_
