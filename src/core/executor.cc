#include "core/executor.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace weber::core {

namespace {

// Which pool (if any) the current thread belongs to, and its worker index.
// Helpers (threads blocked in Wait) keep tl_worker == -1.
thread_local Executor* tl_executor = nullptr;
thread_local int tl_worker = -1;

// The ambient registry's flight recorder when armed, else nullptr. One
// relaxed atomic load + one branch on the cold (disabled) path.
obs::EventLog* ActiveEventLog() {
  obs::MetricsRegistry* registry = obs::Current();
  if (registry == nullptr) return nullptr;
  obs::EventLog& log = registry->events();
  return log.enabled() ? &log : nullptr;
}

// Last event log this thread named its track in, so the (idempotent)
// NameThread call runs once per thread per recorder, not once per task.
thread_local const obs::EventLog* tl_named_log = nullptr;

// Set by a successful StealFrom, consumed by the RunTask that follows on
// the same thread: the steal event is recorded there, stamped with the
// task's begin time, so stealing itself takes no clock read and no
// flight-recorder lock while holding a victim queue's mutex.
thread_local bool tl_stole_last = false;

void NameTrackOnce(obs::EventLog* log, int self) {
  if (tl_named_log == log) return;
  log->NameThread(self >= 0 ? "worker " + std::to_string(self) : "helper");
  tl_named_log = log;
}

// Innermost ScopedParallelism override; 0 = unset.
thread_local size_t tl_parallelism = 0;

size_t DefaultWorkerCount() {
  if (const char* env = std::getenv("WEBER_NUM_THREADS")) {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && parsed > 0) {
      return std::min<size_t>(parsed, 64);
    }
  }
  // At least 4 so parallel paths (and their races, under TSan) are
  // exercised even on single-core containers, matching the historical
  // engine that spawned as many threads as the job requested.
  size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(hw, 4);
}

}  // namespace

struct Executor::GroupState {
  std::atomic<uint64_t> remaining{0};
  util::Mutex mu;
  util::CondVar cv;
  util::Mutex error_mu;
  std::exception_ptr error GUARDED_BY(error_mu);

  void SetError(std::exception_ptr e) EXCLUDES(error_mu) {
    util::MutexLock lock(error_mu);
    if (error == nullptr) error = std::move(e);
  }

  void Finish() EXCLUDES(mu) {
    uint64_t before = remaining.fetch_sub(1, std::memory_order_acq_rel);
    // Task-group balance: every Finish must pair with one Run. A zero
    // here means a task completed twice (or Finish ran without Run) and
    // the counter wrapped — Wait() would block forever or return early.
    WEBER_CHECK_GE(before, uint64_t{1})
        << "task group finished more tasks than were submitted";
    if (before == 1) {
      util::MutexLock lock(mu);
      cv.NotifyAll();
    }
  }
};

// ------------------------------------------------------------- TaskGroup

Executor::TaskGroup::TaskGroup(Executor& executor)
    : executor_(executor), state_(std::make_shared<GroupState>()) {}

Executor::TaskGroup::~TaskGroup() {
  try {
    Wait();
  } catch (...) {
    // A group abandoned without Wait() swallows the task error.
  }
}

void Executor::TaskGroup::Run(std::function<void()> fn) {
  state_->remaining.fetch_add(1, std::memory_order_acq_rel);
  executor_.Enqueue(Task{std::move(fn), state_});
}

void Executor::TaskGroup::Wait() {
  int self = (tl_executor == &executor_) ? tl_worker : -1;
  while (state_->remaining.load(std::memory_order_acquire) > 0) {
    if (executor_.TryRunOneTask(self)) continue;
    // Nothing runnable: our tasks are executing on other threads. Sleep
    // briefly but keep helping, in case new (e.g. nested) tasks appear.
    util::MutexLock lock(state_->mu);
    if (state_->remaining.load(std::memory_order_acquire) > 0) {
      state_->cv.WaitFor(state_->mu, std::chrono::milliseconds(1));
    }
  }
  WEBER_DCHECK_EQ(state_->remaining.load(std::memory_order_acquire),
                  uint64_t{0})
      << "Wait returned with tasks outstanding";
  std::exception_ptr error;
  {
    util::MutexLock lock(state_->error_mu);
    error = state_->error;
    state_->error = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

// -------------------------------------------------------------- Executor

Executor::Executor(size_t num_workers) {
  if (num_workers == 0) num_workers = DefaultWorkerCount();
  WEBER_CHECK_GE(num_workers, size_t{1})
      << "executor needs at least one worker slot";
  queues_.reserve(num_workers);
  worker_busy_.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    worker_busy_.push_back(std::make_unique<std::atomic<double>>(0.0));
  }
  start_time_ = std::chrono::steady_clock::now();
  last_published_.worker_busy_seconds.assign(num_workers, 0.0);
  // One worker means inline execution: tasks are drained by whoever waits.
  if (num_workers < 2) return;
  threads_.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

Executor::~Executor() {
  {
    util::MutexLock lock(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

Executor& Executor::Shared() {
  static Executor shared(0);
  return shared;
}

void Executor::Enqueue(Task task) {
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  size_t idx;
  if (tl_executor == this && tl_worker >= 0) {
    idx = static_cast<size_t>(tl_worker);  // Own deque: LIFO locality.
  } else {
    idx = next_queue_.fetch_add(1, std::memory_order_relaxed) %
          queues_.size();
  }
  {
    WorkerQueue& queue = *queues_[idx];
    util::MutexLock lock(queue.mu);
    queue.tasks.push_back(std::move(task));
  }
  uint64_t depth = pending_.fetch_add(1, std::memory_order_release) + 1;
  uint64_t observed = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > observed &&
         !max_queue_depth_.compare_exchange_weak(
             observed, depth, std::memory_order_relaxed)) {
  }
  if (!threads_.empty()) {
    // The empty critical section pairs with the predicate evaluation in
    // WorkerLoop so the notify cannot slot between a worker reading
    // pending_ == 0 and starting to sleep (lost wakeup).
    { util::MutexLock lock(sleep_mu_); }
    sleep_cv_.NotifyOne();
  }
}

bool Executor::PopOwn(size_t w, Task* task) {
  WEBER_DCHECK_LT(w, queues_.size()) << "worker index out of range";
  WorkerQueue& queue = *queues_[w];
  util::MutexLock lock(queue.mu);
  if (queue.tasks.empty()) return false;
  *task = std::move(queue.tasks.back());
  queue.tasks.pop_back();
  pending_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool Executor::StealFrom(int self, Task* task) {
  size_t nq = queues_.size();
  size_t start = self >= 0
                     ? static_cast<size_t>(self) + 1
                     : next_queue_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < nq; ++i) {
    size_t victim = (start + i) % nq;
    if (self >= 0 && victim == static_cast<size_t>(self)) continue;
    WorkerQueue& queue = *queues_[victim];
    util::MutexLock lock(queue.mu);
    if (queue.tasks.empty()) continue;
    *task = std::move(queue.tasks.front());  // FIFO end: oldest task.
    queue.tasks.pop_front();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    tl_stole_last = true;
    return true;
  }
  return false;
}

void Executor::RunTask(int self, Task& task) {
  obs::EventLog* log = ActiveEventLog();
  bool stolen = tl_stole_last;
  tl_stole_last = false;
  double trace_begin = log != nullptr ? obs::TraceClockNow() : 0.0;
  double cpu_start = util::ThreadCpuSeconds();
  try {
    task.fn();
  } catch (...) {
    task.group->SetError(std::current_exception());
  }
  if (log != nullptr) {
    NameTrackOnce(log, self);
    if (stolen) {
      log->RecordComplete("steal", trace_begin, trace_begin, "executor");
    }
    log->RecordComplete("task", trace_begin, obs::TraceClockNow(),
                        "executor");
  }
  double busy = util::ThreadCpuSeconds() - cpu_start;
  if (self >= 0) {
    worker_busy_[static_cast<size_t>(self)]->fetch_add(
        busy, std::memory_order_relaxed);
  } else {
    helper_busy_.fetch_add(busy, std::memory_order_relaxed);
  }
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<GroupState> group = std::move(task.group);
  task = Task{};  // Drop the closure before signalling completion.
  group->Finish();
}

bool Executor::TryRunOneTask(int self) {
  Task task;
  bool got = (self >= 0 && PopOwn(static_cast<size_t>(self), &task)) ||
             StealFrom(self, &task);
  if (!got) return false;
  RunTask(self, task);
  return true;
}

void Executor::WorkerLoop(size_t w) {
  tl_executor = this;
  tl_worker = static_cast<int>(w);
  Task task;
  while (true) {
    if (PopOwn(w, &task) || StealFrom(static_cast<int>(w), &task)) {
      RunTask(static_cast<int>(w), task);
      continue;
    }
    util::MutexLock lock(sleep_mu_);
    while (!stop_ && pending_.load(std::memory_order_acquire) == 0) {
      sleep_cv_.Wait(sleep_mu_);
    }
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

size_t Executor::ChunksFor(size_t n) const {
  size_t parallelism = tl_parallelism;
  if (parallelism == 0) parallelism = std::max<size_t>(num_workers(), 1);
  return std::min(n, parallelism);
}

void Executor::ParallelChunks(
    size_t n, size_t chunks,
    const std::function<void(size_t, size_t, size_t)>& fn,
    std::vector<double>* chunk_cpu) {
  chunks = std::max<size_t>(chunks, 1);
  if (chunk_cpu != nullptr) chunk_cpu->assign(chunks, 0.0);
  if (n == 0) return;
  size_t chunk_size = (n + chunks - 1) / chunks;
  size_t live = (n + chunk_size - 1) / chunk_size;
  // The CPU clock is a syscall, read only when chunk_cpu asks for it.
  if (live <= 1) {
    double cpu_start = chunk_cpu != nullptr ? util::ThreadCpuSeconds() : 0.0;
    fn(0, 0, n);
    if (chunk_cpu != nullptr) {
      (*chunk_cpu)[0] = util::ThreadCpuSeconds() - cpu_start;
    }
    return;
  }
  TaskGroup group(*this);
  for (size_t c = 0; c < live; ++c) {
    size_t begin = c * chunk_size;
    size_t end = std::min(n, begin + chunk_size);
    WEBER_DCHECK_LT(begin, end) << "empty chunk dispatched";
    group.Run([&fn, chunk_cpu, c, begin, end] {
      double cpu_start =
          chunk_cpu != nullptr ? util::ThreadCpuSeconds() : 0.0;
      fn(c, begin, end);
      if (chunk_cpu != nullptr) {
        (*chunk_cpu)[c] = util::ThreadCpuSeconds() - cpu_start;
      }
    });
  }
  group.Wait();
}

void Executor::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  size_t chunks = ChunksFor(n);
  if (chunks <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<double> chunk_cpu;
  ParallelChunks(
      n, chunks,
      [&fn](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) fn(i);
      },
      &chunk_cpu);
  if (obs::MetricsRegistry* registry = obs::Current()) {
    double sum = 0.0;
    double max = 0.0;
    for (double c : chunk_cpu) {
      sum += c;
      max = std::max(max, c);
    }
    double balance = max > 0.0 ? sum / max : 1.0;
    registry->GetCounter("weber.executor.parallel_fors").Increment();
    registry->GetGauge("weber.executor.balance_speedup").Set(balance);
    registry->GetHistogram("weber.executor.parallel_for_balance")
        .Record(balance);
  }
}

ExecutorStats Executor::Snapshot() const {
  ExecutorStats stats;
  stats.workers = queues_.size();
  stats.tasks_submitted = tasks_submitted_.load(std::memory_order_relaxed);
  stats.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  stats.queue_depth = pending_.load(std::memory_order_relaxed);
  stats.worker_busy_seconds.reserve(worker_busy_.size());
  for (const auto& busy : worker_busy_) {
    stats.worker_busy_seconds.push_back(
        busy->load(std::memory_order_relaxed));
  }
  stats.helper_busy_seconds = helper_busy_.load(std::memory_order_relaxed);
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  return stats;
}

void Executor::PublishMetrics() {
  obs::MetricsRegistry* registry = obs::Current();
  if (registry == nullptr) return;
  util::MutexLock lock(publish_mu_);
  ExecutorStats now = Snapshot();
  const ExecutorStats& prev = last_published_;
  registry->GetCounter("weber.executor.tasks_run")
      .Add(now.tasks_run - prev.tasks_run);
  registry->GetCounter("weber.executor.tasks_submitted")
      .Add(now.tasks_submitted - prev.tasks_submitted);
  registry->GetCounter("weber.executor.steals")
      .Add(now.steals - prev.steals);
  registry->GetGauge("weber.executor.workers")
      .Set(static_cast<double>(now.workers));
  registry->GetGauge("weber.executor.max_queue_depth")
      .Set(static_cast<double>(now.max_queue_depth));
  registry->GetGauge("weber.executor.queue_depth")
      .Set(static_cast<double>(now.queue_depth));
  registry->GetGauge("weber.executor.helper_busy_seconds")
      .Set(now.helper_busy_seconds);
  registry->GetGauge("weber.executor.uptime_seconds")
      .Set(now.uptime_seconds);
  double wall = now.uptime_seconds - prev.uptime_seconds;
  if (wall > 0.0 && now.workers > 0) {
    double busy = now.helper_busy_seconds - prev.helper_busy_seconds;
    obs::Histogram& per_worker =
        registry->GetHistogram("weber.executor.worker_utilization");
    for (size_t w = 0; w < now.worker_busy_seconds.size(); ++w) {
      double prev_busy = w < prev.worker_busy_seconds.size()
                             ? prev.worker_busy_seconds[w]
                             : 0.0;
      double delta = now.worker_busy_seconds[w] - prev_busy;
      busy += delta;
      per_worker.Record(delta / wall);
    }
    registry->GetGauge("weber.executor.utilization")
        .Set(busy / (wall * static_cast<double>(now.workers)));
  }
  last_published_ = std::move(now);
}

// ---------------------------------------------------- ScopedParallelism

ScopedParallelism::ScopedParallelism(size_t parallelism)
    : prev_(tl_parallelism), installed_(parallelism != 0) {
  if (installed_) tl_parallelism = parallelism;
}

ScopedParallelism::~ScopedParallelism() {
  if (installed_) tl_parallelism = prev_;
}

size_t EffectiveParallelism() {
  if (tl_parallelism != 0) return tl_parallelism;
  return std::max<size_t>(Executor::Shared().num_workers(), 1);
}

}  // namespace weber::core
