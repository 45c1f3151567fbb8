#ifndef WEBER_SERVE_SERVICE_H_
#define WEBER_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "serve/sharded_resolver.h"
#include "util/sync.h"

namespace weber::serve {

/// Typed request outcomes of the serve front end. Wire-stable: these
/// values are the status byte of every weber_serve protocol response.
enum class ServeErrc : uint8_t {
  kOk = 0,
  /// Shed at admission: the ingest queue was past its watermark. The
  /// caller should back off and retry; nothing was enqueued.
  kOverloaded = 1,
  /// The entity id is unknown or removed.
  kNotFound = 2,
  /// The request could not be decoded.
  kBadRequest = 3,
  /// The service is draining; no new mutations are admitted.
  kShuttingDown = 4,
  kInternal = 5,
};

/// The name of a ServeErrc (for logs and bench reports).
const char* ServeErrcName(ServeErrc code);

/// Configuration of a ShardedResolveService.
struct ShardedServiceOptions {
  /// Coalescing cap: a leader drains queued ingest requests until the
  /// combined batch reaches this many entities (it always takes at least
  /// one request, so oversized requests still go through whole).
  size_t max_batch = 256;

  /// Admission watermark: an ingest arriving while this many entities are
  /// already queued (and at least one request is waiting) is shed with
  /// kOverloaded instead of being enqueued. An empty queue always admits,
  /// so progress is guaranteed at any watermark.
  size_t max_queue_entities = 4096;

  /// Resolver configuration (shards, threshold, durability, metrics).
  ShardedResolverOptions resolver;
};

/// The concurrent front door of a ShardedResolver: leader/follower
/// coalescing with bounded admission and typed load shedding.
///
/// Ingest callers enqueue their batch; one caller becomes the leader
/// (leadership hands off to the oldest waiter, so arrival order bounds
/// queueing delay), drains up to max_batch entities worth of requests and
/// runs a single sharded ingest for all of them — whose phases fan out
/// shards-way on the shared executor. Past the admission watermark new
/// ingests are shed with ServeErrc::kOverloaded before touching the
/// queue, which keeps p99 bounded under overload instead of letting the
/// queue (and every queued caller's latency) grow without limit.
class ShardedResolveService {
 public:
  struct IngestResult {
    ServeErrc status = ServeErrc::kOk;
    std::vector<model::EntityId> ids;  // Batch order; empty unless kOk.
  };

  /// The matcher is borrowed and must outlive the service.
  explicit ShardedResolveService(const matching::Matcher* matcher,
                                 ShardedServiceOptions options = {});

  /// Ingests a batch (thread-safe). kOk with the assigned ids, or
  /// kOverloaded / kShuttingDown without side effects.
  IngestResult Ingest(std::vector<model::EntityDescription> batch);

  /// The cluster of a live entity (thread-safe), or nullopt.
  std::optional<incremental::IncrementalResolver::Resolution> Resolve(
      model::EntityId id);

  /// Retires an entity (thread-safe). kOk, kNotFound or kShuttingDown.
  ServeErrc Remove(model::EntityId id);

  /// All current clusters over live entities (thread-safe).
  matching::Clusters Clusters();

  /// Stops admitting mutations; in-flight and queued requests still
  /// complete (call Drain() to wait for them).
  void BeginShutdown();

  /// Blocks until the ingest queue is empty and no leader is running,
  /// then syncs the WALs. Typically preceded by BeginShutdown().
  void Drain();

  uint64_t requests() const { return requests_.load(); }
  uint64_t batches_run() const { return batches_run_.load(); }
  uint64_t shed() const { return shed_.load(); }

  /// Outcome of construction-time recovery (see ShardedResolver).
  const storage::Status& recovery_status() const {
    return resolver_.recovery_status();
  }

  /// Direct access to the underlying resolver. The caller must guarantee
  /// no concurrent service calls while using it (configuration before
  /// serving, inspection after).
  ShardedResolver& resolver() { return resolver_; }
  const ShardedResolver& resolver() const { return resolver_; }

 private:
  struct Request {
    std::vector<model::EntityDescription> entities;
    std::vector<model::EntityId> ids;
    bool done = false;
  };

  obs::MetricsRegistry* Registry() const;
  /// Drains up to max_batch entities worth of requests, runs one sharded
  /// ingest for them and wakes their owners. Enters with queue_mu_ held,
  /// drops it for the resolver call (under resolver_mu_ — the two are
  /// never held together) and returns with queue_mu_ re-acquired.
  void LeadBatch() REQUIRES(queue_mu_) EXCLUDES(resolver_mu_);

  ShardedServiceOptions options_;
  ShardedResolver resolver_;

  util::Mutex queue_mu_;
  util::CondVar queue_cv_;
  std::deque<Request*> queue_ GUARDED_BY(queue_mu_);
  size_t queued_entities_ GUARDED_BY(queue_mu_) = 0;
  bool leader_active_ GUARDED_BY(queue_mu_) = false;
  /// Fairness: when a leader finishes with requests still queued, it hands
  /// leadership to the oldest waiter instead of letting all waiters re-race
  /// the condition variable (under which a freshly-arrived caller could
  /// keep winning and starve the head of the queue). Null = anyone may
  /// lead.
  Request* designated_ GUARDED_BY(queue_mu_) = nullptr;
  bool shutting_down_ GUARDED_BY(queue_mu_) = false;

  util::Mutex resolver_mu_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batches_run_{0};
  std::atomic<uint64_t> shed_{0};
};

}  // namespace weber::serve

#endif  // WEBER_SERVE_SERVICE_H_
