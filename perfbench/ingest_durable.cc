// ingest_durable: the dirty corpus streamed through a durable 4-shard
// ShardedResolver in 64-entity Ingest calls, a checkpoint, and a cold
// reopen that must end digest-equal.

#include <algorithm>
#include <memory>
#include <optional>

#include "bench.h"
#include "incremental/resolver.h"
#include "matching/matcher.h"
#include "serve/sharded_resolver.h"

namespace weber::perfbench {

namespace {

constexpr size_t kBatch = 64;
constexpr size_t kShards = 4;
constexpr double kThreshold = 0.6;
constexpr size_t kPurgeCap = 64;
// A Resolve on the recovered state is a lookup of well under a microsecond.
// Timed one call at a time, its p50 swung by 25% between runs; timed over
// a cold sweep of the whole id space, by 60%, with how the run's heap
// happened to lay out. So the probes are a fixed set of ids spread over
// the id space, swept repeatedly (warm), and a latency sample is the mean
// over a group of consecutive resolves: 256 groups per pass.
constexpr size_t kResolveIds = 1024;
constexpr size_t kResolveGroup = 64;
constexpr size_t kResolveProbes = 16 * kResolveIds;

// The reference value for seed 42, as first measured; other seeds rely on
// the derived expectation alone.
constexpr uint64_t kSeed42Comparisons = 3915035;

serve::ShardedResolverOptions StreamOptions(size_t shards,
                                            const std::string& data_dir) {
  serve::ShardedResolverOptions options;
  options.shards = shards;
  options.match_threshold = kThreshold;
  options.index.max_block_size = kPurgeCap;
  options.data_dir = data_dir;
  options.fsync = storage::FsyncPolicy::kBatch;
  return options;
}

/// Streams the collection in kBatch-entity Ingest calls; returns the
/// stream's wall seconds and appends each call's latency.
template <typename Resolver>
double Stream(Resolver& resolver, const model::EntityCollection& collection,
              std::vector<double>* latencies, Report& report) {
  uint64_t failed = 0, calls = 0;
  Clock::time_point start = Clock::now();
  for (model::EntityId begin = 0; begin < collection.size(); begin += kBatch) {
    model::EntityId end = std::min<model::EntityId>(
        begin + kBatch, static_cast<model::EntityId>(collection.size()));
    std::vector<model::EntityDescription> batch;
    batch.reserve(end - begin);
    for (model::EntityId id = begin; id < end; ++id) {
      batch.push_back(collection.at(id));
    }
    Clock::time_point t = Clock::now();
    std::vector<model::EntityId> ids = resolver.Ingest(std::move(batch));
    if (latencies != nullptr) {
      latencies->push_back(SecondsBetween(t, Clock::now()));
    }
    ++calls;
    if (ids.size() != end - begin || ids.front() != begin) ++failed;
  }
  double seconds = SecondsBetween(start, Clock::now());
  report.Ops(calls, failed);
  report.Check(failed == 0, "ingest: every call gets its dense ids");
  return seconds;
}

/// What a reference stream leaves behind: the shard-count oracle.
struct Reference {
  uint64_t digest = 0;
  uint64_t comparisons = 0;
};

Reference ReferenceRun(const matching::Matcher& matcher,
                       const model::EntityCollection& collection,
                       Report& report) {
  serve::ShardedResolver resolver(&matcher, StreamOptions(1, ""));
  Stream(resolver, collection, nullptr, report);
  return {resolver.StateDigest(), resolver.comparisons()};
}

void CheckComparisons(const Options& options, Report& report,
                      const Reference& reference, uint64_t comparisons) {
  report.Expect("ingest_durable.comparisons",
                static_cast<double>(reference.comparisons),
                static_cast<double>(comparisons));
  if (options.seed == 42) {
    report.Check(comparisons == kSeed42Comparisons,
                 "ingest_durable: seed 42 makes 3915035 comparisons, not " +
                     std::to_string(comparisons));
  }
}

}  // namespace

void MeasureIngestDurable(const Options& options, Report& report) {
  matching::TokenJaccardMatcher matcher;
  // Times are host-scaled per phase (see HostClock); run_wall_s is not.
  std::vector<double> setup_s, run_s, run_wall_s, ingest_eps, recover_s;
  PassSamples ingest_lat, resolve_lat;
  double f1 = 0.0;
  // The expected state for this seed: the same stream on one non-durable
  // shard (bit-equal for any shard count).
  Reference reference = ReferenceRun(
      matcher, StreamCorpus(options.seed).collection, report);

  HostClock host;
  PassLoop loop(options.seconds);
  while (loop.Next()) {
    Clock::time_point setup_start = Clock::now();
    datagen::Corpus corpus = StreamCorpus(options.seed);
    ScratchDir dir(options, "ingest");
    auto live = std::make_unique<serve::ShardedResolver>(
        &matcher, StreamOptions(kShards, dir.path()));
    double pass_setup_s = SecondsBetween(setup_start, Clock::now());
    report.Check(live->recovery_status().ok(), "ingest_durable: fresh open");
    const model::EntityCollection& collection = corpus.collection;

    Clock::time_point run_start = Clock::now();
    std::vector<double> ingest_s, resolve_s;
    double stream_s = Stream(*live, collection, &ingest_s, report);
    storage::Status checkpoint = live->Checkpoint();
    run_wall_s.push_back(SecondsBetween(run_start, Clock::now()));
    double scale = host.EndPhase();
    setup_s.push_back(pass_setup_s * scale);
    run_s.push_back(run_wall_s.back() * scale);
    ingest_eps.push_back(static_cast<double>(collection.size()) /
                         (stream_s * scale));
    ingest_lat.AddPass(std::move(ingest_s), scale);
    report.Ops(1, checkpoint.ok() ? 0 : 1);
    report.Check(checkpoint.ok(), "ingest_durable: checkpoint");
    uint64_t live_digest = live->StateDigest();
    CheckComparisons(options, report, reference, live->comparisons());
    report.Check(live_digest == reference.digest,
                 "ingest_durable: 4 durable shards digest-equal to 1 shard");
    live.reset();  // Closes every WAL.

    Clock::time_point recover_start = Clock::now();
    serve::ShardedResolver recovered(&matcher,
                                     StreamOptions(kShards, dir.path()));
    double pass_recover_s = SecondsBetween(recover_start, Clock::now());
    bool recovered_ok = recovered.recovery_status().ok() &&
                        recovered.StateDigest() == live_digest;
    report.Ops(1, recovered_ok ? 0 : 1);
    report.Check(recovered_ok, "ingest_durable: recovery is digest-equal");
    CheckComparisons(options, report, reference, recovered.comparisons());

    uint64_t resolve_failed = 0;
    std::vector<std::optional<incremental::IncrementalResolver::Resolution>>
        resolutions(kResolveGroup);
    auto probe = [&collection](size_t k) {
      return static_cast<model::EntityId>((k % kResolveIds) *
                                          collection.size() / kResolveIds);
    };
    for (size_t begin = 0; begin < kResolveProbes; begin += kResolveGroup) {
      Clock::time_point t = Clock::now();
      for (size_t i = 0; i < kResolveGroup; ++i) {
        resolutions[i] = recovered.Resolve(probe(begin + i));
      }
      resolve_s.push_back(SecondsBetween(t, Clock::now()) /
                          static_cast<double>(kResolveGroup));
      for (size_t i = 0; i < kResolveGroup; ++i) {
        const auto& resolution = resolutions[i];
        model::EntityId id = probe(begin + i);
        if (!resolution || !std::binary_search(resolution->members.begin(),
                                               resolution->members.end(),
                                               id)) {
          ++resolve_failed;
        }
      }
    }
    scale = host.EndPhase();
    recover_s.push_back(pass_recover_s * scale);
    resolve_lat.AddPass(std::move(resolve_s), scale);
    report.Ops(kResolveProbes, resolve_failed);
    report.Check(resolve_failed == 0,
                 "ingest_durable: recovered resolves contain the entity");
    f1 = PairF1(recovered.matches(), corpus.truth);
  }

  report.set_run_wall_s(Median(run_wall_s));
  report.set_calibration_s(host.MedianS());
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  report.Metric("f1", f1, "ratio");
  report.Metric("ok_ratio", report.OkRatio(), "ratio");
  report.Metric("run_s", Median(run_s), "s");
  report.Metric("ingest_eps", Median(ingest_eps), "entities/s");
  report.Metric("ingest_p50_ms", ingest_lat.Ms(0.5), "ms");
  report.Metric("ingest_tail_ms", ingest_lat.Ms(kTailQ), "ms");
  report.Metric("recover_s", Median(recover_s), "s");
  report.Metric("resolve_p50_ms", resolve_lat.Ms(0.5), "ms");
  report.Metric("resolve_tail_ms", resolve_lat.Ms(kTailQ), "ms");
}

void TraceIngestDurable(const Options& options, Report& report, Spans& spans,
                        double budget_s) {
  matching::TokenJaccardMatcher matcher;
  datagen::Corpus corpus = StreamCorpus(options.seed);
  const model::EntityCollection& collection = corpus.collection;
  const double n = static_cast<double>(collection.size());
  uint64_t candidates = 0, comparisons = 0, purged_tokens = 0;
  double wal_bytes_per_entity = 0.0;

  PassLoop loop(budget_s);
  while (loop.Next()) {
    uint64_t digest = 0;
    {
      serve::ShardedResolver sharded(&matcher, StreamOptions(kShards, ""));
      Spans::Scope span(&spans, "serve.stream_shards4");
      Stream(sharded, collection, nullptr, report);
      digest = sharded.StateDigest();
    }
    uint64_t single_comparisons = 0;
    {
      serve::ShardedResolver single(&matcher, StreamOptions(1, ""));
      Spans::Scope span(&spans, "serve.stream_shards1");
      Stream(single, collection, nullptr, report);
      span.End();
      report.Check(single.StateDigest() == digest,
                   "ingest_durable: 1 and 4 shards are digest-equal");
      single_comparisons = single.comparisons();
    }
    {
      incremental::ResolverOptions resolver_options;
      resolver_options.match_threshold = kThreshold;
      resolver_options.index.max_block_size = kPurgeCap;
      incremental::IncrementalResolver incremental(&matcher, resolver_options);
      Spans::Scope span(&spans, "incremental.stream");
      Stream(incremental, collection, nullptr, report);
      span.End();
      report.Check(incremental.comparisons() == single_comparisons,
                   "ingest_durable: incremental makes the same comparisons");
    }
    {
      ScratchDir dir(options, "trace-ingest");
      serve::ShardedResolverOptions durable_options =
          StreamOptions(kShards, dir.path());
      auto live =
          std::make_unique<serve::ShardedResolver>(&matcher, durable_options);
      {
        // The traced run_s: the durable stream and its checkpoint.
        Spans::Scope run(&spans, "ingest.run");
        {
          Spans::Scope span(&spans, "storage.durable_stream");
          Stream(*live, collection, nullptr, report);
        }
        Spans::Scope span(&spans, "storage.checkpoint");
        report.Check(live->Checkpoint().ok(), "ingest_durable: checkpoint");
      }
      report.Check(live->StateDigest() == digest,
                   "ingest_durable: durable shards are digest-equal");
      candidates = live->candidates();
      comparisons = live->comparisons();
      purged_tokens = live->IndexStats().purged_tokens;
      wal_bytes_per_entity =
          static_cast<double>(DirectoryBytes(dir.path())) / n;
      live.reset();
      Spans::Scope span(&spans, "storage.replay");
      serve::ShardedResolver recovered(&matcher, durable_options);
      span.End();
      report.Check(recovered.recovery_status().ok() &&
                       recovered.StateDigest() == digest,
                   "ingest_durable: replay is digest-equal");
    }
  }

  double shards4 = spans.MedianOf("serve.stream_shards4");
  double shards1 = spans.MedianOf("serve.stream_shards1");
  double durable = spans.MedianOf("storage.durable_stream");
  report.Metric("serve.shard_speedup", shards1 / shards4, "x");
  report.Metric("serve.vs_incremental",
                spans.MedianOf("incremental.stream") / shards1, "x");
  report.Metric("storage.wal_overhead_s", durable - shards4, "s");
  report.Metric("serve.candidates", static_cast<double>(candidates), "count");
  report.Metric("serve.comparisons", static_cast<double>(comparisons), "count");
  report.Metric("incremental.purged_tokens", static_cast<double>(purged_tokens),
                "count");
  report.Metric("storage.checkpoint_s", spans.MedianOf("storage.checkpoint"),
                "s");
  report.Metric("storage.replay_eps", n / spans.MedianOf("storage.replay"),
                "entities/s");
  report.Metric("storage.wal_bytes_per_entity", wal_bytes_per_entity, "B");
}

}  // namespace weber::perfbench
