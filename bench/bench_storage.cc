// Durability subsystem rates (see DESIGN.md "Durability"): snapshot
// write and load bandwidth, the O(1) zero-copy mapped open, and WAL
// append/replay throughput.
//
// Claims to measure: (a) snapshot encode+write and eager load move at
// memory/disk bandwidth, scaling linearly in state size; (b) the mapped
// open with arena verification off is flat in file size — it parses the
// header and borrows the arenas out of the mapping without touching the
// payload pages (the zero-copy claim, visible as near-constant
// open_us across rows); (c) WAL append rates under fsync=off/batch
// bound the no-durability and group-commit costs, and replay drains a
// cold WAL at ingest speed.
//
// Rows: resolver store size (snapshot benches), record count (WAL
// benches). Counters: bytes, MB/s, records/s, open_us.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "incremental/resolver.h"
#include "matching/matcher.h"
#include "matching/signatures.h"
#include "storage/durable.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/timer.h"

namespace weber {
namespace {

/// A disposable directory under /tmp, removed with its contents.
class BenchDir {
 public:
  BenchDir() {
    char pattern[] = "/tmp/weber-bench-storage-XXXXXX";
    char* made = mkdtemp(pattern);
    path_ = made == nullptr ? "/tmp" : made;
  }
  ~BenchDir() {
    std::vector<std::string> entries;
    if (storage::ListDirectory(path_, &entries).ok()) {
      for (const std::string& entry : entries) {
        std::remove((path_ + "/" + entry).c_str());
      }
    }
    std::remove(path_.c_str());
  }
  std::string file(const std::string& name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Duplicate-rich synthetic corpus: every pair of twins shares a name, so
/// the resolver accumulates matches, clusters and a busy token index —
/// snapshot sections of every kind are non-trivial.
std::vector<model::EntityDescription> StorageCorpus(size_t n) {
  const char* first[] = {"alice", "bob", "carol", "dave", "erin", "frank"};
  const char* last[] = {"smith", "jones", "white", "black", "green"};
  std::vector<model::EntityDescription> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    model::EntityDescription d("http://kb/" + std::to_string(i), "person");
    size_t pair_id = i / 2;
    d.AddPair("name", std::string(first[pair_id % 6]) + " " +
                          last[(pair_id / 6) % 5] + " " +
                          std::to_string(pair_id));
    d.AddPair("city", "city" + std::to_string(i % 997));
    out.push_back(std::move(d));
  }
  return out;
}

incremental::ResolverOptions StorageResolverOptions() {
  incremental::ResolverOptions options;
  // The online purge cap bounds every posting: ingest stays linear in
  // corpus size, so the benches measure storage rates, not matching.
  options.index.max_block_size = 64;
  return options;
}

void FillResolver(incremental::IncrementalResolver* resolver, size_t n) {
  std::vector<model::EntityDescription> corpus = StorageCorpus(n);
  const size_t batch = 256;
  for (size_t start = 0; start < corpus.size(); start += batch) {
    size_t end = std::min(start + batch, corpus.size());
    resolver->Ingest(std::vector<model::EntityDescription>(
        corpus.begin() + static_cast<int64_t>(start),
        corpus.begin() + static_cast<int64_t>(end)));
  }
}

void BM_SnapshotWrite(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  matching::TokenJaccardMatcher matcher;
  incremental::IncrementalResolver resolver(&matcher, StorageResolverOptions());
  FillResolver(&resolver, n);
  BenchDir dir;
  size_t bytes = 0;
  for (auto _ : state) {
    std::vector<uint8_t> image = storage::SnapshotCodec::Encode(resolver, 0,
                                                                n);
    bytes = image.size();
    storage::Status status =
        storage::AtomicWriteFile(dir.file("snapshot"), image);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    benchmark::DoNotOptimize(image.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()) /
          1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotWrite)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotLoadEager(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  matching::TokenJaccardMatcher matcher;
  incremental::IncrementalResolver writer(&matcher, StorageResolverOptions());
  FillResolver(&writer, n);
  BenchDir dir;
  std::vector<uint8_t> image = storage::SnapshotCodec::Encode(writer, 0, n);
  storage::AtomicWriteFile(dir.file("snapshot"), image);
  storage::SnapshotCodec::LoadOptions options;
  options.mapped = false;  // Copy every arena out of the file.
  for (auto _ : state) {
    incremental::IncrementalResolver reader(&matcher, StorageResolverOptions());
    uint64_t op_count = 0;
    storage::Status status = storage::SnapshotCodec::Load(
        dir.file("snapshot"), 0, options, &reader, &op_count);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    benchmark::DoNotOptimize(op_count);
  }
  state.counters["bytes"] = static_cast<double>(image.size());
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(image.size()) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotLoadEager)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotOpenMapped(benchmark::State& state) {
  // The zero-copy claim: with verification off, opening the signature
  // arenas out of an mmap costs header parsing + pointer fixups only.
  // open_us should stay near-flat from 1k to 100k entities while the
  // file grows ~100x.
  const size_t n = static_cast<size_t>(state.range(0));
  matching::TokenJaccardMatcher matcher;
  incremental::IncrementalResolver writer(&matcher, StorageResolverOptions());
  FillResolver(&writer, n);
  BenchDir dir;
  std::vector<uint8_t> image = storage::SnapshotCodec::Encode(writer, 0, n);
  storage::AtomicWriteFile(dir.file("snapshot"), image);
  storage::SnapshotCodec::LoadOptions options;
  options.mapped = true;
  options.verify_arenas = false;
  util::Timer timer;
  for (auto _ : state) {
    matching::SignatureStore store;
    storage::Status status = storage::SnapshotCodec::OpenSignatures(
        dir.file("snapshot"), options, &store);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["bytes"] = static_cast<double>(image.size());
  // Wall microseconds per open. (kIsRate | kInvert would give seconds.)
  state.counters["open_us"] = benchmark::Counter(
      timer.ElapsedSeconds() * 1e6, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SnapshotOpenMapped)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_WalAppend(benchmark::State& state) {
  // range(0): records per iteration; range(1): 0 = fsync off, 1 = batch.
  const size_t records = static_cast<size_t>(state.range(0));
  storage::FsyncPolicy policy = state.range(1) == 0
                                    ? storage::FsyncPolicy::kOff
                                    : storage::FsyncPolicy::kBatch;
  std::vector<uint8_t> payload(128, 0xAB);  // A small ingest-ish record.
  BenchDir dir;
  size_t bytes = 0;
  for (auto _ : state) {
    storage::WriteAheadLog wal;
    storage::Status status =
        wal.Create(dir.file("wal"), 0, policy, 64);
    for (size_t i = 0; status.ok() && i < records; ++i) {
      status = wal.Append(storage::WriteAheadLog::kIngestBatch, payload);
    }
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    bytes = wal.appended_bytes();
    wal.Close();
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(records) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()) /
          1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WalAppend)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Unit(benchmark::kMillisecond);

void BM_WalReplay(benchmark::State& state) {
  // End-to-end recovery from a WAL-only directory: parse + CRC every
  // frame, decode every description, re-absorb into the resolver.
  const size_t n = static_cast<size_t>(state.range(0));
  matching::TokenJaccardMatcher matcher;
  BenchDir dir;
  storage::DurabilityOptions durability;
  durability.data_dir = dir.path();
  durability.fsync = storage::FsyncPolicy::kOff;
  {
    storage::DurableResolver durable(&matcher, {}, durability);
    std::vector<model::EntityDescription> corpus = StorageCorpus(n);
    const size_t batch = 64;
    for (size_t start = 0; start < corpus.size(); start += batch) {
      size_t end = std::min(start + batch, corpus.size());
      durable.Ingest(std::vector<model::EntityDescription>(
          corpus.begin() + static_cast<int64_t>(start),
          corpus.begin() + static_cast<int64_t>(end)));
    }
  }  // No checkpoint: recovery below replays every record.
  uint64_t replayed = 0;
  for (auto _ : state) {
    storage::DurableResolver recovered(&matcher, {}, durability);
    if (!recovered.healthy()) {
      state.SkipWithError(recovered.recovery_status().ToString().c_str());
    }
    replayed = recovered.replayed_records();
    benchmark::DoNotOptimize(replayed);
  }
  state.counters["records"] = static_cast<double>(replayed);
  state.counters["entities/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WalReplay)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace weber

WEBER_BENCH_MAIN("bench_storage");
