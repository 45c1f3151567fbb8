// The serve probe of the traced run: an in-process UnixServer over a
// non-durable 4-shard ShardedResolveService. Two closed-loop writer
// connections stream the dirty corpus in 16-entity ingest requests and
// remove one acknowledged id every 8 requests, while one reader connection
// sends open-loop resolves at 100/s, each timed from its scheduled send
// instant. It is not an end-to-end workload: with a server thread, three
// connections, the service leader and the executor on 4 vCPUs, its times
// spread run to run by more than any bound the benchmark could hold.

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

#include "bench.h"
#include "matching/match_graph.h"
#include "matching/matcher.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/sync.h"

namespace weber::perfbench {

namespace {

constexpr size_t kRequestEntities = 16;
constexpr size_t kShards = 4;
constexpr double kThreshold = 0.6;
constexpr size_t kPurgeCap = 64;
constexpr size_t kWriters = 2;
constexpr size_t kRemoveEvery = 8;
constexpr size_t kRemoveLag = 4;  // Remove an id acked this many requests ago.
// One reader connection serves one resolve at a time, and under ingest a
// resolve takes ~0.8 ms at p50 and ~2 ms at p90: 2,000/s is past its
// capacity (the backlog grows for the whole pass), and at 250/s the 4 ms
// period is within reach of the tail, so a host slowdown queues resolves
// and the p90 swung from 2 to 9 ms between runs. 100/s keeps the period
// well above the tail.
constexpr double kResolveRate = 100.0;
constexpr double kMaxLateS = 1.0;  // Later than this = never sent.
constexpr size_t kIdleProbes = 2000;

serve::ShardedResolverOptions ResolverOptions() {
  serve::ShardedResolverOptions options;
  options.shards = kShards;
  options.match_threshold = kThreshold;
  options.index.max_block_size = kPurgeCap;
  return options;
}

bool ResolvedWell(const serve::Response& response, model::EntityId id) {
  const auto& members = response.members;
  return response.status == serve::ServeErrc::kOk &&
         std::binary_search(members.begin(), members.end(), id) &&
         std::binary_search(members.begin(), members.end(),
                            response.representative);
}

/// Everything one mixed pass measured.
struct MixedPass {
  std::vector<double> resolve_lat;  // From the scheduled send instant.
  std::vector<double> late;         // Send instant minus scheduled instant.
  // The same resolves, and pings, against the idle server afterwards.
  std::vector<double> idle_resolve_lat;
  std::vector<double> ping_rtt;
  uint64_t requests = 0, batches = 0, shed = 0;
  serve::Request sample_ingest;
  serve::Response sample_ingest_response;
  serve::Response sample_resolve_response;
};

/// Checks the final service state: ids are a permutation, every match edge
/// joins two live entities that really match, the clusters are the
/// components of the live match graph.
void CheckFinalState(Report& report, serve::ShardedResolver& resolver,
                     const datagen::Corpus& corpus,
                     const std::vector<int64_t>& corpus_of,
                     const matching::Matcher& matcher) {
  const size_t n = corpus.collection.size();
  std::vector<bool> seen(n, false);
  bool permutation = resolver.size() == n;
  for (size_t gid = 0; gid < n && permutation; ++gid) {
    int64_t c = corpus_of[gid];
    permutation = c >= 0 && !seen[c];
    if (permutation) seen[c] = true;
  }
  if (!report.Check(permutation, "serve_mixed: ids are a permutation")) {
    return;
  }
  bool edges_ok = true;
  matching::MatchGraph graph(n);
  for (const model::IdPair& pair : resolver.matches()) {
    edges_ok = edges_ok && resolver.alive(pair.low) &&
               resolver.alive(pair.high) &&
               matcher.Similarity(resolver.DescriptionOf(pair.low),
                                  resolver.DescriptionOf(pair.high)) >=
                   kThreshold;
    graph.AddMatch(pair.low, pair.high);
  }
  report.Check(edges_ok, "serve_mixed: every match edge is live and matches");
  matching::Clusters components;
  for (auto& cluster : matching::ConnectedComponents(graph)) {
    if (resolver.alive(cluster.front())) components.push_back(cluster);
  }
  report.Check(Canonical(resolver.Clusters()) == Canonical(components),
               "serve_mixed: clusters are the live match components");
}

/// One pass: set-up, the mixed load, the idle probes and the final-state
/// checks.
MixedPass RunMixedPass(const Options& options, Report& report,
                       uint64_t pass_seed) {
  MixedPass pass;
  matching::TokenJaccardMatcher matcher;

  datagen::Corpus corpus = StreamCorpus(options.seed);
  const model::EntityCollection& collection = corpus.collection;
  const size_t n = collection.size();
  const size_t num_requests = (n + kRequestEntities - 1) / kRequestEntities;
  ScratchDir dir(options, "mixed");
  serve::ShardedServiceOptions service_options;
  service_options.resolver = ResolverOptions();
  serve::ShardedResolveService service(&matcher, service_options);
  serve::ServerOptions server_options;
  server_options.socket_path = dir.path() + "/serve.sock";
  serve::UnixServer server(&service, server_options);
  storage::Status started = server.Start();
  if (!report.Check(started.ok(), "serve_mixed: server starts: " +
                                      started.ToString())) {
    return pass;
  }
  std::thread server_thread([&server] { server.Serve(); });
  std::vector<serve::ServeClient> clients(kWriters + 1);
  bool connected = true;
  for (auto& client : clients) {
    connected = client.Connect(server_options.socket_path) && connected;
  }
  report.Check(connected, "serve_mixed: clients connect");

  // Shared between the writers and the reader.
  std::vector<int64_t> corpus_of(n, -1);
  util::Mutex pool_mu;
  std::vector<model::EntityId> resolvable;  // Guarded by pool_mu.
  std::atomic<size_t> writers_left{kWriters};

  struct WriterLog {
    uint64_t attempted = 0, failed = 0;
  };
  std::vector<WriterLog> logs(kWriters);
  auto writer = [&](size_t w) {
    WriterLog& log = logs[w];
    std::vector<model::EntityId> first_ids;
    for (size_t r = w; r < num_requests && connected; r += kWriters) {
      serve::Request request;
      request.type = serve::MessageType::kIngest;
      size_t begin = r * kRequestEntities;
      size_t end = std::min(n, begin + kRequestEntities);
      for (size_t c = begin; c < end; ++c) {
        request.entities.push_back(
            collection.at(static_cast<model::EntityId>(c)));
      }
      serve::Response response = clients[w].Call(request);
      ++log.attempted;
      if (response.status != serve::ServeErrc::kOk ||
          response.ids.size() != end - begin) {
        ++log.failed;
        continue;
      }
      for (size_t i = 0; i < response.ids.size(); ++i) {
        model::EntityId gid = response.ids[i];
        if (gid < n) corpus_of[gid] = static_cast<int64_t>(begin + i);
      }
      first_ids.push_back(response.ids.front());
      {
        util::MutexLock lock(pool_mu);
        resolvable.insert(resolvable.end(), response.ids.begin() + 1,
                          response.ids.end());
      }
      if (first_ids.size() % kRemoveEvery == 0 &&
          first_ids.size() > kRemoveLag) {
        serve::Request remove;
        remove.type = serve::MessageType::kRemove;
        remove.id = first_ids[first_ids.size() - 1 - kRemoveLag];
        ++log.attempted;
        if (clients[w].Call(remove).status != serve::ServeErrc::kOk) {
          ++log.failed;
        }
      }
      if (r == 0) {
        pass.sample_ingest = request;
        pass.sample_ingest_response = response;
      }
    }
    writers_left.fetch_sub(1);
  };

  uint64_t resolve_attempted = 0, resolve_failed = 0;
  auto reader = [&] {
    serve::ServeClient& client = clients[kWriters];
    std::mt19937_64 rng(pass_seed);
    // The schedule starts once the first acknowledged id exists.
    while (writers_left.load() > 0) {
      util::MutexLock lock(pool_mu);
      if (!resolvable.empty()) break;
      lock.Unlock();
      std::this_thread::yield();
    }
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kResolveRate));
    Clock::time_point start = Clock::now();
    for (uint64_t k = 0;; ++k) {
      Clock::time_point due = start + period * static_cast<int64_t>(k);
      std::this_thread::sleep_until(due);
      if (writers_left.load() == 0) break;
      ++resolve_attempted;
      Clock::time_point sent = Clock::now();
      double late = SecondsBetween(due, sent);
      pass.late.push_back(late);
      if (late > kMaxLateS) {
        ++resolve_failed;  // Never sent: the generator fell behind.
        continue;
      }
      serve::Request request;
      request.type = serve::MessageType::kResolve;
      {
        util::MutexLock lock(pool_mu);
        request.id = resolvable[rng() % resolvable.size()];
      }
      serve::Response response = client.Call(request);
      pass.resolve_lat.push_back(SecondsBetween(due, Clock::now()));
      if (!ResolvedWell(response, request.id)) ++resolve_failed;
      if (k == 0) pass.sample_resolve_response = response;
    }
  };

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  std::thread reader_thread(reader);
  for (auto& thread : threads) thread.join();
  reader_thread.join();

  if (connected && !resolvable.empty()) {
    // The same resolves and pings against the now idle server.
    serve::ServeClient& client = clients[kWriters];
    std::mt19937_64 rng(pass_seed + 1);
    util::MutexLock lock(pool_mu);  // Uncontended: the load has ended.
    for (size_t k = 0; k < kIdleProbes; ++k) {
      serve::Request request;
      request.type = serve::MessageType::kResolve;
      request.id = resolvable[rng() % resolvable.size()];
      Clock::time_point t = Clock::now();
      serve::Response response = client.Call(request);
      pass.idle_resolve_lat.push_back(SecondsBetween(t, Clock::now()));
      report.Check(ResolvedWell(response, request.id),
                   "serve_mixed: idle resolve");
      serve::Request ping;
      t = Clock::now();
      bool pong = client.Call(ping).status == serve::ServeErrc::kOk;
      pass.ping_rtt.push_back(SecondsBetween(t, Clock::now()));
      report.Check(pong, "serve_mixed: ping");
    }
  }

  for (auto& client : clients) client.Close();
  server.RequestStop();
  server_thread.join();

  uint64_t attempted = resolve_attempted, failed = resolve_failed;
  for (const WriterLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
  }
  report.Ops(attempted, failed);
  pass.requests = service.requests();
  pass.batches = service.batches_run();
  pass.shed = service.shed();

  CheckFinalState(report, service.resolver(), corpus, corpus_of, matcher);
  return pass;
}

}  // namespace

void TraceServeMixed(const Options& options, Report& report, Spans& spans,
                     double budget_s) {
  std::vector<double> busy_resolve, idle_resolve, ping, late;
  uint64_t requests = 0, batches = 0, shed = 0;
  MixedPass last;
  uint64_t pass_seed = options.seed;
  PassLoop loop(budget_s);
  while (loop.Next()) {
    {
      Spans::Scope span(&spans, "serve.mixed_pass");
      last = RunMixedPass(options, report, pass_seed++);
    }
    busy_resolve.insert(busy_resolve.end(), last.resolve_lat.begin(),
                        last.resolve_lat.end());
    idle_resolve.insert(idle_resolve.end(), last.idle_resolve_lat.begin(),
                        last.idle_resolve_lat.end());
    ping.insert(ping.end(), last.ping_rtt.begin(), last.ping_rtt.end());
    late.insert(late.end(), last.late.begin(), last.late.end());
    requests += last.requests;
    batches += last.batches;
    shed += last.shed;
  }

  // The protocol codec on this workload's frames: one ingest request and
  // its response, one resolve request and its response.
  serve::Request resolve_request;
  resolve_request.type = serve::MessageType::kResolve;
  size_t frames = 0;
  Clock::time_point codec_start = Clock::now();
  do {
    for (int i = 0; i < 64; ++i) {
      auto a = serve::EncodeRequest(last.sample_ingest);
      auto b = serve::EncodeResponse(last.sample_ingest_response);
      auto c = serve::EncodeRequest(resolve_request);
      auto d = serve::EncodeResponse(last.sample_resolve_response);
      bool ok = serve::DecodeRequest(a.data(), a.size()).has_value() &&
                serve::DecodeResponse(b.data(), b.size()).has_value() &&
                serve::DecodeRequest(c.data(), c.size()).has_value() &&
                serve::DecodeResponse(d.data(), d.size()).has_value();
      if (!ok) report.Check(false, "serve_mixed: codec round trip");
      frames += 4;
    }
  } while (SecondsBetween(codec_start, Clock::now()) < 0.05);
  double codec_s = SecondsBetween(codec_start, Clock::now());

  report.Metric("service.resolve_wait_ms",
                (Median(busy_resolve) - Median(idle_resolve)) * 1e3, "ms");
  report.Metric("service.requests_per_batch",
                batches == 0 ? 0.0
                             : static_cast<double>(requests) /
                                   static_cast<double>(batches),
                "requests");
  report.Metric("service.shed", static_cast<double>(shed), "count");
  report.Metric("protocol.codec_us",
                codec_s * 1e6 / static_cast<double>(frames), "us");
  report.Metric("socket.ping_rtt_us", Median(ping) * 1e6, "us");
  report.Metric("generator.late_tail_ms", Quantile(late, 0.99) * 1e3, "ms");
}

}  // namespace weber::perfbench
