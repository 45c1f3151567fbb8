#ifndef WEBER_PERFBENCH_BENCH_H_
#define WEBER_PERFBENCH_BENCH_H_

// Shared plumbing of the perfbench driver: options, clocks, order
// statistics, the in-memory span recorder, correctness bookkeeping and the
// final one-line JSON report.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datagen/corpus_generator.h"
#include "matching/clustering.h"
#include "model/ground_truth.h"

namespace weber::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch root; every pass works in a fresh subdirectory.
  std::string tmp_root;
  /// Where the traced run writes its spans (empty = do not write).
  std::string trace_out;
  /// `--expect key=value` replaces a derived expected value (used by the
  /// benchmark's self-test to prove that a wrong expectation fails).
  std::map<std::string, double> expect;
};

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] of a sample.
double Quantile(std::vector<double> values, double q);

/// Host-speed normalisation. On a shared virtual machine the same
/// single-threaded code runs 20-30% slower or faster from one second or
/// minute to the next with the neighbours' load (its CPU time grows with
/// its wall time, so this is not steal), whatever the code is. So a run
/// times a fixed calibration kernel that calls no weber code (random
/// read-modify-writes over an 8 MiB table, a sort, hash-map inserts)
/// around each phase of each pass, and scales the phase's times by
/// kReferenceCalibrationS over the mean of the samples on either side. A
/// reported time is then the time on a host that runs the kernel in
/// kReferenceCalibrationS: a change to the library moves it, a slower
/// stretch of the host moves it much less.
constexpr double kReferenceCalibrationS = 0.030;

/// Seconds one run of the calibration kernel takes now: the median of
/// three back-to-back runs.
double CalibrationSeconds();

/// The calibration samples of one run, taken at phase boundaries.
class HostClock {
 public:
  HostClock() { samples_.push_back(CalibrationSeconds()); }
  /// Ends a phase: samples the kernel again and returns the factor that
  /// turns wall times measured since the previous sample into
  /// reference-host times.
  double EndPhase() {
    double before = samples_.back();
    samples_.push_back(CalibrationSeconds());
    return kReferenceCalibrationS / (0.5 * (before + samples_.back()));
  }
  /// The median calibration time over the run.
  double MedianS() const { return Median(samples_); }

 private:
  std::vector<double> samples_;
};

/// Latency samples kept per pass. A percentile is reported as the median
/// over passes of each pass's own percentile, so a host stall during one
/// pass moves it by one rank instead of flooding the pooled tail.
class PassSamples {
 public:
  /// Adds one pass's samples, each multiplied by its phase's host scale.
  void AddPass(std::vector<double> seconds, double scale) {
    for (double& s : seconds) s *= scale;
    passes_.push_back(std::move(seconds));
  }
  /// Median over passes of the q-quantile, in milliseconds.
  double Ms(double q) const;

 private:
  std::vector<std::vector<double>> passes_;
};

/// The tail percentile the report publishes for ingest and resolve
/// latency: the highest of p99/p95/p90 that held steady on every workload
/// (resolves queued behind ingest batches make the higher ones swing run
/// to run). Every pass has at least 2 samples beyond it, and every run more
/// than 10 beyond it over all its passes.
constexpr double kTailQ = 0.90;

/// The serving stream: the generator's default dirty corpus from 20,000
/// seed entities (35,008 descriptions for seed 42).
datagen::Corpus StreamCorpus(uint64_t seed);

/// Pairwise precision/recall F1 of reported pairs against a truth set.
double PairF1(const std::vector<model::IdPair>& reported,
              const model::GroundTruth& truth);

/// Canonical form of a clustering: members sorted, clusters sorted.
matching::Clusters Canonical(matching::Clusters clusters);

/// Bytes of every regular file under a directory.
uint64_t DirectoryBytes(const std::string& dir);

/// A fresh directory under the run's scratch root, removed (with all it
/// holds) when the object goes away, so no pass sees another pass's files.
class ScratchDir {
 public:
  ScratchDir(const Options& options, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// VmHWM of this process, in MiB.
double PeakRssMiB();

/// One-line JSON object describing the machine and the build, and the
/// run's median calibration time.
std::string Descriptor(const Options& options, double calibration_s);

/// Correctness and operation bookkeeping, plus the metrics of one run.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  /// Records a check; a failed one is printed to stderr and makes the run
  /// incorrect (the process then exits non-zero).
  bool Check(bool ok, const std::string& what);
  /// Checks `actual` against the expected value for `key`: the derived
  /// value unless `--expect key=...` overrides it. Exact comparison for
  /// counts; `tolerance` for ratios.
  bool Expect(const std::string& key, double derived, double actual,
              double tolerance = 0.0);

  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  double OkRatio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }
  bool correct() const { return correct_; }

  void Metric(const std::string& name, double value, const std::string& unit);
  /// The median wall time, not host-scaled, of the operation behind
  /// run_s; the traced run compares its own span of that operation with it.
  void set_run_wall_s(double seconds) { run_wall_s_ = seconds; }
  double run_wall_s() const { return run_wall_s_; }
  /// The run's median calibration time, printed in the descriptor so a
  /// reader can turn the scaled times back into wall times.
  void set_calibration_s(double seconds) { calibration_s_ = seconds; }
  double calibration_s() const { return calibration_s_; }

  /// Prints the descriptor line, then the final result line.
  void Print() const;

 private:
  const Options& options_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double run_wall_s_ = 0.0;
  double calibration_s_ = 0.0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// In-memory span recorder: name, parent, start and end, kept in a vector
/// and written out once when the run ends.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span now (the destructor does it otherwise).
    void End();

   private:
    Spans* spans_;
    int id_;
    bool ended_ = false;
  };

  /// Durations (seconds) of every span with this name.
  std::vector<double> Durations(const std::string& name) const;
  double MedianOf(const std::string& name) const {
    return Median(Durations(name));
  }
  void Write(const std::string& path) const;

 private:
  struct SpanRecord {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  int Begin(const char* name, Clock::time_point start);
  void Finish(int id, Clock::time_point end);

  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> records_;
  std::vector<int> open_;
};

/// Runs passes while the measurement budget lasts: at least one pass, and
/// another only while the typical pass still fits in what is left.
class PassLoop {
 public:
  explicit PassLoop(double seconds) : seconds_(seconds) {}
  bool Next();

 private:
  double seconds_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point last_ = start_;
  std::vector<double> pass_seconds_;
  bool started_ = false;
};

// Each workload has an untraced measurement, which reports the end-to-end
// metrics, and a traced probe, which reports the per-layer metrics of the
// layers that workload loads; each of those probes times the operation
// behind its workload's run_s under a span: "pipeline.run" and
// "ingest.run". The serve probe (reads beside writes over the socket) has
// no untraced measurement: it runs in every traced run, for the per-layer
// metrics of the service, protocol and server.
void MeasureBatchE1(const Options& options, Report& report);
void MeasureIngestDurable(const Options& options, Report& report);
void TraceBatchE1(const Options& options, Report& report, Spans& spans,
                  double budget_s);
void TraceIngestDurable(const Options& options, Report& report, Spans& spans,
                        double budget_s);
void TraceServeMixed(const Options& options, Report& report, Spans& spans,
                     double budget_s);

}  // namespace weber::perfbench

#endif  // WEBER_PERFBENCH_BENCH_H_
