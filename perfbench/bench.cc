#include "bench.h"

#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "core/executor.h"
#include "eval/match_metrics.h"
#include "util/intersect.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace weber::perfbench {

namespace {

// Where the calibration kernel publishes its result, so the compiler
// cannot drop the kernel.
volatile uint64_t calibration_sink = 0;

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PassSamples::Ms(double q) const {
  std::vector<double> per_pass;
  for (const auto& pass : passes_) per_pass.push_back(Quantile(pass, q));
  return Median(per_pass) * 1e3;
}

double CalibrationSeconds() {
  // Sized to take about kReferenceCalibrationS on a typical minute of the
  // reference host. The table is allocated once, so the kernel never
  // page-faults.
  static std::vector<uint32_t> table(size_t{1} << 21);  // 8 MiB.
  std::vector<double> runs;
  uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point start = Clock::now();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < 800000; ++i) {
      uint32_t& slot = table[next() & (table.size() - 1)];
      slot = slot * 31 + static_cast<uint32_t>(x >> 32);
    }
    std::vector<uint32_t> keys(131072);
    for (uint32_t& key : keys) key = static_cast<uint32_t>(next());
    std::sort(keys.begin(), keys.end());
    std::unordered_map<uint32_t, uint32_t> map;
    for (uint32_t i = 0; i < 65536; ++i) map[keys[i * 2] >> 8] += i;
    sink += keys[keys.size() / 2] + map.size() + table[x & 1023];
    runs.push_back(SecondsBetween(start, Clock::now()));
  }
  calibration_sink = sink;
  return Median(runs);
}

datagen::Corpus StreamCorpus(uint64_t seed) {
  datagen::CorpusConfig config;
  config.num_entities = 20000;
  config.seed = seed;
  return datagen::CorpusGenerator(config).GenerateDirty();
}

double PairF1(const std::vector<model::IdPair>& reported,
              const model::GroundTruth& truth) {
  return eval::EvaluateMatchPairs(reported, truth).F1();
}

matching::Clusters Canonical(matching::Clusters clusters) {
  for (auto& cluster : clusters) std::sort(cluster.begin(), cluster.end());
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

std::string Descriptor(const Options& options, double calibration_s) {
  utsname uts{};
  uname(&uts);
  util::IntersectKernel kernel = util::ActiveIntersectKernel();
  std::ostringstream out;
  out << "{\"descriptor\": {"
      << "\"workload\": " << JsonString(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"kernel\": " << JsonString(std::string(uts.sysname) + " " +
                                        uts.release + " " + uts.machine)
#if defined(__clang__)
      << ", \"compiler\": " << JsonString(std::string("clang ") + __VERSION__)
#elif defined(__GNUC__)
      << ", \"compiler\": " << JsonString(std::string("gcc ") + __VERSION__)
#else
      << ", \"compiler\": \"unknown\""
#endif
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"executor_workers\": " << core::Executor::Shared().num_workers()
      << ", \"weber.matching.kernel.level\": " << static_cast<int>(kernel)
      << ", \"kernel_name\": " << JsonString(util::KernelName(kernel))
      << ", \"tail_percentile\": " << JsonNumber(kTailQ * 100)
      << ", \"reference_calibration_ms\": "
      << JsonNumber(kReferenceCalibrationS * 1e3)
      << ", \"calibration_ms\": " << JsonNumber(calibration_s * 1e3)
      << "}}";
  return out.str();
}

ScratchDir::ScratchDir(const Options& options, const std::string& name) {
  static int counter = 0;
  path_ = options.tmp_root + "/" + name + "-" + std::to_string(counter++);
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

bool Report::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

bool Report::Expect(const std::string& key, double derived, double actual,
                    double tolerance) {
  auto it = options_.expect.find(key);
  double expected = it == options_.expect.end() ? derived : it->second;
  std::ostringstream what;
  what.precision(17);
  what << key << ": expected " << expected << ", got " << actual;
  return Check(std::fabs(expected - actual) <= tolerance, what.str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Print() const {
  std::cout << Descriptor(options_, calibration_s_) << "\n";
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics_[i].first) << ": {\"value\": "
        << JsonNumber(metrics_[i].second.first)
        << ", \"unit\": " << JsonString(metrics_[i].second.second) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

Spans::Scope::Scope(Spans* spans, const char* name)
    : spans_(spans), id_(spans->Begin(name, Clock::now())) {}

Spans::Scope::~Scope() { End(); }

void Spans::Scope::End() {
  if (!ended_) {
    ended_ = true;
    spans_->Finish(id_, Clock::now());
  }
}

int Spans::Begin(const char* name, Clock::time_point start) {
  SpanRecord record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_s = SecondsBetween(origin_, start);
  records_.push_back(std::move(record));
  open_.push_back(static_cast<int>(records_.size() - 1));
  return open_.back();
}

void Spans::Finish(int id, Clock::time_point end) {
  records_[id].end_s = SecondsBetween(origin_, end);
  // Spans close innermost first; tolerate an out-of-order End().
  std::erase(open_, id);
}

std::vector<double> Spans::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& record : records_) {
    if (record.name == name) out.push_back(record.end_s - record.start_s);
  }
  return out;
}

void Spans::Write(const std::string& path) const {
  std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    out << "  {\"id\": " << i << ", \"parent\": " << r.parent
        << ", \"name\": " << JsonString(r.name)
        << ", \"start_s\": " << JsonNumber(r.start_s)
        << ", \"end_s\": " << JsonNumber(r.end_s) << "}"
        << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

bool PassLoop::Next() {
  // Hand the previous pass's freed heap back to the kernel, so the peak
  // RSS does not grow with the number of passes that fit in the run.
  malloc_trim(0);
  Clock::time_point now = Clock::now();
  if (!started_) {
    started_ = true;
    start_ = last_ = now;
    return true;
  }
  pass_seconds_.push_back(SecondsBetween(last_, now));
  last_ = now;
  double left = seconds_ - SecondsBetween(start_, now);
  return Median(pass_seconds_) <= left;
}

}  // namespace weber::perfbench
