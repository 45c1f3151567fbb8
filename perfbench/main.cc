// perfbench: the weber benchmark driver.
//
//   perfbench --workload batch_e1|ingest_durable --seed N
//             --seconds S --trace 0|1 --tmp DIR [--trace-out FILE]
//             [--expect key=value ...]
//
// Prints a machine/build descriptor line, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// output check fails and 2 on a usage error.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using weber::perfbench::Options;

[[noreturn]] void Usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp DIR [--trace-out FILE] "
               "[--expect key=value]\n";
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--tmp") {
        options.tmp_root = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--expect") {
        size_t eq = value.find('=');
        if (eq == std::string::npos) Usage("--expect wants key=value");
        options.expect[value.substr(0, eq)] = std::stod(value.substr(eq + 1));
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.tmp_root.empty()) Usage("--tmp is required");
  if (options.seconds <= 0) Usage("--seconds must be positive");
  if (options.workload != "batch_e1" && options.workload != "ingest_durable") {
    Usage("unknown workload " + options.workload);
  }
  return options;
}

/// The untraced measurement of the selected workload.
void Measure(const Options& options, weber::perfbench::Report& report) {
  namespace pb = weber::perfbench;
  if (options.workload == "batch_e1") {
    pb::MeasureBatchE1(options, report);
  } else {
    pb::MeasureIngestDurable(options, report);
  }
}

}  // namespace

int main(int argc, char** argv) {
  namespace pb = weber::perfbench;
  Options options = Parse(argc, argv);
  std::filesystem::create_directories(options.tmp_root);
  pb::Report report(options);

  if (options.trace) {
    // A quarter of the budget each: the selected workload's untraced
    // measurement, then the three probes, so every report carries every
    // per-layer metric. The overhead ratio compares the traced run_s (the
    // median of its span) with the untraced one, both from this process
    // and both in wall seconds, not host-scaled.
    double budget = options.seconds / 4.0;
    Options untraced_options = options;
    untraced_options.seconds = budget;
    pb::Report untraced(untraced_options);
    Measure(untraced_options, untraced);
    report.Check(untraced.correct(), "the untraced measurement is correct");
    report.set_calibration_s(untraced.calibration_s());
    pb::Spans spans;
    pb::TraceBatchE1(options, report, spans, budget);
    pb::TraceIngestDurable(options, report, spans, budget);
    pb::TraceServeMixed(options, report, spans, budget);
    const char* run_span =
        options.workload == "batch_e1" ? "pipeline.run" : "ingest.run";
    report.Metric("trace.overhead_ratio",
                  spans.MedianOf(run_span) / untraced.run_wall_s(), "ratio");
    if (!options.trace_out.empty()) spans.Write(options.trace_out);
  } else {
    Measure(options, report);
  }

  report.Print();
  return report.correct() ? 0 : 1;
}
