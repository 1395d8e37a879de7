// perfbench_harness: runs one benchmark workload and prints one JSON report
// (raw host-clock samples, modeled metrics, per-layer split, check
// failures) on stdout. perfbench/run.py builds and drives it.
//
//   perfbench_harness --workload knn-msd --seed 1 --seconds 10 --trace 0
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness_util.h"

namespace {

int Usage(const std::string& problem) {
  std::cerr << "perfbench_harness: " << problem << "\n"
            << "usage: perfbench_harness --workload "
               "<knn-msd|kmeans-nuswide|serve-gist-mutate> --seed <n> "
               "--seconds <s> --trace <0|1>\n";
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Repeats whole traced passes for the run's seconds (at least one) and
/// reports each layer's median. Modeled metrics must repeat exactly.
void RunTracedPasses(const perfbench::RunArgs& args,
                     void (*run)(const perfbench::RunArgs&, perfbench::Report*),
                     perfbench::Report* report) {
  std::map<std::string, std::vector<double>> layers;
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  double pass_s = 0.0;
  for (int pass = 0;
       pass == 0 || perfbench::MoreTime(start, pass_s, args.seconds); ++pass) {
    const perfbench::Clock::time_point pass_start = perfbench::Clock::now();
    perfbench::Report one;
    run(args, &one);
    report->attempted += one.attempted;
    report->failed += one.failed;
    report->errors.insert(report->errors.end(), one.errors.begin(),
                          one.errors.end());
    for (const auto& [name, value] : one.layers) layers[name].push_back(value);
    if (pass == 0) {
      report->input_hash = one.input_hash;
      report->modeled = one.modeled;
      report->latencies_us = one.latencies_us;
    } else if (one.input_hash != report->input_hash ||
               one.modeled != report->modeled ||
               one.latencies_us != report->latencies_us) {
      report->Fail("traced passes differ in inputs or modeled metrics");
    }
    pass_s = perfbench::SecondsSince(pass_start);
  }
  for (const auto& [name, values] : layers) {
    report->layers[name] = Median(values);
  }
  report->samples["trace_passes"].push_back(
      static_cast<double>(layers.empty() ? 0 : layers.begin()->second.size()));
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      args.seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else {
      return Usage("bad flag " + flag + " " + value);
    }
  }

  void (*run)(const perfbench::RunArgs&, perfbench::Report*) = nullptr;
  if (args.workload == "knn-msd") {
    run = perfbench::RunKnnMsd;
  } else if (args.workload == "kmeans-nuswide") {
    run = perfbench::RunKmeansNuswide;
  } else if (args.workload == "serve-gist-mutate") {
    run = perfbench::RunServeGistMutate;
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }

  perfbench::Report report;
  if (args.trace) {
    RunTracedPasses(args, run, &report);
  } else {
    run(args, &report);
  }
  report.workload = args.workload;
  report.seed = args.seed;
  report.peak_rss_mb = perfbench::PeakRssMb();
  std::cout << report.ToJson() << "\n";
  return 0;
}
