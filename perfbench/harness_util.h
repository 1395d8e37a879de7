// Shared pieces of the benchmark harness: run arguments, the report every
// workload fills, wall-clock layer spans timed around public library calls,
// and input fingerprints.
#ifndef PIMINE_PERFBENCH_HARNESS_UTIL_H_
#define PIMINE_PERFBENCH_HARNESS_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/catalog.h"
#include "data/matrix.h"
#include "profiling/run_stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything one harness invocation reports. run.py turns it into the
/// benchmark's metrics; the harness itself only measures and checks.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  /// FNV-1a of every generated input matrix (same seed -> same hash).
  std::string input_hash;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Oracle, fidelity and determinism failures, one line each.
  std::vector<std::string> errors;
  /// Host-clock samples, one per repeat: setup_s, and for each timed unit
  /// of online work its ops (online_ops) and wall seconds (online_s).
  /// kmeans-nuswide adds one unit, its fastest pair, and keeps every run's
  /// time in kmeans.lloyd_s / kmeans.lloyd_pim_s.
  std::map<std::string, std::vector<double>> samples;
  /// Modeled-clock metrics; identical across repeats by construction (the
  /// harness checks it) so one value each.
  std::map<std::string, double> modeled;
  /// Modeled serve latencies (arrival to completion) at the sub-capacity
  /// rate, microseconds, one per served query.
  std::vector<double> latencies_us;
  /// Per-layer metrics of the traced run.
  std::map<std::string, double> layers;
  double peak_rss_mb = 0.0;

  void Fail(const std::string& what) { errors.push_back(what); }
  void AddOnline(double ops, double seconds) {
    samples["online_ops"].push_back(ops);
    samples["online_s"].push_back(seconds);
  }
  std::string ToJson() const;
};

/// Wall time per named layer, accumulated from spans the harness opens
/// around calls into the library. Layers nest only where a caller subtracts
/// a child explicitly; coverage sums the leaves.
class LayerClock {
 public:
  void Add(const std::string& layer, double seconds) {
    seconds_[layer] += seconds;
  }
  double Ms(const std::string& layer) const {
    const auto it = seconds_.find(layer);
    return it == seconds_.end() ? 0.0 : it->second * 1e3;
  }

 private:
  std::map<std::string, double> seconds_;
};

/// RAII span: charges the enclosed wall time to `layer`; a null clock makes
/// it a no-op (the untraced baseline of the same loop).
class Span {
 public:
  Span(LayerClock* clock, const char* layer)
      : clock_(clock), layer_(layer), start_(Clock::now()) {}
  ~Span() {
    if (clock_ != nullptr) clock_->Add(layer_, SecondsSince(start_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock* clock_;
  const char* layer_;
  Clock::time_point start_;
};

/// True while one more step that took `last_s` seconds still fits in a run
/// of `seconds` that began at `start`.
inline bool MoreTime(Clock::time_point start, double last_s, double seconds) {
  return SecondsSince(start) + last_s <= seconds;
}

/// 64-bit FNV-1a over a matrix's bytes, chained through `hash` (start from
/// kFnvBasis).
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
uint64_t HashMatrix(const pimine::FloatMatrix& m, uint64_t hash);
std::string HexHash(uint64_t hash);

/// Every workload's dataset is its catalog stand-in generated at the paper
/// benches' fixed seed, as a real dataset file would be fixed. The run's
/// --seed draws what is asked of it: queries, arrival traces and mutation
/// victims.
inline constexpr uint64_t kDatasetSeed = 20210416;

/// Independent stream `stream` of the run's --seed (SplitMix64).
uint64_t RunSeed(uint64_t seed, uint64_t stream);

/// Catalog entry by name (aborts on an unknown name: a harness bug).
pimine::DatasetSpec MustFindSpec(const char* name);

/// Engine options with the PIM array scaled to the stand-in's row count,
/// as the paper benches do.
pimine::EngineOptions ScaledOptions(const pimine::DatasetSpec& spec,
                                    size_t rows);

/// Peak resident set of this process so far, MiB.
double PeakRssMb();

/// Bitwise-equal modeled accounting of two runs: traffic counters, device
/// time and the exact/bound counts.
bool SameModeledStats(const pimine::RunStats& a, const pimine::RunStats& b);

/// Workload entry points (one file each).
void RunKnnMsd(const RunArgs& args, Report* report);
void RunKmeansNuswide(const RunArgs& args, Report* report);
void RunServeGistMutate(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PIMINE_PERFBENCH_HARNESS_UTIL_H_
