// kmeans-nuswide: Table 7's headline pair on the NUS-WIDE stand-in, host
// Lloyd and Lloyd-PIM, for a fixed iteration count. Lloyd-PIM's assignments
// and centers must equal host Lloyd's. The traced run re-composes both
// loops from the public calls (InitCenters, KmeansExactDistance,
// PimAssignFilter::BeginIteration / LowerBound, UpdateCenters,
// ComputeInertia) and times each.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/generator.h"
#include "harness_util.h"
#include "kmeans/kmeans_common.h"
#include "kmeans/lloyd.h"
#include "profiling/modeled_time.h"
#include "sim/traffic.h"

namespace perfbench {
namespace {

using pimine::FloatMatrix;
using pimine::KmeansResult;
using pimine::PimAssignFilter;
using pimine::RunStats;

constexpr size_t kDeviceBatch = 16;

struct Sizes {
  int64_t rows;
  int k;
  int iterations;
  int setups_per_pair;  // timed set-ups before each pair.
  int min_pairs;        // online (Lloyd, Lloyd-PIM) pairs, at least.
};

constexpr Sizes kSizes{6000, 256, 3, 2, 3};

pimine::KmeansOptions Options(const Sizes& sizes, const RunArgs& args,
                              PimAssignFilter* filter) {
  pimine::KmeansOptions options;
  options.k = sizes.k;
  options.max_iterations = sizes.iterations;
  options.seed = RunSeed(args.seed, 2);
  options.use_pim = filter != nullptr;
  options.filter = filter;
  options.exec.device_batch = kDeviceBatch;
  return options;
}

bool SameMatrix(const FloatMatrix& a, const FloatMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(float)) ==
             0;
}

bool SameClustering(const KmeansResult& a, const KmeansResult& b) {
  return a.iterations == b.iterations && a.assignments == b.assignments &&
         SameMatrix(a.centers, b.centers);
}

struct Setup {
  FloatMatrix data;
  std::unique_ptr<PimAssignFilter> filter;
};

Setup MakeSetup(const pimine::DatasetSpec& spec, const Sizes& sizes,
                LayerClock* clock) {
  Setup s;
  {
    Span span(clock, "data.generate_ms");
    s.data = pimine::DatasetGenerator::Generate(spec, sizes.rows,
                                                kDatasetSeed);
  }
  Span span(clock, "core.build_ms");
  auto filter = PimAssignFilter::Build(s.data, ScaledOptions(spec, sizes.rows));
  PIMINE_CHECK(filter.ok()) << filter.status().ToString();
  s.filter = std::move(*filter);
  return s;
}

/// The clustering's inputs: the dataset and the seeded initial centers.
std::string InputHash(const Setup& s, const Sizes& sizes, const RunArgs& args) {
  const pimine::KmeansOptions options = Options(sizes, args, nullptr);
  return HexHash(
      HashMatrix(pimine::InitCenters(s.data, options.k, options.seed),
                 HashMatrix(s.data, kFnvBasis)));
}

/// Runs host Lloyd and Lloyd-PIM through the library and checks the pair.
/// Returns false (after recording the failure) when either run failed.
bool RunPair(const Setup& s, const Sizes& sizes, const RunArgs& args,
             KmeansResult* host, KmeansResult* pim, double* host_s,
             double* pim_s, Report* report) {
  pimine::LloydKmeans lloyd;
  Clock::time_point t0 = Clock::now();
  auto host_result = lloyd.Run(s.data, Options(sizes, args, nullptr));
  *host_s = SecondsSince(t0);
  // The filter's device time is cumulative; each run starts from zero.
  s.filter->ResetOnlineStats();
  t0 = Clock::now();
  auto pim_result = lloyd.Run(s.data, Options(sizes, args, s.filter.get()));
  *pim_s = SecondsSince(t0);
  const uint64_t planned = 2 * static_cast<uint64_t>(sizes.iterations);
  if (!host_result.ok() || !pim_result.ok()) {
    report->attempted += planned;
    report->failed += planned;
    report->Fail("Lloyd: " + (host_result.ok() ? pim_result.status()
                                               : host_result.status())
                                 .ToString());
    return false;
  }
  *host = std::move(*host_result);
  *pim = std::move(*pim_result);
  report->attempted += host->iterations + pim->iterations;
  if (!SameClustering(*host, *pim)) {
    report->failed += pim->iterations;
    report->Fail("Lloyd-PIM assignments/centers differ from host Lloyd");
  }
  return true;
}

void AddModeled(const RunStats& host, const RunStats& pim, double ops,
                Report* report) {
  const pimine::HostCostModel model;
  const pimine::ModeledTime h = pimine::ComposeModeledTime(host, model);
  const pimine::ModeledTime p = pimine::ComposeModeledTime(pim, model);
  report->modeled["model_ms_per_op"] = (h.total_ms() + p.total_ms()) / ops;
  report->modeled["model_bytes_per_op"] =
      static_cast<double>(host.traffic.bytes_from_memory +
                          pim.traffic.bytes_from_memory) /
      ops;
  report->modeled["sim.host_model_ms"] =
      (h.host.total_ns() + p.host.total_ns()) / 1e6 / ops;
  report->modeled["sim.tcache_ms"] =
      (h.host.tcache_ns + p.host.tcache_ns) / 1e6 / ops;
}

void RunUntraced(const RunArgs& args, const pimine::DatasetSpec& spec,
                 const Sizes& sizes, Report* report) {
  // Every pair does the same work. Host Lloyd's floating-point loop follows
  // the host's speed so closely that one 3-second run can take twice as
  // long as the next on a busy shared host; noise only ever adds time, so
  // the online phase is timed as one pair of the fastest Lloyd run and the
  // fastest Lloyd-PIM run.
  std::vector<double>& lloyd_s = report->samples["kmeans.lloyd_s"];
  std::vector<double>& lloyd_pim_s = report->samples["kmeans.lloyd_pim_s"];
  RunStats first_host;
  RunStats first_pim;
  bool have_first = false;
  double ops = 0.0;
  const Clock::time_point start = Clock::now();
  double pair_s = 0.0;
  for (int pair = 0;
       pair < sizes.min_pairs || MoreTime(start, pair_s, args.seconds);
       ++pair) {
    const Clock::time_point pair_start = Clock::now();
    // Set-up (generation plus PimAssignFilter::Build) is timed before every
    // pair, so setup_s samples the whole run; the pair uses the last one.
    Setup s;
    for (int i = 0; i < sizes.setups_per_pair; ++i) {
      s = Setup{};
      const Clock::time_point setup_start = Clock::now();
      s = MakeSetup(spec, sizes, nullptr);
      report->samples["setup_s"].push_back(SecondsSince(setup_start));
      const std::string hash = InputHash(s, sizes, args);
      if (report->input_hash.empty()) {
        report->input_hash = hash;
      } else if (hash != report->input_hash) {
        report->Fail("inputs changed between set-ups of one seed");
      }
    }
    KmeansResult host;
    KmeansResult pim;
    double host_s = 0.0;
    double pim_s = 0.0;
    if (RunPair(s, sizes, args, &host, &pim, &host_s, &pim_s, report)) {
      lloyd_s.push_back(host_s);
      lloyd_pim_s.push_back(pim_s);
      if (!have_first) {
        have_first = true;
        first_host = host.stats;
        first_pim = pim.stats;
        ops = host.iterations + pim.iterations;
        AddModeled(host.stats, pim.stats, ops, report);
      } else if (!SameModeledStats(host.stats, first_host) ||
                 !SameModeledStats(pim.stats, first_pim)) {
        report->Fail("k-means modeled stats differ between pairs");
      }
    }
    pair_s = SecondsSince(pair_start);
  }
  if (have_first) {
    report->AddOnline(ops, *std::min_element(lloyd_s.begin(), lloyd_s.end()) +
                               *std::min_element(lloyd_pim_s.begin(),
                                                 lloyd_pim_s.end()));
  }
}

/// Composed host Lloyd: LloydKmeans::Run's serial loop, call by call.
KmeansResult ComposedLloyd(const FloatMatrix& data, const Sizes& sizes,
                           const RunArgs& args, LayerClock* clock) {
  const pimine::KmeansOptions options = Options(sizes, args, nullptr);
  KmeansResult r;
  r.centers = pimine::InitCenters(data, options.k, options.seed);
  r.assignments.assign(data.rows(), 0);
  r.stats.footprint_bytes = data.SizeBytes() + r.centers.SizeBytes();
  const pimine::traffic::AggregateScope traffic_scope;
  const size_t k = static_cast<size_t>(options.k);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    size_t changed = 0;
    {
      Span span(clock, "kmeans.exact_ms");
      for (size_t i = 0; i < data.rows(); ++i) {
        const auto p = data.row(i);
        const size_t start = r.assignments[i];
        size_t best_c = start;
        double best_d = pimine::KmeansExactDistance(p, r.centers.row(start));
        ++r.stats.exact_count;
        for (size_t c = 0; c < k; ++c) {
          if (c == start) continue;
          const double d = pimine::KmeansExactDistance(p, r.centers.row(c));
          ++r.stats.exact_count;
          if (d < best_d) {
            best_d = d;
            best_c = c;
          }
        }
        if (best_c != start) {
          r.assignments[i] = static_cast<int32_t>(best_c);
          ++changed;
        }
      }
    }
    {
      Span span(clock, "kmeans.update_ms");
      r.centers = pimine::UpdateCenters(data, r.assignments, r.centers,
                                        nullptr, nullptr);
    }
    ++r.iterations;
    if (changed == 0 && iter > 0) break;
  }
  r.inertia = pimine::ComputeInertia(data, r.centers, r.assignments);
  r.stats.traffic = traffic_scope.Delta();
  return r;
}

/// Composed Lloyd-PIM. Exact distances interleave with bound lookups per
/// center, so each exact call is timed on its own and the lower-bound layer
/// is the rest of the assign loop.
KmeansResult ComposedLloydPim(const FloatMatrix& data, PimAssignFilter* filter,
                              const Sizes& sizes, const RunArgs& args,
                              LayerClock* clock) {
  const pimine::KmeansOptions options = Options(sizes, args, filter);
  filter->set_fanout_policy(options.exec);
  KmeansResult r;
  r.centers = pimine::InitCenters(data, options.k, options.seed);
  r.assignments.assign(data.rows(), 0);
  const size_t k = static_cast<size_t>(options.k);
  r.stats.footprint_bytes = data.rows() * (k + 2) * sizeof(double);
  const pimine::traffic::AggregateScope traffic_scope;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    {
      Span span(clock, "kmeans.begin_iteration_ms");
      PIMINE_CHECK_OK(filter->BeginIteration(r.centers, kDeviceBatch));
    }
    size_t changed = 0;
    double exact_s = 0.0;
    const Clock::time_point assign_start = Clock::now();
    for (size_t i = 0; i < data.rows(); ++i) {
      const auto p = data.row(i);
      const size_t start = r.assignments[i];
      size_t best_c = start;
      Clock::time_point t0 = Clock::now();
      double best_d = pimine::KmeansExactDistance(p, r.centers.row(start));
      exact_s += SecondsSince(t0);
      ++r.stats.exact_count;
      for (size_t c = 0; c < k; ++c) {
        if (c == start) continue;
        ++r.stats.bound_count;
        if (filter->LowerBound(i, c) >= best_d) continue;
        t0 = Clock::now();
        const double d = pimine::KmeansExactDistance(p, r.centers.row(c));
        exact_s += SecondsSince(t0);
        ++r.stats.exact_count;
        if (d < best_d) {
          best_d = d;
          best_c = c;
        }
      }
      if (best_c != start) {
        r.assignments[i] = static_cast<int32_t>(best_c);
        ++changed;
      }
    }
    clock->Add("kmeans.lower_bound_ms", SecondsSince(assign_start) - exact_s);
    clock->Add("kmeans.pim_exact_ms", exact_s);
    {
      Span span(clock, "kmeans.pim_update_ms");
      r.centers = pimine::UpdateCenters(data, r.assignments, r.centers,
                                        nullptr, filter);
    }
    ++r.iterations;
    if (changed == 0 && iter > 0) break;
  }
  r.inertia = pimine::ComputeInertia(data, r.centers, r.assignments);
  r.stats.traffic = traffic_scope.Delta();
  r.stats.pim_ns = filter->PimComputeNs();
  return r;
}

void CheckComposed(const char* what, const KmeansResult& composed,
                   const KmeansResult& library, Report* report) {
  if (!SameClustering(composed, library) ||
      composed.inertia != library.inertia) {
    report->Fail(std::string("composed ") + what +
                 " clustering differs from LloydKmeans::Run");
  }
  if (!SameModeledStats(composed.stats, library.stats)) {
    report->Fail(std::string("composed ") + what + " modeled stats (exact " +
                 std::to_string(composed.stats.exact_count) + ", bound " +
                 std::to_string(composed.stats.bound_count) +
                 ") differ from LloydKmeans::Run (" +
                 std::to_string(library.stats.exact_count) + ", " +
                 std::to_string(library.stats.bound_count) + ")");
  }
}

void RunTraced(const RunArgs& args, const pimine::DatasetSpec& spec,
               const Sizes& sizes, Report* report) {
  LayerClock clock;
  const Setup s = MakeSetup(spec, sizes, &clock);
  report->input_hash = InputHash(s, sizes, args);

  Clock::time_point t0 = Clock::now();
  const KmeansResult host = ComposedLloyd(s.data, sizes, args, &clock);
  const double composed_s = SecondsSince(t0);
  t0 = Clock::now();
  const KmeansResult pim =
      ComposedLloydPim(s.data, s.filter.get(), sizes, args, &clock);
  const double composed_pim_s = SecondsSince(t0);
  const pimine::PimDeviceStats& device =
      s.filter->engine().shard_engine(0).device1().stats();
  const double device_ops = static_cast<double>(device.batch_ops);
  const double device_queries = static_cast<double>(device.queries_processed);
  const double device_model_ms = s.filter->PimComputeNs() / 1e6;

  KmeansResult lib_host;
  KmeansResult lib_pim;
  double host_s = 0.0;
  double pim_s = 0.0;
  if (RunPair(s, sizes, args, &lib_host, &lib_pim, &host_s, &pim_s, report)) {
    CheckComposed("Lloyd", host, lib_host, report);
    CheckComposed("Lloyd-PIM", pim, lib_pim, report);
    AddModeled(lib_host.stats, lib_pim.stats,
               lib_host.iterations + lib_pim.iterations, report);
  }

  const char* const kLoopLayers[] = {
      "kmeans.exact_ms",          "kmeans.update_ms",
      "kmeans.begin_iteration_ms", "kmeans.lower_bound_ms",
      "kmeans.pim_exact_ms",      "kmeans.pim_update_ms"};
  double covered_ms = 0.0;
  for (const char* layer : kLoopLayers) {
    report->layers[layer] = clock.Ms(layer);
    covered_ms += clock.Ms(layer);
  }
  report->layers["data.generate_ms"] = clock.Ms("data.generate_ms");
  report->layers["core.build_ms"] = clock.Ms("core.build_ms");
  report->layers["core.offline_model_ms"] = s.filter->OfflineNs() / 1e6;
  report->layers["core.offline_bytes_written"] =
      static_cast<double>(s.filter->engine().OfflineBytesWritten());
  report->layers["kmeans.exact_count"] =
      static_cast<double>(host.stats.exact_count);
  report->layers["kmeans.bound_count"] =
      static_cast<double>(pim.stats.bound_count);
  report->layers["kmeans.pim_exact_count"] =
      static_cast<double>(pim.stats.exact_count);
  report->layers["kmeans.prune_ratio"] =
      1.0 - static_cast<double>(pim.stats.exact_count) /
                static_cast<double>(host.stats.exact_count);
  report->layers["kmeans.lloyd_ms"] = host_s * 1e3;
  report->layers["kmeans.lloyd_pim_ms"] = pim_s * 1e3;
  report->layers["pim.batch_ops"] = device_ops;
  report->layers["pim.queries_per_batch"] =
      device_ops > 0 ? device_queries / device_ops : 0.0;
  report->layers["pim.model_ms"] = device_model_ms;
  const double composed_ms = (composed_s + composed_pim_s) * 1e3;
  const double library_ms = (host_s + pim_s) * 1e3;
  report->layers["trace.overhead_pct"] =
      100.0 * (composed_ms - library_ms) / library_ms;
  report->layers["trace.coverage"] = covered_ms / composed_ms;
  report->layers["sim.host_model_ms"] = report->modeled["sim.host_model_ms"];
  report->layers["sim.tcache_ms"] = report->modeled["sim.tcache_ms"];
}

}  // namespace

void RunKmeansNuswide(const RunArgs& args, Report* report) {
  const pimine::DatasetSpec spec = MustFindSpec("NUS-WIDE");
  if (args.trace) {
    RunTraced(args, spec, kSizes, report);
  } else {
    RunUntraced(args, spec, kSizes, report);
  }
}

}  // namespace perfbench
