// knn-msd: offline batch kNN on the MSD stand-in. The four PIM paths
// (Standard-, SM-, OST- and FNN-PIM) answer the same queries; host Standard
// kNN is the oracle. The traced run re-composes Standard-PIM's Search from
// the engine's public calls (PrepareBatch, DeviceBatch, BoundFor,
// ArgsortAscending, SquaredEuclideanEarlyAbandon + TopK) and times each.
#include <memory>
#include <string>
#include <vector>

#include "core/similarity.h"
#include "data/generator.h"
#include "harness_util.h"
#include "knn/fnn_pim_knn.h"
#include "knn/knn_common.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "profiling/modeled_time.h"
#include "sim/traffic.h"

namespace perfbench {
namespace {

using pimine::FloatMatrix;
using pimine::KnnAlgorithm;
using pimine::Neighbor;
using pimine::RunStats;

constexpr int kK = 10;
constexpr size_t kDeviceBatch = 16;

struct Sizes {
  int64_t rows;
  int64_t queries;
  int setups;      // timed set-ups per run (setup_s is their median).
  int min_rounds;  // online rounds of all four paths, at least.
};

constexpr Sizes kSizes{20000, 64, 5, 3};

struct Inputs {
  FloatMatrix data;
  FloatMatrix queries;
};

Inputs Generate(const pimine::DatasetSpec& spec, const Sizes& sizes,
                uint64_t seed) {
  Inputs in;
  in.data = pimine::DatasetGenerator::Generate(spec, sizes.rows, kDatasetSeed);
  in.queries = pimine::DatasetGenerator::GenerateQueries(
      spec, in.data, sizes.queries, RunSeed(seed, 1));
  return in;
}

std::string InputHash(const Inputs& in) {
  return HexHash(HashMatrix(in.queries, HashMatrix(in.data, kFnvBasis)));
}

/// The four PIM paths in a fixed order; index 0 is Standard-PIM.
std::vector<std::unique_ptr<KnnAlgorithm>> MakePimPaths(
    const pimine::EngineOptions& options) {
  std::vector<std::unique_ptr<KnnAlgorithm>> paths;
  paths.push_back(std::make_unique<pimine::StandardPimKnn>(
      pimine::Distance::kEuclidean, options));
  paths.push_back(std::make_unique<pimine::SmPimKnn>(options));
  paths.push_back(std::make_unique<pimine::OstPimKnn>(options));
  paths.push_back(
      std::make_unique<pimine::FnnPimKnn>(options, /*optimize=*/false));
  pimine::ExecPolicy policy;
  policy.device_batch = kDeviceBatch;
  for (auto& path : paths) path->set_exec_policy(policy);
  return paths;
}

const char* const kSearchLayer[] = {
    "knn.standard_pim_search_ms", "knn.sm_pim_search_ms",
    "knn.ost_pim_search_ms", "knn.fnn_pim_search_ms"};

std::vector<std::vector<Neighbor>> HostOracle(const Inputs& in) {
  pimine::StandardKnn host;
  host.set_exec_policy(pimine::ExecPolicy::WithThreads(4));
  PIMINE_CHECK_OK(host.Prepare(in.data));
  auto result = host.Search(in.queries, kK);
  PIMINE_CHECK(result.ok()) << result.status().ToString();
  return std::move(result->neighbors);
}

/// Counts the queries of one path's Search that disagree with the oracle.
void CheckAgainstOracle(const std::string& path,
                        const pimine::Result<pimine::KnnRunResult>& result,
                        const std::vector<std::vector<Neighbor>>& oracle,
                        Report* report) {
  report->attempted += oracle.size();
  if (!result.ok()) {
    report->failed += oracle.size();
    report->Fail(path + ": " + result.status().ToString());
    return;
  }
  uint64_t wrong = 0;
  for (size_t q = 0; q < oracle.size(); ++q) {
    if (q >= result->neighbors.size() || result->neighbors[q] != oracle[q]) {
      ++wrong;
    }
  }
  if (wrong > 0) {
    report->failed += wrong;
    report->Fail(path + ": " + std::to_string(wrong) +
                 " queries differ from host Standard kNN");
  }
}

/// Modeled end-to-end metrics over every path's Search stats.
void AddModeled(const std::vector<RunStats>& stats, size_t queries_per_path,
                Report* report) {
  const pimine::HostCostModel model;
  double total_ms = 0.0;
  double host_ms = 0.0;
  double tcache_ms = 0.0;
  double bytes = 0.0;
  for (const RunStats& s : stats) {
    const pimine::ModeledTime t = pimine::ComposeModeledTime(s, model);
    total_ms += t.total_ms();
    host_ms += t.host.total_ns() / 1e6;
    tcache_ms += t.host.tcache_ns / 1e6;
    bytes += static_cast<double>(s.traffic.bytes_from_memory);
  }
  const double ops = static_cast<double>(stats.size() * queries_per_path);
  report->modeled["model_ms_per_op"] = total_ms / ops;
  report->modeled["model_bytes_per_op"] = bytes / ops;
  report->modeled["sim.host_model_ms"] = host_ms / ops;
  report->modeled["sim.tcache_ms"] = tcache_ms / ops;
}

/// One set-up: generated inputs plus the four prepared paths, which keep a
/// reference to `in.data` (so a Prepared never moves).
struct Prepared {
  Inputs in;
  std::vector<std::unique_ptr<KnnAlgorithm>> paths;
};

void RunUntraced(const RunArgs& args, const pimine::DatasetSpec& spec,
                 const Sizes& sizes, Report* report) {
  const Clock::time_point start = Clock::now();
  // Set-up (dataset generation plus every path's Prepare) runs `setups`
  // times; the online rounds then use the last one.
  std::unique_ptr<Prepared> prepared;
  for (int i = 0; i < sizes.setups; ++i) {
    prepared.reset();
    const Clock::time_point setup_start = Clock::now();
    prepared = std::make_unique<Prepared>();
    prepared->in = Generate(spec, sizes, args.seed);
    prepared->paths = MakePimPaths(ScaledOptions(spec, sizes.rows));
    for (auto& path : prepared->paths) {
      PIMINE_CHECK_OK(path->Prepare(prepared->in.data));
    }
    report->samples["setup_s"].push_back(SecondsSince(setup_start));
    const std::string hash = InputHash(prepared->in);
    if (i == 0) {
      report->input_hash = hash;
    } else if (hash != report->input_hash) {
      report->Fail("inputs changed between set-ups of one seed");
    }
  }
  const Inputs& in = prepared->in;
  auto& paths = prepared->paths;
  const auto oracle = HostOracle(in);

  std::vector<RunStats> first_stats;
  double online_s = 0.0;
  for (int round = 0;
       round < sizes.min_rounds || MoreTime(start, online_s, args.seconds);
       ++round) {
    online_s = 0.0;
    std::vector<RunStats> stats;
    for (size_t p = 0; p < paths.size(); ++p) {
      const Clock::time_point t0 = Clock::now();
      auto result = paths[p]->Search(in.queries, kK);
      online_s += SecondsSince(t0);
      CheckAgainstOracle(std::string(paths[p]->name()), result, oracle, report);
      if (result.ok()) stats.push_back(result->stats);
    }
    if (stats.size() != paths.size()) continue;
    report->AddOnline(static_cast<double>(paths.size() * in.queries.rows()),
                      online_s);
    if (first_stats.empty()) {
      first_stats = stats;
      AddModeled(stats, in.queries.rows(), report);
    }
    for (size_t p = 0; p < stats.size(); ++p) {
      if (!SameModeledStats(stats[p], first_stats[p])) {
        report->Fail(std::string(paths[p]->name()) +
                     ": modeled stats differ between rounds");
      }
    }
  }
}

void RunTraced(const pimine::DatasetSpec& spec, const Sizes& sizes,
               const RunArgs& args, Report* report) {
  LayerClock clock;
  Inputs in;
  {
    Span span(&clock, "data.generate_ms");
    in = Generate(spec, sizes, args.seed);
  }
  report->input_hash = InputHash(in);
  auto paths = MakePimPaths(ScaledOptions(spec, in.data.rows()));
  double offline_ns = 0.0;
  double offline_bytes = 0.0;
  for (auto& path : paths) {
    {
      Span span(&clock, "core.build_ms");
      PIMINE_CHECK_OK(path->Prepare(in.data));
    }
    offline_ns += path->OfflineModeledNs();
    offline_bytes += static_cast<double>(path->OfflineBytesWritten());
  }
  const auto oracle = HostOracle(in);

  // Composed Standard-PIM: the library's Search loop, one public call at a
  // time, on the path's own (freshly built) engine.
  const auto* standard = static_cast<pimine::StandardPimKnn*>(paths[0].get());
  const pimine::PimEngine& engine = standard->engine()->shard_engine(0);
  const size_t n = in.data.rows();
  const size_t dims = in.data.cols();
  const size_t num_queries = in.queries.rows();
  RunStats composed;
  std::vector<std::vector<Neighbor>> neighbors(num_queries);
  std::vector<double> bounds(n);
  pimine::PimEngine::QueryScratch scratch;
  uint64_t order_elements = 0;
  const pimine::traffic::AggregateScope traffic_scope;
  const Clock::time_point composed_start = Clock::now();
  for (size_t begin = 0; begin < num_queries; begin += kDeviceBatch) {
    const size_t count = std::min(kDeviceBatch, num_queries - begin);
    pimine::PimEngine::QueryHandleBatch batch;
    {
      Span span(&clock, "core.quantize_ms");
      PIMINE_CHECK_OK(engine.PrepareBatch(
          std::span<const float>(in.queries.data() + begin * dims,
                                 count * dims),
          count, &scratch, &batch));
    }
    {
      Span span(&clock, "pim.device_batch_ms");
      PIMINE_CHECK_OK(engine.DeviceBatch(scratch, count, &batch));
    }
    for (size_t bq = 0; bq < count; ++bq) {
      const auto q = in.queries.row(begin + bq);
      {
        Span span(&clock, "core.bound_combine_ms");
        for (size_t i = 0; i < n; ++i) bounds[i] = engine.BoundFor(batch, bq, i);
      }
      composed.bound_count += n;
      std::vector<uint32_t> order;
      {
        Span span(&clock, "knn.order_ms");
        order = pimine::ArgsortAscending(bounds);
      }
      order_elements += order.size();
      Span span(&clock, "knn.refine_ms");
      pimine::TopK topk(kK);
      for (const uint32_t idx : order) {
        if (topk.full() && bounds[idx] >= topk.threshold()) break;
        topk.Push(pimine::SquaredEuclideanEarlyAbandon(in.data.row(idx), q,
                                                       topk.threshold()),
                  static_cast<int32_t>(idx));
        ++composed.exact_count;
      }
      neighbors[begin + bq] = topk.TakeSorted();
    }
  }
  const double composed_ms = SecondsSince(composed_start) * 1e3;
  composed.traffic = traffic_scope.Delta();
  composed.pim_ns = engine.PimComputeNs();
  composed.footprint_bytes =
      n * sizeof(double) * 2 +
      (composed.exact_count / std::max<size_t>(1, num_queries)) * dims *
          sizeof(float);
  const pimine::PimDeviceStats& device = engine.device1().stats();
  const double device_ops = static_cast<double>(device.batch_ops);
  const double device_queries = static_cast<double>(device.queries_processed);
  const double device_model_ms = engine.PimComputeNs() / 1e6;

  // Library Searches (untraced inside), each timed as a whole.
  std::vector<RunStats> stats;
  double standard_ms = 0.0;
  for (size_t p = 0; p < paths.size(); ++p) {
    const Clock::time_point t0 = Clock::now();
    auto result = paths[p]->Search(in.queries, kK);
    const double ms = SecondsSince(t0) * 1e3;
    clock.Add(kSearchLayer[p], ms / 1e3);
    if (p == 0) standard_ms = ms;
    CheckAgainstOracle(std::string(paths[p]->name()), result, oracle, report);
    if (!result.ok()) continue;
    stats.push_back(result->stats);
    if (p == 0) {
      if (neighbors != result->neighbors) {
        report->Fail("composed Standard-PIM results differ from Search");
      }
      if (!SameModeledStats(composed, result->stats)) {
        report->Fail("composed Standard-PIM modeled stats (exact_count " +
                     std::to_string(composed.exact_count) + ", bound_count " +
                     std::to_string(composed.bound_count) +
                     ") differ from Search (" +
                     std::to_string(result->stats.exact_count) + ", " +
                     std::to_string(result->stats.bound_count) + ")");
      }
    }
  }
  if (stats.size() == paths.size()) AddModeled(stats, num_queries, report);

  const char* const kComposedLayers[] = {
      "core.quantize_ms", "pim.device_batch_ms", "core.bound_combine_ms",
      "knn.order_ms", "knn.refine_ms"};
  double covered_ms = 0.0;
  for (const char* layer : kComposedLayers) {
    report->layers[layer] = clock.Ms(layer);
    covered_ms += clock.Ms(layer);
  }
  for (const char* layer : kSearchLayer) report->layers[layer] = clock.Ms(layer);
  report->layers["data.generate_ms"] = clock.Ms("data.generate_ms");
  report->layers["core.build_ms"] = clock.Ms("core.build_ms");
  report->layers["core.offline_model_ms"] = offline_ns / 1e6;
  report->layers["core.offline_bytes_written"] = offline_bytes;
  report->layers["core.bound_count"] = static_cast<double>(composed.bound_count);
  report->layers["pim.batch_ops"] = device_ops;
  report->layers["pim.queries_per_batch"] =
      device_ops > 0 ? device_queries / device_ops : 0.0;
  report->layers["pim.model_ms"] = device_model_ms;
  report->layers["knn.order_elements"] = static_cast<double>(order_elements);
  report->layers["knn.exact_count"] = static_cast<double>(composed.exact_count);
  report->layers["knn.refine_ratio"] =
      order_elements > 0 ? static_cast<double>(composed.exact_count) /
                               static_cast<double>(order_elements)
                         : 0.0;
  report->layers["trace.overhead_pct"] =
      100.0 * (composed_ms - standard_ms) / standard_ms;
  report->layers["trace.coverage"] = covered_ms / composed_ms;
  report->layers["sim.host_model_ms"] = report->modeled["sim.host_model_ms"];
  report->layers["sim.tcache_ms"] = report->modeled["sim.tcache_ms"];
}

}  // namespace

void RunKnnMsd(const RunArgs& args, Report* report) {
  const pimine::DatasetSpec spec = MustFindSpec("MSD");
  if (args.trace) {
    RunTraced(spec, kSizes, args, report);
  } else {
    RunUntraced(args, spec, kSizes, report);
  }
}

}  // namespace perfbench
