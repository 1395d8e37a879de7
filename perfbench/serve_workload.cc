// serve-gist-mutate: open-loop Poisson traces on the virtual clock,
// replayed by PimServer::Replay over a 4-shard fleet on the GIST stand-in,
// alternating with MutableDataset insert/delete batches and
// watermark-triggered compaction. Each cycle replays one segment below
// capacity (latency) and one above it (capacity).
//
// The traced run replays at one scheduler thread, then re-runs the same
// batches (by batch_id) through ShardedPimEngine::RunQueryBatch, BoundFor,
// ArgsortAscending and SquaredEuclideanEarlyAbandon + TopK; scheduling
// self time is the Replay wall minus that re-run. Its first segment is also
// replayed at two threads, as the untraced run replays, and must match.
#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mutable_dataset.h"
#include "core/similarity.h"
#include "data/generator.h"
#include "harness_util.h"
#include "knn/knn_common.h"
#include "knn/standard_pim_knn.h"
#include "profiling/modeled_time.h"
#include "serve/server.h"
#include "sim/traffic.h"
#include "util/random.h"

namespace perfbench {
namespace {

using pimine::FloatMatrix;
using pimine::MutableDataset;
using pimine::Neighbor;
using pimine::serve::PimServer;
using pimine::serve::ReplayOutput;
using pimine::serve::ServedResult;

constexpr int kK = 10;
constexpr size_t kDeviceBatch = 16;
constexpr int kShards = 4;

struct Sizes {
  int64_t rows;
  int64_t query_rows;
  int cycles;
  size_t low_requests;   // per sub-capacity segment.
  size_t high_requests;  // per saturating segment.
  size_t mutation_rows;  // rows inserted and rows deleted per batch.
  int min_repeats;
};

constexpr Sizes kSizes{20000, 256, 4, 256, 128, 64, 2};

/// Offered load relative to the modeled capacity of a full device batch.
constexpr double kLowLoad = 0.25;
constexpr double kHighLoad = 4.0;

pimine::serve::ServeOptions ServeOptionsFor(const Sizes& sizes, int threads) {
  pimine::serve::ServeOptions o;
  o.k = kK;
  o.max_batch = kDeviceBatch;
  o.exec.device_batch = kDeviceBatch;
  o.scheduler_threads = threads;
  o.queue_capacity = std::max(sizes.low_requests, sizes.high_requests) + 1;
  o.compact_watermark = 0.01;
  return o;
}

/// One replayed segment and what the checks need from it.
struct Segment {
  bool saturating = false;
  pimine::serve::ArrivalTrace trace;
  ReplayOutput out;
  double replay_s = 0.0;
};

/// A served fleet over a mutable corpus plus the rows it will insert.
struct Fleet {
  FloatMatrix queries;
  FloatMatrix stream;  // rows inserted by the mutation batches, in order.
  size_t stream_pos = 0;
  std::unique_ptr<MutableDataset> dataset;
  std::unique_ptr<PimServer> server;
  pimine::EngineOptions engine_options;
  uint64_t input_hash = 0;
};

Fleet MakeFleet(const pimine::DatasetSpec& spec, const Sizes& sizes,
                const RunArgs& args, int threads, LayerClock* clock) {
  Fleet f;
  FloatMatrix all;
  {
    Span span(clock, "data.generate_ms");
    all = pimine::DatasetGenerator::Generate(spec, sizes.rows, kDatasetSeed);
    f.queries = pimine::DatasetGenerator::GenerateQueries(
        spec, all, sizes.query_rows, RunSeed(args.seed, 1));
  }
  f.input_hash = HashMatrix(f.queries, HashMatrix(all, kFnvBasis));
  // The last rows of the generated set are the insert stream.
  const size_t inserts = 2 * sizes.cycles * sizes.mutation_rows;
  const size_t base_rows = all.rows() - inserts;
  FloatMatrix base(base_rows, all.cols());
  f.stream = FloatMatrix(inserts, all.cols());
  for (size_t i = 0; i < all.rows(); ++i) {
    const auto src = all.row(i);
    auto dst = i < base_rows ? base.mutable_row(i)
                             : f.stream.mutable_row(i - base_rows);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  f.dataset = std::make_unique<MutableDataset>(std::move(base));
  f.engine_options = ScaledOptions(spec, sizes.rows);
  f.engine_options.shard.shards = kShards;
  Span span(clock, "core.build_ms");
  auto server = PimServer::Build(f.dataset->corpus(),
                                 pimine::Distance::kEuclidean,
                                 f.engine_options,
                                 ServeOptionsFor(sizes, threads));
  PIMINE_CHECK(server.ok()) << server.status().ToString();
  f.server = std::move(*server);
  PIMINE_CHECK_OK(f.server->AttachMutable(f.dataset.get()));
  return f;
}

/// Queries per second one full device batch sustains on the modeled clock.
double ModeledCapacityQps(const PimServer& server) {
  return static_cast<double>(kDeviceBatch) * 1e9 /
         server.engine().ModeledBatchNs(kDeviceBatch);
}

pimine::serve::ArrivalTrace MakeTrace(size_t requests, double qps,
                                      uint32_t query_rows, uint64_t seed) {
  pimine::serve::WorkloadSpec spec;
  spec.num_requests = requests;
  spec.offered_qps = qps;
  spec.tenant_share = {1.0};
  spec.num_query_rows = query_rows;
  spec.seed = seed;
  auto trace = pimine::serve::GeneratePoissonTrace(spec);
  PIMINE_CHECK(trace.ok()) << trace.status().ToString();
  return std::move(*trace);
}

/// Host wall time and row counts of the mutation batches.
struct Ingest {
  double append_s = 0.0;
  double delete_s = 0.0;
  double compact_s = 0.0;
  uint64_t rows = 0;
  double seconds() const { return append_s + delete_s + compact_s; }
};

/// Inserts the next stream rows, deletes as many seeded live rows, and lets
/// the watermark compact after every delete.
void MutationBatch(Fleet* f, size_t rows, uint64_t seed, Ingest* ingest,
                   Report* report) {
  FloatMatrix insert(rows, f->stream.cols());
  for (size_t i = 0; i < rows; ++i) {
    const auto src = f->stream.row(f->stream_pos + i);
    std::copy(src.begin(), src.end(), insert.mutable_row(i).begin());
  }
  f->stream_pos += rows;
  Clock::time_point t0 = Clock::now();
  pimine::Status status = f->dataset->Insert(insert);
  ingest->append_s += SecondsSince(t0);
  if (!status.ok()) report->Fail("Insert: " + status.ToString());
  pimine::Rng rng(seed);
  for (size_t d = 0; d < rows; ++d) {
    size_t victim = rng.NextBounded(f->dataset->rows());
    while (f->dataset->tombstoned(victim)) {
      victim = rng.NextBounded(f->dataset->rows());
    }
    t0 = Clock::now();
    status = f->dataset->Delete(victim);
    ingest->delete_s += SecondsSince(t0);
    if (!status.ok()) report->Fail("Delete: " + status.ToString());
    t0 = Clock::now();
    status = f->server->MaybeCompact();
    ingest->compact_s += SecondsSince(t0);
    if (!status.ok()) report->Fail("MaybeCompact: " + status.ToString());
  }
  ingest->rows += 2 * rows;
}

/// Counts non-OK and rejected requests of a replay as failed.
void CountServed(const Segment& seg, Report* report) {
  report->attempted += seg.out.results.size();
  uint64_t bad = 0;
  for (const ServedResult& r : seg.out.results) bad += r.status.ok() ? 0 : 1;
  if (bad > 0) {
    report->failed += bad;
    report->Fail(std::to_string(bad) + " requests not served");
  }
}

/// Served neighbours must equal a Standard-PIM freshly prepared on the live
/// corpus, with its dense ids mapped back through LiveRows().
void CheckAgainstFresh(const Fleet& f, const Segment& seg, Report* report) {
  const FloatMatrix live_corpus = f.dataset->LiveCorpus();
  const std::vector<uint32_t> live = f.dataset->LiveRows();
  pimine::EngineOptions options = f.engine_options;
  options.shard.shards = 1;
  pimine::StandardPimKnn fresh(pimine::Distance::kEuclidean, options);
  pimine::ExecPolicy policy = pimine::ExecPolicy::WithThreads(4);
  policy.device_batch = kDeviceBatch;
  fresh.set_exec_policy(policy);
  PIMINE_CHECK_OK(fresh.Prepare(live_corpus));
  auto want = fresh.Search(f.queries, kK);
  PIMINE_CHECK(want.ok()) << want.status().ToString();
  uint64_t wrong = 0;
  for (size_t i = 0; i < seg.out.results.size(); ++i) {
    const ServedResult& r = seg.out.results[i];
    if (!r.status.ok()) continue;
    std::vector<Neighbor> expected =
        want->neighbors[seg.trace.events[i].query_row];
    for (Neighbor& n : expected) n.id = static_cast<int32_t>(live[n.id]);
    if (r.neighbors != expected) ++wrong;
  }
  if (wrong > 0) {
    report->failed += wrong;
    report->Fail(std::to_string(wrong) +
                 " served queries differ from a fresh Standard-PIM on the "
                 "live corpus");
  }
}

/// FNV-1a over every served neighbour list, for repeat-to-repeat identity.
uint64_t HashResults(const Segment& seg, uint64_t hash) {
  for (const ServedResult& r : seg.out.results) {
    for (const Neighbor& n : r.neighbors) {
      const uint64_t words[2] = {static_cast<uint64_t>(n.id),
                                 std::bit_cast<uint64_t>(n.distance)};
      for (const uint64_t w : words) {
        hash ^= w;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

/// Runs the whole deterministic script on `f`: cycles of (sub-capacity
/// segment, mutation batch, saturating segment, mutation batch). Calls
/// `after_replay` on every segment before the next mutation.
template <typename AfterReplay>
std::vector<Segment> RunScript(Fleet* f, const Sizes& sizes,
                               const RunArgs& args, Ingest* ingest,
                               Report* report, AfterReplay after_replay) {
  const double capacity = ModeledCapacityQps(*f->server);
  std::vector<Segment> segments;
  for (int c = 0; c < sizes.cycles; ++c) {
    for (const bool saturating : {false, true}) {
      Segment seg;
      seg.saturating = saturating;
      const uint64_t stream = 2 * c + (saturating ? 1 : 0);
      seg.trace = MakeTrace(
          saturating ? sizes.high_requests : sizes.low_requests,
          (saturating ? kHighLoad : kLowLoad) * capacity,
          static_cast<uint32_t>(f->queries.rows()),
          RunSeed(args.seed, 100 + stream));
      const Clock::time_point t0 = Clock::now();
      auto out = f->server->Replay(seg.trace, f->queries);
      seg.replay_s = SecondsSince(t0);
      PIMINE_CHECK(out.ok()) << out.status().ToString();
      seg.out = std::move(*out);
      CountServed(seg, report);
      after_replay(segments.size(), seg);
      MutationBatch(f, sizes.mutation_rows, RunSeed(args.seed, 200 + stream),
                    ingest, report);
      seg.out.results.clear();  // keep only what the metrics need.
      seg.out.results.shrink_to_fit();
      segments.push_back(std::move(seg));
    }
  }
  return segments;
}

/// Modeled metrics of a script; identical for any scheduler thread count.
void AddModeled(const std::vector<Segment>& segments,
                const std::vector<double>& latencies_us, Report* report) {
  const pimine::HostCostModel model;
  double total_ms = 0.0;
  double host_ms = 0.0;
  double tcache_ms = 0.0;
  double bytes = 0.0;
  double served = 0.0;
  double high_served = 0.0;
  double high_makespan_ns = 0.0;
  for (const Segment& seg : segments) {
    const pimine::ModeledTime t =
        pimine::ComposeModeledTime(seg.out.stats.exec, model);
    total_ms += t.total_ms();
    host_ms += t.host.total_ns() / 1e6;
    tcache_ms += t.host.tcache_ns / 1e6;
    bytes += static_cast<double>(seg.out.stats.exec.traffic.bytes_from_memory);
    served += static_cast<double>(seg.out.stats.served);
    if (seg.saturating) {
      high_served += static_cast<double>(seg.out.stats.served);
      high_makespan_ns += static_cast<double>(seg.out.stats.makespan_ns);
    }
  }
  report->modeled["model_ms_per_op"] = total_ms / served;
  report->modeled["model_bytes_per_op"] = bytes / served;
  report->modeled["sim.host_model_ms"] = host_ms / served;
  report->modeled["sim.tcache_ms"] = tcache_ms / served;
  report->modeled["serve.model_capacity_qps"] =
      high_served * 1e9 / high_makespan_ns;
  report->latencies_us = latencies_us;
}

void CollectLatencies(const Segment& seg, std::vector<double>* latencies_us) {
  if (seg.saturating) return;
  for (const ServedResult& r : seg.out.results) {
    if (r.status.ok()) {
      latencies_us->push_back(
          static_cast<double>(r.completion_ns - r.arrival_ns) / 1e3);
    }
  }
}

void RunUntraced(const RunArgs& args, const pimine::DatasetSpec& spec,
                 const Sizes& sizes, Report* report) {
  std::string first_results;
  std::map<std::string, double> first_modeled;
  const Clock::time_point start = Clock::now();
  double rep_s = 0.0;
  for (int rep = 0;
       rep < sizes.min_repeats || MoreTime(start, rep_s, args.seconds); ++rep) {
    const Clock::time_point setup_start = Clock::now();
    Fleet f = MakeFleet(spec, sizes, args, /*threads=*/2, nullptr);
    report->samples["setup_s"].push_back(SecondsSince(setup_start));

    Ingest ingest;
    std::vector<double> latencies_us;
    uint64_t results_hash = kFnvBasis;
    const int last = 2 * sizes.cycles - 1;
    auto segments = RunScript(
        &f, sizes, args, &ingest, report,
        [&](size_t index, const Segment& seg) {
          CollectLatencies(seg, &latencies_us);
          results_hash = HashResults(seg, results_hash);
          if (rep == 0 && (index == 0 || static_cast<int>(index) == last)) {
            CheckAgainstFresh(f, seg, report);
          }
        });

    for (const Segment& seg : segments) {
      report->AddOnline(static_cast<double>(seg.out.stats.served),
                        seg.replay_s);
    }
    report->samples["serve.ingest_rows_per_s"].push_back(
        static_cast<double>(ingest.rows) / ingest.seconds());

    Report modeled;
    AddModeled(segments, latencies_us, &modeled);
    const std::string identity =
        HexHash(results_hash) + "/" + HexHash(f.input_hash);
    if (rep == 0) {
      report->input_hash = HexHash(f.input_hash);
      first_results = identity;
      first_modeled = modeled.modeled;
      report->modeled = modeled.modeled;
      report->latencies_us = modeled.latencies_us;
    } else if (identity != first_results || modeled.modeled != first_modeled) {
      report->Fail("serve results or modeled metrics differ between repeats");
    }
    rep_s = SecondsSince(setup_start);
  }
}

/// Re-runs one replayed segment's batches through the fleet's public calls
/// and checks them against what Replay served. With a null clock the
/// re-run is untraced (the tracing-overhead baseline).
struct Rerun {
  double seconds = 0.0;
  uint64_t exact_count = 0;
  uint64_t bound_count = 0;
  pimine::TrafficCounters traffic;
};

Rerun RerunSegment(const Fleet& f, const Segment& seg, LayerClock* clock,
                   Report* report) {
  const pimine::ShardedPimEngine& engine = f.server->engine();
  const FloatMatrix& data = f.dataset->corpus();
  const size_t n = data.rows();
  const size_t dims = data.cols();
  std::map<uint64_t, std::vector<size_t>> batches;  // batch_id -> members.
  for (size_t i = 0; i < seg.out.results.size(); ++i) {
    if (seg.out.results[i].status.ok()) {
      batches[seg.out.results[i].batch_id].push_back(i);
    }
  }
  Rerun rerun;
  std::vector<double> bounds(n);
  std::vector<float> qbuf;
  pimine::ShardedPimEngine::QueryScratch scratch;
  pimine::ShardedPimEngine::QueryHandleBatch handle;
  uint64_t wrong = 0;
  const pimine::traffic::AggregateScope traffic_scope;
  const Clock::time_point start = Clock::now();
  for (const auto& [batch_id, members] : batches) {
    qbuf.resize(members.size() * dims);
    for (size_t m = 0; m < members.size(); ++m) {
      const auto row = f.queries.row(seg.trace.events[members[m]].query_row);
      std::copy(row.begin(), row.end(), qbuf.begin() + m * dims);
    }
    for (size_t c0 = 0; c0 < members.size(); c0 += kDeviceBatch) {
      const size_t chunk = std::min(kDeviceBatch, members.size() - c0);
      {
        Span span(clock, "core.fleet_dispatch_ms");
        PIMINE_CHECK_OK(engine.RunQueryBatch(
            std::span<const float>(qbuf.data() + c0 * dims, chunk * dims),
            chunk, &scratch, &handle));
      }
      for (size_t bq = 0; bq < chunk; ++bq) {
        const std::span<const float> q(qbuf.data() + (c0 + bq) * dims, dims);
        {
          Span span(clock, "core.bound_combine_ms");
          for (size_t i = 0; i < n; ++i) {
            bounds[i] = engine.BoundFor(handle, bq, i);
          }
        }
        rerun.bound_count += n;
        std::vector<uint32_t> order;
        {
          Span span(clock, "knn.order_ms");
          order = pimine::ArgsortAscending(bounds);
        }
        Span span(clock, "knn.refine_ms");
        pimine::TopK topk(kK);
        for (const uint32_t idx : order) {
          if (topk.full() && bounds[idx] >= topk.threshold()) break;
          topk.Push(pimine::SquaredEuclideanEarlyAbandon(data.row(idx), q,
                                                         topk.threshold()),
                    static_cast<int32_t>(idx));
          ++rerun.exact_count;
        }
        if (topk.TakeSorted() != seg.out.results[members[c0 + bq]].neighbors) {
          ++wrong;
        }
      }
    }
  }
  rerun.seconds = SecondsSince(start);
  rerun.traffic = traffic_scope.Delta();
  if (wrong > 0) {
    report->Fail(std::to_string(wrong) +
                 " re-run queries differ from what Replay served");
  }
  const pimine::RunStats& exec = seg.out.stats.exec;
  if (rerun.exact_count != exec.exact_count ||
      rerun.bound_count != exec.bound_count || !(rerun.traffic == exec.traffic)) {
    report->Fail("re-run modeled stats (exact " +
                 std::to_string(rerun.exact_count) + ", bound " +
                 std::to_string(rerun.bound_count) + ") differ from Replay (" +
                 std::to_string(exec.exact_count) + ", " +
                 std::to_string(exec.bound_count) + ")");
  }
  return rerun;
}

/// The traced run replays at one scheduler thread, the untraced run at two.
/// Replays the first segment (before any mutation) again, untimed, on a
/// fresh two-thread server over the same corpus, and fails unless every
/// served result, modeled stat and telemetry byte equals the one-thread
/// replay.
void CheckThreadInvariance(const Fleet& f, const Sizes& sizes,
                           const Segment& seg, Report* report) {
  auto server = PimServer::Build(f.dataset->corpus(),
                                 pimine::Distance::kEuclidean, f.engine_options,
                                 ServeOptionsFor(sizes, /*threads=*/2));
  PIMINE_CHECK(server.ok()) << server.status().ToString();
  auto out = (*server)->Replay(seg.trace, f.queries);
  PIMINE_CHECK(out.ok()) << out.status().ToString();
  const pimine::serve::ServeStats& a = seg.out.stats;
  const pimine::serve::ServeStats& b = out->stats;
  bool same = out->results.size() == seg.out.results.size() &&
              out->timeseries_json == seg.out.timeseries_json &&
              SameModeledStats(a.exec, b.exec) && a.served == b.served &&
              a.batches == b.batches && a.makespan_ns == b.makespan_ns &&
              a.max_queue_depth == b.max_queue_depth;
  for (size_t i = 0; same && i < out->results.size(); ++i) {
    const ServedResult& x = seg.out.results[i];
    const ServedResult& y = out->results[i];
    same = x.status.ok() == y.status.ok() && x.arrival_ns == y.arrival_ns &&
           x.dispatch_ns == y.dispatch_ns &&
           x.completion_ns == y.completion_ns && x.batch_id == y.batch_id &&
           x.neighbors == y.neighbors;
  }
  if (!same) {
    report->Fail("serve replay at 2 scheduler threads differs from 1 thread");
  }
}

void RunTraced(const RunArgs& args, const pimine::DatasetSpec& spec,
               const Sizes& sizes, Report* report) {
  LayerClock clock;
  Fleet f = MakeFleet(spec, sizes, args, /*threads=*/1, &clock);
  report->input_hash = HexHash(f.input_hash);
  const pimine::ShardedPimEngine& engine = f.server->engine();
  report->layers["core.offline_model_ms"] = engine.OfflineNs() / 1e6;
  report->layers["core.offline_bytes_written"] =
      static_cast<double>(engine.OfflineBytesWritten());

  Ingest ingest;
  std::vector<double> latencies_us;
  double rerun_s = 0.0;
  double overhead_pct = 0.0;
  uint64_t order_elements = 0;
  uint64_t exact_count = 0;
  uint64_t scatter_bytes = 0;
  uint64_t gather_bytes = 0;
  double interconnect_ns = 0.0;
  const int last = 2 * sizes.cycles - 1;
  auto segments = RunScript(
      &f, sizes, args, &ingest, report, [&](size_t index, const Segment& seg) {
        CollectLatencies(seg, &latencies_us);
        if (index == 0) CheckThreadInvariance(f, sizes, seg, report);
        if (index == 0 || static_cast<int>(index) == last) {
          CheckAgainstFresh(f, seg, report);
        }
        // Untraced baseline first, so the traced re-run never runs cold.
        double plain_s = 0.0;
        if (index == 0) plain_s = RerunSegment(f, seg, nullptr, report).seconds;
        const pimine::FleetRunStats before = engine.FleetStats();
        const Rerun traced = RerunSegment(f, seg, &clock, report);
        const pimine::FleetRunStats after = engine.FleetStats();
        scatter_bytes += after.scatter_bytes - before.scatter_bytes;
        gather_bytes += after.gather_bytes - before.gather_bytes;
        interconnect_ns += after.InterconnectNs() - before.InterconnectNs();
        rerun_s += traced.seconds;
        order_elements += traced.bound_count;
        exact_count += traced.exact_count;
        if (index == 0) {
          overhead_pct = 100.0 * (traced.seconds - plain_s) / plain_s;
        }
      });
  AddModeled(segments, latencies_us, report);

  double replay_s = 0.0;
  double served = 0.0;
  double batches = 0.0;
  double max_depth = 0.0;
  for (const Segment& seg : segments) {
    replay_s += seg.replay_s;
    served += static_cast<double>(seg.out.stats.served);
    batches += static_cast<double>(seg.out.stats.batches);
    max_depth =
        std::max(max_depth, static_cast<double>(seg.out.stats.max_queue_depth));
  }
  const char* const kRerunLayers[] = {"core.fleet_dispatch_ms",
                                      "core.bound_combine_ms", "knn.order_ms",
                                      "knn.refine_ms"};
  double covered_ms = 0.0;
  for (const char* layer : kRerunLayers) {
    report->layers[layer] = clock.Ms(layer);
    covered_ms += clock.Ms(layer);
  }
  report->layers["data.generate_ms"] = clock.Ms("data.generate_ms");
  report->layers["core.build_ms"] = clock.Ms("core.build_ms");
  report->layers["core.bound_count"] = static_cast<double>(order_elements);
  report->layers["core.scatter_bytes"] = static_cast<double>(scatter_bytes);
  report->layers["core.gather_bytes"] = static_cast<double>(gather_bytes);
  report->layers["core.interconnect_model_ns"] = interconnect_ns;
  report->layers["core.append_ms"] = ingest.append_s * 1e3;
  report->layers["core.delete_ms"] = ingest.delete_s * 1e3;
  report->layers["core.compact_ms"] = ingest.compact_s * 1e3;
  report->layers["knn.order_elements"] = static_cast<double>(order_elements);
  report->layers["knn.exact_count"] = static_cast<double>(exact_count);
  report->layers["knn.refine_ratio"] =
      static_cast<double>(exact_count) / static_cast<double>(order_elements);
  report->layers["serve.replay_ms"] = replay_s * 1e3;
  report->layers["serve.sched_self_ms"] = (replay_s - rerun_s) * 1e3;
  report->layers["serve.dispatches"] = batches;
  report->layers["serve.mean_batch_occupancy"] = served / batches;
  report->layers["serve.max_queue_depth"] = max_depth;
  report->layers["serve.watermark_compactions"] =
      static_cast<double>(f.server->watermark_compactions());
  report->layers["serve.ingest_rows_per_s"] =
      static_cast<double>(ingest.rows) / ingest.seconds();
  report->layers["serve.model_capacity_qps"] =
      report->modeled["serve.model_capacity_qps"];
  const pimine::FleetRunStats fleet = engine.FleetStats();
  report->layers["pim.row_writes"] = static_cast<double>(fleet.row_writes);
  double programming_events = 0.0;
  for (size_t j = 0; j < engine.shards(); ++j) {
    const pimine::PimDeviceStats& s = engine.shard_engine(j).device1().stats();
    programming_events +=
        static_cast<double>(s.programming_events + s.delta_program_events);
  }
  report->layers["pim.programming_events"] = programming_events;
  report->layers["trace.overhead_pct"] = overhead_pct;
  report->layers["trace.coverage"] = covered_ms / (rerun_s * 1e3);
  report->layers["sim.host_model_ms"] = report->modeled["sim.host_model_ms"];
  report->layers["sim.tcache_ms"] = report->modeled["sim.tcache_ms"];
}

}  // namespace

void RunServeGistMutate(const RunArgs& args, Report* report) {
  const pimine::DatasetSpec spec = MustFindSpec("GIST");
  if (args.trace) {
    RunTraced(args, spec, kSizes, report);
  } else {
    RunUntraced(args, spec, kSizes, report);
  }
}

}  // namespace perfbench
