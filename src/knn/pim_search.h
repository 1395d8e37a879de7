#ifndef PIMINE_KNN_PIM_SEARCH_H_
#define PIMINE_KNN_PIM_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/sharded_engine.h"
#include "data/matrix.h"
#include "knn/knn_common.h"
#include "obs/obs.h"
#include "sim/traffic.h"
#include "util/timer.h"

namespace pimine {

/// One query of a RunPimSearch device batch, as the path hooks see it.
struct PimQuery {
  size_t batch_index;  // position inside `batch` (BoundFor's query index).
  std::span<const float> row;
  const ShardedPimEngine::QueryHandleBatch& batch;
  size_t slot_index;  // worker slot (indexes per-worker path scratch).
  SearchSlot& slot;
};

/// Fills `bounds` with the fleet bounds of `batch` query `batch_index`,
/// negated when `negate` (similarity upper bounds, so ascending order is
/// most promising first for both measure families).
inline void FillPimBounds(const ShardedPimEngine& engine,
                          const ShardedPimEngine::QueryHandleBatch& batch,
                          size_t batch_index, bool negate,
                          std::span<double> bounds) {
  for (size_t i = 0; i < bounds.size(); ++i) {
    const double b = engine.BoundFor(batch, batch_index, i);
    bounds[i] = negate ? -b : b;
  }
}

/// The batched online stage shared by the PIM kNN paths: validates the
/// query shape and k, resets the fleet's online stats, issues one fleet
/// RunQueryBatch per device batch into a per-worker handle that is reused
/// across batches, then per query fills the bound array, walks it with
/// RefineInOrder and collects the top-k, and finally folds the run's
/// traffic, device and fleet stats. The device sees the first
/// engine.dims() values of each query (OstPimKnn programs prefixes).
///
/// `path` supplies only what differs between algorithms:
///   bool uses_device;           // false: issue no device op at all.
///   bool maximize;              // CS/PCC: results flip back to similarity.
///   size_t doubles_per_object;  // host working set per candidate.
///   void FillBounds(const PimQuery&, std::span<double> bounds);
///   RefineStep Refine(const PimQuery&, uint32_t idx, TopK& topk);
template <typename Path>
Result<KnnRunResult> RunPimSearch(ShardedPimEngine& engine,
                                  const FloatMatrix& data,
                                  const FloatMatrix& queries, int k,
                                  const ExecPolicy& policy, Path& path) {
  if (queries.cols() != data.cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  // Tombstoned rows are unreachable (their bound sorts last), so k ranges
  // over the LIVE corpus.
  if (k <= 0 || static_cast<size_t>(k) > engine.live_objects()) {
    return Status::InvalidArgument("k out of range");
  }

  KnnRunResult result;
  result.neighbors.resize(queries.rows());
  engine.ResetOnlineStats();
  traffic::AggregateScope traffic_scope;
  Timer wall;

  const size_t n = data.rows();
  const size_t cols = queries.cols();
  const size_t device_dims = engine.dims();
  struct Scratch {
    std::vector<double> bounds;
    std::vector<float> prefixes;  // gathered when device_dims < cols.
    ShardedPimEngine::QueryScratch query;
    ShardedPimEngine::QueryHandleBatch batch;
  };
  std::vector<Scratch> scratch(NumBatchSlots(policy, queries.rows()));
  for (Scratch& s : scratch) s.bounds.resize(n);

  // Serial-equivalent device time per query, hoisted so every QuerySpan
  // charges the same value regardless of device-batch grouping.
  const double device_ns_per_query =
      obs::Obs::Enabled() && path.uses_device
          ? engine.SerialDeviceNsPerQuery()
          : 0.0;

  Status status = RunQueryBatchesWithPolicy(
      policy, queries.rows(), &result.stats,
      [&](size_t begin, size_t end, size_t slot_index, SearchSlot& slot) {
        Scratch& s = scratch[slot_index];
        const size_t batch_size = end - begin;
        if (path.uses_device) {
          ScopedFunctionTimer timer(&slot.profile, "LB_PIM");
          std::span<const float> operands(queries.data() + begin * cols,
                                          batch_size * cols);
          if (device_dims < cols) {
            s.prefixes.resize(batch_size * device_dims);
            for (size_t qi = begin; qi < end; ++qi) {
              const auto q = queries.row(qi);
              std::copy(q.begin(), q.begin() + device_dims,
                        s.prefixes.begin() + (qi - begin) * device_dims);
            }
            operands = s.prefixes;
          }
          const Status run =
              engine.RunQueryBatch(operands, batch_size, &s.query, &s.batch);
          if (!run.ok()) {
            slot.status = run;
            return;
          }
        }
        for (size_t qi = begin; qi < end; ++qi) {
          obs::QuerySpan query_span(static_cast<int64_t>(qi), &slot.latency,
                                    device_ns_per_query);
          const PimQuery pq{qi - begin, queries.row(qi), s.batch, slot_index,
                            slot};
          TopK topk(static_cast<size_t>(k));
          path.FillBounds(pq, s.bounds);
          slot.exact_count += RefineInOrder(
              s.bounds, topk,
              [&](uint32_t idx) { return path.Refine(pq, idx, topk); },
              &slot.profile, "LB_PIM");
          result.neighbors[qi] = path.maximize
                                     ? FinalizeSimilarityNeighbors(topk)
                                     : topk.TakeSorted();
        }
      });
  PIMINE_RETURN_IF_ERROR(status);

  result.stats.wall_ms = wall.ElapsedMillis();
  result.stats.traffic = traffic_scope.Delta();
  result.stats.pim_ns = engine.PimComputeNs();
  result.stats.fault = engine.FaultStatsTotal();
  result.stats.fleet = engine.FleetStats();
  // Host working set: the per-candidate arrays plus the refined rows.
  result.stats.footprint_bytes =
      n * sizeof(double) * path.doubles_per_object +
      (result.stats.exact_count / std::max<uint64_t>(1, queries.rows())) *
          data.cols() * sizeof(float);
  return result;
}

/// RunPimSearch path of StandardPimKnn and SmPimKnn: the fleet bound alone
/// orders the candidates and each one is refined with PushExactScore.
struct FleetBoundPath {
  FleetBoundPath(const ShardedPimEngine& fleet, const FloatMatrix& rows,
                 Distance measure)
      : engine(fleet),
        data(rows),
        distance(measure),
        maximize(IsSimilarityMeasure(measure)) {}

  void FillBounds(const PimQuery& pq, std::span<double> bounds) const {
    ScopedFunctionTimer timer(&pq.slot.profile, "LB_PIM");
    FillPimBounds(engine, pq.batch, pq.batch_index, maximize, bounds);
    pq.slot.bound_count += bounds.size();
  }

  RefineStep Refine(const PimQuery& pq, uint32_t idx, TopK& topk) const {
    PushExactScore(distance, data, idx, pq.row, topk, &pq.slot.profile);
    return RefineStep::kExact;
  }

  const ShardedPimEngine& engine;
  const FloatMatrix& data;
  const Distance distance;
  const bool uses_device = true;
  const bool maximize;
  // Modeled: prices the bound array plus the paper's sorted-order
  // array, not the simulator's lazy index heap.
  const size_t doubles_per_object = 2;
};

}  // namespace pimine

#endif  // PIMINE_KNN_PIM_SEARCH_H_
