#ifndef PIMINE_KNN_KNN_COMMON_H_
#define PIMINE_KNN_KNN_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "core/similarity.h"
#include "data/matrix.h"
#include "obs/histogram.h"
#include "profiling/run_stats.h"
#include "util/parallel.h"
#include "util/top_k.h"

namespace pimine {

/// Result of one kNN batch: per-query neighbour lists (sorted by distance
/// ascending, or similarity descending for CS/PCC) plus run accounting.
struct KnnRunResult {
  std::vector<std::vector<Neighbor>> neighbors;
  RunStats stats;
};

/// Interface shared by the four baseline algorithms of §VI-B (Standard,
/// OST, SM, FNN) and their PIM-optimized counterparts. The data matrix
/// passed to Prepare must outlive the algorithm (algorithms keep a
/// reference; datasets are large and are never copied).
class KnnAlgorithm {
 public:
  virtual ~KnnAlgorithm() = default;

  virtual std::string_view name() const = 0;

  /// Offline stage: builds statistics / programs PIM. Callers time this for
  /// the Fig. 17 pre-processing comparison.
  virtual Status Prepare(const FloatMatrix& data) = 0;

  /// Online stage: answers every row of `queries`.
  virtual Result<KnnRunResult> Search(const FloatMatrix& queries, int k) = 0;

  /// Modeled offline cost (device programming; 0 for pure-host baselines —
  /// their offline cost is the measured Prepare wall time).
  virtual double OfflineModeledNs() const { return 0.0; }

  /// Bytes written during Prepare (reduced vectors / programmed crossbars),
  /// the quantity behind the paper's "33.3% less write access" claim.
  virtual uint64_t OfflineBytesWritten() const { return 0; }

  /// Host-side execution policy for Search. Queries are independent, so
  /// batches are spread across `policy.num_threads` workers; neighbours and
  /// aggregated traffic counters are identical for every thread count (see
  /// DESIGN.md). The default policy is serial, preserving the paper's
  /// single-threaded measurement setup.
  void set_exec_policy(const ExecPolicy& policy) { exec_policy_ = policy; }
  const ExecPolicy& exec_policy() const { return exec_policy_; }

 protected:
  ExecPolicy exec_policy_;
};

/// Per-worker accumulation slot for a parallel Search: worker threads
/// charge their counters and per-function wall time here and the harness
/// folds the slots into RunStats in slot order once the batch drains.
struct SearchSlot {
  uint64_t exact_count = 0;
  uint64_t bound_count = 0;
  FunctionProfiler profile;
  /// Per-query modeled latencies recorded by obs::QuerySpan (empty while
  /// observability is disabled). Integer buckets merge exactly, so folding
  /// slots in slot order yields the same histogram for any thread count.
  obs::Histogram latency;
  Status status;  // first per-query failure observed by this worker.
};

/// Runs `run_query(qi, slot_index, slot)` for every query in [0,
/// num_queries), one query per work unit, across the policy's workers
/// (inline when serial). Slot stats are merged into `stats` in slot order;
/// returns the first error any worker recorded. Workers stop claiming new
/// queries once their slot holds an error.
Status RunQueriesWithPolicy(
    const ExecPolicy& policy, size_t num_queries, RunStats* stats,
    const std::function<void(size_t, size_t, SearchSlot&)>& run_query);

/// Batched variant for PIM algorithms: workers claim whole device batches
/// of `policy.device_batch` queries (the final batch may be short) and
/// `run_batch(begin, end, slot_index, slot)` answers queries [begin, end)
/// with ONE PimEngine::RunQueryBatch. Merging and error handling match
/// RunQueriesWithPolicy; batch boundaries depend only on device_batch, so
/// results and modeled stats are reproducible for any thread count.
Status RunQueryBatchesWithPolicy(
    const ExecPolicy& policy, size_t num_queries, RunStats* stats,
    const std::function<void(size_t, size_t, size_t, SearchSlot&)>& run_batch);

/// Worker slots a batched Search needs for `num_queries` under `policy`
/// (scratch-sizing counterpart of NumSlots for device batches).
size_t NumBatchSlots(const ExecPolicy& policy, size_t num_queries);

/// Charges the modeled cost of ordering `n` candidate bounds to the
/// thread-local traffic counters: one streaming pass over the bound array
/// plus n*(floor(log2 n)+1) comparisons. This prices the paper's sorted
/// candidate order, whatever the simulator does to produce it.
void ChargeOrderingTraffic(size_t n);

/// Indices [0, n) sorted so values[out[0]] <= values[out[1]] <= ... (ties
/// by ascending index). Charges ChargeOrderingTraffic(values.size()).
std::vector<uint32_t> ArgsortAscending(std::span<const double> values);

/// What a RefineInOrder hook did with one candidate.
enum class RefineStep {
  kSkip,   // dropped without an exact distance.
  kExact,  // exact distance computed; keep walking.
  kStop,   // exact distance computed; end the walk here.
};

/// The online stage of §V, and the one place candidate ordering lives:
/// visits the candidates in ascending `bounds` order (ties by ascending
/// index), stops at the first bound that cannot beat a full `topk`'s
/// threshold, and hands every other candidate to `refine(idx)`, which
/// computes the exact distance (usually pushing it into `topk`) and says
/// how the walk goes on. Returns the number of candidates that reached an
/// exact distance (kExact and kStop steps).
///
/// `bounds` must hold no NaN: (bound, index) is then a strict total order,
/// so the visit sequence is exactly ArgsortAscending's. The order is
/// produced lazily: an O(n) min-heap of candidate indices, popped only as
/// far as the walk goes, so a walk that refines m candidates pays
/// O(n + m log n) rather than a full sort. The modeled charge is still the
/// full sort's (ChargeOrderingTraffic(n), once per walk). Heap build and
/// pops are timed under `order_tag`.
template <typename Refine>
uint64_t RefineInOrder(std::span<const double> bounds, const TopK& topk,
                       Refine&& refine, FunctionProfiler* profile = nullptr,
                       std::string_view order_tag = {}) {
  // std heaps put the greatest element on top, so "comes later in the
  // walk" is the heap's less-than.
  const auto later = [bounds](uint32_t a, uint32_t b) {
    if (bounds[a] != bounds[b]) return bounds[a] > bounds[b];
    return a > b;
  };
  std::vector<uint32_t> heap(bounds.size());
  {
    ScopedFunctionTimer timer(profile, order_tag);
    for (uint32_t i = 0; i < heap.size(); ++i) {
      PIMINE_DCHECK(!std::isnan(bounds[i]));
      heap[i] = i;
    }
    std::make_heap(heap.begin(), heap.end(), later);
    ChargeOrderingTraffic(bounds.size());
  }
  uint64_t exact = 0;
  for (auto end = heap.end(); end != heap.begin(); --end) {
    const uint32_t idx = heap.front();
    if (topk.full() && bounds[idx] >= topk.threshold()) break;
    {
      ScopedFunctionTimer timer(profile, order_tag);
      std::pop_heap(heap.begin(), end, later);
    }
    const RefineStep step = refine(idx);
    if (step == RefineStep::kSkip) continue;
    ++exact;
    if (step == RefineStep::kStop) break;
  }
  return exact;
}

/// The exact refine step of every ED/CS/PCC filter-and-refine walk: pushes
/// data row `idx`'s squared ED to `q` (early-abandoned at the heap
/// threshold), or its negated CS/PCC similarity, into `topk`, timed under
/// "ED"/"CS"/"PCC" (Hamming codes never come here). StandardPimKnn and
/// serve::PimServer both refine through it, so served results equal
/// offline ones by construction.
inline void PushExactScore(Distance distance, const FloatMatrix& data,
                           uint32_t idx, std::span<const float> q, TopK& topk,
                           FunctionProfiler* profile = nullptr) {
  const auto row = data.row(idx);
  double score = 0.0;
  if (distance == Distance::kEuclidean) {
    ScopedFunctionTimer timer(profile, "ED");
    score = SquaredEuclideanEarlyAbandon(row, q, topk.threshold());
  } else if (distance == Distance::kCosine) {
    ScopedFunctionTimer timer(profile, "CS");
    score = -CosineSimilarity(row, q);
  } else {
    ScopedFunctionTimer timer(profile, "PCC");
    score = -PearsonCorrelation(row, q);
  }
  topk.Push(score, static_cast<int32_t>(idx));
}

/// Extracts sorted neighbours from `topk` for a similarity measure run
/// where -similarity was pushed as "distance": flips the sign back and
/// reverses the order so the most similar object comes first.
std::vector<Neighbor> FinalizeSimilarityNeighbors(TopK& topk);

}  // namespace pimine

#endif  // PIMINE_KNN_KNN_COMMON_H_
