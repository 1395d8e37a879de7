#ifndef PIMINE_KMEANS_KMEANS_COMMON_H_
#define PIMINE_KMEANS_KMEANS_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/mutable_dataset.h"
#include "core/similarity.h"
#include "core/sharded_engine.h"
#include "data/matrix.h"
#include "obs/obs.h"
#include "profiling/run_stats.h"
#include "sim/traffic.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace pimine {

class PimAssignFilter;

/// Options shared by every k-means algorithm. The same (k, seed) produces
/// the same initial centers for all algorithms, so Elkan/Drake/Yinyang can
/// be verified to follow Lloyd's trajectory exactly (they are exact
/// accelerations — tested as an invariant).
struct KmeansOptions {
  int k = 64;
  int max_iterations = 10;
  uint64_t seed = 42;
  /// When true the assign step consults PIM lower bounds (LB_PIM-ED,
  /// Theorem 1) before any exact distance computation (§VI-D).
  bool use_pim = false;
  EngineOptions engine_options;
  /// Shared PIM assign filter (not owned; must outlive the run). When set
  /// it is used instead of building a run-local filter: the mutable-
  /// dataset workflow keeps ONE filter in sync with its corpus via
  /// MutationListener and shares it across runs. The `data` passed to Run
  /// must then be the filter's dense live view — live rows in ascending
  /// physical order (MutableDataset::LiveCorpus()).
  PimAssignFilter* filter = nullptr;
  /// Host-side execution policy for the per-point assign step. Points are
  /// independent within one assign pass, so chunks spread across
  /// `exec.num_threads` workers; assignments, centers and aggregated
  /// traffic are identical for every thread count (see DESIGN.md). Update
  /// steps and bound maintenance stay serial. Default: serial.
  ExecPolicy exec;
};

/// Result of a clustering run.
struct KmeansResult {
  FloatMatrix centers;
  std::vector<int32_t> assignments;
  int iterations = 0;
  /// Online wall time of each iteration (assign + update), ms.
  std::vector<double> iteration_wall_ms;
  /// Sum of squared distances of points to their assigned centers.
  double inertia = 0.0;
  RunStats stats;

  double MeanIterationMs() const;
};

/// Interface of the four §VI-D algorithms (Standard/Elkan/Drake/Yinyang)
/// and their PIM variants (the same classes with options.use_pim).
class KmeansAlgorithm {
 public:
  virtual ~KmeansAlgorithm() = default;
  virtual std::string_view name() const = 0;
  virtual Result<KmeansResult> Run(const FloatMatrix& data,
                                   const KmeansOptions& options) = 0;
};

/// Validates data/options combinations shared by all algorithms. A
/// borrowed options.filter requires options.use_pim.
Status ValidateKmeansInput(const FloatMatrix& data,
                           const KmeansOptions& options);

/// Exact real (non-squared) Euclidean distance with traffic accounting.
double KmeansExactDistance(std::span<const float> a, std::span<const float> b);

/// Per-worker accumulation slot for a parallel assign step: workers charge
/// their counters and per-function wall time here and the harness folds
/// the slots into RunStats in slot order once the pass drains.
struct AssignSlot {
  uint64_t exact_count = 0;
  uint64_t bound_count = 0;
  FunctionProfiler profile;
  std::vector<double> distances;  // k-wide scratch for ExactToAllCenters.
};

/// Runs `assign_point(i, slot_index, slot)` for every point in [0,
/// num_points) in chunks of `policy.block_size` across the policy's workers
/// (inline when serial). Slot stats are merged into `stats` in slot order.
template <typename AssignPoint>
void RunAssignWithPolicy(const ExecPolicy& policy, size_t num_points,
                         RunStats* stats, AssignPoint&& assign_point) {
  const size_t chunk = std::max<size_t>(1, policy.block_size);
  std::vector<AssignSlot> slots(NumSlots(policy, num_points, chunk));
  ParallelChunks(policy, num_points, chunk,
                 [&](size_t begin, size_t end, size_t slot_index) {
                   // Opt-in physical span: this worker's chunk of the pass.
                   obs::SchedSpan sched(static_cast<int64_t>(begin / chunk),
                                        static_cast<int64_t>(begin),
                                        static_cast<int64_t>(end));
                   AssignSlot& slot = slots[slot_index];
                   for (size_t i = begin; i < end; ++i) {
                     assign_point(i, slot_index, slot);
                   }
                 });
  for (const AssignSlot& slot : slots) {
    stats->exact_count += slot.exact_count;
    stats->bound_count += slot.bound_count;
    stats->profile.Merge(slot.profile);
  }
}

/// Publishes a finished run's pruning counters and per-iteration latency
/// histogram (stats.latency_hist) to the metrics registry. No-op while
/// observability is disabled. Call once at the end of a run, after the
/// RunStats fields are final.
void PublishKmeansRunMetrics(const RunStats& stats);

/// Draws k distinct rows of `data` as initial centers (deterministic in
/// `seed`).
FloatMatrix InitCenters(const FloatMatrix& data, int k, uint64_t seed);

/// Update step of Lloyd's algorithm: means of assigned points; clusters
/// that lost all points keep their previous center. Returns per-center
/// movement (real Euclidean distance moved) in `moved` when non-null.
///
/// Coordinate sums accumulate in ExactSum fixed-point registers, so the
/// result is a pure function of the multiset of assigned rows — grouping
/// cannot change it. The sums are formed as one partial per shard of
/// `filter`'s fleet (a single partial without a filter) merged by a
/// pairwise tree, which by that exactness is bit-identical for every shard
/// count; the tree's interconnect critical path is charged to the filter's
/// fleet stats. Host traffic charges are identical for every shard count.
FloatMatrix UpdateCenters(const FloatMatrix& data,
                          const std::vector<int32_t>& assignments,
                          const FloatMatrix& previous_centers,
                          std::vector<double>* moved,
                          const PimAssignFilter* filter = nullptr);

/// Sum of squared distances to assigned centers.
double ComputeInertia(const FloatMatrix& data, const FloatMatrix& centers,
                      const std::vector<int32_t>& assignments);

/// PIM support for the assign step: programs the dataset once (offline) and
/// refreshes one batch of dot products per center per iteration. Lower
/// bounds are combined lazily — the host loads only the PIM results of the
/// (point, center) pairs the algorithm actually examines.
///
/// As a MutationListener the filter mirrors corpus mutations onto its
/// fleet and maintains the dense-live -> physical id map: k-means always
/// runs over the dense live view, and LowerBound/ShardOf translate dense
/// point indices to the fleet's physical rows.
class PimAssignFilter : public MutationListener {
 public:
  static Result<std::unique_ptr<PimAssignFilter>> Build(
      const FloatMatrix& data, const EngineOptions& options);

  Status OnInsert(const FloatMatrix& rows) override;
  Status OnDelete(std::span<const uint32_t> rows) override;
  Status OnCompact(const std::vector<uint32_t>& live) override;

  /// Runs the PIM operations for the current centers (call at the start of
  /// every assign step; centers move every iteration). Centers are grouped
  /// into device batches of `device_batch` (the last group may be short),
  /// each issued as one fleet RunQueryBatch — bounds and all modeled
  /// stats except the device's batch accounting are identical for every
  /// grouping. Callers pass max(1, options.exec.device_batch);
  /// device_batch == 0 is rejected with InvalidArgument.
  Status BeginIteration(const FloatMatrix& centers, size_t device_batch = 1);

  /// Lower bound on the *real* (non-squared) distance between dense live
  /// point `point` and `center`. O(1) host work.
  double LowerBound(size_t point, size_t center) const;

  /// Shard holding dense live point `point` (UpdateCenters groups its
  /// per-shard partial sums by this).
  uint32_t ShardOf(size_t point) const {
    return engine_->shard_map().shard_of[live_ids_[point]];
  }
  /// Dense live points currently addressable (rows of the live view).
  size_t live_points() const { return live_ids_.size(); }

  double PimComputeNs() const { return engine_->PimComputeNs(); }
  FaultStats FaultStatsTotal() const { return engine_->FaultStatsTotal(); }
  double OfflineNs() const { return engine_->OfflineNs(); }
  void ResetOnlineStats() { engine_->ResetOnlineStats(); }
  const ShardedPimEngine& engine() const { return *engine_; }

  // --- Fleet pass-throughs (trivial for shards == 1) -------------------
  size_t shards() const { return engine_->shards(); }
  const ShardMap& shard_map() const { return engine_->shard_map(); }
  FleetRunStats FleetStats() const { return engine_->FleetStats(); }
  void ChargeTreeReduction(uint64_t payload_bytes) const {
    engine_->ChargeTreeReduction(payload_bytes);
  }
  /// BeginIteration runs on the coordinator thread (before the parallel
  /// assign pass), so the fleet fan-out may safely use the run's policy.
  void set_fanout_policy(const ExecPolicy& policy) {
    engine_->set_fanout_policy(policy);
  }
  /// Installs an availability-chaos schedule (owned by the caller,
  /// outliving the filter's use) on the underlying fleet and readmits all
  /// replicas. nullptr uninstalls — bit-identical to the pre-chaos filter.
  void InstallChaos(const ChaosSchedule* schedule) {
    engine_->set_chaos(schedule);
    engine_->ResetReplicaHealth();
  }
  /// Advances the instant the chaos schedule is evaluated at for the next
  /// BeginIteration's dispatches (one instant per k-means iteration).
  void SetChaosNowNs(uint64_t now_ns) { engine_->set_chaos_now_ns(now_ns); }

 private:
  explicit PimAssignFilter(std::unique_ptr<ShardedPimEngine> engine);

  std::unique_ptr<ShardedPimEngine> engine_;
  std::vector<ShardedPimEngine::QueryHandleBatch> batches_;
  size_t group_size_ = 1;  // device_batch of the current iteration.
  /// live_ids_[dense] = physical fleet row; ascending, so the dense order
  /// matches MutableDataset::LiveCorpus().
  std::vector<uint32_t> live_ids_;
};

/// One k-means run as RunKmeans hands it to an algorithm's steps.
struct KmeansRun {
  const FloatMatrix& data;
  const KmeansOptions& options;
  const PimAssignFilter* filter;  // nullptr on host runs.
  size_t n;
  size_t k;
  KmeansResult result;
  /// Real distance each center moved in the last update step.
  std::vector<double> moved;
  /// Host runs only: result.centers transposed to d x k (centers_t[j * k +
  /// c] is coordinate j of center c), refreshed before every assign pass.
  std::vector<float> centers_t;
};

/// out[c] = KmeansExactDistance(point i, center c) for every center, bit
/// for bit, computed in SIMD lanes over run.centers_t (host runs only).
/// Counts k exact distances and times them as "ED" in `counters` (an
/// AssignSlot, or RunStats for serial passes).
template <typename Counters>
void ExactToAllCenters(const KmeansRun& run, size_t i, double* out,
                       Counters& counters) {
  PIMINE_DCHECK(run.filter == nullptr);
  ScopedFunctionTimer timer(&counters.profile, "ED");
  EuclideanToCenters(run.data.row(i), run.centers_t.data(), run.k, out);
  counters.exact_count += run.k;
}

/// The k-means iteration, written once for every algorithm: each PIM
/// variant is the exact algorithm with the LB_PIM-ED filter in front of its
/// exact distances (§VI-D). Validates the input, builds a run-local
/// PimAssignFilter when options.use_pim (or borrows options.filter), draws
/// the initial centers, then per iteration refreshes the filter's bounds,
/// runs the algorithm's assign pass, the update step and the algorithm's
/// bound maintenance, and stops after max_iterations or at the first pass
/// after the first that reassigns no point. A pass's reassignments are the
/// points whose assignment differs after it from before it; that count is
/// pimine_kmeans_reassignments_total for every algorithm.
///
/// `steps` supplies only what differs between algorithms:
///   void Setup(KmeansRun&);             // per-run state, footprint_bytes;
///                                       // runs before traffic is counted.
///   void Assign(KmeansRun&, int iter);  // one assign pass; iter 0 first.
///   void UpdateBounds(KmeansRun&);      // optional "bound update" step.
template <typename Steps>
Result<KmeansResult> RunKmeans(const FloatMatrix& data,
                               const KmeansOptions& options, Steps& steps) {
  PIMINE_RETURN_IF_ERROR(ValidateKmeansInput(data, options));

  std::unique_ptr<PimAssignFilter> owned_filter;
  PimAssignFilter* filter = options.filter;
  if (options.use_pim && filter == nullptr) {
    PIMINE_ASSIGN_OR_RETURN(
        owned_filter, PimAssignFilter::Build(data, options.engine_options));
    filter = owned_filter.get();
  }
  if (filter != nullptr) filter->set_fanout_policy(options.exec);

  KmeansRun run{data, options, filter, data.rows(),
                static_cast<size_t>(options.k), {}, {}, {}};
  KmeansResult& result = run.result;
  result.centers = InitCenters(data, options.k, options.seed);
  result.assignments.assign(run.n, 0);
  steps.Setup(run);

  traffic::AggregateScope traffic_scope;
  Timer total_wall;
  std::vector<int32_t> before;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    Timer iter_wall;
    // Modeled iteration latency: process-wide host traffic delta (exact at
    // any thread count) + the device time this iteration's BeginIteration
    // charges (added below, before any early exit).
    const double pim_ns_before =
        filter != nullptr ? filter->PimComputeNs() : 0.0;
    obs::AggregateSpan iter_span("kmeans", "iteration");
    iter_span.set_histogram(&result.stats.latency_hist);

    if (filter != nullptr) {
      ScopedFunctionTimer timer(&result.stats.profile, "LB_PIM");
      PIMINE_RETURN_IF_ERROR(filter->BeginIteration(
          result.centers, std::max<size_t>(1, options.exec.device_batch)));
    }

    if (filter == nullptr) {
      // Lane kernels read each dimension's k coordinates contiguously.
      const size_t d = data.cols();
      run.centers_t.resize(d * run.k);
      for (size_t c = 0; c < run.k; ++c) {
        const auto center = result.centers.row(c);
        for (size_t j = 0; j < d; ++j) {
          run.centers_t[j * run.k + c] = center[j];
        }
      }
    }

    before = result.assignments;
    steps.Assign(run, iter);
    size_t changed = 0;
    for (size_t i = 0; i < run.n; ++i) {
      changed += before[i] != result.assignments[i];
    }
    obs::AddCounter("pimine_kmeans_reassignments_total", changed);

    {
      ScopedFunctionTimer timer(&result.stats.profile, "update");
      result.centers = UpdateCenters(data, result.assignments, result.centers,
                                     &run.moved, filter);
    }
    if constexpr (requires { steps.UpdateBounds(run); }) {
      ScopedFunctionTimer timer(&result.stats.profile, "bound update");
      steps.UpdateBounds(run);
    }

    if (filter != nullptr) {
      iter_span.AddModeledNs(filter->PimComputeNs() - pim_ns_before);
    }
    obs::AddCounter("pimine_kmeans_iterations_total", 1);
    result.iteration_wall_ms.push_back(iter_wall.ElapsedMillis());
    ++result.iterations;
    if (changed == 0 && iter > 0) break;
  }

  result.inertia = ComputeInertia(data, result.centers, result.assignments);
  result.stats.wall_ms = total_wall.ElapsedMillis();
  result.stats.traffic = traffic_scope.Delta();
  if (filter != nullptr) {
    result.stats.pim_ns = filter->PimComputeNs();
    result.stats.fault = filter->FaultStatsTotal();
    result.stats.fleet = filter->FleetStats();
  }
  PublishKmeansRunMetrics(result.stats);
  return std::move(result);
}

}  // namespace pimine

#endif  // PIMINE_KMEANS_KMEANS_COMMON_H_
