#ifndef PIMINE_CORE_SHARDED_ENGINE_H_
#define PIMINE_CORE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "data/matrix.h"
#include "pim/chaos.h"
#include "pim/fleet.h"
#include "util/parallel.h"
#include "util/top_k.h"

namespace pimine {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// One shard's failover ladder for one dispatch, as ShardedPimEngine::
/// PlanFailover walked it: the replica that serves (or the shed), what the
/// walk wrote to the shard's strike ledger, and the modeled time its retry
/// rungs cost. Execution follows the plan and adds these values to the
/// shard's FailoverStats, so the counters are a sum of plans.
struct FailoverPlan {
  int serving_replica = 0;  // -1 when the op sheds off-device.
  int failed_attempts = 0;  // attempts the chaos schedule denied.
  int skipped = 0;          // struck-out replicas passed over (no rung).
  int strikes = 0;          // strikes the walk recorded on the ledger.
  int struck_out = 0;       // replicas the walk struck out.
  bool shed = false;
  /// The shed was forced by the ladder deadline, not by exhaustion.
  bool deadline_shed = false;
  int rungs = 0;  // retry rungs charged (one backoff + re-scatter each).
  uint64_t backoff_ns = 0;
  /// backoff_ns + modeled retry re-scatter transfer time, added one rung
  /// at a time.
  double extra_ns = 0.0;

  /// The op lost its primary device path (FailoverStats::injected).
  bool Injected() const { return shed || failed_attempts > 0 || skipped > 0; }
};

/// Per-dispatch context of ShardedPimEngine's failover ladder
/// (ShardedPimEngine::DispatchOptions). The default value is a plain
/// dispatch: no chaos instant, host-exact shedding, ladders walked inline.
struct FleetDispatchOptions {
  /// Dispatch instant on the caller's clock (virtual ns in replay) the
  /// chaos schedule is evaluated at. 0 falls back to set_chaos_now_ns.
  uint64_t now_ns = 0;
  /// Degraded mode: when every replica of a shard is exhausted, serve
  /// the shard as a bound-slack fill (exact-after-refine) instead of a
  /// host-exact recompute — shedding modeled device work, not accuracy.
  bool slack_on_exhaustion = false;
  /// Ladder budget: cumulative seeded backoff one dispatch may spend
  /// walking a shard's replicas before the op sheds. 0 = unbounded.
  uint64_t deadline_ns = 0;
  /// The ladders this dispatch already walked, one PlanFailover per shard
  /// (index = shard), taken with this dispatch's now_ns and deadline_ns.
  /// Empty: RunQueryBatch walks each shard's ladder itself.
  std::span<const FailoverPlan> plans;
};

/// A fleet of PIM devices acting as one logical engine (DESIGN.md section
/// 9): the dataset is sharded across M per-shard PimEngines (ShardOptions
/// placement), each query batch is prepared once on the host, scattered to
/// every shard, matched in parallel, and the per-shard dot products are
/// gathered for the host's global combine. Only the device/transfer layer
/// is sharded — BoundFor routes one global object index to its shard's
/// results, so the host pipeline above (bounds, sort, refine) is untouched
/// and every functional result and grouping-invariant counter is
/// bit-identical to the single-device run for every M. What legitimately
/// varies with M is the new FleetRunStats scatter/gather/reduce accounting
/// (and the per-shard device batch_ops, like device_batch already does).
///
/// The geometry (bound family, segment count) is resolved once on the FULL
/// dataset by ResolveEngineGeometry — the selection PimEngine::Build runs,
/// errors included — then pinned on every shard: a smaller shard must not
/// pick a different Theorem 4 plan, or results would depend on M. shards ==
/// 1 is the same build over the identity map, programming the dataset
/// itself with no per-shard copy.
class ShardedPimEngine {
 public:
  using QueryScratch = PimEngine::QueryScratch;

  /// One per-shard QueryHandleBatch per fleet member; BoundFor routes
  /// global object indices into them. size() == shards().
  struct QueryHandleBatch {
    size_t num_queries = 0;
    std::vector<PimEngine::QueryHandleBatch> shards;
  };

  static Result<std::unique_ptr<ShardedPimEngine>> Build(
      const FloatMatrix& data, Distance distance,
      const EngineOptions& options);

  using DispatchOptions = FleetDispatchOptions;

  /// One batched fleet operation: PrepareBatch once on the host (query-side
  /// scalars + quantized operands, charged exactly once), scatter the
  /// operands to every shard (one DeviceBatch per shard, fanned out under
  /// set_fanout_policy), gather the results into the caller-owned `out`.
  /// Per-shard sub-handles and all their buffers are reused across calls,
  /// so a hot dispatch loop allocates nothing in steady state. A single
  /// query is a batch of one. Bounds derived from the handle are
  /// bit-identical to the single-device engine's for every M.
  ///
  /// Each shard serves on the replica its failover plan names
  /// (dispatch.plans, or a PlanFailover walked here when none is given).
  /// A shed plan, or a DeviceFault on the planned replica, sheds the op by
  /// the exhaustion rule: host-exact recompute, a bound-slack fill when
  /// dispatch.slack_on_exhaustion, or a DeviceFault naming the op nonce
  /// when ShardOptions::failover is off. Every plan lands in FailoverStats
  /// (FleetStats().failover, invariant injected == recovered + shed).
  Status RunQueryBatch(std::span<const float> queries, size_t num_queries,
                       QueryScratch* scratch, QueryHandleBatch* out,
                       const DispatchOptions& dispatch = {}) const;

  /// Walks shard j's failover ladder for one dispatch of `num_queries`
  /// queries at `dispatch.now_ns` — the one walk of the ladder. Replicas
  /// are visited primary first: a struck-out replica is passed over, a
  /// replica the chaos schedule denies (replica or link down) takes a
  /// strike, and the first one allowed serves and clears its strikes.
  /// Every attempt after a denial is preceded by a retry rung (seeded
  /// backoff + one operand re-scatter), and the deadline is checked
  /// BEFORE the wait is charged, so an op that cannot afford its next rung
  /// sheds at once. max_strikes consecutive denials strike a replica out
  /// until ResetReplicaHealth(); strikes are kept only with replicas > 1.
  ///
  /// The walk advances shard j's strike ledger, so it must run exactly
  /// once per (dispatch, device_batch chunk, shard): the plan it returns
  /// is then handed to RunQueryBatch in dispatch.plans. Called in dispatch
  /// order (the replay's virtual-clock pass), the ledger and every plan
  /// are a pure function of the chaos schedule and the earlier dispatches,
  /// whatever threads execute them. Safe to call concurrently (the ledger
  /// is locked per shard); concurrent callers get some serial order.
  using FailoverPlan = pimine::FailoverPlan;
  FailoverPlan PlanFailover(size_t j, size_t num_queries,
                            const DispatchOptions& dispatch) const;

  // --- Chaos plane ------------------------------------------------------
  /// Installs a chaos schedule (owned by the caller, outliving the
  /// engine's use). nullptr (the default) disables availability faults
  /// entirely — bit-identical to the pre-chaos engine.
  void set_chaos(const ChaosSchedule* chaos) { chaos_ = chaos; }
  /// Fallback dispatch instant for callers without a per-dispatch clock
  /// (k-means iterations advance it once per BeginIteration).
  void set_chaos_now_ns(uint64_t now_ns) {
    chaos_now_ns_.store(now_ns, std::memory_order_relaxed);
  }
  const ChaosSchedule* chaos() const { return chaos_; }

  /// The bound for `batch` query `query` against GLOBAL object `index`:
  /// routed to shard_of(index) and combined there. Bit-identical to the
  /// single-device BoundFor.
  double BoundFor(const QueryHandleBatch& batch, size_t query,
                  size_t index) const;

  // --- Mutable datasets (DESIGN.md section 13) -------------------------
  /// Appends `rows` to the fleet. Each appended row is assigned the next
  /// global id (num_objects() before the call + its position) and routed
  /// round-robin over the shards by append sequence; the row is delta-
  /// programmed onto EVERY replica of its target shard, so replicas keep
  /// holding identical shard datasets. Because appended global ids exceed
  /// all existing ids, shard-local layouts stay ascending in global id and
  /// BoundFor routing stays bit-identical to a merged re-build. Mutations
  /// must be externally serialized against queries and other mutations
  /// (FleetStats snapshots stay safe); on error the fleet may be left
  /// partially mutated and should be discarded.
  Status AppendRows(const FloatMatrix& rows);
  /// Tombstones GLOBAL row `index` on every replica of its shard. Fails
  /// with InvalidArgument when out of range or already deleted, and with
  /// FailedPrecondition when it would empty a shard (every shard keeps at
  /// least one live row).
  Status DeleteRow(size_t index);
  /// Whether GLOBAL row `index` is tombstoned.
  bool IsDeleted(size_t index) const;
  /// Rewrites every shard's base + delta into a fresh dense base holding
  /// only live rows (full re-program at program cost on every replica) and
  /// renumbers global ids densely in ascending old-id order — identical to
  /// the ids of a from-scratch build of the merged live dataset.
  Status Compact();
  /// Rows not tombstoned / appended since the last full (re-)program /
  /// currently tombstoned, summed over the primary copies.
  size_t live_objects() const;
  size_t delta_objects() const;
  size_t tombstoned_objects() const;

  // --- Fleet geometry -------------------------------------------------
  size_t shards() const { return engines_.size(); }
  ShardPlacement placement() const { return options_.shard.placement; }
  const ShardMap& shard_map() const { return map_; }
  int replicas() const { return options_.shard.replicas; }
  /// The shard-j PRIMARY engine (tests / stats inspection).
  const PimEngine& shard_engine(size_t j) const { return *engines_[j][0]; }
  /// Replica r of shard j (tests / stats inspection).
  const PimEngine& replica_engine(size_t j, size_t r) const {
    return *engines_[j][r];
  }

  // --- Replica health ---------------------------------------------------
  /// Replica that served shard j's most recent dispatch (0 = primary;
  /// replicas() = the op shed off-device).
  int serving_replica(size_t j) const;
  /// Shard j's most recent dispatch was served as a bound-slack fill.
  bool shard_slack_mode(size_t j) const;
  /// Consecutive-failure strike count of replica r of shard j.
  int replica_strikes(size_t j, size_t r) const;
  /// Replica r of shard j has been struck out (skipped by the ladder).
  bool replica_out(size_t j, size_t r) const;
  /// Shard j is degraded: serving off its primary replica, in bound-slack
  /// mode, or carrying a struck-out replica.
  bool shard_degraded(size_t j) const;
  /// Number of degraded shards (the pimine_fleet_degraded_shards gauge and
  /// the /healthz "degraded" body are derived from this).
  int DegradedShards() const;
  /// Readmits every struck-out replica and clears strike counts (operator
  /// action after repairing devices). Does not touch accounting.
  void ResetReplicaHealth();

  // --- Pass-through accessors (identical across shards) ---------------
  EngineMode mode() const { return primary(0).mode(); }
  /// The full-dataset memory plan the fleet geometry was resolved from.
  const MemoryPlan& plan() const { return plan_; }
  size_t num_objects() const { return num_objects_; }
  size_t dims() const { return primary(0).dims(); }
  int64_t num_segments() const { return primary(0).num_segments(); }
  int64_t segment_length() const { return primary(0).segment_length(); }
  double alpha() const { return primary(0).alpha(); }
  double TransferBitsPerCandidate() const {
    return primary(0).TransferBitsPerCandidate();
  }
  double SerialDeviceNsPerQuery() const {
    return primary(0).SerialDeviceNsPerQuery();
  }
  /// Modeled pipelined occupancy of one fleet dispatch of `num_queries`
  /// queries: the shards run concurrently and the crossbar pass latency is
  /// row-count independent, so the fleet figure equals any one shard's.
  double ModeledBatchNs(size_t num_queries) const {
    return primary(0).ModeledBatchNs(num_queries);
  }
  const PimDevice& device1() const { return primary(0).device1(); }
  const PimDevice* device2() const { return primary(0).device2(); }

  // --- Fleet-aggregated stats -----------------------------------------
  /// Serial-equivalent modeled PIM time. Shards hold fewer rows but the
  /// crossbar pass latency is row-count independent, so every shard
  /// charges the same per-query time and the fleet figure — the shards
  /// run concurrently — is the max over shards, which equals the
  /// single-device value bit-for-bit (a failed-over shard only ever
  /// charges less).
  double PimComputeNs() const;
  /// Max over shards of the pipelined device-occupancy time.
  double PimPipelinedNs() const;
  /// Fault/recovery accounting merged over every shard's devices.
  FaultStats FaultStatsTotal() const;
  /// Offline time: shards program concurrently, so the max over shards.
  double OfflineNs() const;
  /// Offline bytes written across the whole fleet (sum over shards).
  uint64_t OfflineBytesWritten() const;
  void ResetOnlineStats();

  /// Snapshot of the fleet interconnect accounting. The ns figures are
  /// derived from the integer counters at snapshot time
  /// (PimTimingModel::TransferLatencyNs per message), so they are
  /// identical for every thread interleaving. All-zero when shards == 1.
  /// Interconnect/failover fields are the exact sums of the per-shard
  /// counters (reduce_* stays fleet-level: a tree reduction has no single
  /// owning shard).
  FleetRunStats FleetStats() const;

  /// Health snapshot of one fleet member: its interconnect counters, its
  /// devices' batch/query/time accounting and fault-recovery counters.
  /// Safe to call while dispatches are in flight (device stats are copied
  /// under the device's stats mutex). Summing any integer field over all
  /// shards reproduces the corresponding FleetStats() aggregate exactly.
  struct ShardHealth {
    PIMINE_SHARD_LINK_COUNTERS(PIMINE_COUNTER_FIELD)
    /// Derived from this shard's message/byte counters exactly as
    /// FleetStats() derives the fleet figures (same linear formula, so the
    /// per-shard values sum to the aggregates bit-for-bit).
    double scatter_ns = 0.0;
    double gather_ns = 0.0;
    /// Device-side accounting summed over this shard's devices (all
    /// replicas — a failed attempt's pass charges its replica).
    uint64_t batch_ops = 0;
    uint64_t queries_processed = 0;
    double pim_ns = 0.0;        // serial-equivalent compute_ns.
    double pipelined_ns = 0.0;  // modeled device occupancy.
    FaultStats fault;
    /// Replica-failover ladder accounting of this shard.
    FailoverStats failover;
    int serving_replica = 0;
    bool degraded = false;
  };
  ShardHealth ShardHealthSnapshot(size_t j) const;

  /// Writes per-shard labeled families into `registry`
  /// (pimine_fleet_shard_*{shard="j"}): interconnect messages/bytes/ns,
  /// device batch/query/occupancy accounting and fault-recovery counters,
  /// one label combination per shard, plus the fleet-level reduce_* and
  /// shard-count families. End-of-run totals across shards equal the
  /// FleetStats() / FaultStatsTotal() aggregates exactly.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  /// Charges one tree reduction of per-shard partials with `payload_bytes`
  /// per merge message (k-means centroid sums): ceil(log2 M) critical-path
  /// messages. No-op when shards == 1.
  void ChargeTreeReduction(uint64_t payload_bytes) const;

  /// Execution policy for the per-shard DeviceBatch fan-out. Default is
  /// serial (inline on the caller): RunQueryBatch is typically invoked
  /// from inside a ParallelChunks worker, where a nested parallel fan-out
  /// on the shared pool could deadlock. Coordinators that call from the
  /// main thread (k-means BeginIteration) may opt in to a parallel
  /// fan-out; functional results and stats are identical either way.
  void set_fanout_policy(const ExecPolicy& policy) {
    fanout_policy_ = policy;
  }

 private:
  ShardedPimEngine() = default;

  PimEngine& primary(size_t j) const { return *engines_[j][0]; }

  /// The dispatch instant the chaos schedule and the backoff jitter see.
  uint64_t DispatchNowNs(const DispatchOptions& dispatch) const {
    return dispatch.now_ns != 0
               ? dispatch.now_ns
               : chaos_now_ns_.load(std::memory_order_relaxed);
  }
  /// Token feeding the seeded backoff jitter: a pure mix of the dispatch
  /// instant and the shard, so concurrent ladders of the same dispatch
  /// draw identical waits regardless of thread interleaving.
  static uint64_t LadderToken(uint64_t now_ns, size_t j);

  /// Executes one shard's share of one dispatch on its failover plan: a
  /// DeviceBatch on the planned replica, or the exhaustion rule when the
  /// plan sheds or that replica faults. Adds the plan to shard j's
  /// counters; never walks the ladder itself.
  Status DeviceBatchWithFailover(size_t j, const QueryScratch& scratch,
                                 size_t num_queries,
                                 PimEngine::QueryHandleBatch* handle,
                                 const DispatchOptions& dispatch,
                                 const FailoverPlan& plan,
                                 bool emit_query_spans) const;

  /// Device matrices one dispatch runs per shard (2 for the FNN bound).
  uint64_t DeviceMatrices() const {
    return mode() == EngineMode::kSegmentFnn ? 2 : 1;
  }
  /// Bytes of one operand broadcast of `num_queries` prepared queries —
  /// the scatter charge and the re-scatter charge of one retry rung alike
  /// — from the fleet geometry, not from live scratch buffers, so the
  /// planner and the execution charge the identical figure.
  uint64_t OperandBytes(size_t num_queries) const;

  EngineOptions options_;
  MemoryPlan plan_;
  size_t num_objects_ = 0;
  ShardMap map_;
  /// engines_[j][r]: replica r of shard j. Replica 0 is the deterministic
  /// primary and keeps the exact pre-replica build (seed formula
  /// included), so no-fault runs are bit-identical to replicas == 1.
  std::vector<std::vector<std::unique_ptr<PimEngine>>> engines_;
  ExecPolicy fanout_policy_;  // default-constructed: serial.

  // Availability-fault plane: an installed schedule is consulted (purely,
  // by dispatch instant) before every replica attempt. Never owned.
  const ChaosSchedule* chaos_ = nullptr;
  mutable std::atomic<uint64_t> chaos_now_ns_{0};

  /// Shard j's strike ledger, owned by PlanFailover (the one writer).
  /// strikes[r] counts CONSECUTIVE denials of replica r (a served attempt
  /// clears it); at max_strikes the replica is struck out, and skipped
  /// (so never cleared) until ResetReplicaHealth(). Heap-allocated: a
  /// mutex is immovable.
  struct ShardLedger {
    std::mutex mu;
    std::vector<uint32_t> strikes;  // guarded by mu, one per replica.
  };
  /// Whether a ledger strike count has struck its replica out.
  bool StruckOut(uint32_t strikes) const {
    return strikes >= static_cast<uint32_t>(options_.shard.max_strikes);
  }
  mutable std::vector<std::unique_ptr<ShardLedger>> ledgers_;

  // One atomic per interconnect and failover counter-table entry: integer
  // counters only (mutated under concurrent RunQueryBatch calls;
  // order-independent), ns derived at snapshot. Kept PER SHARD
  // (heap-allocated: atomics are immovable) so the telemetry plane can
  // expose each member's health; FleetStats() sums them.
  struct ShardCounters {
#define PIMINE_COUNTER_ATOMIC(field, family, help) \
  std::atomic<uint64_t> field{0};
    PIMINE_SHARD_LINK_COUNTERS(PIMINE_COUNTER_ATOMIC)
    PIMINE_FAILOVER_COUNTERS(PIMINE_COUNTER_ATOMIC)
#undef PIMINE_COUNTER_ATOMIC
    // Last-dispatch serving state (health reporting, not accounting).
    std::atomic<uint32_t> serving_replica{0};
    std::atomic<bool> slack_mode{false};
  };
  mutable std::vector<std::unique_ptr<ShardCounters>> shard_counters_;
  // Tree reductions merge per-shard partials pairwise — no single owning
  // shard, so the reduce class stays fleet-level.
  mutable std::atomic<uint64_t> reduce_messages_{0};
  mutable std::atomic<uint64_t> reduce_bytes_{0};

  // Drives the round-robin placement of appended rows and survives
  // compaction, so a long insert stream keeps balancing the shards. The
  // mutation counters are not kept here: FleetStats() reads them from the
  // primaries' devices, which count every append, tombstone and compaction.
  uint64_t append_seq_ = 0;
};

/// Merges per-shard top-k lists into the global top-k. Every input list
/// must be sorted the way TopK::TakeSorted emits — ascending by
/// (distance, id) — over pairwise-disjoint id sets, each holding its
/// shard's k best. Because a TopK fed candidates in ascending id order
/// retains exactly the k lexicographically-smallest (distance, id) pairs,
/// the k smallest of the union of per-shard k-bests equal the k smallest
/// of all candidates: the merge is bit-identical to the single-device
/// result, ties and all.
std::vector<Neighbor> MergeShardTopK(
    const std::vector<std::vector<Neighbor>>& per_shard, size_t k);

}  // namespace pimine

#endif  // PIMINE_CORE_SHARDED_ENGINE_H_
