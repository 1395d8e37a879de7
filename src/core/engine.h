#ifndef PIMINE_CORE_ENGINE_H_
#define PIMINE_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/memory_planner.h"
#include "core/quantize.h"
#include "core/similarity.h"
#include "data/matrix.h"
#include "pim/fleet.h"
#include "pim/pim_config.h"
#include "pim/pim_device.h"
#include "util/parallel.h"

namespace pimine {

/// How the engine turns a similarity function into a PIM-aware bound.
enum class EngineMode {
  /// Theorem 1: LB_PIM-ED on the full (quantized) vectors.
  kDirectEd,
  /// Theorem 2: LB_PIM-FNN on segment means + stddevs (two PIM matrices).
  kSegmentFnn,
  /// Means-only segment bound (PIM-aware LB_SM; one PIM matrix).
  kSegmentSm,
  /// Upper bound on cosine similarity.
  kCosine,
  /// Upper bound on Pearson correlation.
  kPearson,
};

std::string_view EngineModeName(EngineMode mode);

/// Build-time knobs for PimEngine.
struct EngineOptions {
  /// Scaling factor of Eq. 5; the paper's default is 1e6 (§VI-B).
  double alpha = 1e6;
  /// PIM hardware description.
  PimConfig pim_config;
  /// Bit width of crossbar operands (the paper keeps 32, §VI-B).
  int operand_bits = 32;
  /// Bound family. ED queries default to automatic selection: direct when
  /// the dataset fits at full dimensionality, segment-FNN otherwise
  /// (Theorem 4 chooses s).
  enum class Bound { kAuto, kDirectEd, kSegmentFnn, kSegmentSm };
  Bound bound = Bound::kAuto;
  /// For segment modes: use exactly this many segments (0 = let Theorem 4
  /// maximize s).
  int64_t force_segments = 0;
  /// ReRAM fault injection for the engine's device(s); disabled by default
  /// (bit-identical to fault-free behaviour). A kSegmentFnn second device
  /// draws from a decorrelated seed.
  FaultConfig fault_config;
  /// Recovery policy the device(s) apply to checksum-flagged results.
  RecoveryPolicy recovery;
  /// Multi-device sharding (consumed by ShardedPimEngine; a plain PimEngine
  /// ignores it and always runs single-device). shard.shards == 1 keeps the
  /// exact single-device behaviour.
  ShardOptions shard;
};

/// The geometry a Build resolves from the dataset shape and the options:
/// the bound family and its Theorem 4 memory plan. For the segment modes
/// plan.s is the segment count and plan.compressed == (plan.s < d).
struct EngineGeometry {
  EngineMode mode = EngineMode::kDirectEd;
  /// The resolved bound (kAuto only for CS/PCC, which have one geometry).
  EngineOptions::Bound bound = EngineOptions::Bound::kAuto;
  MemoryPlan plan;

  /// `options` with this geometry pinned: a Build on any subset of the
  /// rows resolves the same mode and segment count. ShardedPimEngine
  /// resolves on the full dataset and pins the outcome on every shard, so
  /// a shard's smaller plan cannot change the bound function (results
  /// would otherwise depend on the shard count).
  EngineOptions Pin(EngineOptions options) const {
    options.bound = bound;
    if (mode == EngineMode::kSegmentFnn || mode == EngineMode::kSegmentSm) {
      options.force_segments = plan.s;
    }
    return options;
  }
};

/// Resolves the geometry of an n x d dataset: the one bound and plan
/// selection, errors included — empty data, Hamming, CS/PCC with a
/// non-automatic bound or without room at full dimensionality, a direct-ED
/// bound that does not fit, forced segments above the Theorem 4 maximum.
/// ED with the automatic bound goes direct when the dataset fits at full
/// dimensionality and segment-FNN otherwise.
Result<EngineGeometry> ResolveEngineGeometry(int64_t n, int64_t d,
                                             Distance distance,
                                             const EngineOptions& options);

/// The paper's framework in one object (§V): offline, it normalizes the
/// roles — quantize the dataset (Eq. 5-6), compress it to the Theorem 4
/// dimensionality if needed (§V-C), program the PIM array, and pre-compute
/// the Phi terms of the PIM-aware (bound) function; online, each query
/// costs one or two PIM batch dot-products plus O(1) host work per
/// candidate, transferring 3*b bits instead of d*b (Fig. 8).
///
/// For ED the produced values are *lower bounds on squared ED*; for CS/PCC
/// they are *upper bounds on similarity*. Guarantees (tested as invariants):
///   ED modes:  BoundFor(b, q, i) <= SquaredEuclidean(data[i], q)
///   CS mode:   BoundFor(b, q, i) >= CosineSimilarity(data[i], q)
///   PCC mode:  BoundFor(b, q, i) >= PearsonCorrelation(data[i], q)
///
/// Input data and queries must already be normalized into [0, 1] per
/// dimension (use MinMaxScaler); Build rejects out-of-range data.
class PimEngine {
 public:
  /// Result of one *batched* PIM operation covering `num_queries` queries:
  /// one shared dot-product buffer (query q's results occupy
  /// dots1[q*stride, (q+1)*stride)) plus per-query scalar terms. Produced
  /// by RunQueryBatch; consumed through BoundFor(batch, query, index). A
  /// single query is a batch of one, and bound values are bit-identical to
  /// running each query in its own batch. The dot products let the host
  /// combine lazily: it loads only the PIM results it actually inspects.
  struct QueryHandleBatch {
    size_t num_queries = 0;
    size_t stride = 0;            // == num_objects().
    std::vector<uint64_t> dots1;  // num_queries * stride values.
    std::vector<uint64_t> dots2;  // kSegmentFnn only.
    // One entry per query; only the mode-relevant vectors are meaningful.
    std::vector<double> phi_q;
    std::vector<double> sum_floor_q;  // CS/PCC.
    std::vector<double> norm_q;       // CS: |q|;  PCC: phi_a(q).
    std::vector<double> phi_b_q;      // PCC.
    /// Per-result fault flags, laid out like dots1/dots2 (kBoundSlack only;
    /// empty when every result verified clean).
    std::vector<uint8_t> suspect1;
    std::vector<uint8_t> suspect2;
  };

  /// Reusable per-call working memory for RunQueryBatch.
  /// Engines hold no mutable query state, so any number of host threads
  /// may run queries concurrently, each with its own scratch.
  struct QueryScratch {
    std::vector<int32_t> ints;
    std::vector<int32_t> ints2;  // RunQueryBatch, kSegmentFnn: std inputs.
    std::vector<float> means;
    std::vector<float> stds;
  };

  /// Builds the offline state: resolves the geometry
  /// (ResolveEngineGeometry), programs the PIM array, and pre-computes Phi
  /// for every object. `data` rows must be in [0, 1].
  static Result<std::unique_ptr<PimEngine>> Build(const FloatMatrix& data,
                                                  Distance distance,
                                                  const EngineOptions& options);

  /// Executes ONE batched PIM operation for `num_queries` queries packed
  /// row-major in `queries` (num_queries * dims() values, same
  /// dimensionality as the data, values in [0, 1]) and fills the
  /// caller-owned `batch`. The whole batch is quantized in one pass and
  /// matched by a single PimDevice::DotProductBatch per device, so the
  /// device charges one batch_op (and the pipelined batch latency) instead
  /// of num_queries separate operations; every other modeled stat, and
  /// every bound, is bit-identical to running the queries one per batch.
  /// Thread-safe: hot loops keep one QueryScratch and one QueryHandleBatch
  /// per worker, so successive batches reuse their buffers and allocate
  /// nothing once the vectors reach steady-state capacity.
  Status RunQueryBatch(std::span<const float> queries, size_t num_queries,
                       QueryScratch* scratch, QueryHandleBatch* batch) const;

  /// Host half of RunQueryBatch: validates the queries, fills the batch's
  /// per-query scalar terms, and quantizes every query into
  /// scratch->ints/ints2 (the device operands), charging the host-side
  /// quantize traffic and spans exactly once. RunQueryBatch ==
  /// PrepareBatch + DeviceBatch; the fleet layer calls PrepareBatch once
  /// and fans the prepared operands out to every shard, so the query-side
  /// work is never duplicated per shard.
  Status PrepareBatch(std::span<const float> queries, size_t num_queries,
                      QueryScratch* scratch, QueryHandleBatch* batch) const;

  /// Device half of RunQueryBatch: matches the operands PrepareBatch left
  /// in `scratch` (from this engine or a geometry-identical sibling — the
  /// fleet prepares once on one shard) against this engine's programmed
  /// dataset, sets batch->stride to this engine's num_objects(), and fills
  /// dots1/dots2 (+ suspect flags). `emit_query_spans` = false suppresses
  /// the per-query pim_dot trace spans; the fleet emits one serial-
  /// equivalent set itself instead of M duplicates.
  Status DeviceBatch(const QueryScratch& scratch, size_t num_queries,
                     QueryHandleBatch* batch,
                     bool emit_query_spans = true) const;

  /// Fail-over substitute for DeviceBatch: computes the same exact dot
  /// products on the host from the programmed operands
  /// (PimDevice::HostRecomputeBatch), bypassing the device fault model.
  /// Results are bit-identical to a fault-free DeviceBatch with empty
  /// suspect vectors; only fault-escalation accounting is charged.
  Status HostRecomputeBatch(const QueryScratch& scratch, size_t num_queries,
                            QueryHandleBatch* batch) const;

  /// Degraded-mode substitute for DeviceBatch when no device path is
  /// reachable and the policy is to shed rather than stall: fills the
  /// batch with every result flagged suspect, so BoundFor returns the
  /// trivial admissible bound (0 for the ED family, 1 for CS/PCC) and the
  /// host refine stage still produces exact results — at host-exact cost
  /// for this engine's candidates (exact-after-refine, never wrong). No
  /// device or transfer accounting is charged: nothing moved.
  Status SlackFillBatch(size_t num_queries, QueryHandleBatch* batch) const;

  /// Appends `rows` (same dimensionality, values in [0, 1]) to the engine:
  /// quantizes them per the engine's mode, programs the device delta
  /// region(s) incrementally (ProgramLatencyNs per appended row), and
  /// extends the per-object offline terms. Appended objects take physical
  /// indices [num_objects(), num_objects() + rows.rows()). Bounds for the
  /// grown engine are bit-identical to an engine built from scratch on the
  /// merged dataset: quantization, segment stats and Phi terms are all
  /// per-row computations. Not safe concurrently with in-flight queries.
  Status AppendRows(const FloatMatrix& rows);

  /// Tombstones object `index`: its bound becomes PruneBound() (sorts
  /// last, never refined), so query results are bit-identical to an engine
  /// that never held the row — while the physical crossbar row keeps
  /// computing (deleting costs zero device time until compaction).
  Status DeleteRow(size_t index);

  /// True when `index` is tombstoned.
  bool IsDeleted(size_t index) const { return device1_->tombstoned(index); }
  /// Objects that still count (num_objects() minus tombstones).
  size_t live_objects() const {
    return num_objects_ - device1_->tombstoned_rows();
  }
  /// Rows appended since the last full (re)program / compaction.
  size_t delta_objects() const { return device1_->delta_rows(); }

  /// Rewrites base + delta − tombstones into a fresh base on every device,
  /// charged at full program cost (the background compaction pass).
  /// `live_out` (optional) receives the surviving old physical indices in
  /// ascending order — new physical index i held old index (*live_out)[i].
  /// Post-compaction state is bit-identical to an engine freshly built on
  /// the surviving rows.
  Status Compact(std::vector<uint32_t>* live_out = nullptr);

  /// The admissible never-refine bound substituted for tombstoned rows:
  /// +inf for the ED family (sorts last under minimize), -inf for CS/PCC
  /// (sorts last once the search negates for maximize).
  double PruneBound() const;

  /// Lazy combine: the bound for `batch` query `query` against object
  /// `index`. O(1) host work, 3*b bits of transfer.
  double BoundFor(const QueryHandleBatch& batch, size_t query,
                  size_t index) const;

  /// Convenience: a one-query RunQueryBatch + BoundFor for every object.
  /// The combination loop is spread across `policy.num_threads` workers in
  /// blocks of `policy.block_size`; bounds and traffic totals are identical
  /// for any policy (each bound is an independent O(1) combine).
  Status ComputeBounds(std::span<const float> query,
                       std::vector<double>* bounds,
                       const ExecPolicy& policy = ExecPolicy()) const;

  EngineMode mode() const { return mode_; }
  const MemoryPlan& plan() const { return plan_; }
  size_t num_objects() const { return num_objects_; }
  size_t dims() const { return dims_; }
  int64_t num_segments() const { return num_segments_; }
  int64_t segment_length() const { return segment_length_; }
  double alpha() const { return quantizer_.alpha(); }

  /// Per-candidate data-transfer cost of this bound in bits (the T_cost(B)
  /// input to the Eq. 13 plan optimizer): 3 operands of b bits.
  double TransferBitsPerCandidate() const { return 3.0 * operand_bits_; }

  /// Modeled PIM-side time accumulated by RunQueryBatch calls (NVSim role).
  /// Serial-equivalent: invariant under device batching.
  double PimComputeNs() const;
  /// Serial-equivalent modeled device time one query costs this engine
  /// (device1 + device2 when present). Invariant across device batching
  /// and host threading — the per-query figure observability spans charge.
  double SerialDeviceNsPerQuery() const;
  /// Modeled device-occupancy time with batch pipelining; equals
  /// PimComputeNs() bit-for-bit when every operation carried one query.
  double PimPipelinedNs() const;
  /// Modeled pipelined occupancy one RunQueryBatch of `num_queries` queries
  /// would charge (device1 + device2 when present). Pure — the virtual-
  /// clock service time the serving scheduler charges per dispatch.
  double ModeledBatchNs(size_t num_queries) const;
  /// Fault-injection and recovery accounting summed over the engine's
  /// device(s). All-zero when options.fault_config is disabled.
  FaultStats FaultStatsTotal() const;
  /// Modeled offline time: crossbar programming + Phi storage.
  double OfflineNs() const { return offline_ns_; }
  /// Bytes written during the offline stage (programming + Phi terms).
  uint64_t OfflineBytesWritten() const { return offline_bytes_written_; }
  void ResetOnlineStats();

  /// Device access for inspection/tests. `device2` is non-null only in
  /// kSegmentFnn mode.
  const PimDevice& device1() const { return *device1_; }
  const PimDevice* device2() const { return device2_.get(); }

 private:
  PimEngine(EngineMode mode, const EngineOptions& options);

  Status BuildDirectEd(const FloatMatrix& data);
  Status BuildSegment(const FloatMatrix& data, bool with_stds);
  Status BuildDotUpper(const FloatMatrix& data, bool pearson);

  Status CheckQuery(std::span<const float> query) const;

  /// Constructs device1_/device2_ honoring the fault options; the second
  /// device's fault seed is decorrelated from the first's.
  std::unique_ptr<PimDevice> MakeDevice(bool second) const;

  /// Worst-case admissible value substituted for suspect results: 0 for the
  /// ED family (a squared distance is never negative), 1 for CS/PCC (a
  /// cosine/correlation never exceeds 1).
  double TrivialBound() const;

  EngineMode mode_;
  EngineOptions options_;
  Quantizer quantizer_;
  int operand_bits_;
  MemoryPlan plan_;
  size_t num_objects_ = 0;
  size_t dims_ = 0;
  int64_t num_segments_ = 0;
  int64_t segment_length_ = 1;

  std::unique_ptr<PimDevice> device1_;
  std::unique_ptr<PimDevice> device2_;

  // Per-object offline terms (meaning depends on mode).
  std::vector<double> phi_;        // PhiEd / PhiFnn / PhiSm.
  std::vector<double> sum_floor_;  // CS/PCC.
  std::vector<double> norm_;       // CS: |p|;  PCC: phi_a(p).
  std::vector<double> phi_b_;      // PCC.

  double offline_ns_ = 0.0;
  uint64_t offline_bytes_written_ = 0;
};

}  // namespace pimine

#endif  // PIMINE_CORE_ENGINE_H_
