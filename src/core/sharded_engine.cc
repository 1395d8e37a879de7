#include "core/sharded_engine.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace pimine {
namespace {

/// Decorrelates shard j's fault seed from shard 0's: independent physical
/// devices have independent fault patterns. Same mixer as the placement
/// hash (stateless, platform-independent).
uint64_t ShardSeedSalt(uint64_t j) {
  uint64_t x = j + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Decorrelates replica r of shard j from the primary: each copy is its
/// own physical device with its own fault pattern. Replica 0 never gets a
/// replica salt, so the primary's build (and with it every no-fault run)
/// is bit-identical to a replicas == 1 fleet.
uint64_t ReplicaSeedSalt(uint64_t j, uint64_t r) {
  return ShardSeedSalt(0x5eed0000ULL + j * ShardOptions::kMaxReplicas + r);
}

/// Snapshot of a shard's failover counters. failover_ns is derived from
/// the integer counters at snapshot time (the TransferNs formula of the
/// scatter/gather classes plus the backoff), so it is identical for every
/// charge interleaving.
template <typename Counters>
FailoverStats LoadFailover(const Counters& ctr, const PimConfig& c) {
  FailoverStats f;
#define PIMINE_LOAD(field, family, help) \
  f.field = ctr.field.load(std::memory_order_relaxed);
  PIMINE_FAILOVER_COUNTERS(PIMINE_LOAD)
#undef PIMINE_LOAD
  f.failover_ns = TransferNs(c, f.retry_messages, f.retry_bytes) +
                  static_cast<double>(f.backoff_ns);
  return f;
}

/// Adds a shard's interconnect counters to the matching fields of `stats`
/// (ShardHealth for one shard, FleetRunStats summed over all of them).
template <typename Counters, typename Stats>
void AddLinkCounters(const Counters& ctr, Stats* stats) {
#define PIMINE_ADD(field, family, help) \
  stats->field += ctr.field.load(std::memory_order_relaxed);
  PIMINE_SHARD_LINK_COUNTERS(PIMINE_ADD)
#undef PIMINE_ADD
}

/// A shard's replicas serve it one at a time (failed attempts serialize
/// with the eventual success), so a shard's figure is the sum of `ns` over
/// its replicas; the shards run concurrently, so the fleet figure is the
/// max over shards. Clean runs charge only the primary — identical to the
/// pre-replica fleet.
template <typename Engines, typename Ns>
double MaxShardSum(const Engines& engines, Ns ns) {
  double max_ns = 0.0;
  for (const auto& shard : engines) {
    double shard_ns = 0.0;
    for (const auto& e : shard) shard_ns += ns(*e);
    max_ns = std::max(max_ns, shard_ns);
  }
  return max_ns;
}

}  // namespace

Result<std::unique_ptr<ShardedPimEngine>> ShardedPimEngine::Build(
    const FloatMatrix& data, Distance distance, const EngineOptions& options) {
  PIMINE_RETURN_IF_ERROR(options.shard.ValidateReplication());
  // Resolved on the FULL dataset and pinned on every shard: a smaller
  // shard must not pick a different Theorem 4 plan, or results would
  // depend on the shard count.
  PIMINE_ASSIGN_OR_RETURN(
      const EngineGeometry geometry,
      ResolveEngineGeometry(static_cast<int64_t>(data.rows()),
                            static_cast<int64_t>(data.cols()), distance,
                            options));
  auto fleet = std::unique_ptr<ShardedPimEngine>(new ShardedPimEngine());
  fleet->options_ = options;
  fleet->num_objects_ = data.rows();
  fleet->plan_ = geometry.plan;
  PIMINE_ASSIGN_OR_RETURN(fleet->map_, BuildShardMap(data, options.shard));
  EngineOptions pinned = geometry.Pin(options);
  pinned.shard = ShardOptions();  // each member is one device.

  const size_t m = fleet->map_.shards();
  fleet->engines_.resize(m);
  for (size_t j = 0; j < m; ++j) {
    // One shard programs `data` itself; a split copies each shard's rows.
    FloatMatrix shard_data;
    if (m > 1) {
      const std::vector<uint32_t>& rows = fleet->map_.rows_per_shard[j];
      shard_data = FloatMatrix(rows.size(), data.cols());
      for (size_t local = 0; local < rows.size(); ++local) {
        const auto src = data.row(rows[local]);
        std::copy(src.begin(), src.end(),
                  shard_data.mutable_row(local).begin());
      }
    }
    // Every copy (shard x replica) is its own physical device with its own
    // fault pattern, charging its own offline programming pass.
    for (int r = 0; r < options.shard.replicas; ++r) {
      EngineOptions copy = pinned;
      if (j > 0) copy.fault_config.seed ^= ShardSeedSalt(j);
      if (r > 0) {
        copy.fault_config.seed ^=
            ReplicaSeedSalt(j, static_cast<uint64_t>(r));
      }
      PIMINE_ASSIGN_OR_RETURN(
          std::unique_ptr<PimEngine> engine,
          PimEngine::Build(m > 1 ? shard_data : data, distance, copy));
      fleet->engines_[j].push_back(std::move(engine));
    }
    fleet->ledgers_.push_back(std::make_unique<ShardLedger>());
    fleet->ledgers_.back()->strikes.assign(options.shard.replicas, 0);
    fleet->shard_counters_.push_back(std::make_unique<ShardCounters>());
  }
  return fleet;
}

Status ShardedPimEngine::RunQueryBatch(std::span<const float> queries,
                                       size_t num_queries,
                                       QueryScratch* scratch,
                                       QueryHandleBatch* result,
                                       const DispatchOptions& dispatch) const {
  if (result == nullptr) {
    return Status::InvalidArgument(
        "RunQueryBatch requires a non-null batch handle");
  }
  QueryHandleBatch& out = *result;
  out.num_queries = num_queries;
  out.shards.resize(engines_.size());
  // A reused handle may carry state from a previous dispatch; clear what
  // DeviceBatch only fills conditionally so "empty" keeps meaning "clean".
  for (PimEngine::QueryHandleBatch& h : out.shards) {
    h.dots2.clear();
    h.suspect1.clear();
    h.suspect2.clear();
  }
  // Query-side work (validation, scalars, quantization) happens ONCE on
  // shard 0's engine — every shard shares the quantizer and geometry, so
  // the prepared operands serve the whole fleet and the host traffic stays
  // identical to the single-device run.
  PIMINE_RETURN_IF_ERROR(
      primary(0).PrepareBatch(queries, num_queries, scratch, &out.shards[0]));
  const size_t m = engines_.size();
  if (m == 1 && engines_[0].size() == 1 && chaos_ == nullptr) {
    // Single device, no replicas, no chaos plane: the pre-replica path,
    // bit-identical (per-query spans included).
    return primary(0).DeviceBatch(*scratch, num_queries, &out.shards[0]);
  }

  for (size_t j = 1; j < m; ++j) {
    PimEngine::QueryHandleBatch& h = out.shards[j];
    h.num_queries = num_queries;
    h.phi_q = out.shards[0].phi_q;
    h.sum_floor_q = out.shards[0].sum_floor_q;
    h.norm_q = out.shards[0].norm_q;
    h.phi_b_q = out.shards[0].phi_b_q;
  }

  // Scatter: every shard matches the same prepared operands against its
  // rows on the replica its failover plan names (walked here when the
  // caller brought none: each walk touches only its own shard's ledger).
  // Per-query trace spans are suppressed in the per-shard calls when M > 1
  // and emitted once below — the shards run concurrently, so the fleet's
  // serial-equivalent per-query device time is one pass, not M.
  PIMINE_DCHECK(dispatch.plans.empty() || dispatch.plans.size() == m);
  const bool multi = m > 1;
  std::vector<Status> status(m, Status::OK());
  ParallelChunks(fanout_policy_, m, 1,
                 [&](size_t begin, size_t end, size_t /*slot*/) {
                   for (size_t j = begin; j < end; ++j) {
                     status[j] = DeviceBatchWithFailover(
                         j, *scratch, num_queries, &out.shards[j], dispatch,
                         dispatch.plans.empty()
                             ? PlanFailover(j, num_queries, dispatch)
                             : dispatch.plans[j],
                         /*emit_query_spans=*/!multi);
                   }
                 });
  for (size_t j = 0; j < m; ++j) {
    PIMINE_RETURN_IF_ERROR(status[j]);
  }
  if (!multi) return Status::OK();

  // Interconnect accounting, charged to the shard each message terminates
  // at: every shard receives one operand broadcast per device matrix and
  // returns one result message per device matrix carrying its own dot
  // products.
  const bool with_stds = mode() == EngineMode::kSegmentFnn;
  const uint64_t matrices = DeviceMatrices();
  const uint64_t operand_bytes = OperandBytes(num_queries);
  for (size_t j = 0; j < m; ++j) {
    const PimEngine::QueryHandleBatch& h = out.shards[j];
    ShardCounters& ctr = *shard_counters_[j];
    ctr.scatter_messages.fetch_add(matrices, std::memory_order_relaxed);
    ctr.scatter_bytes.fetch_add(operand_bytes, std::memory_order_relaxed);
    ctr.gather_messages.fetch_add(matrices, std::memory_order_relaxed);
    ctr.gather_bytes.fetch_add(
        (h.dots1.size() + h.dots2.size()) * sizeof(uint64_t),
        std::memory_order_relaxed);
  }

  // One serial-equivalent set of per-query device spans, identical to the
  // single-device trace (pass latency is row-count independent).
  if (obs::Obs* const o = obs::Obs::Get()) {
    const double dot_ns = primary(0).device1().SerialDotNsPerQuery();
    const double dot2_ns =
        with_stds ? primary(0).device2()->SerialDotNsPerQuery() : 0.0;
    for (size_t q = 0; q < num_queries; ++q) {
      const int64_t track = obs::TrackFor(static_cast<int64_t>(q));
      o->trace().Complete("engine", "pim_dot", track, dot_ns);
      if (with_stds) {
        o->trace().Complete("engine", "pim_dot2", track, dot2_ns);
      }
    }
  }
  return Status::OK();
}

uint64_t ShardedPimEngine::LadderToken(uint64_t now_ns, size_t j) {
  return ShardSeedSalt(now_ns ^ ShardSeedSalt(j));
}

Status ShardedPimEngine::DeviceBatchWithFailover(
    size_t j, const QueryScratch& scratch, size_t num_queries,
    PimEngine::QueryHandleBatch* handle, const DispatchOptions& dispatch,
    const FailoverPlan& plan, bool emit_query_spans) const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  ShardCounters& ctr = *shard_counters_[j];
  const int num_replicas = static_cast<int>(engines_[j].size());

  // The plan's ladder accounting: denials, strikes and retry rungs (all
  // zero unless the schedule denied an attempt).
  if (plan.failed_attempts > 0) {
    ctr.attempts_failed.fetch_add(plan.failed_attempts, kRelaxed);
    ctr.chaos_denied.fetch_add(plan.failed_attempts, kRelaxed);
    ctr.strikes.fetch_add(plan.strikes, kRelaxed);
    ctr.struck_out.fetch_add(plan.struck_out, kRelaxed);
    ctr.backoff_ns.fetch_add(plan.backoff_ns, kRelaxed);
    ctr.retry_messages.fetch_add(plan.rungs * DeviceMatrices(), kRelaxed);
    ctr.retry_bytes.fetch_add(plan.rungs * OperandBytes(num_queries),
                              kRelaxed);
  }

  // A data-plane DeviceFault on the planned replica is one more failed
  // attempt. It is not re-walked and leaves the ledger alone: its op nonce
  // follows execution order, so no plan could have foreseen it.
  std::string last_fault;
  if (!plan.shed) {
    const int r = plan.serving_replica;
    const Status s = engines_[j][r]->DeviceBatch(scratch, num_queries, handle,
                                                 emit_query_spans);
    if (s.ok()) {
      ctr.serving_replica.store(static_cast<uint32_t>(r), kRelaxed);
      ctr.slack_mode.store(false, kRelaxed);
      if (plan.Injected()) {
        ctr.injected.fetch_add(1, kRelaxed);
        ctr.recovered.fetch_add(1, kRelaxed);
      }
      return Status::OK();
    }
    if (s.code() != StatusCode::kDeviceFault) return s;
    ctr.attempts_failed.fetch_add(1, kRelaxed);
    ctr.device_faults.fetch_add(1, kRelaxed);
    last_fault = "replica " + std::to_string(r) + ": " + s.message();
  }

  // The plan shed (every replica struck out, denied or priced out by the
  // ladder deadline) or the planned replica faulted: the op loses its
  // device path.
  ctr.injected.fetch_add(1, kRelaxed);
  ctr.shed.fetch_add(1, kRelaxed);
  if (!options_.shard.failover) {
    // No escalation configured: the shed op propagates as a DeviceFault
    // carrying its provenance — shard index, replica ids walked, and a
    // deterministic op nonce (hash of the dispatch instant and shard, the
    // same token that seeds the ladder's backoff jitter) so one failing op
    // can be correlated across logs, retries and replays.
    char nonce[20];
    std::snprintf(nonce, sizeof(nonce), "%016llx",
                  static_cast<unsigned long long>(
                      LadderToken(DispatchNowNs(dispatch), j) ^ num_queries));
    return Status::DeviceFault(
        "shard " + std::to_string(j) + " (op " + nonce + "): all " +
        std::to_string(num_replicas) + " replica(s) exhausted" +
        (plan.deadline_shed ? " (ladder deadline exceeded)" : "") +
        (last_fault.empty() ? "" : "; last fault at " + last_fault));
  }
  if (dispatch.slack_on_exhaustion) {
    // Degraded mode: serve the shard as a bound-slack fill — every bound
    // is the admissible trivial bound, so results stay exact after refine
    // while the shard sheds its modeled device work.
    PIMINE_RETURN_IF_ERROR(primary(j).SlackFillBatch(num_queries, handle));
    ctr.slack_fills.fetch_add(1, kRelaxed);
    ctr.slack_mode.store(true, kRelaxed);
  } else {
    PIMINE_RETURN_IF_ERROR(
        primary(j).HostRecomputeBatch(scratch, num_queries, handle));
    ctr.slack_mode.store(false, kRelaxed);
  }
  ctr.serving_replica.store(static_cast<uint32_t>(num_replicas), kRelaxed);
  ctr.failovers.fetch_add(1, kRelaxed);
  ctr.failed_over_queries.fetch_add(num_queries, kRelaxed);
  return Status::OK();
}

ShardedPimEngine::FailoverPlan ShardedPimEngine::PlanFailover(
    size_t j, size_t num_queries, const DispatchOptions& dispatch) const {
  PIMINE_DCHECK(j < engines_.size());
  const uint64_t now_ns = DispatchNowNs(dispatch);
  const uint64_t token = LadderToken(now_ns, j);
  const uint32_t shard = static_cast<uint32_t>(j);
  const bool chaos_on = chaos_ != nullptr && chaos_->enabled();
  const double retry_ns = TransferNs(device1().config(), DeviceMatrices(),
                                     OperandBytes(num_queries));
  const ShardOptions& o = options_.shard;
  // Strikes are meaningful only when there is somewhere to fail over to:
  // with one replica a denied op sheds with no ledger entry.
  const bool keep_strikes = o.replicas > 1;
  ShardLedger& ledger = *ledgers_[j];
  std::lock_guard<std::mutex> lock(ledger.mu);
  FailoverPlan plan;
  for (int r = 0; r < o.replicas; ++r) {
    if (StruckOut(ledger.strikes[r])) {
      ++plan.skipped;
      continue;
    }
    if (plan.failed_attempts > 0) {
      const uint64_t wait =
          FailoverBackoffNs(o.backoff_base_ns, o.backoff_jitter_ns,
                            o.backoff_seed, token, plan.failed_attempts);
      if (dispatch.deadline_ns != 0 &&
          plan.backoff_ns + wait > dispatch.deadline_ns) {
        plan.deadline_shed = true;
        break;
      }
      plan.backoff_ns += wait;
      plan.extra_ns += static_cast<double>(wait) + retry_ns;
      ++plan.rungs;
    }
    const bool denied =
        chaos_on && (chaos_->LinkDown(shard, now_ns) ||
                     chaos_->ReplicaDown(shard, static_cast<uint32_t>(r),
                                         now_ns));
    if (!denied) {
      ledger.strikes[r] = 0;
      plan.serving_replica = r;
      return plan;
    }
    ++plan.failed_attempts;
    if (keep_strikes) {
      ++plan.strikes;
      if (StruckOut(++ledger.strikes[r])) ++plan.struck_out;
    }
  }
  plan.serving_replica = -1;
  plan.shed = true;
  return plan;
}

uint64_t ShardedPimEngine::OperandBytes(size_t num_queries) const {
  const PimEngine& e = primary(0);
  // The operands PrepareBatch quantizes into the scratch buffers: one int
  // per segment (segment modes) or per dimension (direct modes) per query,
  // on each device matrix.
  const uint64_t width = e.num_segments() > 0
                             ? static_cast<uint64_t>(e.num_segments())
                             : static_cast<uint64_t>(e.dims());
  return width * static_cast<uint64_t>(num_queries) * DeviceMatrices() *
         sizeof(int32_t);
}

double ShardedPimEngine::BoundFor(const QueryHandleBatch& batch, size_t query,
                                  size_t index) const {
  PIMINE_DCHECK(index < num_objects_);
  if (engines_.size() == 1) {
    return primary(0).BoundFor(batch.shards[0], query, index);
  }
  const uint32_t j = map_.shard_of[index];
  return primary(j).BoundFor(batch.shards[j], query, map_.local_of[index]);
}

Status ShardedPimEngine::AppendRows(const FloatMatrix& rows) {
  if (rows.rows() == 0) {
    return Status::InvalidArgument("AppendRows requires at least one row");
  }
  if (rows.cols() != dims()) {
    return Status::InvalidArgument("appended row dimensionality mismatch");
  }
  // Validate the whole batch BEFORE mutating any shard, so a bad row
  // cannot leave some replicas appended and others not.
  for (size_t i = 0; i < rows.rows(); ++i) {
    for (float v : rows.row(i)) {
      if (!(v >= 0.0f && v <= 1.0f)) {
        return Status::InvalidArgument(
            "appended rows must be normalized into [0, 1]");
      }
    }
  }
  const size_t m = engines_.size();
  // Round-robin placement by append sequence: group the batch's rows by
  // target shard preserving order, so each shard's slice is appended in
  // ascending global id.
  std::vector<std::vector<uint32_t>> picks(m);
  for (size_t b = 0; b < rows.rows(); ++b) {
    picks[(append_seq_ + b) % m].push_back(static_cast<uint32_t>(b));
  }
  for (size_t j = 0; j < m; ++j) {
    if (picks[j].empty()) continue;
    FloatMatrix part(picks[j].size(), rows.cols());
    for (size_t local = 0; local < picks[j].size(); ++local) {
      const auto src = rows.row(picks[j][local]);
      std::copy(src.begin(), src.end(), part.mutable_row(local).begin());
    }
    // Every replica is a physical copy of the shard: each one delta-
    // programs the slice (its own ProgramLatencyNs and endurance charge).
    for (const auto& e : engines_[j]) {
      PIMINE_RETURN_IF_ERROR(e->AppendRows(part));
    }
  }
  // Extend the global routing map. Appended ids exceed every existing id,
  // so pushing back keeps each shard's global-id list ascending — the
  // shard-local physical order the engines just programmed.
  for (size_t b = 0; b < rows.rows(); ++b) {
    const uint32_t j = static_cast<uint32_t>((append_seq_ + b) % m);
    map_.rows_per_shard[j].push_back(
        static_cast<uint32_t>(num_objects_ + b));
    map_.shard_of.push_back(j);
    map_.local_of.push_back(
        static_cast<uint32_t>(map_.rows_per_shard[j].size() - 1));
  }
  append_seq_ += rows.rows();
  num_objects_ += rows.rows();
  return Status::OK();
}

Status ShardedPimEngine::DeleteRow(size_t index) {
  if (index >= num_objects_) {
    return Status::InvalidArgument("DeleteRow index out of range");
  }
  const uint32_t j = map_.shard_of[index];
  const uint32_t local = map_.local_of[index];
  // Replicas hold identical tombstone state, so the first call performs
  // all validation (out-of-range / double delete / last-live guard) before
  // mutating; later replicas cannot fail differently.
  for (const auto& e : engines_[j]) {
    PIMINE_RETURN_IF_ERROR(e->DeleteRow(local));
  }
  return Status::OK();
}

bool ShardedPimEngine::IsDeleted(size_t index) const {
  PIMINE_DCHECK(index < num_objects_);
  return primary(map_.shard_of[index]).IsDeleted(map_.local_of[index]);
}

Status ShardedPimEngine::Compact() {
  const size_t m = engines_.size();
  std::vector<std::vector<uint32_t>> live_local(m);
  for (size_t j = 0; j < m; ++j) {
    for (size_t r = 0; r < engines_[j].size(); ++r) {
      // Replica tombstone state is identical, so every replica compacts to
      // the same live list; keep the primary's for the map renumber.
      PIMINE_RETURN_IF_ERROR(
          engines_[j][r]->Compact(r == 0 ? &live_local[j] : nullptr));
    }
  }
  // Renumber survivors densely in ascending OLD global id — the ids a
  // from-scratch build of the merged live dataset would assign.
  std::vector<std::pair<uint32_t, uint32_t>> survivors;  // (old id, shard)
  for (size_t j = 0; j < m; ++j) {
    for (const uint32_t local : live_local[j]) {
      survivors.emplace_back(map_.rows_per_shard[j][local], j);
    }
  }
  std::sort(survivors.begin(), survivors.end());
  ShardMap next;
  next.rows_per_shard.resize(m);
  next.shard_of.resize(survivors.size());
  next.local_of.resize(survivors.size());
  for (size_t id = 0; id < survivors.size(); ++id) {
    const uint32_t j = survivors[id].second;
    // The monotone renumber preserves each shard's ascending order, so the
    // new local index matches the position the shard engine's compaction
    // moved the row to.
    next.rows_per_shard[j].push_back(static_cast<uint32_t>(id));
    next.shard_of[id] = j;
    next.local_of[id] =
        static_cast<uint32_t>(next.rows_per_shard[j].size() - 1);
  }
  map_ = std::move(next);
  num_objects_ = survivors.size();
  return Status::OK();
}

size_t ShardedPimEngine::live_objects() const {
  size_t live = 0;
  for (size_t j = 0; j < engines_.size(); ++j) live += primary(j).live_objects();
  return live;
}

size_t ShardedPimEngine::delta_objects() const {
  size_t delta = 0;
  for (size_t j = 0; j < engines_.size(); ++j) {
    delta += primary(j).delta_objects();
  }
  return delta;
}

size_t ShardedPimEngine::tombstoned_objects() const {
  return num_objects_ - live_objects();
}

int ShardedPimEngine::serving_replica(size_t j) const {
  PIMINE_DCHECK(j < shard_counters_.size());
  return static_cast<int>(
      shard_counters_[j]->serving_replica.load(std::memory_order_relaxed));
}

bool ShardedPimEngine::shard_slack_mode(size_t j) const {
  PIMINE_DCHECK(j < shard_counters_.size());
  return shard_counters_[j]->slack_mode.load(std::memory_order_relaxed);
}

int ShardedPimEngine::replica_strikes(size_t j, size_t r) const {
  PIMINE_DCHECK(j < ledgers_.size());
  PIMINE_DCHECK(r < engines_[j].size());
  std::lock_guard<std::mutex> lock(ledgers_[j]->mu);
  return static_cast<int>(ledgers_[j]->strikes[r]);
}

bool ShardedPimEngine::replica_out(size_t j, size_t r) const {
  return StruckOut(static_cast<uint32_t>(replica_strikes(j, r)));
}

bool ShardedPimEngine::shard_degraded(size_t j) const {
  if (serving_replica(j) != 0 || shard_slack_mode(j)) return true;
  std::lock_guard<std::mutex> lock(ledgers_[j]->mu);
  return std::any_of(ledgers_[j]->strikes.begin(), ledgers_[j]->strikes.end(),
                     [this](uint32_t strikes) { return StruckOut(strikes); });
}

int ShardedPimEngine::DegradedShards() const {
  int degraded = 0;
  for (size_t j = 0; j < engines_.size(); ++j) {
    if (shard_degraded(j)) ++degraded;
  }
  return degraded;
}

void ShardedPimEngine::ResetReplicaHealth() {
  for (const auto& ledger : ledgers_) {
    std::lock_guard<std::mutex> lock(ledger->mu);
    std::fill(ledger->strikes.begin(), ledger->strikes.end(), 0);
  }
}

double ShardedPimEngine::PimComputeNs() const {
  return MaxShardSum(engines_, [](const PimEngine& e) {
    return e.PimComputeNs();
  });
}

double ShardedPimEngine::PimPipelinedNs() const {
  return MaxShardSum(engines_, [](const PimEngine& e) {
    return e.PimPipelinedNs();
  });
}

FaultStats ShardedPimEngine::FaultStatsTotal() const {
  FaultStats total;
  for (const auto& shard : engines_) {
    for (const auto& e : shard) total.Merge(e->FaultStatsTotal());
  }
  return total;
}

double ShardedPimEngine::OfflineNs() const {
  // Every copy (shard x replica) programs concurrently: max over all.
  double ns = 0.0;
  for (const auto& shard : engines_) {
    for (const auto& e : shard) ns = std::max(ns, e->OfflineNs());
  }
  return ns;
}

uint64_t ShardedPimEngine::OfflineBytesWritten() const {
  // Every replica is a physical copy: programming bytes sum over all.
  uint64_t bytes = 0;
  for (const auto& shard : engines_) {
    for (const auto& e : shard) bytes += e->OfflineBytesWritten();
  }
  return bytes;
}

void ShardedPimEngine::ResetOnlineStats() {
  for (const auto& shard : engines_) {
    for (const auto& e : shard) e->ResetOnlineStats();
  }
  for (const auto& ctr : shard_counters_) {
#define PIMINE_RESET(field, family, help) \
  ctr->field.store(0, std::memory_order_relaxed);
    PIMINE_SHARD_LINK_COUNTERS(PIMINE_RESET)
    PIMINE_FAILOVER_COUNTERS(PIMINE_RESET)
#undef PIMINE_RESET
    ctr->serving_replica.store(0, std::memory_order_relaxed);
    ctr->slack_mode.store(false, std::memory_order_relaxed);
  }
  reduce_messages_.store(0, std::memory_order_relaxed);
  reduce_bytes_.store(0, std::memory_order_relaxed);
}

FleetRunStats ShardedPimEngine::FleetStats() const {
  FleetRunStats s;
  s.shards = static_cast<int>(engines_.size());
  s.placement = options_.shard.placement;
  // Interconnect/failover totals are the exact sums of the per-shard
  // counters (integer addition; identical to the former fleet-level
  // fetch_adds for any charge interleaving).
  const PimConfig& c = device1().config();
  for (const auto& ctr : shard_counters_) {
    AddLinkCounters(*ctr, &s);
    s.failover.Merge(LoadFailover(*ctr, c));
  }
  s.reduce_messages = reduce_messages_.load(std::memory_order_relaxed);
  s.reduce_bytes = reduce_bytes_.load(std::memory_order_relaxed);
  s.degraded_shards = DegradedShards();
  // Derived at snapshot time from the integer counters, so the figures are
  // independent of charge interleaving.
  s.scatter_ns = TransferNs(c, s.scatter_messages, s.scatter_bytes);
  s.gather_ns = TransferNs(c, s.gather_messages, s.gather_bytes);
  s.reduce_ns = TransferNs(c, s.reduce_messages, s.reduce_bytes);
  s.delta_rows = delta_objects();
  s.tombstoned_rows = tombstoned_objects();
  // Endurance sums over every device copy: replicas are physical devices,
  // each wearing its own cells. Every fleet mutation reaches each
  // primary's device1 exactly once, so the mutation counters are the sums
  // of its counts, except compactions: every fleet pass compacts every
  // device, so any one primary's count is the fleet's.
  for (const auto& shard : engines_) {
    for (const auto& e : shard) {
      for (const PimDevice* dev : {&e->device1(), e->device2()}) {
        if (dev == nullptr) continue;
        const PimDeviceStats ds = dev->StatsSnapshot();
        s.row_writes += ds.row_writes;
        s.worn_rows += ds.worn_rows;
        if (e != shard.front() || dev != &e->device1()) continue;
        s.appended_rows += ds.delta_vectors;
        s.deleted_rows += ds.tombstoned_vectors;
        s.compactions = ds.compactions;
        s.compacted_rows += ds.compacted_rows;
      }
    }
  }
  return s;
}

ShardedPimEngine::ShardHealth ShardedPimEngine::ShardHealthSnapshot(
    size_t j) const {
  PIMINE_DCHECK(j < engines_.size());
  ShardHealth h;
  const ShardCounters& ctr = *shard_counters_[j];
  AddLinkCounters(ctr, &h);
  const PimConfig& c = device1().config();
  h.scatter_ns = TransferNs(c, h.scatter_messages, h.scatter_bytes);
  h.gather_ns = TransferNs(c, h.gather_messages, h.gather_bytes);
  // Device accounting sums over the shard's replicas: a failed attempt's
  // pass charges the replica it ran on.
  for (const auto& e : engines_[j]) {
    for (const PimDevice* dev : {&e->device1(), e->device2()}) {
      if (dev == nullptr) continue;
      const PimDeviceStats ds = dev->StatsSnapshot();
      h.batch_ops += ds.batch_ops;
      h.queries_processed += ds.queries_processed;
      h.pim_ns += ds.compute_ns;
      h.pipelined_ns += ds.pipelined_ns;
      h.fault.Merge(ds.fault);
    }
  }
  h.failover = LoadFailover(ctr, c);
  h.serving_replica =
      static_cast<int>(ctr.serving_replica.load(std::memory_order_relaxed));
  h.degraded = shard_degraded(j);
  return h;
}

void ShardedPimEngine::ExportMetrics(obs::MetricsRegistry* registry) const {
  obs::MetricsRegistry& r = *registry;
  r.SetHelp("pimine_fleet_shards", "Fleet members the dataset is sharded across.");
  r.SetHelp("pimine_fleet_replicas",
            "Replica copies each shard is programmed onto.");
  r.SetHelp("pimine_fleet_degraded_shards",
            "Shards serving off-primary, in bound-slack mode, or carrying a "
            "struck-out replica.");
#define PIMINE_HELP(field, family, help) r.SetHelp(family, help);
  PIMINE_SHARD_LINK_COUNTERS(PIMINE_HELP)
  PIMINE_FAULT_COUNTERS(PIMINE_HELP)
  PIMINE_FAILOVER_COUNTERS(PIMINE_HELP)
  PIMINE_MUTATION_COUNTERS(PIMINE_HELP)
  PIMINE_MUTATION_GAUGES(PIMINE_HELP)
#undef PIMINE_HELP
  r.SetHelp("pimine_fleet_shard_scatter_ns",
            "Modeled scatter transfer time charged to this shard.");
  r.SetHelp("pimine_fleet_shard_gather_ns",
            "Modeled gather transfer time charged to this shard.");
  r.SetHelp("pimine_fleet_shard_batch_ops_total",
            "Device batch operations issued on this shard.");
  r.SetHelp("pimine_fleet_shard_queries_total",
            "Queries matched by this shard's devices.");
  r.SetHelp("pimine_fleet_shard_pim_ns",
            "Serial-equivalent modeled device compute time of this shard.");
  r.SetHelp("pimine_fleet_shard_pipelined_ns",
            "Modeled pipelined device occupancy of this shard.");
  r.SetHelp("pimine_fleet_shard_fault_recovery_ns",
            "Modeled fault-recovery time spent on this shard.");
  r.SetHelp("pimine_fleet_shard_failover_ns",
            "Modeled failover time of this shard (retry transfer + backoff).");
  r.SetHelp("pimine_fleet_shard_serving_replica",
            "Replica that served this shard's most recent dispatch "
            "(replicas = off-device).");
  r.SetHelp("pimine_fleet_reduce_messages_total",
            "Tree-reduction messages on the fleet critical path.");
  r.SetHelp("pimine_fleet_reduce_bytes_total",
            "Tree-reduction payload bytes on the fleet critical path.");
  r.GetGauge("pimine_fleet_shards")
      .Set(static_cast<double>(engines_.size()));
  r.GetGauge("pimine_fleet_replicas")
      .Set(static_cast<double>(options_.shard.replicas));
  r.GetGauge("pimine_fleet_degraded_shards")
      .Set(static_cast<double>(DegradedShards()));
  const auto count = [&r](const char* family,
                          const obs::MetricLabels& labels, uint64_t value) {
    obs::Counter& ctr = r.GetCounter(family, labels);
    ctr.Reset();
    ctr.Add(value);
  };
  for (size_t j = 0; j < engines_.size(); ++j) {
    const ShardHealth h = ShardHealthSnapshot(j);
    const obs::MetricLabels labels = {{"shard", std::to_string(j)}};
#define PIMINE_COUNT(field, family, help) count(family, labels, h.field);
    PIMINE_SHARD_LINK_COUNTERS(PIMINE_COUNT)
#undef PIMINE_COUNT
    count("pimine_fleet_shard_batch_ops_total", labels, h.batch_ops);
    count("pimine_fleet_shard_queries_total", labels, h.queries_processed);
#define PIMINE_COUNT(field, family, help) \
  count(family, labels, h.fault.field);
    PIMINE_FAULT_COUNTERS(PIMINE_COUNT)
#undef PIMINE_COUNT
#define PIMINE_COUNT(field, family, help) \
  count(family, labels, h.failover.field);
    PIMINE_FAILOVER_COUNTERS(PIMINE_COUNT)
#undef PIMINE_COUNT
    r.GetGauge("pimine_fleet_shard_scatter_ns", labels).Set(h.scatter_ns);
    r.GetGauge("pimine_fleet_shard_gather_ns", labels).Set(h.gather_ns);
    r.GetGauge("pimine_fleet_shard_pim_ns", labels).Set(h.pim_ns);
    r.GetGauge("pimine_fleet_shard_pipelined_ns", labels)
        .Set(h.pipelined_ns);
    r.GetGauge("pimine_fleet_shard_fault_recovery_ns", labels)
        .Set(h.fault.recovery_ns);
    r.GetGauge("pimine_fleet_shard_failover_ns", labels)
        .Set(h.failover.failover_ns);
    r.GetGauge("pimine_fleet_shard_serving_replica", labels)
        .Set(static_cast<double>(h.serving_replica));
  }
  count("pimine_fleet_reduce_messages_total", {},
        reduce_messages_.load(std::memory_order_relaxed));
  count("pimine_fleet_reduce_bytes_total", {},
        reduce_bytes_.load(std::memory_order_relaxed));

  // Mutable-dataset plane (DESIGN.md section 13): the fleet's mutation
  // counters and current delta/tombstone/wear state from FleetStats.
  r.SetHelp("pimine_mutation_row_writes_total",
            "Row program operations summed over every device copy "
            "(write-endurance accounting).");
  const FleetRunStats fs = FleetStats();
#define PIMINE_COUNT(field, family, help) count(family, {}, fs.field);
  PIMINE_MUTATION_COUNTERS(PIMINE_COUNT)
#undef PIMINE_COUNT
  count("pimine_mutation_row_writes_total", {}, fs.row_writes);
#define PIMINE_GAUGE(field, family, help) \
  r.GetGauge(family).Set(static_cast<double>(fs.field));
  PIMINE_MUTATION_GAUGES(PIMINE_GAUGE)
#undef PIMINE_GAUGE
}

void ShardedPimEngine::ChargeTreeReduction(uint64_t payload_bytes) const {
  const size_t m = engines_.size();
  if (m <= 1) return;
  // Critical path of a pairwise merge tree: ceil(log2 m) levels, one
  // payload-sized message per level.
  uint64_t depth = 0;
  for (size_t width = m; width > 1; width = (width + 1) / 2) ++depth;
  reduce_messages_.fetch_add(depth, std::memory_order_relaxed);
  reduce_bytes_.fetch_add(depth * payload_bytes, std::memory_order_relaxed);
}

std::vector<Neighbor> MergeShardTopK(
    const std::vector<std::vector<Neighbor>>& per_shard, size_t k) {
  std::vector<Neighbor> all;
  for (const std::vector<Neighbor>& list : per_shard) {
    all.insert(all.end(), list.begin(), list.end());
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace pimine
