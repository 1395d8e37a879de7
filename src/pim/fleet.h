#ifndef PIMINE_PIM_FLEET_H_
#define PIMINE_PIM_FLEET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/matrix.h"
#include "pim/pim_config.h"
#include "util/counter_table.h"

namespace pimine {

/// How dataset rows are distributed over the logical devices of a fleet.
/// Every placement produces balanced shards (sizes differ by at most one
/// row) and is deterministic in (n, shards) — re-building the same fleet
/// always yields the same map.
enum class ShardPlacement {
  /// Rows [0, n) split into contiguous ranges (shard 0 gets the first
  /// ceil(n/M) rows, ...). Preserves locality of pre-sorted datasets.
  kContiguous,
  /// Rows scattered pseudo-randomly (SplitMix64 of the row index orders the
  /// rows before the balanced split). Load-balances clustered datasets.
  kHash,
  /// Rows ordered by their per-dimension mean before the balanced split, so
  /// rows of similar magnitude (typically the same cluster for normalized
  /// clustered data) land on the same device.
  kClusterAware,
};

std::string_view ShardPlacementName(ShardPlacement placement);

/// Parses "contiguous" / "hash" / "cluster" (CLI spelling).
Result<ShardPlacement> ParseShardPlacement(std::string_view name);

/// Build-time knobs of a device fleet. The default (one shard) is the
/// single-device configuration and is bit-identical to a plain PimEngine.
struct ShardOptions {
  /// Logical devices M the dataset is sharded across. Must satisfy
  /// 1 <= shards <= n (rejected with InvalidArgument otherwise).
  int shards = 1;
  ShardPlacement placement = ShardPlacement::kContiguous;
  /// When true, a shard whose device operation fails with DeviceFault
  /// (RecoveryPolicy VerifyMode::kFailOp exhausted its ladder) is
  /// escalated to a host-exact recompute of only that shard instead of
  /// failing the whole fleet operation. With replicas > 1 a replica the
  /// chaos schedule denies fails over to the next one first; a device
  /// fault on the serving replica escalates at once.
  bool failover = true;
  /// Copies of every shard programmed onto independent devices, in
  /// [1, kMaxReplicas]. Replicas hold the identical shard dataset with
  /// decorrelated fault seeds; replica 0 is the deterministic primary, so
  /// results are bit-identical to single-replica runs while no fault
  /// fires. Each copy charges its own ProgramLatencyNs (offline bytes sum
  /// over copies; offline time is the max — copies program concurrently).
  int replicas = 1;
  /// Consecutive chaos-denied attempts after which a replica is marked
  /// unhealthy and skipped by the failover ladder (a served attempt resets
  /// the count; ResetReplicaHealth() readmits struck-out replicas). Ignored
  /// when replicas == 1: with nothing to fail over to, a faulted op
  /// escalates directly — exactly the pre-replica ladder.
  int max_strikes = 3;
  /// Seeded-jitter exponential backoff between replica attempts:
  /// backoff_base_ns * 2^(attempt-1) + hash % (backoff_jitter_ns + 1),
  /// jitter drawn as a pure hash of (backoff_seed, dispatch instant,
  /// attempt) — see FailoverBackoffNs in pim/chaos.h.
  uint64_t backoff_base_ns = 2000;
  uint64_t backoff_jitter_ns = 1000;
  uint64_t backoff_seed = 0xBAC0FFull;

  static constexpr int kMaxReplicas = 8;

  /// Checks the replication knobs (replicas range, max_strikes >= 1).
  Status ValidateReplication() const;
};

/// The replica-failover counters, one entry each:
/// X(field, Prometheus family, HELP text). This list is the one definition
/// of every counter: the FailoverStats fields, ShardedPimEngine's per-shard
/// atomics, their reset, load and merge, and the labelled
/// pimine_failover_*{shard="j"} export are all generated from it.
#define PIMINE_FAILOVER_COUNTERS(X)                                         \
  X(injected, "pimine_failover_injected_total",                             \
    "Shard-dispatch ops that lost at least one replica attempt.")           \
  X(recovered, "pimine_failover_recovered_total",                           \
    "Injected ops completed on a later healthy replica.")                   \
  X(shed, "pimine_failover_shed_total",                                     \
    "Injected ops escalated off-device (host-exact or bound-slack).")       \
  X(attempts_failed, "pimine_failover_attempts_failed_total",               \
    "Individual replica attempts that failed on this shard.")               \
  X(chaos_denied, "pimine_failover_chaos_denied_total",                     \
    "Replica attempts denied by the chaos schedule.")                       \
  X(device_faults, "pimine_failover_device_faults_total",                   \
    "Replica attempts lost to an unrecoverable device fault.")              \
  X(strikes, "pimine_failover_strikes_total",                               \
    "Strikes recorded against this shard's replicas.")                      \
  X(struck_out, "pimine_failover_struck_out_total",                         \
    "Replicas struck out of this shard's ladder.")                          \
  X(slack_fills, "pimine_failover_slack_fills_total",                       \
    "Shed ops served as bound-slack fills on this shard.")                  \
  X(retry_messages, "pimine_failover_retry_messages_total",                 \
    "Operand re-scatter messages to retry replicas.")                       \
  X(retry_bytes, "pimine_failover_retry_bytes_total",                       \
    "Operand re-scatter bytes to retry replicas.")                          \
  X(backoff_ns, "pimine_failover_backoff_ns_total",                         \
    "Seeded backoff waited between replica attempts.")

/// The per-shard interconnect counters, in the same X(field, family, HELP)
/// form: the fields of ShardHealth and FleetRunStats, the per-shard
/// atomics, their reset and fleet sum, and the labelled
/// pimine_fleet_shard_*{shard="j"} export all come from this list.
#define PIMINE_SHARD_LINK_COUNTERS(X)                                       \
  X(scatter_messages, "pimine_fleet_shard_scatter_messages_total",          \
    "Operand broadcast messages received by this shard.")                   \
  X(scatter_bytes, "pimine_fleet_shard_scatter_bytes_total",                \
    "Operand bytes received by this shard.")                                \
  X(gather_messages, "pimine_fleet_shard_gather_messages_total",            \
    "Result messages returned by this shard.")                              \
  X(gather_bytes, "pimine_fleet_shard_gather_bytes_total",                  \
    "Result bytes returned by this shard.")                                 \
  X(failovers, "pimine_fleet_shard_failovers_total",                        \
    "Off-device escalations after the replica ladder was exhausted.")       \
  X(failed_over_queries, "pimine_fleet_shard_failed_over_queries_total",    \
    "Queries served off-device on this shard.")

/// The mutable-dataset counters (DESIGN.md section 13), in the same
/// X(field, family, HELP) form: cumulative since build, and counted on the
/// primary copies. Mutations are maintenance work, so ResetOnlineStats
/// leaves them untouched. The FleetRunStats fields, AnyMutation, the
/// mutation part of ToString and the pimine_mutation_* counters are
/// generated from this list.
#define PIMINE_MUTATION_COUNTERS(X)                                         \
  X(appended_rows, "pimine_mutation_appended_rows_total",                   \
    "Rows appended to the fleet via delta programming.")                    \
  X(deleted_rows, "pimine_mutation_deleted_rows_total",                     \
    "Rows tombstoned on the fleet.")                                        \
  X(compactions, "pimine_mutation_compactions_total",                       \
    "Fleet-wide compaction passes (base + delta rewritten).")               \
  X(compacted_rows, "pimine_mutation_compacted_rows_total",                 \
    "Live rows rewritten by compaction passes.")

/// The mutable-dataset state, exported as pimine_mutation_* gauges: the
/// current un-compacted delta rows and live tombstones (primary copies)
/// and the rows past the write-endurance limit (every device copy).
#define PIMINE_MUTATION_GAUGES(X)                                           \
  X(delta_rows, "pimine_mutation_delta_rows",                               \
    "Un-compacted delta rows currently programmed (primary copies).")       \
  X(tombstoned_rows, "pimine_mutation_tombstoned_rows",                     \
    "Rows currently tombstoned (primary copies).")                          \
  X(worn_rows, "pimine_mutation_worn_rows",                                 \
    "Rows past the configured write-endurance limit over every "            \
    "device copy.")

/// Modeled interconnect time of `messages` transfers carrying `bytes` in
/// total: PimTimingModel::TransferLatencyNs summed per message, which is
/// linear, so the figure is the same for every charge interleaving.
inline double TransferNs(const PimConfig& config, uint64_t messages,
                         uint64_t bytes) {
  return static_cast<double>(messages) * config.interconnect_hop_ns +
         static_cast<double>(bytes) / config.interconnect_gbps;
}

/// Replica-failover accounting of one fleet run. The locked invariant:
/// injected == recovered + shed — every op (one shard's share of one
/// dispatch) that lost its primary device path is either served by another
/// replica or shed off-device (host-exact recompute / bound-slack fill);
/// nothing is dropped and nothing is double-counted. attempts_failed ==
/// chaos_denied + device_faults, and strikes are recorded only with
/// replicas > 1. Integer counters are mutated relaxed under concurrent
/// dispatches; failover_ns is derived from them at snapshot time, so it is
/// identical for every interleaving.
struct FailoverStats {
  PIMINE_FAILOVER_COUNTERS(PIMINE_COUNTER_FIELD)
  /// Derived at snapshot: backoff + modeled retry re-scatter time.
  double failover_ns = 0.0;

  bool Balanced() const { return injected == recovered + shed; }
  bool Any() const {
    return injected != 0 || attempts_failed != 0 || strikes != 0;
  }
  void Merge(const FailoverStats& other);
  std::string ToString() const;
};

/// The row <-> shard mapping of one fleet: rows_per_shard[j] lists the
/// global row ids of shard j in ascending order (the shard-local order),
/// and shard_of/local_of invert the map for O(1) routing.
struct ShardMap {
  std::vector<std::vector<uint32_t>> rows_per_shard;
  std::vector<uint32_t> shard_of;  // global row -> shard.
  std::vector<uint32_t> local_of;  // global row -> row within its shard.

  size_t shards() const { return rows_per_shard.size(); }
};

/// Builds the placement map for `data` under `options`. Fails with
/// InvalidArgument when options.shards < 1 or options.shards > data.rows().
Result<ShardMap> BuildShardMap(const FloatMatrix& data,
                               const ShardOptions& options);

/// Interconnect/fleet accounting of one run over a sharded engine. Unlike
/// the grouping-invariant RunStats counters, these quantities legitimately
/// depend on the fleet geometry (shards, device_batch): they model the
/// host<->device scatter/gather traffic that sharded execution adds. All
/// zero when shards == 1. The ns figures are derived deterministically
/// from the integer message/byte counters and the PimConfig interconnect
/// parameters at snapshot time, so they are identical for every host
/// thread interleaving.
struct FleetRunStats {
  int shards = 1;
  ShardPlacement placement = ShardPlacement::kContiguous;
  /// Sums over shards of the PIMINE_SHARD_LINK_COUNTERS: query broadcasts
  /// (one message per shard per device matrix, carrying the batch's
  /// quantized operands), result gathers (one per shard per device matrix,
  /// carrying the shard's dot products), and host-exact escalations after
  /// the replica ladder was exhausted.
  PIMINE_SHARD_LINK_COUNTERS(PIMINE_COUNTER_FIELD)
  /// Tree reduction of k-means centroid partial sums: critical-path
  /// messages (one per tree level) and their payloads.
  uint64_t reduce_messages = 0;
  uint64_t reduce_bytes = 0;
  /// Replica-failover ladder accounting (all-zero when no fault fired).
  FailoverStats failover;
  /// Shards currently off their primary replica or in bound-slack mode.
  int degraded_shards = 0;
  /// Modeled interconnect time (TransferNs of the counters above; see
  /// DESIGN.md section 9).
  double scatter_ns = 0.0;
  double gather_ns = 0.0;
  double reduce_ns = 0.0;
  /// Mutable-dataset accounting (see DESIGN.md section 13).
  PIMINE_MUTATION_COUNTERS(PIMINE_COUNTER_FIELD)
  PIMINE_MUTATION_GAUGES(PIMINE_COUNTER_FIELD)
  /// Row program operations summed over every device copy (replicas are
  /// physical devices, so each copy wears independently). Not in the
  /// tables: every build writes each row once, so it is non-zero on a
  /// fleet that was never mutated and stays out of AnyMutation.
  uint64_t row_writes = 0;

  double InterconnectNs() const { return scatter_ns + gather_ns + reduce_ns; }
  bool Any() const {
    return scatter_messages != 0 || gather_messages != 0 ||
           reduce_messages != 0 || failovers != 0;
  }
  bool AnyMutation() const {
    return false PIMINE_MUTATION_COUNTERS(PIMINE_COUNTER_ANY)
        PIMINE_MUTATION_GAUGES(PIMINE_COUNTER_ANY);
  }

  std::string ToString() const;
};

}  // namespace pimine

#endif  // PIMINE_PIM_FLEET_H_
