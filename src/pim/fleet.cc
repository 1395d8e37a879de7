#include "pim/fleet.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace pimine {
namespace {

/// SplitMix64: the placement hash. Stateless, so row -> shard assignment is
/// reproducible across runs and platforms.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string_view ShardPlacementName(ShardPlacement placement) {
  switch (placement) {
    case ShardPlacement::kContiguous:
      return "contiguous";
    case ShardPlacement::kHash:
      return "hash";
    case ShardPlacement::kClusterAware:
      return "cluster";
  }
  return "?";
}

Result<ShardPlacement> ParseShardPlacement(std::string_view name) {
  if (name == "contiguous") return ShardPlacement::kContiguous;
  if (name == "hash") return ShardPlacement::kHash;
  if (name == "cluster") return ShardPlacement::kClusterAware;
  return Status::InvalidArgument(
      "unknown placement '" + std::string(name) +
      "'; expected contiguous, hash or cluster");
}

Status ShardOptions::ValidateReplication() const {
  if (replicas < 1 || replicas > kMaxReplicas) {
    return Status::InvalidArgument(
        "shard replicas must be in [1, " + std::to_string(kMaxReplicas) +
        "] (got " + std::to_string(replicas) + ")");
  }
  if (max_strikes < 1) {
    return Status::InvalidArgument(
        "shard max_strikes must be >= 1 (got " + std::to_string(max_strikes) +
        ")");
  }
  return Status::OK();
}

void FailoverStats::Merge(const FailoverStats& other) {
  PIMINE_FAILOVER_COUNTERS(PIMINE_COUNTER_MERGE)
  failover_ns += other.failover_ns;
}

std::string FailoverStats::ToString() const {
  std::ostringstream os;
  PIMINE_FAILOVER_COUNTERS(PIMINE_COUNTER_PRINT)
  os << "failover=" << failover_ns / 1e6 << "ms";
  return os.str();
}

Result<ShardMap> BuildShardMap(const FloatMatrix& data,
                               const ShardOptions& options) {
  const size_t n = data.rows();
  if (options.shards < 1) {
    return Status::InvalidArgument(
        "shards must be >= 1 (got " + std::to_string(options.shards) + ")");
  }
  if (static_cast<size_t>(options.shards) > n) {
    return Status::InvalidArgument(
        "shards (" + std::to_string(options.shards) +
        ") must not exceed the dataset size (" + std::to_string(n) +
        "): every shard needs at least one row");
  }
  const size_t m = static_cast<size_t>(options.shards);

  // Unified placement: order the rows by a placement key, split the order
  // into M balanced contiguous runs, then sort each shard's rows ascending
  // (the shard-local layout every engine programs). One shard holds every
  // row in ascending order under any placement, so it skips the key.
  const ShardPlacement placement =
      m == 1 ? ShardPlacement::kContiguous : options.placement;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  switch (placement) {
    case ShardPlacement::kContiguous:
      break;  // identity key.
    case ShardPlacement::kHash:
      std::sort(order.begin(), order.end(), [](uint32_t a, uint32_t b) {
        const uint64_t ka = SplitMix64(a);
        const uint64_t kb = SplitMix64(b);
        if (ka != kb) return ka < kb;
        return a < b;
      });
      break;
    case ShardPlacement::kClusterAware: {
      std::vector<double> key(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (float v : data.row(i)) sum += v;
        key[i] = sum;
      }
      std::sort(order.begin(), order.end(),
                [&key](uint32_t a, uint32_t b) {
                  if (key[a] != key[b]) return key[a] < key[b];
                  return a < b;
                });
      break;
    }
  }

  ShardMap map;
  map.rows_per_shard.resize(m);
  map.shard_of.resize(n);
  map.local_of.resize(n);
  const size_t base = n / m;
  const size_t extra = n % m;  // first `extra` shards get one more row.
  size_t pos = 0;
  for (size_t j = 0; j < m; ++j) {
    const size_t count = base + (j < extra ? 1 : 0);
    std::vector<uint32_t>& rows = map.rows_per_shard[j];
    rows.assign(order.begin() + pos, order.begin() + pos + count);
    pos += count;
    if (placement != ShardPlacement::kContiguous) {
      std::sort(rows.begin(), rows.end());  // contiguous runs already are.
    }
    for (size_t local = 0; local < rows.size(); ++local) {
      map.shard_of[rows[local]] = static_cast<uint32_t>(j);
      map.local_of[rows[local]] = static_cast<uint32_t>(local);
    }
  }
  return map;
}

std::string FleetRunStats::ToString() const {
  std::ostringstream os;
  os << "shards=" << shards << " placement=" << ShardPlacementName(placement)
     << " ";
  PIMINE_SHARD_LINK_COUNTERS(PIMINE_COUNTER_PRINT)
  os << "reduce=" << reduce_messages << "msg/" << reduce_bytes << "B"
     << " interconnect=" << InterconnectNs() / 1e6 << "ms";
  if (failover.Any()) {
    os << " | " << failover.ToString();
    if (degraded_shards > 0) os << " degraded_shards=" << degraded_shards;
  }
  if (AnyMutation()) {
    os << " | mutation: ";
    PIMINE_MUTATION_COUNTERS(PIMINE_COUNTER_PRINT)
    PIMINE_MUTATION_GAUGES(PIMINE_COUNTER_PRINT)
    os << "row_writes=" << row_writes;
  }
  return os.str();
}

}  // namespace pimine
