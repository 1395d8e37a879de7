// ShardedPimEngine invariants: for every placement and shard count the
// fleet must reproduce the single-device engine bit for bit — bounds for
// all five engine modes (ties included), modeled PIM time, and the k-means
// centroid sums via the exact tree reduction — while shard-boundary
// routing, fail-over, and the shard-count validation behave as documented.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "data/generator.h"
#include "pim/fault_model.h"
#include "pim/fleet.h"
#include "test_helpers.h"
#include "util/exact_sum.h"
#include "util/random.h"
#include "util/top_k.h"

namespace pimine {
namespace {

struct ModeCase {
  std::string label;
  Distance distance;
  EngineOptions::Bound bound;
};

std::vector<ModeCase> AllModes() {
  return {
      {"ED/direct", Distance::kEuclidean, EngineOptions::Bound::kDirectEd},
      {"ED/fnn", Distance::kEuclidean, EngineOptions::Bound::kSegmentFnn},
      {"ED/sm", Distance::kEuclidean, EngineOptions::Bound::kSegmentSm},
      {"CS", Distance::kCosine, EngineOptions::Bound::kAuto},
      {"PCC", Distance::kPearson, EngineOptions::Bound::kAuto},
  };
}

FloatMatrix ClusteredData(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "sharded";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 6;
  spec.cluster_std = 0.08;
  return DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
}

/// One fleet batch over every row of `queries`, into `out`.
Status RunAll(const ShardedPimEngine& engine, const FloatMatrix& queries,
              ShardedPimEngine::QueryHandleBatch* out) {
  ShardedPimEngine::QueryScratch scratch;
  return engine.RunQueryBatch(
      std::span<const float>(queries.data(), queries.rows() * queries.cols()),
      queries.rows(), &scratch, out);
}

// Every (placement, M) fleet must produce bit-identical bounds and modeled
// PIM time to the single-device engine, in all five engine modes. n = 103
// is prime, so every M > 1 exercises unequal shard sizes and shard-boundary
// routing.
TEST(ShardedEngineTest, BoundsBitIdenticalToSingleDeviceAllModes) {
  const size_t n = 103;
  const size_t d = 24;
  const FloatMatrix data = ClusteredData(n, d, 11);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(5, d, 12);

  for (const ModeCase& mode : AllModes()) {
    EngineOptions options;
    options.bound = mode.bound;
    auto single_built =
        ShardedPimEngine::Build(data, mode.distance, options);
    ASSERT_TRUE(single_built.ok()) << mode.label;
    const auto single = std::move(single_built).value();

    ShardedPimEngine::QueryHandleBatch reference;
    ASSERT_TRUE(RunAll(*single, queries, &reference).ok()) << mode.label;

    for (ShardPlacement placement :
         {ShardPlacement::kContiguous, ShardPlacement::kHash,
          ShardPlacement::kClusterAware}) {
      for (int shards : {3, 8}) {
        EngineOptions sharded_options = options;
        sharded_options.shard.shards = shards;
        sharded_options.shard.placement = placement;
        auto built =
            ShardedPimEngine::Build(data, mode.distance, sharded_options);
        ASSERT_TRUE(built.ok()) << mode.label;
        const auto fleet = std::move(built).value();
        const std::string label =
            mode.label + " " +
            std::string(ShardPlacementName(placement)) + " M=" +
            std::to_string(shards);

        // The per-shard geometry must be forced from the full dataset.
        EXPECT_EQ(fleet->num_segments(), single->num_segments()) << label;
        EXPECT_EQ(fleet->mode(), single->mode()) << label;

        ShardedPimEngine::QueryHandleBatch run;
        ASSERT_TRUE(RunAll(*fleet, queries, &run).ok()) << label;
        for (size_t q = 0; q < queries.rows(); ++q) {
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(fleet->BoundFor(run, q, i),
                      single->BoundFor(reference, q, i))
                << label << " q=" << q << " i=" << i;
          }
        }
        EXPECT_EQ(fleet->PimComputeNs(), single->PimComputeNs()) << label;
        EXPECT_GT(fleet->FleetStats().scatter_messages, 0u) << label;
        EXPECT_EQ(single->FleetStats().scatter_messages, 0u) << mode.label;
      }
    }
  }
}

// Placement parsing round-trips, and every shard map is a balanced
// partition with consistent inverse routing.
TEST(ShardedEngineTest, PlacementRoundTripAndBalancedPartition) {
  for (ShardPlacement placement :
       {ShardPlacement::kContiguous, ShardPlacement::kHash,
        ShardPlacement::kClusterAware}) {
    auto parsed = ParseShardPlacement(ShardPlacementName(placement));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), placement);
  }
  EXPECT_FALSE(ParseShardPlacement("ring").ok());

  const FloatMatrix data = testing_util::RandomUnitMatrix(41, 8, 3);
  for (ShardPlacement placement :
       {ShardPlacement::kContiguous, ShardPlacement::kHash,
        ShardPlacement::kClusterAware}) {
    ShardOptions options;
    options.shards = 6;
    options.placement = placement;
    auto map_result = BuildShardMap(data, options);
    ASSERT_TRUE(map_result.ok());
    const ShardMap& map = map_result.value();

    ASSERT_EQ(map.shards(), 6u);
    size_t smallest = data.rows();
    size_t largest = 0;
    std::vector<bool> seen(data.rows(), false);
    for (size_t j = 0; j < map.shards(); ++j) {
      const auto& rows = map.rows_per_shard[j];
      smallest = std::min(smallest, rows.size());
      largest = std::max(largest, rows.size());
      // Shard-local order is ascending global order, with the inverse map
      // routing every global row back to its (shard, local) slot.
      ASSERT_TRUE(std::is_sorted(rows.begin(), rows.end()));
      for (size_t local = 0; local < rows.size(); ++local) {
        const uint32_t global = rows[local];
        ASSERT_LT(global, data.rows());
        EXPECT_FALSE(seen[global]) << "row assigned twice";
        seen[global] = true;
        EXPECT_EQ(map.shard_of[global], j);
        EXPECT_EQ(map.local_of[global], local);
      }
    }
    EXPECT_LE(largest - smallest, 1u) << "placement must stay balanced";
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool s) { return s; }));
  }
}

TEST(ShardedEngineTest, RejectsInvalidShardCounts) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(10, 8, 4);
  for (int shards : {0, -2}) {
    EngineOptions options;
    options.shard.shards = shards;
    auto built =
        ShardedPimEngine::Build(data, Distance::kEuclidean, options);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
  EngineOptions options;
  options.shard.shards = 11;  // > n: some shard would be empty.
  auto built = ShardedPimEngine::Build(data, Distance::kEuclidean, options);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// The fleet resolves its geometry with the single-device selection: for
// every distance, bound and forced segment count, on an array that holds
// the full dataset and on one that does not, a fleet of one or three
// shards reports the mode, segment geometry and memory plan of a plain
// PimEngine::Build — and fails with the same status code and message
// wherever that build fails.
TEST(ShardedEngineTest, BuildResolvesTheSingleDeviceGeometry) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(256, 128, 13);
  FloatMatrix unnormalized = data;
  unnormalized(5, 7) = 1.5f;
  EngineOptions roomy;
  // Full dimensionality does not fit, and the full dataset's Theorem 4
  // segment count falls below what one third of it would get: a shard
  // that resolved its own geometry would pick a different bound.
  EngineOptions tight;
  tight.pim_config.num_crossbars = 2;

  struct Case {
    std::string label;
    const FloatMatrix* data;
    Distance distance;
    EngineOptions options;
  };
  std::vector<Case> cases;
  const std::pair<std::string, Distance> distances[] = {
      {"ED", Distance::kEuclidean},
      {"CS", Distance::kCosine},
      {"PCC", Distance::kPearson}};
  const std::pair<std::string, EngineOptions::Bound> bounds[] = {
      {"auto", EngineOptions::Bound::kAuto},
      {"direct", EngineOptions::Bound::kDirectEd},
      {"fnn", EngineOptions::Bound::kSegmentFnn},
      {"sm", EngineOptions::Bound::kSegmentSm}};
  for (const auto& [dname, distance] : distances) {
    for (const auto& [bname, bound] : bounds) {
      for (int64_t force : {0, 8, 100000}) {
        for (bool small : {false, true}) {
          EngineOptions options = small ? tight : roomy;
          options.bound = bound;
          options.force_segments = force;
          cases.push_back({dname + "/" + bname + "/force=" +
                               std::to_string(force) +
                               (small ? "/tight" : "/roomy"),
                           &data, distance, options});
        }
      }
    }
  }
  cases.push_back({"hamming", &data, Distance::kHamming, roomy});
  cases.push_back({"unnormalized", &unnormalized, Distance::kEuclidean, roomy});

  std::set<std::string> errors;
  for (int shards : {1, 3}) {
    for (const Case& c : cases) {
      const std::string label =
          c.label + " shards=" + std::to_string(shards);
      EngineOptions fleet_options = c.options;
      fleet_options.shard.shards = shards;
      auto single = PimEngine::Build(*c.data, c.distance, c.options);
      auto fleet = ShardedPimEngine::Build(*c.data, c.distance, fleet_options);
      ASSERT_EQ(fleet.ok(), single.ok())
          << label << ": " << fleet.status().ToString() << " vs "
          << single.status().ToString();
      if (!single.ok()) {
        EXPECT_EQ(fleet.status().code(), single.status().code()) << label;
        EXPECT_EQ(fleet.status().message(), single.status().message())
            << label;
        errors.insert(single.status().message());
        continue;
      }
      const PimEngine& e = **single;
      const ShardedPimEngine& f = **fleet;
      EXPECT_EQ(f.mode(), e.mode()) << label;
      EXPECT_EQ(f.num_segments(), e.num_segments()) << label;
      EXPECT_EQ(f.segment_length(), e.segment_length()) << label;
      EXPECT_EQ(f.plan().s, e.plan().s) << label;
      EXPECT_EQ(f.plan().copies, e.plan().copies) << label;
      EXPECT_EQ(f.plan().data_crossbars, e.plan().data_crossbars) << label;
      EXPECT_EQ(f.plan().gather_crossbars, e.plan().gather_crossbars)
          << label;
      EXPECT_EQ(f.plan().compressed, e.plan().compressed) << label;
    }
  }
  // Every error class is reached: CS/PCC with a non-auto bound, CS/PCC and
  // direct-ED that do not fit, forced segments above the Theorem 4
  // maximum, Hamming, unnormalized data.
  std::string seen;
  for (const std::string& e : errors) seen += "\n  " + e;
  EXPECT_EQ(errors.size(), 6u) << seen;
}

// MergeShardTopK on disjoint per-shard k-bests equals a single TopK over
// the union — including distance ties, which resolve by ascending id.
TEST(ShardedEngineTest, MergeShardTopKMatchesGlobalTopKWithTies) {
  Rng rng(99);
  const size_t n = 60;
  const size_t k = 7;
  // Quantized distances force many cross-shard ties.
  std::vector<double> distance(n);
  for (double& v : distance) {
    v = static_cast<double>(rng.NextBounded(5));
  }

  for (size_t shards : {1u, 3u, 8u}) {
    TopK global(k);
    std::vector<TopK> per_shard(shards, TopK(k));
    for (size_t i = 0; i < n; ++i) {  // ascending id push order.
      global.Push(distance[i], static_cast<int32_t>(i));
      per_shard[i % shards].Push(distance[i], static_cast<int32_t>(i));
    }
    std::vector<std::vector<Neighbor>> lists;
    for (TopK& shard_topk : per_shard) {
      lists.push_back(shard_topk.TakeSorted());
    }
    const std::vector<Neighbor> merged = MergeShardTopK(lists, k);
    const std::vector<Neighbor> expected = global.TakeSorted();
    ASSERT_EQ(merged.size(), expected.size()) << "M=" << shards;
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(merged[j].id, expected[j].id) << "M=" << shards;
      EXPECT_EQ(merged[j].distance, expected[j].distance) << "M=" << shards;
    }
  }
}

// The exact accumulator's tree merge equals its flat sum bit-for-bit for
// every partition shape — the property the sharded centroid update rests
// on. double accumulation would fail this for these magnitudes.
TEST(ShardedEngineTest, ExactSumTreeMergeEqualsFlatSum) {
  Rng rng(5);
  std::vector<float> values;
  for (int i = 0; i < 500; ++i) {
    // Mix signs and ~50 orders of magnitude, including denormals.
    float v = rng.NextFloat() * 2.0f - 1.0f;
    const int scale = static_cast<int>(rng.NextBounded(100)) - 50;
    v = std::ldexp(v, scale);
    if (i % 97 == 0) v = 1e-42f;  // denormal.
    values.push_back(v);
  }

  ExactSum flat;
  for (float v : values) flat.Add(v);

  for (size_t shards : {2u, 3u, 8u}) {
    std::vector<ExactSum> partials(shards);
    for (size_t i = 0; i < values.size(); ++i) {
      partials[i % shards].Add(values[i]);
    }
    for (size_t stride = 1; stride < shards; stride *= 2) {
      for (size_t a = 0; a + stride < shards; a += 2 * stride) {
        partials[a].Merge(partials[a + stride]);
      }
    }
    EXPECT_TRUE(partials[0] == flat) << "M=" << shards;
    EXPECT_EQ(partials[0].ToDouble(), flat.ToDouble()) << "M=" << shards;
  }

  // Sanity: the rounded value agrees with a long-double reference, within
  // that reference's own accumulation error (relative to the magnitude of
  // the summands, not of the — possibly cancelled — net sum).
  long double reference = 0.0L;
  double magnitude = 0.0;
  for (float v : values) {
    reference += static_cast<long double>(v);
    magnitude += std::abs(static_cast<double>(v));
  }
  EXPECT_NEAR(flat.ToDouble(), static_cast<double>(reference),
              magnitude * 1e-12);
}

// A shard whose device op fails with DeviceFault (kFailOp recovery) is
// escalated to a host-exact recompute of only that shard: the fleet run
// succeeds, bounds stay bit-identical to the fault-free fleet, and the
// fail-over is visible in the fleet stats. With failover disabled the
// fault propagates instead. With replicas the data-plane fault is not
// re-walked: it counts as one failed attempt on the planned replica (the
// primary) and the op sheds.
TEST(ShardedEngineTest, FailedShardEscalatesToHostRecompute) {
  const size_t n = 90;
  const size_t d = 16;
  const FloatMatrix data = ClusteredData(n, d, 21);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(3, d, 22);

  EngineOptions clean_options;
  clean_options.shard.shards = 3;
  auto clean_built =
      ShardedPimEngine::Build(data, Distance::kEuclidean, clean_options);
  ASSERT_TRUE(clean_built.ok());
  const auto clean = std::move(clean_built).value();
  ShardedPimEngine::QueryHandleBatch clean_run;
  ASSERT_TRUE(RunAll(*clean, queries, &clean_run).ok());

  for (int replicas : {1, 2}) {
    const std::string label = "replicas=" + std::to_string(replicas);
    EngineOptions faulty_options = clean_options;
    faulty_options.shard.replicas = replicas;
    faulty_options.fault_config.transient_rate = 0.2;  // every op faults.
    faulty_options.recovery.verify_mode = VerifyMode::kFailOp;
    faulty_options.recovery.max_retries = 0;
    auto faulty_built =
        ShardedPimEngine::Build(data, Distance::kEuclidean, faulty_options);
    ASSERT_TRUE(faulty_built.ok()) << label;
    const auto faulty = std::move(faulty_built).value();

    ShardedPimEngine::QueryHandleBatch run;
    const Status faulty_status = RunAll(*faulty, queries, &run);
    ASSERT_TRUE(faulty_status.ok()) << label << ": " << faulty_status.ToString();
    for (size_t q = 0; q < queries.rows(); ++q) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(faulty->BoundFor(run, q, i),
                  clean->BoundFor(clean_run, q, i))
            << label << " q=" << q << " i=" << i;
      }
    }
    const FleetRunStats stats = faulty->FleetStats();
    EXPECT_GT(stats.failovers, 0u) << label;
    EXPECT_GT(stats.failed_over_queries, 0u) << label;
    EXPECT_GT(faulty->FaultStatsTotal().escalated_to_host, 0u) << label;
    const FailoverStats& fo = stats.failover;
    EXPECT_EQ(fo.shed, stats.failovers) << label << ": " << fo.ToString();
    EXPECT_EQ(fo.device_faults, fo.shed) << label << ": " << fo.ToString();
    EXPECT_EQ(fo.attempts_failed, fo.device_faults) << label;
    EXPECT_EQ(fo.recovered, 0u) << label;
    EXPECT_EQ(fo.strikes, 0u) << label;
    EXPECT_EQ(fo.backoff_ns, 0u) << label;
    EXPECT_TRUE(fo.Balanced()) << label << ": " << fo.ToString();

    EngineOptions no_failover = faulty_options;
    no_failover.shard.failover = false;
    auto strict_built =
        ShardedPimEngine::Build(data, Distance::kEuclidean, no_failover);
    ASSERT_TRUE(strict_built.ok()) << label;
    const auto strict = std::move(strict_built).value();
    ShardedPimEngine::QueryHandleBatch strict_run;
    const Status strict_status = RunAll(*strict, queries, &strict_run);
    ASSERT_FALSE(strict_status.ok()) << label;
    EXPECT_EQ(strict_status.code(), StatusCode::kDeviceFault) << label;
  }
}

// ChargeTreeReduction charges the critical path: ceil(log2 M) messages of
// the given payload, and nothing at M = 1.
TEST(ShardedEngineTest, TreeReductionChargesCriticalPath) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(64, 8, 6);
  for (const auto& [shards, depth] :
       std::vector<std::pair<int, uint64_t>>{{1, 0}, {2, 1}, {3, 2},
                                             {5, 3}, {8, 3}}) {
    EngineOptions options;
    options.shard.shards = shards;
    auto built =
        ShardedPimEngine::Build(data, Distance::kEuclidean, options);
    ASSERT_TRUE(built.ok()) << "M=" << shards;
    const auto fleet = std::move(built).value();
    fleet->ChargeTreeReduction(1000);
    const FleetRunStats stats = fleet->FleetStats();
    EXPECT_EQ(stats.reduce_messages, depth) << "M=" << shards;
    EXPECT_EQ(stats.reduce_bytes, depth * 1000) << "M=" << shards;
  }
}

}  // namespace
}  // namespace pimine
