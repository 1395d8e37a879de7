#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/simhash.h"
#include "knn/fnn_knn.h"
#include "knn/fnn_pim_knn.h"
#include "knn/hamming_knn.h"
#include "knn/knn_common.h"
#include "knn/ost_knn.h"
#include "knn/ost_pim_knn.h"
#include "knn/sm_knn.h"
#include "knn/sm_pim_knn.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"
#include "sim/traffic.h"
#include "test_helpers.h"
#include "util/random.h"

namespace pimine {
namespace {

using testing_util::RandomUnitMatrix;

// Clustered data makes bounds meaningful; shared across tests.
struct Workload {
  FloatMatrix data;
  FloatMatrix queries;
};

Workload MakeWorkload(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "test";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  Workload w;
  w.data = DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
  w.queries = DatasetGenerator::GenerateQueries(spec, w.data, 6, seed + 1);
  return w;
}

void ExpectSameNeighbors(const KnnRunResult& expected,
                         const KnnRunResult& actual,
                         const std::string& label) {
  ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size()) << label;
  for (size_t q = 0; q < expected.neighbors.size(); ++q) {
    ASSERT_EQ(expected.neighbors[q].size(), actual.neighbors[q].size())
        << label << " query " << q;
    for (size_t j = 0; j < expected.neighbors[q].size(); ++j) {
      EXPECT_EQ(expected.neighbors[q][j].id, actual.neighbors[q][j].id)
          << label << " query " << q << " rank " << j;
      EXPECT_NEAR(expected.neighbors[q][j].distance,
                  actual.neighbors[q][j].distance, 1e-9)
          << label << " query " << q << " rank " << j;
    }
  }
}

// The paper's headline accuracy claim: every algorithm — baseline or
// PIM-optimized — returns exactly the linear scan's results.
TEST(KnnEquivalenceTest, AllEuclideanAlgorithmsMatchStandard) {
  const Workload w = MakeWorkload(500, 64, 42);
  const int k = 10;

  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, k);
  ASSERT_TRUE(golden.ok());

  std::vector<std::unique_ptr<KnnAlgorithm>> algorithms;
  algorithms.push_back(std::make_unique<SmKnn>());
  algorithms.push_back(std::make_unique<OstKnn>());
  algorithms.push_back(std::make_unique<FnnKnn>());
  algorithms.push_back(std::make_unique<StandardPimKnn>(
      Distance::kEuclidean, EngineOptions()));
  algorithms.push_back(std::make_unique<SmPimKnn>(EngineOptions()));
  algorithms.push_back(
      std::make_unique<OstPimKnn>(EngineOptions(), /*prefix_divisor=*/8));
  algorithms.push_back(
      std::make_unique<FnnPimKnn>(EngineOptions(), /*optimize=*/false));
  algorithms.push_back(
      std::make_unique<FnnPimKnn>(EngineOptions(), /*optimize=*/true));

  for (auto& algorithm : algorithms) {
    ASSERT_TRUE(algorithm->Prepare(w.data).ok())
        << algorithm->name();
    auto result = algorithm->Search(w.queries, k);
    ASSERT_TRUE(result.ok()) << algorithm->name() << ": "
                             << result.status().ToString();
    ExpectSameNeighbors(*golden, *result, std::string(algorithm->name()));
  }
}

struct KCase {
  int k;
};
class KnnKSweepTest : public ::testing::TestWithParam<KCase> {};

TEST_P(KnnKSweepTest, PimMatchesStandardAcrossK) {
  const Workload w = MakeWorkload(300, 40, 7);
  const int k = GetParam().k;

  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, k);
  ASSERT_TRUE(golden.ok());

  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto result = pim.Search(w.queries, k);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, "k=" + std::to_string(k));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KnnKSweepTest,
                         ::testing::Values(KCase{1}, KCase{2}, KCase{10},
                                           KCase{50}, KCase{100},
                                           KCase{300}));

class KnnSimilarityMeasureTest : public ::testing::TestWithParam<Distance> {};

TEST_P(KnnSimilarityMeasureTest, PimMatchesStandard) {
  const Distance distance = GetParam();
  const Workload w = MakeWorkload(250, 32, 11);

  StandardKnn standard(distance);
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto golden = standard.Search(w.queries, 10);
  ASSERT_TRUE(golden.ok());

  StandardPimKnn pim(distance, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto result = pim.Search(w.queries, 10);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, std::string(DistanceName(distance)));
}

INSTANTIATE_TEST_SUITE_P(Measures, KnnSimilarityMeasureTest,
                         ::testing::Values(Distance::kEuclidean,
                                           Distance::kCosine,
                                           Distance::kPearson));

TEST(KnnPruningTest, BoundAlgorithmsComputeFewerExactDistances) {
  const Workload w = MakeWorkload(2000, 128, 21);
  StandardKnn standard;
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  auto base = standard.Search(w.queries, 10);
  ASSERT_TRUE(base.ok());

  FnnKnn fnn;
  ASSERT_TRUE(fnn.Prepare(w.data).ok());
  auto accel = fnn.Search(w.queries, 10);
  ASSERT_TRUE(accel.ok());
  EXPECT_LT(accel->stats.exact_count, base->stats.exact_count / 2)
      << "FNN should prune most exact computations on clustered data";

  StandardPimKnn pim(Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(pim.Prepare(w.data).ok());
  auto pim_result = pim.Search(w.queries, 10);
  ASSERT_TRUE(pim_result.ok());
  EXPECT_LT(pim_result->stats.exact_count, base->stats.exact_count / 2);
  // The PIM variant moves drastically fewer bytes from memory.
  EXPECT_LT(pim_result->stats.traffic.bytes_from_memory,
            base->stats.traffic.bytes_from_memory / 4);
  EXPECT_GT(pim_result->stats.pim_ns, 0.0);
}

TEST(KnnErrorTest, InvalidUsage) {
  const Workload w = MakeWorkload(50, 16, 31);
  StandardKnn standard;
  // Search before Prepare.
  EXPECT_EQ(standard.Search(w.queries, 5).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(standard.Prepare(w.data).ok());
  // k out of range.
  EXPECT_FALSE(standard.Search(w.queries, 0).ok());
  EXPECT_FALSE(standard.Search(w.queries, 51).ok());
  // Dimensionality mismatch.
  const FloatMatrix wrong = RandomUnitMatrix(2, 8, 1);
  EXPECT_FALSE(standard.Search(wrong, 5).ok());
  // Empty dataset.
  EXPECT_FALSE(standard.Prepare(FloatMatrix()).ok());
}

TEST(KnnPlanTest, OptimizedPlanPrefersPimBound) {
  const Workload w = MakeWorkload(800, 256, 41);
  FnnPimKnn optimized(EngineOptions(), /*optimize=*/true);
  ASSERT_TRUE(optimized.Prepare(w.data).ok());
  // The PIM bound costs 3*b bits vs hundreds for original levels; with its
  // high measured pruning ratio the plan must select it.
  ASSERT_FALSE(optimized.plan().selected.empty());
  EXPECT_EQ(optimized.plan().selected[0], 0u);
  EXPECT_TRUE(optimized.candidates()[0].is_pim);
  EXPECT_GT(optimized.candidates()[0].pruning_ratio, 0.5);
}

// --- RefineInOrder contract --------------------------------------------

/// One refine walk: candidate `idx` has exact distance distances[idx];
/// `skip(idx)` drops it before its exact distance (FNN's cascade,
/// outlier's self match) and `stop(topk)` ends the walk right after an
/// exact distance (outlier's cutoff).
struct WalkCase {
  std::vector<double> bounds;
  std::vector<double> distances;
  size_t k = 1;
  std::function<bool(uint32_t)> skip = [](uint32_t) { return false; };
  std::function<bool(const TopK&)> stop = [](const TopK&) { return false; };
};

struct Walk {
  std::vector<uint32_t> refined;  // candidates that reached exact distance.
  uint64_t exact_count = 0;
  std::vector<Neighbor> result;
};

/// The filter-and-refine loop as every caller wrote it before
/// RefineInOrder, kept verbatim as the reference (its ArgsortAscending
/// call spelled out as the same (value, index) sort).
Walk ReferenceWalk(const WalkCase& c) {
  Walk walk;
  TopK topk(c.k);
  std::vector<uint32_t> order(c.bounds.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (c.bounds[a] != c.bounds[b]) return c.bounds[a] < c.bounds[b];
    return a < b;
  });
  for (uint32_t idx : order) {
    if (topk.full() && c.bounds[idx] >= topk.threshold()) break;
    if (c.skip(idx)) continue;
    walk.refined.push_back(idx);
    topk.Push(c.distances[idx], static_cast<int32_t>(idx));
    ++walk.exact_count;
    if (c.stop(topk)) break;
  }
  walk.result = topk.TakeSorted();
  return walk;
}

Walk PrimitiveWalk(const WalkCase& c) {
  Walk walk;
  TopK topk(c.k);
  walk.exact_count = RefineInOrder(c.bounds, topk, [&](uint32_t idx) {
    if (c.skip(idx)) return RefineStep::kSkip;
    walk.refined.push_back(idx);
    topk.Push(c.distances[idx], static_cast<int32_t>(idx));
    return c.stop(topk) ? RefineStep::kStop : RefineStep::kExact;
  });
  walk.result = topk.TakeSorted();
  return walk;
}

void ExpectSameWalk(const WalkCase& c) {
  const Walk want = ReferenceWalk(c);
  const Walk got = PrimitiveWalk(c);
  EXPECT_EQ(got.refined, want.refined);
  EXPECT_EQ(got.exact_count, want.exact_count);
  EXPECT_EQ(got.result, want.result);
}

TEST(RefineInOrderTest, VisitsTiedBoundsByAscendingIndex) {
  WalkCase c;
  c.bounds = {0.5, 0.1, 0.5, 0.1, 0.3, 0.5};
  c.distances = {0.9, 0.8, 0.7, 0.6, 0.5, 0.4};
  c.k = c.bounds.size();  // the heap never fills: every candidate refines.
  EXPECT_EQ(PrimitiveWalk(c).refined,
            (std::vector<uint32_t>{1, 3, 4, 0, 2, 5}));
  ExpectSameWalk(c);
}

TEST(RefineInOrderTest, StopsAtFirstBoundReachingFullHeapThreshold) {
  WalkCase c;
  c.bounds = {0.0, 1.0, 2.0, 3.0, 4.0};
  c.distances = {1.0, 2.0, 2.5, 3.5, 4.5};
  c.k = 2;
  // After 0 and 1 the heap is full at threshold 2.0; bound 2.0 is not
  // below it, so the walk ends there.
  const Walk walk = PrimitiveWalk(c);
  EXPECT_EQ(walk.refined, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(walk.exact_count, 2u);
  ExpectSameWalk(c);

  // A heap that is not yet full never stops the walk.
  c.k = 5;
  EXPECT_EQ(PrimitiveWalk(c).exact_count, 5u);
  ExpectSameWalk(c);
}

TEST(RefineInOrderTest, SkippedCandidatesAreNotCounted) {
  WalkCase c;
  c.bounds = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  c.distances = {0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  c.k = 6;
  c.skip = [](uint32_t idx) { return idx % 2 == 0; };
  const Walk walk = PrimitiveWalk(c);
  EXPECT_EQ(walk.refined, (std::vector<uint32_t>{1, 3, 5}));
  EXPECT_EQ(walk.exact_count, 3u);
  ExpectSameWalk(c);
}

TEST(RefineInOrderTest, HookCanEndTheWalkEarly) {
  WalkCase c;
  c.bounds = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  c.distances = {0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
  c.k = 6;
  c.stop = [](const TopK& topk) { return topk.size() == 3; };
  const Walk walk = PrimitiveWalk(c);
  EXPECT_EQ(walk.refined, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(walk.exact_count, 3u);  // the stopping candidate counts.
  ExpectSameWalk(c);
}

TEST(RefineInOrderTest, MatchesReferenceLoopOnRandomWalks) {
  Rng rng(2021);
  for (int trial = 0; trial < 300; ++trial) {
    WalkCase c;
    const size_t n = 1 + rng.NextBounded(60);
    c.k = 1 + rng.NextBounded(n);
    for (size_t i = 0; i < n; ++i) {
      // Coarse bounds force ties; distances never undercut their bound.
      const double bound = static_cast<double>(rng.NextBounded(8)) / 8.0;
      c.bounds.push_back(bound);
      c.distances.push_back(bound + rng.NextDouble());
    }
    const uint32_t self = static_cast<uint32_t>(rng.NextBounded(n));
    const uint64_t skip_mod = 2 + rng.NextBounded(4);
    c.skip = [self, skip_mod](uint32_t idx) {
      return idx == self || idx % skip_mod == 0;
    };
    const double cutoff = rng.NextDouble();
    c.stop = [cutoff](const TopK& topk) {
      return topk.full() && topk.threshold() <= cutoff;
    };
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameWalk(c);
  }
}

TEST(RefineInOrderTest, MatchesReferenceLoopOnDeepWalks) {
  // Heaps deep enough to exercise every sift level, with coarse ties,
  // signed zeros (equal under !=, so ordered by index) and +inf bounds
  // (tombstones' PruneBound()).
  Rng rng(2023);
  const double kInf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 40; ++trial) {
    WalkCase c;
    const size_t n = 1 + rng.NextBounded(5000);
    // Every fourth walk never fills its heap and so visits all n.
    c.k = trial % 4 == 1 ? n : 1 + rng.NextBounded(std::min<size_t>(n, 64));
    for (size_t i = 0; i < n; ++i) {
      double bound = static_cast<double>(rng.NextBounded(16)) / 16.0;
      const uint64_t kind = rng.NextBounded(8);
      if (kind == 0) bound = -0.0;
      if (kind == 1) bound = 0.0;
      if (kind == 2) bound = kInf;
      c.bounds.push_back(bound);
      c.distances.push_back(bound == kInf ? kInf : bound + rng.NextDouble());
    }
    const uint64_t skip_mod = 2 + rng.NextBounded(6);
    c.skip = [skip_mod](uint32_t idx) { return idx % skip_mod == 0; };
    const double cutoff = rng.NextDouble();
    if (trial % 2 == 0) {
      c.stop = [cutoff](const TopK& topk) {
        return topk.full() && topk.threshold() <= cutoff;
      };
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " n " +
                 std::to_string(n));
    ExpectSameWalk(c);
  }
}

TEST(RefineInOrderTest, ChargesArgsortTraffic) {
  Rng rng(7);
  for (const size_t n : {0, 1, 2, 3, 1023, 1024, 1025, 20000}) {
    std::vector<double> bounds(n);
    for (double& b : bounds) b = rng.NextDouble();
    TrafficCounters want;
    {
      traffic::AggregateScope scope;
      ArgsortAscending(bounds);
      want = scope.Delta();
    }
    // One walk stops at its first candidate, the other visits all n: the
    // charge is the same however far the walk goes.
    for (const RefineStep step : {RefineStep::kStop, RefineStep::kExact}) {
      TopK topk(n + 1);
      traffic::AggregateScope scope;
      uint64_t visited = 0;
      RefineInOrder(bounds, topk, [&](uint32_t) {
        ++visited;
        return step;
      });
      SCOPED_TRACE("n " + std::to_string(n));
      EXPECT_EQ(visited,
                step == RefineStep::kStop ? std::min<size_t>(n, 1) : n);
      EXPECT_EQ(scope.Delta(), want);
    }
  }
}

TEST(HammingKnnTest, PimMatchesScan) {
  const FloatMatrix raw = RandomUnitMatrix(400, 64, 3);
  const SimHashEncoder encoder(64, 256, 5);
  const BitMatrix codes = encoder.Encode(raw);
  const FloatMatrix raw_queries = RandomUnitMatrix(5, 64, 4);
  const BitMatrix query_codes = encoder.Encode(raw_queries);

  HammingScanKnn scan;
  ASSERT_TRUE(scan.Prepare(codes).ok());
  auto golden = scan.Search(query_codes, 10);
  ASSERT_TRUE(golden.ok());

  HammingPimKnn pim;
  ASSERT_TRUE(pim.Prepare(codes).ok());
  auto result = pim.Search(query_codes, 10);
  ASSERT_TRUE(result.ok());
  ExpectSameNeighbors(*golden, *result, "hamming");
  EXPECT_GT(result->stats.pim_ns, 0.0);
}

TEST(HammingKnnTest, Validation) {
  HammingScanKnn scan;
  EXPECT_FALSE(scan.Prepare(BitMatrix()).ok());
  BitMatrix codes(10, 64);
  ASSERT_TRUE(scan.Prepare(codes).ok());
  BitMatrix wrong(1, 128);
  EXPECT_FALSE(scan.Search(wrong, 3).ok());
  EXPECT_FALSE(scan.Search(codes, 11).ok());
}

}  // namespace
}  // namespace pimine
