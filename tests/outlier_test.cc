#include "knn/outlier.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "data/generator.h"
#include "test_helpers.h"

namespace pimine {
namespace {

FloatMatrix OutlierData(size_t n, size_t d, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "test";
  spec.dims = static_cast<int32_t>(d);
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 5;
  spec.cluster_std = 0.05;
  return DatasetGenerator::Generate(spec, static_cast<int64_t>(n), seed);
}

/// Reference: exact k-th NN distance per point, top-n by brute force.
std::vector<Neighbor> BruteForceOutliers(const FloatMatrix& data, int k,
                                         int n_out) {
  std::vector<Neighbor> scores;
  for (size_t i = 0; i < data.rows(); ++i) {
    std::vector<double> dists;
    for (size_t j = 0; j < data.rows(); ++j) {
      if (j == i) continue;
      dists.push_back(SquaredEuclidean(data.row(i), data.row(j)));
    }
    std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
    scores.push_back({dists[k - 1], static_cast<int32_t>(i)});
  }
  std::sort(scores.begin(), scores.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance > b.distance;
              return a.id < b.id;
            });
  scores.resize(n_out);
  return scores;
}

struct OutlierCase {
  int k;
  int num_outliers;
};

class OutlierEquivalenceTest
    : public ::testing::TestWithParam<OutlierCase> {};

TEST_P(OutlierEquivalenceTest, BaselineAndPimMatchBruteForce) {
  const auto [k, n_out] = GetParam();
  const FloatMatrix data = OutlierData(300, 24, 77);
  const std::vector<Neighbor> golden = BruteForceOutliers(data, k, n_out);

  OutlierOptions options;
  options.k = k;
  options.num_outliers = n_out;

  OrcaOutlierDetector baseline;
  auto base = baseline.Detect(data, options);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_EQ(base->outliers.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(base->outliers[i].id, golden[i].id) << "rank " << i;
    EXPECT_NEAR(base->outliers[i].distance, golden[i].distance, 1e-9);
  }

  OrcaPimOutlierDetector pim((EngineOptions()));
  auto accel = pim.Detect(data, options);
  ASSERT_TRUE(accel.ok()) << accel.status().ToString();
  ASSERT_EQ(accel->outliers.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(accel->outliers[i].id, golden[i].id) << "rank " << i;
    EXPECT_NEAR(accel->outliers[i].distance, golden[i].distance, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OutlierEquivalenceTest,
                         ::testing::Values(OutlierCase{1, 5},
                                           OutlierCase{5, 10},
                                           OutlierCase{10, 3},
                                           OutlierCase{3, 30}));

TEST(OutlierTest, PimComputesFewerExactDistances) {
  const FloatMatrix data = OutlierData(800, 64, 9);
  OutlierOptions options;
  options.k = 5;
  options.num_outliers = 10;

  OrcaOutlierDetector baseline;
  auto base = baseline.Detect(data, options);
  ASSERT_TRUE(base.ok());

  OrcaPimOutlierDetector pim((EngineOptions()));
  auto accel = pim.Detect(data, options);
  ASSERT_TRUE(accel.ok());

  EXPECT_LT(accel->stats.exact_count, base->stats.exact_count / 4);
  EXPECT_GT(accel->stats.pim_ns, 0.0);
}

// The PIM path runs on the engine fleet: EngineOptions::shard is honoured
// bit-identically, and the fleet's fault and shard accounting reach the
// result's stats.
TEST(OutlierTest, PimRunsOnTheFleetAndReportsFaultStats) {
  const FloatMatrix data = OutlierData(240, 24, 31);
  OutlierOptions options;
  options.k = 4;
  options.num_outliers = 6;

  EngineOptions one;
  auto single = OrcaPimOutlierDetector(one).Detect(data, options);
  ASSERT_TRUE(single.ok());
  EngineOptions three;
  three.shard.shards = 3;
  EngineOptions faulty = three;
  faulty.fault_config.cell_rate = 1e-3;
  faulty.fault_config.transient_rate = 1e-3;
  for (const EngineOptions& engine_options : {three, faulty}) {
    auto sharded = OrcaPimOutlierDetector(engine_options).Detect(data, options);
    ASSERT_TRUE(sharded.ok());
    ASSERT_EQ(sharded->outliers.size(), single->outliers.size());
    for (size_t i = 0; i < single->outliers.size(); ++i) {
      EXPECT_EQ(sharded->outliers[i].id, single->outliers[i].id);
      EXPECT_EQ(sharded->outliers[i].distance, single->outliers[i].distance);
    }
    EXPECT_EQ(sharded->stats.exact_count, single->stats.exact_count);
    EXPECT_EQ(sharded->stats.bound_count, single->stats.bound_count);
    EXPECT_EQ(sharded->stats.fleet.shards, 3);
    EXPECT_GT(sharded->stats.fleet.scatter_messages, 0u);
  }
  EXPECT_EQ(
      OrcaPimOutlierDetector(three).Detect(data, options)->stats.pim_ns,
      single->stats.pim_ns);
  auto faulted = OrcaPimOutlierDetector(faulty).Detect(data, options);
  ASSERT_TRUE(faulted.ok());
  EXPECT_GT(faulted->stats.fault.injected, 0u)
      << faulted->stats.fault.ToString();
  EXPECT_FALSE(single->stats.fault.Any());
}

TEST(OutlierTest, PlantedOutlierIsFound) {
  FloatMatrix data = OutlierData(200, 16, 3);
  // Plant an extreme point far from every cluster (clusters live around
  // [0.2, 0.8] with tiny spread).
  auto row = data.mutable_row(0);
  for (float& v : row) v = 1.0f;
  OutlierOptions options;
  options.k = 3;
  options.num_outliers = 1;
  OrcaOutlierDetector detector;
  auto result = detector.Detect(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outliers[0].id, 0);
}

TEST(OutlierTest, Validation) {
  const FloatMatrix data = OutlierData(20, 8, 1);
  OrcaOutlierDetector detector;
  OutlierOptions options;
  options.k = 0;
  EXPECT_FALSE(detector.Detect(data, options).ok());
  options.k = 20;  // k must be < n.
  EXPECT_FALSE(detector.Detect(data, options).ok());
  options.k = 3;
  options.num_outliers = 0;
  EXPECT_FALSE(detector.Detect(data, options).ok());
  options.num_outliers = 21;
  EXPECT_FALSE(detector.Detect(data, options).ok());
  options.num_outliers = 5;
  EXPECT_FALSE(detector.Detect(FloatMatrix(), options).ok());
}

}  // namespace
}  // namespace pimine
