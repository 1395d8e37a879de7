// Batched multi-query device operations (DotProductBatch / RunQueryBatch)
// must be a pure batching of the per-query path: bit-identical results and
// bounds, identical serial-equivalent modeled stats for every batch size,
// and a pipelined batch latency that follows the analytic
// stage_ns * (stages + Q - 1) formula with Q = 1 reducing to Table 5.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/matrix.h"
#include "kmeans/kmeans_common.h"
#include "knn/standard_pim_knn.h"
#include "pim/crossbar.h"
#include "pim/crossbar_math.h"
#include "pim/pim_device.h"
#include "pim/timing.h"
#include "test_helpers.h"
#include "util/random.h"

namespace pimine {
namespace {

IntMatrix RandomIntMatrix(size_t rows, size_t cols, uint32_t limit,
                          uint64_t seed) {
  IntMatrix m(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (int32_t& v : m.mutable_row(i)) {
      v = static_cast<int32_t>(rng.NextBounded(limit));
    }
  }
  return m;
}

std::vector<int32_t> RandomQueries(size_t count, size_t dims, uint32_t limit,
                                   uint64_t seed) {
  std::vector<int32_t> q(count * dims);
  Rng rng(seed);
  for (int32_t& v : q) v = static_cast<int32_t>(rng.NextBounded(limit));
  return q;
}

TEST(PimBatchTest, BatchMatchesSingleQueriesBitForBit) {
  // Sizes chosen to exercise every GEMM tile width (8/4/2/1 cascade) and a
  // partial trailing object block.
  const size_t n = 97, s = 33;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 11);
  for (size_t num_queries : {size_t{1}, size_t{2}, size_t{7}, size_t{16},
                             size_t{23}}) {
    PimDevice batched, single;
    ASSERT_TRUE(batched.ProgramDataset(data).ok());
    ASSERT_TRUE(single.ProgramDataset(data).ok());
    const std::vector<int32_t> queries =
        RandomQueries(num_queries, s, 1 << 20, 100 + num_queries);

    std::vector<uint64_t> batch_out;
    ASSERT_TRUE(
        batched.DotProductBatch(queries, num_queries, &batch_out).ok());
    ASSERT_EQ(batch_out.size(), num_queries * n);

    std::vector<uint64_t> out;
    for (size_t q = 0; q < num_queries; ++q) {
      ASSERT_TRUE(single
                      .DotProductAll(std::span<const int32_t>(queries).subspan(
                                         q * s, s),
                                     &out)
                      .ok());
      for (size_t v = 0; v < n; ++v) {
        ASSERT_EQ(batch_out[q * n + v], out[v])
            << "Q=" << num_queries << " q=" << q << " v=" << v;
      }
    }
  }
}

TEST(PimBatchTest, BatchWrapsAroundLikeSingleQueries) {
  // 32 * 2^60 = 2^65: every query in the batch must observe the same
  // least-significant-64-bit truncation as the per-query path (== 0).
  PimConfig config;
  config.operand_bits = 32;
  PimDevice device(config);
  IntMatrix data(1, 32);
  for (int32_t& v : data.mutable_row(0)) v = (1 << 30);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  const std::vector<int32_t> queries(3 * 32, 1 << 30);
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(queries, 3, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  for (uint64_t v : out) EXPECT_EQ(v, 0u);
}

TEST(PimBatchTest, BatchMatchesCycleLevelCrossbar) {
  // Ground truth from the cycle-level crossbar pipeline: program the same
  // vectors into one crossbar and stream each query of the batch through it.
  const size_t n = 5, s = 16;
  const int operand_bits = 8;
  const IntMatrix data = RandomIntMatrix(n, s, 1u << operand_bits, 21);

  Crossbar xbar(256, 2);
  std::vector<uint32_t> operands(s);
  for (size_t c = 0; c < n; ++c) {
    for (size_t j = 0; j < s; ++j) {
      operands[j] = static_cast<uint32_t>(data(c, j));
    }
    ASSERT_TRUE(
        xbar.ProgramVector(static_cast<int>(c), operands, operand_bits).ok());
  }

  PimDevice device;
  ASSERT_TRUE(device.ProgramDataset(data, operand_bits).ok());
  const size_t num_queries = 4;
  const std::vector<int32_t> queries =
      RandomQueries(num_queries, s, 1u << operand_bits, 22);
  std::vector<uint64_t> out;
  ASSERT_TRUE(device.DotProductBatch(queries, num_queries, &out).ok());

  std::vector<uint32_t> input(s);
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t j = 0; j < s; ++j) {
      input[j] = static_cast<uint32_t>(queries[q * s + j]);
    }
    auto result = xbar.DotProduct(input, operand_bits, operand_bits, 2);
    ASSERT_TRUE(result.ok());
    for (size_t c = 0; c < n; ++c) {
      EXPECT_EQ(out[q * n + c], result->values[c])
          << "q=" << q << " object=" << c;
    }
  }
}

TEST(PimBatchTest, ModeledStatsInvariantAcrossBatchSizes) {
  // s > crossbar_dim so the gather tree is non-trivial (stages > 1) and
  // pipelining actually helps.
  const size_t n = 12, s = 300;
  const size_t total = 21;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 31);
  const std::vector<int32_t> queries = RandomQueries(total, s, 1 << 20, 32);

  std::vector<PimDeviceStats> stats;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{21}}) {
    PimDevice device;
    ASSERT_TRUE(device.ProgramDataset(data).ok());
    std::vector<uint64_t> out;
    for (size_t q0 = 0; q0 < total; q0 += batch) {
      ASSERT_TRUE(device
                      .DotProductBatch(std::span<const int32_t>(queries)
                                           .subspan(q0 * s, batch * s),
                                       batch, &out)
                      .ok());
    }
    EXPECT_EQ(device.stats().batch_ops, total / batch);
    EXPECT_EQ(device.stats().queries_per_batch.at(
                  static_cast<int64_t>(batch)),
              total / batch);
    stats.push_back(device.stats());
  }

  // Everything except batch_ops / queries_per_batch / pipelined_ns must be
  // exactly equal across batch sizes (charged per query by construction).
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[0].queries_processed, stats[i].queries_processed);
    EXPECT_EQ(stats[0].compute_ns, stats[i].compute_ns);
    EXPECT_EQ(stats[0].compute_energy_pj, stats[i].compute_energy_pj);
    EXPECT_EQ(stats[0].results_produced, stats[i].results_produced);
    EXPECT_EQ(stats[0].result_bytes_to_host, stats[i].result_bytes_to_host);
  }

  // Pipelined latency follows stage_ns * (stages + Q - 1) analytically, and
  // the all-singles device has pipelined_ns == compute_ns bit for bit.
  PimTimingModel timing{PimConfig()};
  const int stages = GatherDepth(static_cast<int64_t>(s),
                                 PimConfig().crossbar_dim);
  ASSERT_GT(stages, 1);
  const double single_ns = timing.BatchDotLatencyNs(s, 32);
  const double stage_ns = single_ns / stages;
  EXPECT_DOUBLE_EQ(timing.BatchDotLatencyNs(s, 32, 7),
                   stage_ns * (stages + 7 - 1));
  EXPECT_EQ(timing.BatchDotLatencyNs(s, 32, 1), single_ns);
  EXPECT_EQ(stats[0].pipelined_ns, stats[0].compute_ns);
  // Larger batches strictly reduce device occupancy time.
  EXPECT_LT(stats[2].pipelined_ns, stats[1].pipelined_ns);
  EXPECT_LT(stats[1].pipelined_ns, stats[0].pipelined_ns);
  EXPECT_DOUBLE_EQ(stats[2].pipelined_ns,
                   timing.BatchDotLatencyNs(s, 32, 21));
}

// Concurrent callers issue a device's batches in any order, so pipelined_ns
// must depend only on which batches ran: the same multiset of batch sizes in
// three orders yields the same bits.
TEST(PimBatchTest, PipelinedNsIndependentOfBatchOrder) {
  const size_t n = 12, s = 300;
  const IntMatrix data = RandomIntMatrix(n, s, 1 << 20, 33);
  std::vector<size_t> sizes;
  for (int round = 0; round < 6; ++round) {
    for (size_t q : {1, 2, 3, 5, 7, 11}) sizes.push_back(q);
  }
  std::vector<std::vector<size_t>> orders = {sizes, sizes, sizes};
  std::sort(orders[1].begin(), orders[1].end());
  std::sort(orders[2].rbegin(), orders[2].rend());
  std::vector<double> pipelined;
  for (const std::vector<size_t>& order : orders) {
    PimDevice device;
    ASSERT_TRUE(device.ProgramDataset(data).ok());
    std::vector<uint64_t> out;
    for (const size_t q : order) {
      const std::vector<int32_t> queries = RandomQueries(q, s, 1 << 20, q);
      ASSERT_TRUE(device.DotProductBatch(queries, q, &out).ok());
    }
    pipelined.push_back(device.stats().pipelined_ns);
  }
  EXPECT_EQ(pipelined[0], pipelined[1]);
  EXPECT_EQ(pipelined[0], pipelined[2]);
}

TEST(PimBatchTest, EngineBatchBoundsMatchPerQueryForEveryMode) {
  const size_t n = 40, d = 48, num_queries = 5;
  const FloatMatrix data = testing_util::RandomUnitMatrix(n, d, 51);
  const FloatMatrix queries =
      testing_util::RandomUnitMatrix(num_queries, d, 52);

  struct ModeCase {
    Distance distance;
    EngineOptions::Bound bound;
  };
  const ModeCase cases[] = {
      {Distance::kEuclidean, EngineOptions::Bound::kDirectEd},
      {Distance::kEuclidean, EngineOptions::Bound::kSegmentFnn},
      {Distance::kEuclidean, EngineOptions::Bound::kSegmentSm},
      {Distance::kCosine, EngineOptions::Bound::kAuto},
      {Distance::kPearson, EngineOptions::Bound::kAuto},
  };
  for (const ModeCase& c : cases) {
    EngineOptions options;
    options.bound = c.bound;
    auto engine = PimEngine::Build(data, c.distance, options);
    ASSERT_TRUE(engine.ok());
    const auto mode = (*engine)->mode();

    PimEngine::QueryScratch scratch;
    PimEngine::QueryHandleBatch batch;
    ASSERT_TRUE((*engine)
                    ->RunQueryBatch(std::span<const float>(
                                        queries.data(), num_queries * d),
                                    num_queries, &scratch, &batch)
                    .ok())
        << EngineModeName(mode);
    EXPECT_EQ(batch.num_queries, num_queries);
    EXPECT_EQ(batch.stride, n);

    for (size_t q = 0; q < num_queries; ++q) {
      PimEngine::QueryHandleBatch single;
      ASSERT_TRUE(
          (*engine)->RunQueryBatch(queries.row(q), 1, &scratch, &single).ok())
          << EngineModeName(mode);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ((*engine)->BoundFor(batch, q, i),
                  (*engine)->BoundFor(single, 0, i))
            << EngineModeName(mode) << " q=" << q << " object=" << i;
      }
    }
  }
}

TEST(PimBatchTest, BatchValidation) {
  PimDevice device;
  const IntMatrix data = RandomIntMatrix(4, 8, 10, 61);
  ASSERT_TRUE(device.ProgramDataset(data).ok());
  std::vector<uint64_t> out;
  // Empty batch: rejected with a message that names the requirement.
  const Status empty = device.DotProductBatch({}, 0, &out);
  EXPECT_FALSE(empty.ok());
  EXPECT_NE(empty.message().find("num_queries >= 1"), std::string::npos)
      << empty.ToString();
  // Size not a multiple of the programmed dimensionality.
  EXPECT_FALSE(
      device.DotProductBatch(std::vector<int32_t>(15, 1), 2, &out).ok());
  // Negative input anywhere in the batch.
  std::vector<int32_t> bad(16, 1);
  bad[11] = -3;
  EXPECT_FALSE(device.DotProductBatch(bad, 2, &out).ok());
}

TEST(PimBatchTest, EngineRejectsEmptyBatchAndNullOutputs) {
  const FloatMatrix data = testing_util::RandomUnitMatrix(16, 8, 71);
  auto engine = PimEngine::Build(data, Distance::kEuclidean, EngineOptions());
  ASSERT_TRUE(engine.ok());
  PimEngine::QueryScratch scratch;
  PimEngine::QueryHandleBatch handle;
  const Status batch = (*engine)->RunQueryBatch({}, 0, &scratch, &handle);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch.message().find("num_queries >= 1"), std::string::npos)
      << batch.ToString();
}

TEST(PimBatchTest, ZeroDeviceBatchPolicyIsRejectedNotMisread) {
  // A device_batch of 0 used to be silently promoted to 1; it is now an
  // explicit error everywhere a policy reaches a batched device op.
  const FloatMatrix data = testing_util::RandomUnitMatrix(24, 8, 72);
  const FloatMatrix queries = testing_util::RandomUnitMatrix(2, 8, 73);

  StandardPimKnn knn(Distance::kEuclidean, EngineOptions());
  ExecPolicy policy;
  policy.device_batch = 0;
  knn.set_exec_policy(policy);
  ASSERT_TRUE(knn.Prepare(data).ok());
  const auto result = knn.Search(queries, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("device_batch"), std::string::npos)
      << result.status().ToString();

  auto filter = PimAssignFilter::Build(data, EngineOptions());
  ASSERT_TRUE(filter.ok());
  const Status begin = (*filter)->BeginIteration(queries, /*device_batch=*/0);
  ASSERT_FALSE(begin.ok());
  EXPECT_EQ(begin.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((*filter)->BeginIteration(queries, 1).ok());
}

}  // namespace
}  // namespace pimine
