// Bit-exact result snapshots. golden_stats_test pins counters; this test
// pins the numbers themselves: the final k-means centers and inertia of all
// five host algorithms and Lloyd-PIM, and the kNN neighbour ids and
// distances of the ED/CS/PCC scans, host and PIM. Every value is written as
// a hex float (%a), so a one-ulp change in any kernel is a byte diff.
//
// The snapshots are a property of the source, not of the build: a
// -march=native build (PIMINE_ENABLE_NATIVE=ON) must reproduce the same
// files as the default x86-64 build. That holds only while float
// contraction stays pinned off by the build flags (-ffp-contract=off).
//
// Two canned workloads: the golden-stats workload (d=32, k=8) and one whose
// d is odd and whose k is not a multiple of any SIMD lane block (d=37,
// k=45), so vector tails are exercised.
//
// Regenerating after an intentional numeric change:
//   PIMINE_REGEN_GOLDEN=1 ./bit_golden_test
// then commit the rewritten tests/golden_bits/*.txt.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "kmeans/drake.h"
#include "kmeans/elkan.h"
#include "kmeans/hamerly.h"
#include "kmeans/kmeans_common.h"
#include "kmeans/lloyd.h"
#include "kmeans/yinyang.h"
#include "knn/standard_knn.h"
#include "knn/standard_pim_knn.h"

#ifndef PIMINE_BIT_GOLDEN_DIR
#error "PIMINE_BIT_GOLDEN_DIR must be defined by the build"
#endif

namespace pimine {
namespace {

struct Workload {
  std::string tag;
  int k;  // k-means clusters.
  FloatMatrix data;
  FloatMatrix queries;
};

Workload MakeWorkload(const std::string& tag, int dims, int64_t n, int k,
                      uint64_t seed) {
  DatasetSpec spec;
  spec.name = "bits";
  spec.dims = dims;
  spec.profile = ClusterProfile::kClustered;
  spec.num_clusters = 8;
  spec.cluster_std = 0.08;
  Workload w{tag, k, {}, {}};
  w.data = DatasetGenerator::Generate(spec, n, seed);
  w.queries = DatasetGenerator::GenerateQueries(spec, w.data, 9, seed + 1);
  return w;
}

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  w.push_back(MakeWorkload("d32_k8", 32, 300, 8, 42));
  w.push_back(MakeWorkload("d37_k45", 37, 400, 45, 7));
  return w;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void CheckAgainstGolden(const std::string& label, const std::string& rendered) {
  const std::string path =
      std::string(PIMINE_BIT_GOLDEN_DIR) + "/" + label + ".txt";
  if (std::getenv("PIMINE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with PIMINE_REGEN_GOLDEN=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), rendered)
      << label << ": result bits diverged from " << path;
}

std::string RenderKmeans(const KmeansResult& r) {
  std::ostringstream out;
  out << "iterations=" << r.iterations << "\n";
  out << "inertia=" << Hex(r.inertia) << "\n";
  for (size_t c = 0; c < r.centers.rows(); ++c) {
    out << "c" << c << ":";
    for (const float v : r.centers.row(c)) out << " " << Hex(v);
    out << "\n";
  }
  return out.str();
}

std::string RenderKnn(const KnnRunResult& r) {
  std::ostringstream out;
  for (size_t q = 0; q < r.neighbors.size(); ++q) {
    out << "q" << q << ":";
    for (const Neighbor& nb : r.neighbors[q]) {
      out << " " << nb.id << "=" << Hex(nb.distance);
    }
    out << "\n";
  }
  return out.str();
}

struct KmeansCase {
  std::string label;
  bool use_pim;
  std::function<std::unique_ptr<KmeansAlgorithm>()> make;
};

TEST(BitGoldenTest, KmeansCentersAndInertia) {
  const std::vector<KmeansCase> cases = {
      {"lloyd", false, [] { return std::make_unique<LloydKmeans>(); }},
      {"elkan", false, [] { return std::make_unique<ElkanKmeans>(); }},
      {"hamerly", false, [] { return std::make_unique<HamerlyKmeans>(); }},
      {"drake", false, [] { return std::make_unique<DrakeKmeans>(); }},
      {"yinyang", false, [] { return std::make_unique<YinyangKmeans>(); }},
      {"lloyd_pim", true, [] { return std::make_unique<LloydKmeans>(); }},
  };
  for (const Workload& w : Workloads()) {
    KmeansOptions options;
    options.k = w.k;
    options.max_iterations = 4;
    options.seed = 123;
    for (const KmeansCase& c : cases) {
      options.use_pim = c.use_pim;
      auto result = c.make()->Run(w.data, options);
      ASSERT_TRUE(result.ok()) << c.label << " " << w.tag;
      CheckAgainstGolden("kmeans_" + c.label + "_" + w.tag,
                         RenderKmeans(*result));
    }
  }
}

TEST(BitGoldenTest, KnnIdsAndDistances) {
  const std::vector<std::pair<std::string, Distance>> measures = {
      {"ed", Distance::kEuclidean},
      {"cs", Distance::kCosine},
      {"pcc", Distance::kPearson},
  };
  for (const Workload& w : Workloads()) {
    for (const auto& [name, distance] : measures) {
      StandardKnn host(distance);
      ASSERT_TRUE(host.Prepare(w.data).ok());
      auto host_result = host.Search(w.queries, 5);
      ASSERT_TRUE(host_result.ok()) << name << " " << w.tag;
      CheckAgainstGolden("knn_" + name + "_" + w.tag, RenderKnn(*host_result));

      StandardPimKnn pim(distance, EngineOptions());
      ASSERT_TRUE(pim.Prepare(w.data).ok());
      auto pim_result = pim.Search(w.queries, 5);
      ASSERT_TRUE(pim_result.ok()) << name << " pim " << w.tag;
      CheckAgainstGolden("knn_" + name + "_pim_" + w.tag,
                         RenderKnn(*pim_result));
    }
  }
}

}  // namespace
}  // namespace pimine
