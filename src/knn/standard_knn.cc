#include "knn/standard_knn.h"

#include <algorithm>

#include "common/logging.h"
#include "util/timer.h"

namespace pimine {

StandardKnn::StandardKnn(Distance distance) : distance_(distance) {
  PIMINE_CHECK(distance != Distance::kHamming)
      << "use HammingScanKnn for binary codes";
  name_ = "Standard";
}

Status StandardKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  return Status::OK();
}

Result<KnnRunResult> StandardKnn::Search(const FloatMatrix& queries, int k) {
  if (data_ == nullptr) return Status::FailedPrecondition("Prepare first");
  if (queries.cols() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (k <= 0 || static_cast<size_t>(k) > data_->rows()) {
    return Status::InvalidArgument("k out of range");
  }

  KnnRunResult result;
  result.neighbors.resize(queries.rows());
  result.stats.footprint_bytes = data_->SizeBytes();
  traffic::AggregateScope traffic_scope;
  Timer wall;

  const ExecPolicy& policy = exec_policy_;
  const size_t n = data_->rows();
  const size_t block = std::max<size_t>(1, policy.block_size);
  // Per-worker distance-block scratch, allocated once per Search (not per
  // query) and reused across every query the worker claims.
  std::vector<std::vector<double>> block_scratch(
      NumSlots(policy, queries.rows(), 1), std::vector<double>(block));

  Status status = RunQueriesWithPolicy(
      policy, queries.rows(), &result.stats,
      [&](size_t qi, size_t slot_index, SearchSlot& slot) {
        const auto q = queries.row(qi);
        std::vector<double>& distances = block_scratch[slot_index];
        TopK topk(static_cast<size_t>(k));
        if (distance_ == Distance::kEuclidean) {
          // Distances are computed in blocks so the "ED" profile tag covers
          // only the distance function itself; top-k maintenance is charged
          // to the (unattributed) remainder, like the paper's per-function
          // breakdown. The pruning threshold refreshes between blocks,
          // which keeps early abandoning exact.
          for (size_t begin = 0; begin < n; begin += block) {
            const size_t end = std::min(n, begin + block);
            {
              ScopedFunctionTimer timer(&slot.profile, "ED");
              const double threshold = topk.threshold();
              for (size_t i = begin; i < end; ++i) {
                distances[i - begin] = SquaredEuclideanEarlyAbandon(
                    data_->row(i), q, threshold);
              }
            }
            for (size_t i = begin; i < end; ++i) {
              topk.Push(distances[i - begin], static_cast<int32_t>(i));
            }
          }
          slot.exact_count += n;
          result.neighbors[qi] = topk.TakeSorted();
        } else {
          const bool cosine = distance_ == Distance::kCosine;
          const char* tag = cosine ? "CS" : "PCC";
          {
            ScopedFunctionTimer timer(&slot.profile, tag);
            for (size_t i = 0; i < n; ++i) {
              const double sim = cosine ? CosineSimilarity(data_->row(i), q)
                                        : PearsonCorrelation(data_->row(i), q);
              topk.Push(-sim, static_cast<int32_t>(i));
            }
          }
          slot.exact_count += n;
          result.neighbors[qi] = FinalizeSimilarityNeighbors(topk);
        }
      });
  PIMINE_RETURN_IF_ERROR(status);

  result.stats.wall_ms = wall.ElapsedMillis();
  result.stats.traffic = traffic_scope.Delta();
  return result;
}

}  // namespace pimine
