#include "knn/ost_pim_knn.h"

#include <algorithm>

#include "common/logging.h"
#include "core/bounds.h"
#include "knn/pim_search.h"

namespace pimine {

OstPimKnn::OstPimKnn(EngineOptions options, int64_t prefix_divisor)
    : options_(std::move(options)), prefix_divisor_(prefix_divisor) {
  PIMINE_CHECK(prefix_divisor >= 1);
  options_.bound = EngineOptions::Bound::kDirectEd;
}

Status OstPimKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  const int64_t d = static_cast<int64_t>(data.cols());
  d0_ = std::max<int64_t>(1, d / prefix_divisor_);

  // Prefix submatrix programmed on PIM.
  FloatMatrix prefixes(data.rows(), static_cast<size_t>(d0_));
  for (size_t i = 0; i < data.rows(); ++i) {
    const auto row = data.row(i);
    auto out = prefixes.mutable_row(i);
    for (int64_t j = 0; j < d0_; ++j) out[j] = row[j];
  }
  PIMINE_ASSIGN_OR_RETURN(
      engine_, ShardedPimEngine::Build(prefixes, Distance::kEuclidean, options_));

  suffix_norms_.resize(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    suffix_norms_[i] = SuffixNorm(data.row(i), d0_);
  }
  return Status::OK();
}

Status OstPimKnn::OnInsert(const FloatMatrix& rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  // The fleet holds only the d0-dim prefixes: gather them from the full
  // inserted rows, exactly as Prepare did for the base corpus.
  FloatMatrix prefixes(rows.rows(), static_cast<size_t>(d0_));
  for (size_t i = 0; i < rows.rows(); ++i) {
    const auto row = rows.row(i);
    auto out = prefixes.mutable_row(i);
    for (int64_t j = 0; j < d0_; ++j) out[j] = row[j];
  }
  PIMINE_RETURN_IF_ERROR(engine_->AppendRows(prefixes));
  for (size_t i = 0; i < rows.rows(); ++i) {
    suffix_norms_.push_back(SuffixNorm(rows.row(i), d0_));
  }
  return Status::OK();
}

Status OstPimKnn::OnDelete(std::span<const uint32_t> rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  for (const uint32_t row : rows) {
    PIMINE_RETURN_IF_ERROR(engine_->DeleteRow(row));
  }
  return Status::OK();
}

Status OstPimKnn::OnCompact(const std::vector<uint32_t>& live) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  PIMINE_RETURN_IF_ERROR(engine_->Compact());
  // Compact the suffix-norm table with the same ascending live list the
  // engines used, so physical ids keep lining up.
  size_t w = 0;
  for (const uint32_t r : live) suffix_norms_[w++] = suffix_norms_[r];
  suffix_norms_.resize(w);
  return Status::OK();
}

Result<KnnRunResult> OstPimKnn::Search(const FloatMatrix& queries, int k) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  // The fleet holds the d0-dim prefixes (RunPimSearch sends it the query
  // prefixes); the suffix-norm term completes the full-dimension bound.
  struct Path {
    void FillBounds(const PimQuery& pq, std::span<double> bounds) const {
      ScopedFunctionTimer timer(&pq.slot.profile, "LB_PIM");
      const double q_suffix = SuffixNorm(pq.row, self.d0_);
      for (size_t i = 0; i < bounds.size(); ++i) {
        const double norm_diff = self.suffix_norms_[i] - q_suffix;
        const double prefix_lb = std::max(
            0.0, self.engine_->BoundFor(pq.batch, pq.batch_index, i));
        bounds[i] = prefix_lb + norm_diff * norm_diff;
      }
      pq.slot.bound_count += bounds.size();
    }
    RefineStep Refine(const PimQuery& pq, uint32_t idx, TopK& topk) const {
      PushExactScore(Distance::kEuclidean, *self.data_, idx, pq.row, topk,
                     &pq.slot.profile);
      return RefineStep::kExact;
    }
    const OstPimKnn& self;
    const bool uses_device = true;
    const bool maximize = false;
    // Modeled: bound array, the paper's sorted-order array and suffix
    // norms (not the simulator's lazy index heap).
    const size_t doubles_per_object = 3;
  } path{*this};
  return RunPimSearch(*engine_, *data_, queries, k, exec_policy_, path);
}

}  // namespace pimine
