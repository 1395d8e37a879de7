#include "knn/sm_pim_knn.h"

#include "knn/pim_search.h"

namespace pimine {

SmPimKnn::SmPimKnn(EngineOptions options) : options_(std::move(options)) {
  options_.bound = EngineOptions::Bound::kSegmentSm;
}

Status SmPimKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  PIMINE_ASSIGN_OR_RETURN(
      engine_, ShardedPimEngine::Build(data, Distance::kEuclidean, options_));
  return Status::OK();
}

Status SmPimKnn::OnInsert(const FloatMatrix& rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->AppendRows(rows);
}

Status SmPimKnn::OnDelete(std::span<const uint32_t> rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  for (const uint32_t row : rows) {
    PIMINE_RETURN_IF_ERROR(engine_->DeleteRow(row));
  }
  return Status::OK();
}

Status SmPimKnn::OnCompact(const std::vector<uint32_t>& /*live*/) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->Compact();
}

Result<KnnRunResult> SmPimKnn::Search(const FloatMatrix& queries, int k) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  FleetBoundPath path(*engine_, *data_, Distance::kEuclidean);
  return RunPimSearch(*engine_, *data_, queries, k, exec_policy_, path);
}

}  // namespace pimine
