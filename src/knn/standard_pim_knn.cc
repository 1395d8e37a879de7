#include "knn/standard_pim_knn.h"

#include "common/logging.h"
#include "knn/pim_search.h"

namespace pimine {

StandardPimKnn::StandardPimKnn(Distance distance, EngineOptions options)
    : distance_(distance), options_(std::move(options)) {
  PIMINE_CHECK(distance != Distance::kHamming)
      << "use HammingPimKnn for binary codes";
}

Status StandardPimKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  PIMINE_ASSIGN_OR_RETURN(engine_,
                          ShardedPimEngine::Build(data, distance_, options_));
  return Status::OK();
}

Status StandardPimKnn::OnInsert(const FloatMatrix& rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->AppendRows(rows);
}

Status StandardPimKnn::OnDelete(std::span<const uint32_t> rows) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  for (const uint32_t row : rows) {
    PIMINE_RETURN_IF_ERROR(engine_->DeleteRow(row));
  }
  return Status::OK();
}

Status StandardPimKnn::OnCompact(const std::vector<uint32_t>& /*live*/) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  return engine_->Compact();
}

Result<KnnRunResult> StandardPimKnn::Search(const FloatMatrix& queries,
                                            int k) {
  if (engine_ == nullptr) return Status::FailedPrecondition("Prepare first");
  FleetBoundPath path(*engine_, *data_, distance_);
  return RunPimSearch(*engine_, *data_, queries, k, exec_policy_, path);
}

}  // namespace pimine
