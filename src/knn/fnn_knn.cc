#include "knn/fnn_knn.h"

#include <algorithm>

#include "common/logging.h"
#include "core/bounds.h"
#include "core/similarity.h"
#include "util/timer.h"

namespace pimine {

FnnKnn::FnnKnn(std::vector<int64_t> level_divisors)
    : level_divisors_(std::move(level_divisors)) {
  PIMINE_CHECK(!level_divisors_.empty());
  for (int64_t div : level_divisors_) PIMINE_CHECK(div >= 1);
}

Status FnnKnn::Prepare(const FloatMatrix& data) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  data_ = &data;
  levels_.clear();
  const int64_t d = static_cast<int64_t>(data.cols());
  int64_t previous_d0 = 0;
  for (int64_t div : level_divisors_) {
    const int64_t d0 = std::max<int64_t>(1, d / div);
    if (d0 == previous_d0) continue;  // degenerate level on small d.
    levels_.push_back(ComputeSegmentStats(data, d0));
    previous_d0 = d0;
  }
  return Status::OK();
}

uint64_t FnnKnn::OfflineBytesWritten() const {
  uint64_t bytes = 0;
  for (const SegmentStats& level : levels_) {
    bytes += level.means.SizeBytes() + level.stds.SizeBytes();
  }
  return bytes;
}

Result<KnnRunResult> FnnKnn::Search(const FloatMatrix& queries, int k) {
  if (data_ == nullptr) return Status::FailedPrecondition("Prepare first");
  if (queries.cols() != data_->cols()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (k <= 0 || static_cast<size_t>(k) > data_->rows()) {
    return Status::InvalidArgument("k out of range");
  }

  KnnRunResult result;
  result.neighbors.resize(queries.rows());
  traffic::AggregateScope traffic_scope;
  Timer wall;

  const size_t n = data_->rows();
  const size_t num_levels = levels_.size();

  // Per-worker scratch: per-level query segments + coarse-bound array.
  struct Scratch {
    std::vector<std::vector<float>> q_means;
    std::vector<std::vector<float>> q_stds;
    std::vector<double> first_bounds;
  };
  std::vector<Scratch> scratch(NumSlots(exec_policy_, queries.rows(), 1));
  for (Scratch& s : scratch) {
    s.q_means.resize(num_levels);
    s.q_stds.resize(num_levels);
    for (size_t lv = 0; lv < num_levels; ++lv) {
      s.q_means[lv].resize(static_cast<size_t>(levels_[lv].num_segments));
      s.q_stds[lv].resize(static_cast<size_t>(levels_[lv].num_segments));
    }
    s.first_bounds.resize(n);
  }

  Status status = RunQueriesWithPolicy(
      exec_policy_, queries.rows(), &result.stats,
      [&](size_t qi, size_t slot_index, SearchSlot& slot) {
        const auto q = queries.row(qi);
        Scratch& s = scratch[slot_index];
        TopK topk(static_cast<size_t>(k));

        // Coarsest level over every object.
        {
          ScopedFunctionTimer timer(&slot.profile, "LB_FNN");
          for (size_t lv = 0; lv < num_levels; ++lv) {
            ComputeSegments(q, levels_[lv].num_segments, s.q_means[lv],
                            s.q_stds[lv]);
          }
          const SegmentStats& l0 = levels_[0];
          for (size_t i = 0; i < n; ++i) {
            s.first_bounds[i] = LbFnn(l0.means.row(i), l0.stds.row(i),
                                      s.q_means[0], s.q_stds[0],
                                      l0.segment_length);
          }
          slot.bound_count += n;
        }

        // Refinement in coarse-bound order; finer levels prune survivors.
        slot.exact_count += RefineInOrder(
            s.first_bounds, topk,
            [&](uint32_t idx) {
              for (size_t lv = 1; lv < num_levels; ++lv) {
                ScopedFunctionTimer timer(&slot.profile, "LB_FNN");
                const SegmentStats& level = levels_[lv];
                const double lb =
                    LbFnn(level.means.row(idx), level.stds.row(idx),
                          s.q_means[lv], s.q_stds[lv], level.segment_length);
                ++slot.bound_count;
                if (topk.full() && lb >= topk.threshold()) {
                  return RefineStep::kSkip;
                }
              }
              PushExactScore(Distance::kEuclidean, *data_, idx, q, topk,
                             &slot.profile);
              return RefineStep::kExact;
            },
            &slot.profile, "LB_FNN");
        result.neighbors[qi] = topk.TakeSorted();
      });
  PIMINE_RETURN_IF_ERROR(status);

  result.stats.wall_ms = wall.ElapsedMillis();
  result.stats.traffic = traffic_scope.Delta();
  result.stats.footprint_bytes =
      levels_[0].means.SizeBytes() + levels_[0].stds.SizeBytes();
  return result;
}

}  // namespace pimine
