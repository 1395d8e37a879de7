#include "kmeans/lloyd.h"

namespace pimine {
namespace {

/// RunKmeans steps of Lloyd: every pass examines every center, through the
/// PIM filter when one is present.
struct LloydSteps {
  void Setup(KmeansRun& run) {
    run.result.stats.footprint_bytes =
        run.options.use_pim
            ? run.n * (run.k + 2) * sizeof(double)
            : run.data.SizeBytes() + run.result.centers.SizeBytes();
  }

  // Points are independent: each worker reads the shared centers/filter
  // and writes only its own assignment entries.
  void Assign(KmeansRun& run, int /*iter*/) {
    const FloatMatrix& data = run.data;
    const PimAssignFilter* filter = run.filter;
    KmeansResult& result = run.result;
    const size_t k = run.k;
    RunAssignWithPolicy(
        run.options.exec, run.n, &result.stats,
        [&](size_t i, size_t /*slot_index*/, AssignSlot& slot) {
          const auto p = data.row(i);
          const size_t start = result.assignments[i];
          size_t best_c = start;
          double best_d;
          if (filter == nullptr) {
            slot.distances.resize(k);
            double* dist = slot.distances.data();
            ExactToAllCenters(run, i, dist, slot);
            best_d = dist[start];
            for (size_t c = 0; c < k; ++c) {
              if (c != start && dist[c] < best_d) {
                best_d = dist[c];
                best_c = c;
              }
            }
          } else {
            {
              ScopedFunctionTimer timer(&slot.profile, "ED");
              best_d = KmeansExactDistance(p, result.centers.row(start));
              ++slot.exact_count;
            }
            for (size_t c = 0; c < k; ++c) {
              if (c == start) continue;
              ++slot.bound_count;
              if (filter->LowerBound(i, c) >= best_d) continue;
              ScopedFunctionTimer timer(&slot.profile, "ED");
              const double d = KmeansExactDistance(p, result.centers.row(c));
              ++slot.exact_count;
              if (d < best_d) {
                best_d = d;
                best_c = c;
              }
            }
          }
          result.assignments[i] = static_cast<int32_t>(best_c);
        });
  }
};

}  // namespace

Result<KmeansResult> LloydKmeans::Run(const FloatMatrix& data,
                                      const KmeansOptions& options) {
  LloydSteps steps;
  return RunKmeans(data, options, steps);
}

}  // namespace pimine
