#include "kmeans/hamerly.h"

#include <algorithm>
#include <cmath>

#include "sim/traffic.h"

namespace pimine {
namespace {

/// RunKmeans steps of Hamerly: one upper bound per point and one lower
/// bound on the distance to the second-closest center.
struct HamerlySteps {
  void Setup(KmeansRun& run) {
    run.result.stats.footprint_bytes =
        run.n * 2 * sizeof(double) + run.data.SizeBytes() / 8;
    upper.assign(run.n, 0.0);
    lower.assign(run.n, 0.0);
    nearest_other.assign(run.k, 0.0);
  }

  // Full re-evaluation of point i: finds the closest center exactly and a
  // valid lower bound on the second-closest distance. PIM-pruned centers
  // contribute their (valid) lower bound to the second-min tracking.
  void Rescan(KmeansRun& run, size_t i, AssignSlot& slot) {
    const PimAssignFilter* filter = run.filter;
    KmeansResult& result = run.result;
    const auto p = run.data.row(i);
    double min1 = HUGE_VAL;  // exact distance to the closest center.
    double min2 = HUGE_VAL;  // lower bound on the second-closest distance.
    size_t best_c = 0;
    if (filter == nullptr) {
      slot.distances.resize(run.k);
      ExactToAllCenters(run, i, slot.distances.data(), slot);
    }
    for (size_t c = 0; c < run.k; ++c) {
      double value;
      if (filter != nullptr) {
        ++slot.bound_count;
        const double pim_lb = filter->LowerBound(i, c);
        if (pim_lb >= min1) {
          value = pim_lb;  // cannot be the closest; bound suffices.
        } else {
          ScopedFunctionTimer timer(&slot.profile, "ED");
          value = KmeansExactDistance(p, result.centers.row(c));
          ++slot.exact_count;
        }
      } else {
        value = slot.distances[c];
      }
      if (value < min1) {
        min2 = min1;
        min1 = value;
        best_c = c;
      } else if (value < min2) {
        min2 = value;
      }
    }
    result.assignments[i] = static_cast<int32_t>(best_c);
    upper[i] = min1;
    lower[i] = min2;
  }

  void Assign(KmeansRun& run, int iter) {
    KmeansResult& result = run.result;
    const size_t k = run.k;
    if (iter == 0) {
      RunAssignWithPolicy(
          run.options.exec, run.n, &result.stats,
          [&](size_t i, size_t /*slot_index*/, AssignSlot& slot) {
            Rescan(run, i, slot);
          });
      return;
    }

    // s(j) = half the distance to j's nearest other center.
    {
      ScopedFunctionTimer timer(&result.stats.profile, "ED");
      for (size_t a = 0; a < k; ++a) {
        double m = HUGE_VAL;
        for (size_t b = 0; b < k; ++b) {
          if (b == a) continue;
          m = std::min(m, KmeansExactDistance(result.centers.row(a),
                                              result.centers.row(b)));
        }
        nearest_other[a] = 0.5 * m;
        result.stats.exact_count += k - 1;
      }
    }

    RunAssignWithPolicy(
        run.options.exec, run.n, &result.stats,
        [&](size_t i, size_t /*slot_index*/, AssignSlot& slot) {
          const size_t a = result.assignments[i];
          const double gate = std::max(nearest_other[a], lower[i]);
          if (upper[i] <= gate) return;
          // Tighten the upper bound; re-test before the full rescan.
          {
            ScopedFunctionTimer timer(&slot.profile, "ED");
            upper[i] =
                KmeansExactDistance(run.data.row(i), result.centers.row(a));
            ++slot.exact_count;
          }
          if (upper[i] <= gate) return;
          Rescan(run, i, slot);
        });
  }

  void UpdateBounds(KmeansRun& run) {
    const size_t n = run.n;
    double max_moved = 0.0;
    for (double m : run.moved) max_moved = std::max(max_moved, m);
    for (size_t i = 0; i < n; ++i) {
      upper[i] += run.moved[run.result.assignments[i]];
      lower[i] = std::max(0.0, lower[i] - max_moved);
    }
    traffic::CountRead(n * 2 * sizeof(double));
    traffic::CountWrite(n * 2 * sizeof(double));
    traffic::CountArithmetic(n * 3);
  }

  std::vector<double> upper;
  std::vector<double> lower;  // bound to the 2nd-closest center.
  std::vector<double> nearest_other;
};

}  // namespace

Result<KmeansResult> HamerlyKmeans::Run(const FloatMatrix& data,
                                        const KmeansOptions& options) {
  HamerlySteps steps;
  return RunKmeans(data, options, steps);
}

}  // namespace pimine
