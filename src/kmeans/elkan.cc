#include "kmeans/elkan.h"

#include <algorithm>
#include <cmath>

#include "sim/traffic.h"

namespace pimine {
namespace {

/// RunKmeans steps of Elkan: one upper bound per point, k lower bounds per
/// point and the center-center distance table.
struct ElkanSteps {
  void Setup(KmeansRun& run) {
    const size_t n = run.n;
    const size_t k = run.k;
    run.result.stats.footprint_bytes =
        n * k * sizeof(double) + run.data.SizeBytes() / 8;
    upper.assign(n, 0.0);
    upper_stale.assign(n, 0);
    lower.assign(n * k, 0.0);
    cc.assign(k * k, 0.0);
    nearest_other.assign(k, 0.0);
  }

  void Assign(KmeansRun& run, int iter) {
    const FloatMatrix& data = run.data;
    const PimAssignFilter* filter = run.filter;
    KmeansResult& result = run.result;
    const size_t k = run.k;

    if (iter == 0) {
      // First assign pass fills every bound exactly (Lloyd-equivalent).
      RunAssignWithPolicy(
          run.options.exec, run.n, &result.stats,
          [&](size_t i, size_t /*slot_index*/, AssignSlot& slot) {
            const auto p = data.row(i);
            size_t best_c = 0;
            double best_d = HUGE_VAL;
            if (filter == nullptr) {
              // Every bound starts exact; pick the closest in index order.
              double* dist = lower.data() + i * k;
              ExactToAllCenters(run, i, dist, slot);
              for (size_t c = 0; c < k; ++c) {
                if (dist[c] < best_d) {
                  best_d = dist[c];
                  best_c = c;
                }
              }
            } else {
              for (size_t c = 0; c < k; ++c) {
                double d;
                if (filter->LowerBound(i, c) >= best_d) {
                  ++slot.bound_count;
                  d = filter->LowerBound(i, c);  // valid lower bound in lb.
                } else {
                  ScopedFunctionTimer timer(&slot.profile, "ED");
                  d = KmeansExactDistance(p, result.centers.row(c));
                  ++slot.exact_count;
                  if (d < best_d) {
                    best_d = d;
                    best_c = c;
                  }
                }
                lower[i * k + c] = d;
              }
            }
            result.assignments[i] = static_cast<int32_t>(best_c);
            upper[i] = best_d;
            upper_stale[i] = 0;
          });
      return;
    }

    // Center-center distances and s(j).
    {
      ScopedFunctionTimer timer(&result.stats.profile, "ED");
      for (size_t a = 0; a < k; ++a) {
        for (size_t b = a + 1; b < k; ++b) {
          const double d = KmeansExactDistance(result.centers.row(a),
                                               result.centers.row(b));
          cc[a * k + b] = d;
          cc[b * k + a] = d;
        }
      }
      result.stats.exact_count += k * (k - 1) / 2;
      for (size_t a = 0; a < k; ++a) {
        double m = HUGE_VAL;
        for (size_t b = 0; b < k; ++b) {
          if (b != a) m = std::min(m, cc[a * k + b]);
        }
        nearest_other[a] = 0.5 * m;
      }
    }

    RunAssignWithPolicy(
        run.options.exec, run.n, &result.stats,
        [&](size_t i, size_t /*slot_index*/, AssignSlot& slot) {
          const size_t a = result.assignments[i];
          if (upper[i] <= nearest_other[a]) return;
          const auto p = data.row(i);
          size_t best_c = a;  // current best center; cc-tests must use it.
          double best_d = upper[i];
          bool tightened = upper_stale[i] == 0;
          for (size_t c = 0; c < k; ++c) {
            if (c == best_c) continue;
            if (lower[i * k + c] >= best_d) continue;
            if (0.5 * cc[best_c * k + c] >= best_d) continue;
            if (!tightened) {
              ScopedFunctionTimer timer(&slot.profile, "ED");
              best_d = KmeansExactDistance(p, result.centers.row(a));
              ++slot.exact_count;
              lower[i * k + a] = best_d;
              upper[i] = best_d;
              upper_stale[i] = 0;
              tightened = true;
              if (lower[i * k + c] >= best_d) continue;
              if (0.5 * cc[best_c * k + c] >= best_d) continue;
            }
            if (filter != nullptr) {
              ++slot.bound_count;
              const double pim_lb = filter->LowerBound(i, c);
              if (pim_lb >= best_d) {
                lower[i * k + c] = std::max(lower[i * k + c], pim_lb);
                continue;
              }
            }
            ScopedFunctionTimer timer(&slot.profile, "ED");
            const double d = KmeansExactDistance(p, result.centers.row(c));
            ++slot.exact_count;
            lower[i * k + c] = d;
            if (d < best_d) {
              best_d = d;
              best_c = c;
            }
          }
          if (best_c != a) {
            result.assignments[i] = static_cast<int32_t>(best_c);
            upper[i] = best_d;
            upper_stale[i] = 0;
          }
        });
  }

  void UpdateBounds(KmeansRun& run) {
    const size_t n = run.n;
    const size_t k = run.k;
    for (size_t i = 0; i < n; ++i) {
      double* lb = lower.data() + i * k;
      for (size_t c = 0; c < k; ++c) {
        lb[c] = std::max(0.0, lb[c] - run.moved[c]);
      }
      upper[i] += run.moved[run.result.assignments[i]];
      upper_stale[i] = 1;
    }
    traffic::CountRead(n * k * sizeof(double));
    traffic::CountWrite(n * k * sizeof(double));
    traffic::CountArithmetic(n * k * 2);
  }

  std::vector<double> upper;
  std::vector<uint8_t> upper_stale;  // not vector<bool>: workers write
                                     // distinct entries concurrently.
  std::vector<double> lower;
  std::vector<double> cc;             // center-center distances.
  std::vector<double> nearest_other;  // s(j) = 0.5 min_{j'} cc.
};

}  // namespace

Result<KmeansResult> ElkanKmeans::Run(const FloatMatrix& data,
                                      const KmeansOptions& options) {
  ElkanSteps steps;
  return RunKmeans(data, options, steps);
}

}  // namespace pimine
