#include "kmeans/drake.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/traffic.h"

namespace pimine {
namespace {

/// Per-point state: the b nearest non-assigned centers with lower bounds,
/// sorted ascending, plus a catch-all bound for every other center.
struct PointBounds {
  std::vector<double> lb;       // length b, ascending at rebuild time.
  std::vector<int32_t> center;  // centers the lb entries refer to.
  double lb_rest = 0.0;         // lower bound for all remaining centers.
};

/// RunKmeans steps of Drake. The assign pass is serial: the rescan shares
/// one distance scratch and charges result.stats directly.
struct DrakeSteps {
  explicit DrakeSteps(int divisor) : bound_divisor(divisor) {}

  void Setup(KmeansRun& run) {
    const size_t k = run.k;
    b = std::min<size_t>(
        k - 1, std::max<size_t>(2, k / static_cast<size_t>(bound_divisor)));
    run.result.stats.footprint_bytes =
        run.n * b * (sizeof(double) + sizeof(int32_t)) +
        run.data.SizeBytes() / 8;
    upper.assign(run.n, 0.0);
    bounds.resize(run.n);
    for (auto& pb : bounds) {
      pb.lb.assign(b, 0.0);
      pb.center.assign(b, 0);
    }
    dist_scratch.assign(k, 0.0);
  }

  // Full re-evaluation of one point: all k distances (through the PIM
  // filter when present), rebuilding its bound list. Returns the new
  // assignment. Pruned pairs store the PIM lower bound — a valid entry.
  size_t Rescan(KmeansRun& run, size_t i) {
    const PimAssignFilter* filter = run.filter;
    KmeansResult& result = run.result;
    const size_t k = run.k;
    const auto p = run.data.row(i);
    size_t best_c = 0;
    double best_d = HUGE_VAL;
    if (filter == nullptr) {
      ExactToAllCenters(run, i, dist_scratch.data(), result.stats);
    }
    for (size_t c = 0; c < k; ++c) {
      if (filter != nullptr) {
        ++result.stats.bound_count;
        const double pim_lb = filter->LowerBound(i, c);
        if (pim_lb >= best_d) {
          dist_scratch[c] = pim_lb;
          continue;
        }
        ScopedFunctionTimer timer(&result.stats.profile, "ED");
        dist_scratch[c] = KmeansExactDistance(p, result.centers.row(c));
        ++result.stats.exact_count;
      }
      if (dist_scratch[c] < best_d) {
        best_d = dist_scratch[c];
        best_c = c;
      }
    }
    // Rebuild the bound list: b smallest non-assigned entries.
    std::vector<int32_t> order(k);
    for (size_t c = 0; c < k; ++c) order[c] = static_cast<int32_t>(c);
    std::sort(order.begin(), order.end(), [&](int32_t x, int32_t y) {
      if (dist_scratch[x] != dist_scratch[y]) {
        return dist_scratch[x] < dist_scratch[y];
      }
      return x < y;
    });
    PointBounds& pb = bounds[i];
    size_t filled = 0;
    double rest = HUGE_VAL;
    for (size_t pos = 0; pos < k; ++pos) {
      const int32_t c = order[pos];
      if (static_cast<size_t>(c) == best_c) continue;
      if (filled < b) {
        pb.center[filled] = c;
        pb.lb[filled] = dist_scratch[c];
        ++filled;
      } else {
        rest = std::min(rest, dist_scratch[c]);
      }
    }
    pb.lb_rest = rest;  // HUGE_VAL when b covers all other centers.
    upper[i] = best_d;
    traffic::CountArithmetic(k * 12);  // sort of k entries.
    return best_c;
  }

  void Assign(KmeansRun& run, int iter) {
    const PimAssignFilter* filter = run.filter;
    KmeansResult& result = run.result;
    if (iter == 0) {
      for (size_t i = 0; i < run.n; ++i) {
        result.assignments[i] = static_cast<int32_t>(Rescan(run, i));
      }
      return;
    }
    for (size_t i = 0; i < run.n; ++i) {
      PointBounds& pb = bounds[i];
      const size_t a = result.assignments[i];
      // Skip entirely when every other center's bound exceeds upper.
      // Per-center updates unsort the list, so take the true minimum.
      double min_lb = pb.lb_rest;
      for (size_t pos = 0; pos < b; ++pos) {
        min_lb = std::min(min_lb, pb.lb[pos]);
      }
      if (upper[i] <= min_lb) continue;

      const auto p = run.data.row(i);
      double best_d;
      {
        ScopedFunctionTimer timer(&result.stats.profile, "ED");
        best_d = KmeansExactDistance(p, result.centers.row(a));
        ++result.stats.exact_count;
      }
      upper[i] = best_d;
      size_t best_c = a;
      for (size_t pos = 0; pos < b; ++pos) {
        if (pb.lb[pos] >= best_d) continue;
        const size_t c = pb.center[pos];
        if (c == best_c) continue;
        if (filter != nullptr) {
          ++result.stats.bound_count;
          const double pim_lb = filter->LowerBound(i, c);
          if (pim_lb >= best_d) {
            pb.lb[pos] = std::max(pb.lb[pos], pim_lb);
            continue;
          }
        }
        ScopedFunctionTimer timer(&result.stats.profile, "ED");
        const double d = KmeansExactDistance(p, result.centers.row(c));
        ++result.stats.exact_count;
        pb.lb[pos] = d;
        if (d < best_d) {
          best_d = d;
          best_c = c;
        }
      }
      // Rescan when the catch-all bound can no longer exclude the
      // unlisted centers, or when the assignment changes (the bound list
      // excludes the assigned center, so a switch invalidates coverage of
      // the old one).
      if (pb.lb_rest < best_d || best_c != a) {
        result.assignments[i] = static_cast<int32_t>(Rescan(run, i));
      } else {
        upper[i] = best_d;
      }
    }
  }

  void UpdateBounds(KmeansRun& run) {
    const size_t n = run.n;
    double max_moved = 0.0;
    for (double m : run.moved) max_moved = std::max(max_moved, m);
    for (size_t i = 0; i < n; ++i) {
      PointBounds& pb = bounds[i];
      for (size_t pos = 0; pos < b; ++pos) {
        pb.lb[pos] = std::max(0.0, pb.lb[pos] - run.moved[pb.center[pos]]);
      }
      if (pb.lb_rest < HUGE_VAL) {
        pb.lb_rest = std::max(0.0, pb.lb_rest - max_moved);
      }
      upper[i] += run.moved[run.result.assignments[i]];
    }
    traffic::CountRead(n * b * sizeof(double));
    traffic::CountWrite(n * b * sizeof(double));
    traffic::CountArithmetic(n * (b + 2));
  }

  const int bound_divisor;
  size_t b = 0;
  std::vector<double> upper;
  std::vector<PointBounds> bounds;
  std::vector<double> dist_scratch;
};

}  // namespace

DrakeKmeans::DrakeKmeans(int bound_divisor) : bound_divisor_(bound_divisor) {
  PIMINE_CHECK(bound_divisor >= 1);
}

Result<KmeansResult> DrakeKmeans::Run(const FloatMatrix& data,
                                      const KmeansOptions& options) {
  DrakeSteps steps(bound_divisor_);
  return RunKmeans(data, options, steps);
}

}  // namespace pimine
