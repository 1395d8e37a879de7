#include "kmeans/yinyang.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/similarity.h"
#include "sim/traffic.h"

namespace pimine {
namespace {

/// Clusters the k centers into t groups with a few plain Lloyd iterations
/// (the Yinyang paper's own group-construction step). Deterministic.
std::vector<int32_t> GroupCenters(const FloatMatrix& centers, size_t t,
                                  uint64_t seed) {
  const size_t k = centers.rows();
  std::vector<int32_t> group(k, 0);
  if (t <= 1) return group;
  FloatMatrix group_centers = InitCenters(centers, static_cast<int>(t), seed);
  for (int it = 0; it < 3; ++it) {
    for (size_t c = 0; c < k; ++c) {
      double best = HUGE_VAL;
      int32_t best_g = 0;
      for (size_t g = 0; g < t; ++g) {
        const double d = SquaredEuclidean(centers.row(c),
                                          group_centers.row(g));
        if (d < best) {
          best = d;
          best_g = static_cast<int32_t>(g);
        }
      }
      group[c] = best_g;
    }
    group_centers = UpdateCenters(centers, group, group_centers, nullptr);
  }
  return group;
}

/// RunKmeans steps of Yinyang: one upper bound per point and one lower
/// bound per center group.
struct YinyangSteps {
  explicit YinyangSteps(int divisor) : group_divisor(divisor) {}

  // GroupCenters charges traffic through UpdateCenters; Setup runs before
  // the run's traffic is counted, so the grouping stays off the books.
  void Setup(KmeansRun& run) {
    const size_t n = run.n;
    const size_t k = run.k;
    t = std::max<size_t>(1, k / static_cast<size_t>(group_divisor));
    run.result.stats.footprint_bytes =
        n * t * sizeof(double) + run.data.SizeBytes() / 4;
    group = GroupCenters(run.result.centers, t, run.options.seed);
    members.assign(t, {});
    for (size_t c = 0; c < k; ++c) members[group[c]].push_back(c);
    upper.assign(n, 0.0);
    lower.assign(n * t, 0.0);
    group_delta.assign(t, 0.0);
    const size_t chunk = std::max<size_t>(1, run.options.exec.block_size);
    scratch.resize(NumSlots(run.options.exec, n, chunk));
    for (Scratch& s : scratch) {
      s.dist.resize(k);
      s.g_scanned.resize(t);
      s.g_min1.resize(t);
      s.g_min2.resize(t);
      s.g_min1c.resize(t);
    }
  }

  void Assign(KmeansRun& run, int iter) {
    const FloatMatrix& data = run.data;
    const PimAssignFilter* filter = run.filter;
    KmeansResult& result = run.result;
    const size_t k = run.k;

    if (iter == 0) {
      // Initial pass: per-pair values fill the group bounds. With the PIM
      // filter, far-away centers keep their (valid) PIM lower bound
      // instead of an exact distance — same treatment as Elkan's init.
      RunAssignWithPolicy(
          run.options.exec, run.n, &result.stats,
          [&](size_t i, size_t slot_index, AssignSlot& slot) {
            std::vector<double>& dist = scratch[slot_index].dist;
            const auto p = data.row(i);
            size_t best_c = 0;
            double best_d = HUGE_VAL;
            if (filter == nullptr) {
              ExactToAllCenters(run, i, dist.data(), slot);
            }
            for (size_t c = 0; c < k; ++c) {
              if (filter != nullptr) {
                ++slot.bound_count;
                const double pim_lb = filter->LowerBound(i, c);
                if (pim_lb >= best_d) {
                  dist[c] = pim_lb;
                  continue;
                }
                ScopedFunctionTimer timer(&slot.profile, "ED");
                dist[c] = KmeansExactDistance(p, result.centers.row(c));
                ++slot.exact_count;
              }
              if (dist[c] < best_d) {
                best_d = dist[c];
                best_c = c;
              }
            }
            result.assignments[i] = static_cast<int32_t>(best_c);
            upper[i] = best_d;
            for (size_t g = 0; g < t; ++g) {
              double m = HUGE_VAL;
              for (int32_t c : members[g]) {
                if (static_cast<size_t>(c) == best_c) continue;
                m = std::min(m, dist[c]);
              }
              lower[i * t + g] = m;
            }
          });
      return;
    }

    RunAssignWithPolicy(
        run.options.exec, run.n, &result.stats,
        [&](size_t i, size_t slot_index, AssignSlot& slot) {
          const size_t a = result.assignments[i];
          double* lb = lower.data() + i * t;
          double global_lb = HUGE_VAL;
          for (size_t g = 0; g < t; ++g) {
            global_lb = std::min(global_lb, lb[g]);
          }
          if (upper[i] <= global_lb) return;

          const auto p = data.row(i);
          double best_d;
          {
            ScopedFunctionTimer timer(&slot.profile, "ED");
            best_d = KmeansExactDistance(p, result.centers.row(a));
            ++slot.exact_count;
          }
          upper[i] = best_d;
          if (best_d <= global_lb) return;
          size_t best_c = a;

          Scratch& s = scratch[slot_index];
          // Group bounds are finalized only after the final assignment is
          // known (a later group can steal the assignment, which changes
          // which candidate every earlier group must exclude).
          std::fill(s.g_scanned.begin(), s.g_scanned.end(), 0);
          for (size_t g = 0; g < t; ++g) {
            if (lb[g] >= best_d) continue;  // group filter (stays valid
                                            // as best_d only shrinks).
            s.g_scanned[g] = 1;
            double min1 = HUGE_VAL;   // smallest value in group.
            double min2 = HUGE_VAL;   // second smallest.
            int32_t min1_c = -1;
            for (int32_t c : members[g]) {
              if (static_cast<size_t>(c) == a) continue;
              double value;
              bool exact = true;
              if (filter != nullptr) {
                ++slot.bound_count;
                const double pim_lb = filter->LowerBound(i, c);
                if (pim_lb >= best_d) {
                  value = pim_lb;  // valid lower bound for the group min.
                  exact = false;
                } else {
                  ScopedFunctionTimer timer(&slot.profile, "ED");
                  value = KmeansExactDistance(p, result.centers.row(c));
                  ++slot.exact_count;
                }
              } else {
                ScopedFunctionTimer timer(&slot.profile, "ED");
                value = KmeansExactDistance(p, result.centers.row(c));
                ++slot.exact_count;
              }
              if (value < min1) {
                min2 = min1;
                min1 = value;
                min1_c = c;
              } else if (value < min2) {
                min2 = value;
              }
              if (exact && value < best_d) {
                best_d = value;
                best_c = c;
              }
            }
            s.g_min1[g] = min1;
            s.g_min2[g] = min2;
            s.g_min1c[g] = min1_c;
          }
          for (size_t g = 0; g < t; ++g) {
            if (!s.g_scanned[g]) continue;
            lb[g] = (s.g_min1c[g] >= 0 &&
                     static_cast<size_t>(s.g_min1c[g]) == best_c)
                        ? s.g_min2[g]
                        : s.g_min1[g];
          }
          if (best_c != a) {
            result.assignments[i] = static_cast<int32_t>(best_c);
            upper[i] = best_d;
            // The old assignment was excluded from every scan, but it
            // now belongs to its group's bound domain; fold its distance
            // in.
            const size_t old_group = group[a];
            ScopedFunctionTimer timer(&slot.profile, "ED");
            const double d_old =
                KmeansExactDistance(p, result.centers.row(a));
            ++slot.exact_count;
            lb[old_group] = std::min(lb[old_group], d_old);
          }
        });
  }

  void UpdateBounds(KmeansRun& run) {
    const size_t n = run.n;
    std::fill(group_delta.begin(), group_delta.end(), 0.0);
    for (size_t c = 0; c < run.k; ++c) {
      group_delta[group[c]] = std::max(group_delta[group[c]], run.moved[c]);
    }
    for (size_t i = 0; i < n; ++i) {
      double* lb = lower.data() + i * t;
      for (size_t g = 0; g < t; ++g) {
        lb[g] = std::max(0.0, lb[g] - group_delta[g]);
      }
      upper[i] += run.moved[run.result.assignments[i]];
    }
    traffic::CountRead(n * t * sizeof(double));
    traffic::CountWrite(n * t * sizeof(double));
    traffic::CountArithmetic(n * t * 2);
  }

  // Per-worker scan scratch (init distances + group-min tracking).
  struct Scratch {
    std::vector<double> dist;
    std::vector<uint8_t> g_scanned;
    std::vector<double> g_min1;
    std::vector<double> g_min2;
    std::vector<int32_t> g_min1c;
  };

  const int group_divisor;
  size_t t = 1;
  std::vector<int32_t> group;
  std::vector<std::vector<int32_t>> members;
  std::vector<double> upper;
  std::vector<double> lower;  // per-group lower bounds.
  std::vector<double> group_delta;
  std::vector<Scratch> scratch;
};

}  // namespace

YinyangKmeans::YinyangKmeans(int group_divisor)
    : group_divisor_(group_divisor) {
  PIMINE_CHECK(group_divisor >= 1);
}

Result<KmeansResult> YinyangKmeans::Run(const FloatMatrix& data,
                                        const KmeansOptions& options) {
  YinyangSteps steps(group_divisor_);
  return RunKmeans(data, options, steps);
}

}  // namespace pimine
