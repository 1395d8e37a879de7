#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/similarity_lanes.h"
#include "sim/traffic.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#endif

namespace pimine {

std::string_view DistanceName(Distance distance) {
  switch (distance) {
    case Distance::kEuclidean:
      return "ED";
    case Distance::kCosine:
      return "CS";
    case Distance::kPearson:
      return "PCC";
    case Distance::kHamming:
      return "HD";
  }
  return "?";
}

bool IsSimilarityMeasure(Distance distance) {
  return distance == Distance::kCosine || distance == Distance::kPearson;
}

double SquaredEuclidean(std::span<const float> p, std::span<const float> q) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  double acc = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double diff = static_cast<double>(p[i]) - q[i];
    acc += diff * diff;
  }
  // Conventional architecture: both vectors stream from memory (the query
  // stays cached across candidates; we charge the candidate payload).
  traffic::CountRead(d * sizeof(float));
  traffic::CountArithmetic(3 * d);
  return acc;
}

double SquaredEuclideanEarlyAbandon(std::span<const float> p,
                                    std::span<const float> q,
                                    double threshold) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  double acc = 0.0;
  size_t i = 0;
  constexpr size_t kCheckStride = 64;
  while (i < d) {
    const size_t stop = std::min(d, i + kCheckStride);
    for (; i < stop; ++i) {
      const double diff = static_cast<double>(p[i]) - q[i];
      acc += diff * diff;
    }
    if (acc > threshold) break;
  }
  traffic::CountRead(i * sizeof(float));
  traffic::CountArithmetic(3 * i + i / kCheckStride);
  traffic::CountBranches(i / kCheckStride + 1);
  return acc;
}

double DotProduct(std::span<const float> p, std::span<const float> q) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  double acc = 0.0;
  for (size_t i = 0; i < d; ++i) {
    acc += static_cast<double>(p[i]) * q[i];
  }
  traffic::CountRead(d * sizeof(float));
  traffic::CountArithmetic(2 * d);
  return acc;
}

double CosineSimilarity(std::span<const float> p, std::span<const float> q) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  double dot = 0.0;
  double norm_p = 0.0;
  double norm_q = 0.0;
  for (size_t i = 0; i < d; ++i) {
    dot += static_cast<double>(p[i]) * q[i];
    norm_p += static_cast<double>(p[i]) * p[i];
    norm_q += static_cast<double>(q[i]) * q[i];
  }
  traffic::CountRead(d * sizeof(float));
  traffic::CountArithmetic(6 * d);
  traffic::CountLongOps(2);  // sqrt + division.
  const double denom = std::sqrt(norm_p) * std::sqrt(norm_q);
  return denom > 0.0 ? dot / denom : 0.0;
}

double PearsonCorrelation(std::span<const float> p, std::span<const float> q) {
  PIMINE_DCHECK(p.size() == q.size());
  const size_t d = p.size();
  if (d == 0) return 0.0;
  double sum_p = 0.0, sum_q = 0.0, sum_pq = 0.0, sum_pp = 0.0, sum_qq = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double a = p[i];
    const double b = q[i];
    sum_p += a;
    sum_q += b;
    sum_pq += a * b;
    sum_pp += a * a;
    sum_qq += b * b;
  }
  traffic::CountRead(d * sizeof(float));
  traffic::CountArithmetic(8 * d);
  traffic::CountLongOps(3);  // two sqrts + division.
  const double n = static_cast<double>(d);
  const double cov = n * sum_pq - sum_p * sum_q;
  const double var_p = n * sum_pp - sum_p * sum_p;
  const double var_q = n * sum_qq - sum_q * sum_q;
  const double denom = std::sqrt(var_p) * std::sqrt(var_q);
  return denom > 0.0 ? cov / denom : 0.0;
}

namespace lanes {
namespace {

// Every path below computes, per center c, exactly the scalar kernel's
// sequence: acc = 0; for j ascending: diff = double(p_j) - double(c_j);
// acc = acc + diff * diff (rounded multiply, then rounded add; the build
// pins -ffp-contract=off so no FMA fuses them); out = sqrt(acc). Lanes only
// run several centers' sequences side by side, so every ISA produces the
// same bits.

// `W` centers from c0 in portable code (a W-lane block the compiler may
// vectorize without reassociating any lane's sum).
template <size_t W>
void PortableBlock(const float* p, size_t d, const float* centers_t, size_t k,
                   size_t c0, double* out) {
  double acc[W] = {};
  for (size_t j = 0; j < d; ++j) {
    const double pj = p[j];
    const float* row = centers_t + j * k + c0;
    for (size_t l = 0; l < W; ++l) {
      const double diff = pj - row[l];
      acc[l] += diff * diff;
    }
  }
  for (size_t l = 0; l < W; ++l) out[c0 + l] = std::sqrt(acc[l]);
}

// Centers [c0, k) in portable code.
void PortableFrom(const float* p, size_t d, const float* centers_t, size_t k,
                  size_t c0, double* out) {
  size_t c = c0;
  for (; c + 8 <= k; c += 8) PortableBlock<8>(p, d, centers_t, k, c, out);
  for (; c < k; ++c) PortableBlock<1>(p, d, centers_t, k, c, out);
}

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define PIMINE_HAVE_X86_LANES 1

// Four accumulators of four lanes: 16 centers per pass over the dimensions.
__attribute__((target("avx2"))) void Avx2(const float* p, size_t d,
                                          const float* centers_t, size_t k,
                                          double* out) {
  size_t c = 0;
  for (; c + 16 <= k; c += 16) {
    __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    for (size_t j = 0; j < d; ++j) {
      const __m256d pj = _mm256_set1_pd(p[j]);
      const float* row = centers_t + j * k + c;
      const __m256d d0 = _mm256_sub_pd(pj, _mm256_cvtps_pd(_mm_loadu_ps(row)));
      const __m256d d1 =
          _mm256_sub_pd(pj, _mm256_cvtps_pd(_mm_loadu_ps(row + 4)));
      const __m256d d2 =
          _mm256_sub_pd(pj, _mm256_cvtps_pd(_mm_loadu_ps(row + 8)));
      const __m256d d3 =
          _mm256_sub_pd(pj, _mm256_cvtps_pd(_mm_loadu_ps(row + 12)));
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
    }
    _mm256_storeu_pd(out + c, _mm256_sqrt_pd(a0));
    _mm256_storeu_pd(out + c + 4, _mm256_sqrt_pd(a1));
    _mm256_storeu_pd(out + c + 8, _mm256_sqrt_pd(a2));
    _mm256_storeu_pd(out + c + 12, _mm256_sqrt_pd(a3));
  }
  for (; c + 4 <= k; c += 4) {
    __m256d a = _mm256_setzero_pd();
    for (size_t j = 0; j < d; ++j) {
      const __m256d diff =
          _mm256_sub_pd(_mm256_set1_pd(p[j]),
                        _mm256_cvtps_pd(_mm_loadu_ps(centers_t + j * k + c)));
      a = _mm256_add_pd(a, _mm256_mul_pd(diff, diff));
    }
    _mm256_storeu_pd(out + c, _mm256_sqrt_pd(a));
  }
  PortableFrom(p, d, centers_t, k, c, out);
}

// Four accumulators of eight lanes: 32 centers per pass. GCC 12 reports
// the intrinsics' deliberately undefined pass-through operand
// (_mm512_undefined_pd) as maybe-uninitialized; the full mask never reads it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) void Avx512(const float* p, size_t d,
                                               const float* centers_t,
                                               size_t k, double* out) {
  size_t c = 0;
  for (; c + 32 <= k; c += 32) {
    __m512d a0 = _mm512_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    for (size_t j = 0; j < d; ++j) {
      const __m512d pj = _mm512_set1_pd(p[j]);
      const float* row = centers_t + j * k + c;
      const __m512d d0 =
          _mm512_sub_pd(pj, _mm512_cvtps_pd(_mm256_loadu_ps(row)));
      const __m512d d1 =
          _mm512_sub_pd(pj, _mm512_cvtps_pd(_mm256_loadu_ps(row + 8)));
      const __m512d d2 =
          _mm512_sub_pd(pj, _mm512_cvtps_pd(_mm256_loadu_ps(row + 16)));
      const __m512d d3 =
          _mm512_sub_pd(pj, _mm512_cvtps_pd(_mm256_loadu_ps(row + 24)));
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(d0, d0));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(d1, d1));
      a2 = _mm512_add_pd(a2, _mm512_mul_pd(d2, d2));
      a3 = _mm512_add_pd(a3, _mm512_mul_pd(d3, d3));
    }
    _mm512_storeu_pd(out + c, _mm512_sqrt_pd(a0));
    _mm512_storeu_pd(out + c + 8, _mm512_sqrt_pd(a1));
    _mm512_storeu_pd(out + c + 16, _mm512_sqrt_pd(a2));
    _mm512_storeu_pd(out + c + 24, _mm512_sqrt_pd(a3));
  }
  for (; c + 8 <= k; c += 8) {
    __m512d a = _mm512_setzero_pd();
    for (size_t j = 0; j < d; ++j) {
      const __m512d diff = _mm512_sub_pd(
          _mm512_set1_pd(p[j]),
          _mm512_cvtps_pd(_mm256_loadu_ps(centers_t + j * k + c)));
      a = _mm512_add_pd(a, _mm512_mul_pd(diff, diff));
    }
    _mm512_storeu_pd(out + c, _mm512_sqrt_pd(a));
  }
  PortableFrom(p, d, centers_t, k, c, out);
}
#pragma GCC diagnostic pop
#endif

}  // namespace

bool Supported(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return true;
#if defined(PIMINE_HAVE_X86_LANES)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
#else
    case Isa::kAvx2:
    case Isa::kAvx512:
      return false;
#endif
  }
  return false;
}

Isa Best() {
  static const Isa best = Supported(Isa::kAvx512) ? Isa::kAvx512
                          : Supported(Isa::kAvx2) ? Isa::kAvx2
                                                  : Isa::kPortable;
  return best;
}

void EuclideanToCenters(Isa isa, std::span<const float> p,
                        const float* centers_t, size_t k, double* out) {
  PIMINE_DCHECK(Supported(isa));
  switch (isa) {
#if defined(PIMINE_HAVE_X86_LANES)
    case Isa::kAvx512:
      return Avx512(p.data(), p.size(), centers_t, k, out);
    case Isa::kAvx2:
      return Avx2(p.data(), p.size(), centers_t, k, out);
#endif
    default:
      return PortableFrom(p.data(), p.size(), centers_t, k, 0, out);
  }
}

}  // namespace lanes

namespace {

// Charges `pairs` real Euclidean distances over `d` dimensions: per pair,
// what SquaredEuclidean charges plus one long op for the sqrt.
void ChargeEuclidean(size_t d, size_t pairs) {
  traffic::CountRead(pairs * d * sizeof(float));
  traffic::CountArithmetic(pairs * 3 * d);
  traffic::CountLongOps(pairs);
}

}  // namespace

void EuclideanToCenters(std::span<const float> p, const float* centers_t,
                        size_t k, double* out) {
  lanes::EuclideanToCenters(lanes::Best(), p, centers_t, k, out);
  ChargeEuclidean(p.size(), k);
}

}  // namespace pimine
