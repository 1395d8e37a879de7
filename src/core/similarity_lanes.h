#ifndef PIMINE_CORE_SIMILARITY_LANES_H_
#define PIMINE_CORE_SIMILARITY_LANES_H_

// Internal: the ISA paths behind EuclideanToCenters, exposed so tests can
// check each one the host supports against the scalar kernel. Library code
// calls EuclideanToCenters, which picks the path by CPU detection.

#include <cstddef>
#include <span>

namespace pimine::lanes {

enum class Isa { kPortable, kAvx2, kAvx512 };

/// True when this build and CPU can run `isa` (kPortable always can).
bool Supported(Isa isa);

/// The widest supported path: AVX-512F, then AVX2, then portable code.
Isa Best();

/// EuclideanToCenters on the given path, without any traffic charge.
void EuclideanToCenters(Isa isa, std::span<const float> p,
                        const float* centers_t, size_t k, double* out);

}  // namespace pimine::lanes

#endif  // PIMINE_CORE_SIMILARITY_LANES_H_
