// Floating-point tolerance model for checksum verification.
//
// The predicted checksums (maintained via checksum arithmetic on A and B)
// and the reference checksums (accumulated from the computed C values inside
// the kernels) follow different rounding paths, so they differ by genuine
// floating-point noise even in a fault-free run.  The verifier therefore
// needs a threshold tau with
//
//     fp-noise  <<  tau  <<  smallest error worth correcting.
//
// We bound the noise with a random-walk model: each checksum entry is the
// result of O(K + N) accumulations of values of magnitude at most
//     M_elem = |alpha| * amax(A) * amax(B) * K  +  |beta| * amax(C0),
// giving noise ~ eps * (sqrt(K) + sqrt(N)) * M_elem.  A safety factor
// (default 512, Options::tolerance_factor per call) sits on top.  Errors
// smaller than tau are mathematically indistinguishable from rounding and
// are, by the same argument, harmless to the result.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/matrix.hpp"

namespace ftgemm {

constexpr double default_tolerance_factor() { return 512.0; }

/// Type-aware default: float's epsilon is ~2^29 larger than double's, so the
/// same multiplicative factor would make tau comparable to O(1) injected
/// errors at bench sizes.  A smaller factor keeps single-precision
/// detectability useful while the random-walk model still dominates noise.
template <typename T>
double default_tolerance_factor_for() {
  const double base = default_tolerance_factor();
  return sizeof(T) == 4 ? base / 8.0 : base;
}

template <typename T>
struct ToleranceModel {
  double cc_tau = 0.0;  ///< threshold for column-checksum (row-sum) entries
  double cr_tau = 0.0;  ///< threshold for row-checksum (col-sum) entries

  static ToleranceModel compute(index_t m, index_t n, index_t k,
                                double amax_a, double amax_b, double amax_c0,
                                double alpha, double beta, double factor) {
    const double eps = std::numeric_limits<T>::epsilon();
    const double elem = std::abs(alpha) * amax_a * amax_b * double(k) +
                        std::abs(beta) * amax_c0;
    // Guard against all-zero operands: keep an absolute floor so that a
    // denormal-scale mismatch never divides into false positives.
    const double scale = std::max(elem, std::numeric_limits<T>::min() * 1e3);
    const double walk_cc = std::sqrt(double(k)) + std::sqrt(double(n));
    const double walk_cr = std::sqrt(double(k)) + std::sqrt(double(m));
    ToleranceModel t;
    t.cc_tau = factor * eps * walk_cc * scale;
    t.cr_tau = factor * eps * walk_cr * scale;
    return t;
  }
};

}  // namespace ftgemm
