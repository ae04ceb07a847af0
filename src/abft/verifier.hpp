// Checksum verification and error location/correction.
//
// After each rank-KC panel the driver compares the predicted checksums
// (maintained through checksum arithmetic) against the reference checksums
// (accumulated from the actual C values inside the kernels).  A soft error
// that corrupted element (i, j) by delta shows up as
//     Cc_ref[i] - Cc[i] = delta     and     Cr_ref[j] - Cr[j] = delta,
// so the intersection of mismatching rows and columns locates it and the
// difference corrects it — the classic ABFT argument (Huang & Abraham).
//
// Checksums name *which* rows and columns are wrong, not which of their
// crossings are.  The fused executor therefore infers no deltas: at every
// precision and beta it recomputes every crossing of a mismatched row and
// column from the operands (core/driver.hpp).  The error-assignment solver
// below serves only the unfused baseline (baseline/unfused_abft.cpp),
// whose first pass overwrote C0.  It runs two delta rules, both sound for
// up to two errors: the mutual-unique peel and a single-row or
// single-column line.  Every other pattern — equal deltas on several lines
// among them — is reported as uncorrectable.  Like the classic
// single-error rule, a delta rule can still be misled by three or more
// errors whose sums coincide exactly.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace ftgemm {

/// One checksum entry whose reference and predicted values disagree.
struct Mismatch {
  std::int64_t idx;   ///< global row index (Cc) or column index (Cr)
  double delta;       ///< reference minus predicted
};

/// Whether a checksum residual d fails the tolerance test.  Written as
/// "not |d| <= tau" so a NaN residual (a fault that produced NaN, or Inf
/// minus Inf) is flagged: every ordered comparison with NaN is false.
inline bool outside_tolerance(double d, double tau) {
  return !(std::abs(d) <= tau);
}

/// Scan a checksum pair for entries differing by more than tau.
template <typename T>
void find_mismatches(const T* predicted, const T* reference,
                     std::int64_t count, double tau, std::int64_t base,
                     std::vector<Mismatch>& out) {
  for (std::int64_t i = 0; i < count; ++i) {
    const double d = double(reference[i]) - double(predicted[i]);
    if (outside_tolerance(d, tau)) out.push_back({base + i, d});
  }
}

/// One located error: the element (row, col) of C was perturbed by `delta`
/// (subtract it to correct).  row/col are the global indices carried by the
/// originating mismatches.
struct LocatedError {
  std::int64_t row;
  std::int64_t col;
  double delta;
};

/// Result of the error-assignment search.
struct SolveOutcome {
  bool solved = false;
  std::vector<LocatedError> errors;
};

/// Attempt to explain the observed row/column checksum mismatches as a set
/// of located errors.  `slack` absorbs floating-point noise when comparing
/// sums of deltas.
///
/// Two rules: (1) peel errors whose row and column deltas match each other
/// uniquely — handles arbitrarily many scattered errors with distinct
/// deltas; (2) whatever remains must lie on one row or one column whose
/// delta is the sum of the crossing deltas.  Anything else, and oversized
/// mismatch lists, yield solved = false (the caller treats the panel as
/// detected-but-uncorrectable).
SolveOutcome solve_error_assignment(const std::vector<Mismatch>& rows,
                                    const std::vector<Mismatch>& cols,
                                    double slack);

}  // namespace ftgemm
