#include "baseline/unfused_abft.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/tolerance.hpp"
#include "abft/verifier.hpp"
#include "core/gemm.hpp"
#include "util/timer.hpp"

namespace ftgemm::baseline {

namespace {

template <typename T>
double amax_region(const OperandView<T>& v, index_t rows, index_t cols) {
  double amax = 0.0;
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i)
      amax = std::max(amax, std::abs(double(v.at(i, j))));
  return amax;
}

template <typename T>
FtReport unfused(Trans ta, Trans tb, index_t m, index_t n, index_t k, T alpha,
                 const T* a, index_t lda, const T* b, index_t ldb, T beta,
                 T* c, index_t ldc, const Options& opts) {
  FtReport report;
  if (m <= 0 || n <= 0) return report;
  const WallTimer timer;

  const OperandView<T> av{a, lda, ta == Trans::kTrans};
  const OperandView<T> bv{b, ldb, tb == Trans::kTrans};

  // (1)+(2): scale C, then encode its checksums in separate passes.
  for (index_t j = 0; j < n; ++j) {
    T* __restrict__ col = c + j * ldc;
    if (beta == T(0)) {
      for (index_t i = 0; i < m; ++i) col[i] = T(0);
    } else if (beta != T(1)) {
      for (index_t i = 0; i < m; ++i) col[i] *= beta;
    }
  }
  std::vector<T> cc(static_cast<std::size_t>(m));
  std::vector<T> cr(static_cast<std::size_t>(n));
  encode_cc_standalone(c, ldc, m, n, cc.data());
  encode_cr_standalone(c, ldc, m, n, cr.data());

  // (3): operand checksums, separate passes.
  std::vector<T> ar(std::size_t(std::max<index_t>(k, 1)), T(0));
  std::vector<T> bc(std::size_t(std::max<index_t>(k, 1)), T(0));
  for (index_t p = 0; p < k; ++p) {
    T sum = T(0);
    for (index_t i = 0; i < m; ++i) sum += av.at(i, p);
    ar[std::size_t(p)] = alpha * sum;
  }
  encode_bc_standalone(bv, k, n, bc.data());

  // (4): push the checksums through the multiplication.
  checksum_gemv(av, m, k, alpha, bc.data(), cc.data());
  checksum_gevm(bv, k, n, T(1), ar.data(), cr.data());

  // (5): the unprotected high-performance GEMM.  C was already scaled by
  // beta in step (1), so the driver runs with beta = 1.  The injector, if
  // any, rides along and corrupts C just like it would a real kernel.
  if constexpr (sizeof(T) == 8) {
    dgemm(Layout::kColMajor, ta, tb, m, n, k, alpha, a, lda, b, ldb, T(1),
          c, ldc, opts);
  } else {
    sgemm(Layout::kColMajor, ta, tb, m, n, k, alpha, a, lda, b, ldb, T(1),
          c, ldc, opts);
  }

  // (6): reference checksums and verification.  The classic scheme has no
  // recompute step (step (1) overwrote C0): only the delta rules of
  // solve_error_assignment run, and anything they cannot pin is flagged.
  std::vector<T> ccref(static_cast<std::size_t>(m));
  std::vector<T> crref(static_cast<std::size_t>(n));
  encode_cc_standalone(c, ldc, m, n, ccref.data());
  encode_cr_standalone(c, ldc, m, n, crref.data());

  const double factor = opts.tolerance_factor > 0.0
                            ? opts.tolerance_factor
                            : default_tolerance_factor_for<T>();
  const double amax_a = amax_region(av, m, k);
  const double amax_b = amax_region(bv, k, n);
  const auto tol = ToleranceModel<T>::compute(
      m, n, k, amax_a, amax_b, /*amax_c0=*/0.0, double(alpha), double(beta),
      factor);

  std::vector<Mismatch> rows, cols;
  find_mismatches(cc.data(), ccref.data(), m, tol.cc_tau, 0, rows);
  find_mismatches(cr.data(), crref.data(), n, tol.cr_tau, 0, cols);
  report.panels = 1;
  if (!rows.empty() || !cols.empty()) {
    const double slack = std::max(tol.cc_tau, tol.cr_tau) *
                         double(2 + rows.size() + cols.size());
    const SolveOutcome outcome = solve_error_assignment(rows, cols, slack);
    if (outcome.solved) {
      report.errors_detected = std::int64_t(outcome.errors.size());
      for (const LocatedError& err : outcome.errors) {
        c[err.row + err.col * ldc] -= T(err.delta);
        ++report.errors_corrected;
      }
    } else {
      report.errors_detected =
          std::int64_t(std::max(rows.size(), cols.size()));
      report.uncorrectable_panels = 1;
    }
  }
  report.elapsed_seconds = timer.seconds();
  return report;
}

}  // namespace

FtReport unfused_ft_dgemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                          double alpha, const double* a, index_t lda,
                          const double* b, index_t ldb, double beta,
                          double* c, index_t ldc, const Options& opts) {
  return unfused<double>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                         opts);
}

FtReport unfused_ft_sgemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                          float alpha, const float* a, index_t lda,
                          const float* b, index_t ldb, float beta, float* c,
                          index_t ldc, const Options& opts) {
  return unfused<float>(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
                        opts);
}

}  // namespace ftgemm::baseline
