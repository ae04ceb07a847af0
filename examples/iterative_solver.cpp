// Example: Jacobi iteration on a diagonally dominant system, with every
// matrix product protected by FT-GEMM while a background fault rate fires.
//
// Iterative solvers are the canonical ABFT motivation: a single silent
// error early in the iteration poisons every subsequent iterate.  Here we
// run the same solve twice — protected and unprotected — under the same
// deterministic fault schedule, and print the residual histories.
//
//   build/examples/iterative_solver [n] [iters]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ftgemm.hpp"

using namespace ftgemm;

namespace {

/// Residual ||b - A x||_2.
double residual_norm(const Matrix<double>& a, const Matrix<double>& x,
                     const Matrix<double>& b) {
  const index_t n = a.rows();
  Matrix<double> r = b.clone();
  dgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, 1, n, -1.0,
        a.data(), a.ld(), x.data(), x.ld(), 1.0, r.data(), r.ld());
  double sum = 0.0;
  for (index_t i = 0; i < n; ++i) sum += r(i, 0) * r(i, 0);
  return std::sqrt(sum);
}

/// One protected Jacobi sweep: x' = D^{-1} (b - R x), with the R*x product
/// running under ft_dgemm (R = A with zeroed diagonal).
void jacobi_sweep(const Matrix<double>& r_mat, const Matrix<double>& diag,
                  const Matrix<double>& b, Matrix<double>& x,
                  Matrix<double>& scratch, const Options& opts,
                  FtReport* total) {
  const index_t n = r_mat.rows();
  scratch = b.clone();
  const FtReport rep = ft_dgemm(Layout::kColMajor, Trans::kNoTrans,
                                Trans::kNoTrans, n, 1, n, -1.0, r_mat.data(),
                                r_mat.ld(), x.data(), x.ld(), 1.0,
                                scratch.data(), scratch.ld(), opts);
  total->errors_detected += rep.errors_detected;
  total->errors_corrected += rep.errors_corrected;
  total->uncorrectable_panels += rep.uncorrectable_panels;
  for (index_t i = 0; i < n; ++i) x(i, 0) = scratch(i, 0) / diag(i, 0);
}

}  // namespace

int main(int argc, char** argv) {
  const index_t n = argc > 1 ? std::atoll(argv[1]) : 768;
  const int iters = argc > 2 ? std::atoi(argv[2]) : 30;

  // Diagonally dominant A; R = off-diagonal part.
  Matrix<double> a(n, n);
  a.fill_random(11, -1.0, 1.0);
  Matrix<double> diag(n, 1);
  Matrix<double> r_mat = a.clone();
  for (index_t i = 0; i < n; ++i) {
    a(i, i) = double(n);
    diag(i, 0) = a(i, i);
    r_mat(i, i) = 0.0;
  }
  Matrix<double> b(n, 1);
  b.fill_random(12);
  Matrix<double> x(n, 1), scratch(n, 1);
  x.fill(0.0);

  std::printf("Jacobi solve, n=%lld, %d iterations, faults injected "
              "continuously\n", (long long)n, iters);
  std::printf("%-6s%18s%14s%14s\n", "iter", "residual", "detected",
              "corrected");

  CountInjector injector(/*errors per product=*/2, /*seed=*/2718,
                         /*magnitude=*/50.0);
  Options opts;
  opts.injector = &injector;

  FtReport total;
  for (int it = 1; it <= iters; ++it) {
    jacobi_sweep(r_mat, diag, b, x, scratch, opts, &total);
    if (it % 5 == 0 || it == 1) {
      std::printf("%-6d%18.6e%14lld%14lld\n", it, residual_norm(a, x, b),
                  (long long)total.errors_detected,
                  (long long)total.errors_corrected);
    }
  }

  const double final_res = residual_norm(a, x, b);
  std::printf("\nfinal residual %.3e with %lld corrected soft errors "
              "(uncorrectable panels: %d)\n",
              final_res, (long long)total.errors_corrected,
              total.uncorrectable_panels);

  // The punchline: the same iteration without protection, same fault
  // schedule, diverges or stalls.
  injector.clear_log();
  Matrix<double> x_unprot(n, 1);
  x_unprot.fill(0.0);
  for (int it = 1; it <= iters; ++it) {
    scratch = b.clone();
    dgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, 1, n, -1.0,
          r_mat.data(), r_mat.ld(), x_unprot.data(), x_unprot.ld(), 1.0,
          scratch.data(), scratch.ld(), opts);
    for (index_t i = 0; i < n; ++i)
      x_unprot(i, 0) = scratch(i, 0) / diag(i, 0);
  }
  std::printf("unprotected run under the same faults: residual %.3e\n",
              residual_norm(a, x_unprot, b));
  return final_res < 1e-6 ? 0 : 1;
}
