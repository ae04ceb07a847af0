// Extension bench: single-precision FT-SGEMM sweep.
//
// The poster evaluates DGEMM; the FT-BLAS foundation also ships SGEMM, and
// the fusion argument is precision-independent (wider vectors, same
// compute/memory gap).  This bench mirrors Fig 2(a) in f32 — note the
// coarser checksum granularity documented in abft/tolerance.hpp.
#include "bench_common.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

int main() {
  const int reps = bench_reps();
  print_header("serial SGEMM, GFLOPS (median)", "Fig 2(a), f32 extension",
               1, {"blocked", "ori", "ft", "ft_ovr_%"});

  GemmEngine<float> engine;
  engine.options().threads = 1;

  for (const index_t n : square_sizes(256)) {
    SquareWorkload<float> w(n);

    const double blocked = median_gflops(n, n, n, reps, [&] {
      baseline::blocked_sgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n,
                              1.0f, w.a.data(), n, w.b.data(), n, 0.0f,
                              w.c.data(), n);
    });
    const double ori = median_gflops(n, n, n, reps, [&] {
      engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n,
                  n, 1.0f, w.a.data(), n, w.b.data(), n, 0.0f, w.c.data(),
                  n);
    });
    const double ft = median_gflops(n, n, n, reps, [&] {
      engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                     n, n, 1.0f, w.a.data(), n, w.b.data(), n, 0.0f,
                     w.c.data(), n);
    });
    const double overhead = ori > 0.0 ? 100.0 * (ori - ft) / ori : 0.0;
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f\n",
                static_cast<long long>(n), blocked, ori, ft, overhead);
    std::fflush(stdout);
  }
  return 0;
}
