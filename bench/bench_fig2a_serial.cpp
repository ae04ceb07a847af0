// Fig 2(a): serial FT-DGEMM vs baseline libraries.
//
// Paper series: MKL, BLIS, OpenBLAS, FT-BLAS:Ori, FT-BLAS:FT on sizes
// 1024^2..10240^2.  MKL/OpenBLAS/BLIS are unavailable offline, so the
// stand-in baselines are (see docs/DESIGN.md §4): the naive triple loop, the
// cache-blocked portable GEMM, and the *unfused* classic-ABFT GEMM; the
// in-repo Ori and FT columns correspond directly to the paper's.
//
// Expected shape: ori >= blocked >> naive; ft within a few percent of ori;
// unfused-ABFT pays roughly an extra memory pass per checksum stage.
#include "bench_common.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

int main() {
  const int reps = bench_reps();
  print_header("serial DGEMM, GFLOPS (median)", "Fig 2(a)", 1,
               {"naive", "blocked", "unfused_ft", "ori", "ft",
                "ft_ovr_%"});

  GemmEngine<double> engine;
  engine.options().threads = 1;

  for (const index_t n : square_sizes(256)) {
    SquareWorkload<double> w(n);

    const double naive =
        n > 512 ? 0.0 : median_gflops(n, n, n, 1, [&] {
          baseline::naive_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n,
                                1.0, w.a.data(), n, w.b.data(), n, 0.0,
                                w.c.data(), n);
        });
    const double blocked = median_gflops(n, n, n, reps, [&] {
      baseline::blocked_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
                              w.a.data(), n, w.b.data(), n, 0.0, w.c.data(),
                              n);
    });
    Options serial_opts;
    serial_opts.threads = 1;
    const double unfused = median_gflops(n, n, n, reps, [&] {
      baseline::unfused_ft_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n,
                                 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                                 w.c.data(), n, serial_opts);
    });
    const double ori = median_gflops(n, n, n, reps, [&] {
      engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n,
                  n, 1.0, w.a.data(), n, w.b.data(), n, 0.0, w.c.data(), n);
    });
    const double ft = median_gflops(n, n, n, reps, [&] {
      engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                     n, n, 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                     w.c.data(), n);
    });
    const double overhead = ori > 0.0 ? 100.0 * (ori - ft) / ori : 0.0;
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f%14.2f%14.2f\n",
                static_cast<long long>(n), naive, blocked, unfused, ori, ft,
                overhead);
    std::fflush(stdout);
  }
  return 0;
}
