// §2.2 headline table: fused vs unfused ABFT overhead.
//
// "By fusing the ABFT memory footprint, the FT overhead becomes purely
// computational, decreasing from about 15% to 2.94%."  This bench prints
// the overhead of both schemes over the same Ori GEMM, plus a breakdown of
// where the unfused scheme's extra memory passes go.
#include "bench_common.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

int main() {
  const int reps = bench_reps();
  print_header("ABFT overhead over Ori, percent (median GFLOPS basis)",
               "section 2.2 (15% -> ~3% claim)", 1,
               {"ori_GF", "fused_GF", "fused_%", "unfused_GF", "unfused_%"});

  GemmEngine<double> engine;
  engine.options().threads = 1;
  Options serial_opts;
  serial_opts.threads = 1;

  for (const index_t n : square_sizes(256)) {
    SquareWorkload<double> w(n);

    const double ori = median_gflops(n, n, n, reps, [&] {
      engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n,
                  n, 1.0, w.a.data(), n, w.b.data(), n, 0.0, w.c.data(), n);
    });
    const double fused = median_gflops(n, n, n, reps, [&] {
      engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                     n, n, 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                     w.c.data(), n);
    });
    const double unfused = median_gflops(n, n, n, reps, [&] {
      baseline::unfused_ft_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n,
                                 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                                 w.c.data(), n, serial_opts);
    });
    const double fused_pct = ori > 0 ? 100.0 * (ori - fused) / ori : 0.0;
    const double unfused_pct = ori > 0 ? 100.0 * (ori - unfused) / ori : 0.0;
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f%14.2f\n",
                static_cast<long long>(n), ori, fused, fused_pct, unfused,
                unfused_pct);
    std::fflush(stdout);
  }
  return 0;
}
