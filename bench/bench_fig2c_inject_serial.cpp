// Fig 2(c): serial DGEMM under error injection.
//
// Paper setup (§3.2): 20 errors injected into the compute kernels per run,
// FT operating online, final result verified against a reference.  Series:
// the baselines (clean) vs "FT-BLAS: error injected".  The `verified`
// column reports whether every run ended clean with its corrected result
// equal to the fault-free Ori result to rounding tolerance — the
// reliability half of the claim; each call's C is checked, untimed, and the
// harness exits non-zero when a size is not verified.
#include <vector>

#include "bench_common.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

int main() {
  const int reps = bench_reps();
  print_header("serial DGEMM with 20 injected errors, GFLOPS (median)",
               "Fig 2(c)", 1,
               {"blocked", "unfused_ft", "ori", "ft_inject", "corrected",
                "verified"});

  GemmEngine<double> engine;
  engine.options().threads = 1;
  Options serial_opts;
  serial_opts.threads = 1;
  bool all_verified = true;

  for (const index_t n : square_sizes(256)) {
    SquareWorkload<double> w(n);

    // Fault-free reference for verification.
    Matrix<double> ref(n, n);
    ref.fill(0.0);
    engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n,
                1.0, w.a.data(), n, w.b.data(), n, 0.0, ref.data(), n);

    const double blocked = median_gflops(n, n, n, reps, [&] {
      baseline::blocked_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
                              w.a.data(), n, w.b.data(), n, 0.0, w.c.data(),
                              n);
    });
    const double unfused = median_gflops(n, n, n, reps, [&] {
      baseline::unfused_ft_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n,
                                 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                                 w.c.data(), n, serial_opts);
    });
    const double ori = median_gflops(n, n, n, reps, [&] {
      engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n,
                  n, 1.0, w.a.data(), n, w.b.data(), n, 0.0, w.c.data(), n);
    });

    // FT with 20 errors injected per multiplication (the paper's regime).
    CountInjector injector(20, 0xF00D + std::uint64_t(n), 2.0);
    GemmEngine<double> ft_engine;
    ft_engine.options().threads = 1;
    ft_engine.options().injector = &injector;
    std::int64_t corrected = 0;
    bool verified = true;
    std::vector<double> samples;
    for (int r = -1; r < reps; ++r) {  // r = -1: warm-up, checked, unsampled
      const WallTimer t;
      const FtReport rep = ft_engine.ft_gemm(
          Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
          w.a.data(), n, w.b.data(), n, 0.0, w.c.data(), n);
      const double secs = t.seconds();
      verified &= injected_call_verified(rep, w.c, ref, corrected);
      if (r >= 0)
        samples.push_back(gemm_gflops(double(n), double(n), double(n), secs));
    }
    const double ft_inject = compute_stats(samples).median;
    all_verified &= verified;

    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f%14lld%14s\n",
                static_cast<long long>(n), blocked, unfused, ori, ft_inject,
                static_cast<long long>(corrected), verified ? "yes" : "NO");
    std::fflush(stdout);
  }
  return all_verified ? 0 : 1;
}
