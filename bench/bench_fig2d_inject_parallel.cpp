// Fig 2(d): parallel DGEMM under error injection.
//
// Same regime as Fig 2(c) but with the threaded driver: injected errors land
// in different threads' row partitions, are gathered by the cross-thread Cr
// reduction before the panel verification, and a faulty panel's crossings
// are recomputed by the whole team.
//
// Each rep times Ori, clean FT and injected FT once each, back to back, in
// an order that rotates every rep, after an untimed empty team region has
// woken the team (see bench_fig2b_parallel).  Both FT series run through
// ft_dgemm_reliable, as the gating benchmark's gemm_inject pairs them.  The
// GFLOPS columns are medians over reps; inj_ovr_% is the median over reps
// of 100 * (1 - t_clean / t_inject), the cost of correcting 20 errors per
// call.  Every injected call's C is checked against Ori's, untimed; the
// harness exits non-zero when a size is not verified.
#include <functional>

#include "bench_common.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

int main() {
  const int reps = bench_reps();
  const int threads = bench_threads();
  print_header("parallel DGEMM with 20 injected errors, GFLOPS (median)",
               "Fig 2(d)", threads,
               {"ori", "ft", "ft_inject", "inj_ovr_%", "corrected",
                "verified"});

  Options opts;
  opts.threads = threads;
  GemmEngine<double> engine(opts);
  const auto idle = [](runtime::TeamMember&) {};
  bool all_verified = true;

  for (const index_t n : square_sizes(256)) {
    SquareWorkload<double> w(n);
    Matrix<double> ref(n, n), c_clean(n, n), c_inject(n, n);
    engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n,
                1.0, w.a.data(), n, w.b.data(), n, 0.0, ref.data(), n);

    CountInjector injector(20, 0xBEEF + std::uint64_t(n), 2.0);
    Options inject_opts = opts;
    inject_opts.injector = &injector;
    FtReport inject_rep;
    const std::function<void()> series[] = {
        [&] {
          engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                      n, n, 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                      w.c.data(), n);
        },
        [&] {
          ft_dgemm_reliable(Layout::kColMajor, Trans::kNoTrans,
                            Trans::kNoTrans, n, n, n, 1.0, w.a.data(), n,
                            w.b.data(), n, 0.0, c_clean.data(), n, opts);
        },
        [&] {
          inject_rep = ft_dgemm_reliable(
              Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n,
              1.0, w.a.data(), n, w.b.data(), n, 0.0, c_inject.data(), n,
              inject_opts);
        },
    };
    constexpr int kSeries = 3;
    constexpr int kClean = 1, kInject = 2;
    std::int64_t corrected = 0;
    bool verified = true;
    const auto check_inject = [&] {
      verified &= injected_call_verified(inject_rep, c_inject, ref, corrected);
    };
    for (const auto& fn : series) fn();  // warm-up (workspaces, plans)
    check_inject();

    std::vector<double> gflops[kSeries], overhead;
    for (int r = 0; r < reps; ++r) {
      double secs[kSeries];
      runtime::run_team(threads, idle);
      for (int i = 0; i < kSeries; ++i) {
        const int idx = (r + i) % kSeries;
        const WallTimer t;
        series[idx]();
        secs[idx] = t.seconds();
      }
      check_inject();
      for (int s = 0; s < kSeries; ++s) {
        gflops[s].push_back(
            gemm_gflops(double(n), double(n), double(n), secs[s]));
      }
      overhead.push_back(100.0 * (1.0 - secs[kClean] / secs[kInject]));
    }
    all_verified &= verified;
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f%14lld%14s\n",
                static_cast<long long>(n), compute_stats(gflops[0]).median,
                compute_stats(gflops[kClean]).median,
                compute_stats(gflops[kInject]).median,
                compute_stats(overhead).median,
                static_cast<long long>(corrected), verified ? "yes" : "NO");
    std::fflush(stdout);
  }
  return all_verified ? 0 : 1;
}
