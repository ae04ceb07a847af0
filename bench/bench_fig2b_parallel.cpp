// Fig 2(b): parallel FT-DGEMM.
//
// Paper series: MKL, BLIS, OpenBLAS, FT-BLAS:Ori, FT-BLAS:FT on 512^2..
// 20480^2 with all cores.  Our parallel driver implements the paper's
// shared-B~/private-A~ scheme (§2.3); on a single-core CI VM the thread
// count is 1 and absolute scaling is not observable, but the code path, the
// Bc reduction and the parallel verification are all exercised, and the
// FT-vs-Ori overhead column is the paper's headline claim (1.79%).
//
// Each rep times blocked, Ori and FT once each, back to back, so the three
// series share the machine's state; Ori and FT swap places every rep.
// Blocked runs first and is serial, long enough for an idle team to go to
// sleep, so an empty team region wakes the team, untimed, before Ori and
// FT: otherwise whichever follows blocked also pays for the wake-up, which
// at 256^2 is a tenth of the call.  The GFLOPS columns are medians over
// reps; ft_ovr_% is the median over reps of the per-rep overhead
// 100 * (1 - t_ori / t_ft), not a ratio of medians.
#include <functional>

#include "bench_common.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

int main() {
  const int reps = bench_reps();
  const int threads = bench_threads();
  print_header("parallel DGEMM, GFLOPS (median)", "Fig 2(b)", threads,
               {"blocked", "ori", "ft", "ft_ovr_%"});

  Options opts;
  opts.threads = threads;
  GemmEngine<double> engine(opts);
  const auto idle = [](runtime::TeamMember&) {};

  for (const index_t n : square_sizes(256)) {
    SquareWorkload<double> w(n);
    const std::function<void()> series[] = {
        [&] {
          baseline::blocked_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n,
                                  1.0, w.a.data(), n, w.b.data(), n, 0.0,
                                  w.c.data(), n);
        },
        [&] {
          engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                      n, n, 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                      w.c.data(), n);
        },
        [&] {
          engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
                         n, n, n, 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                         w.c.data(), n);
        },
    };
    constexpr int kSeries = 3;
    constexpr int kOri = 1, kFt = 2;
    for (const auto& fn : series) fn();  // warm-up (workspaces, plans)

    std::vector<double> gflops[kSeries], overhead;
    for (int r = 0; r < reps; ++r) {
      const int order[kSeries] = {0, r % 2 == 0 ? kOri : kFt,
                                  r % 2 == 0 ? kFt : kOri};
      double secs[kSeries];
      for (const int idx : order) {
        if (idx == order[1]) runtime::run_team(threads, idle);
        const WallTimer t;
        series[idx]();
        secs[idx] = t.seconds();
      }
      for (int s = 0; s < kSeries; ++s) {
        gflops[s].push_back(
            gemm_gflops(double(n), double(n), double(n), secs[s]));
      }
      overhead.push_back(100.0 * (1.0 - secs[kOri] / secs[kFt]));
    }
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f\n",
                static_cast<long long>(n), compute_stats(gflops[0]).median,
                compute_stats(gflops[kOri]).median,
                compute_stats(gflops[kFt]).median,
                compute_stats(overhead).median);
    std::fflush(stdout);
  }
  return 0;
}
