// §2.2 headline table: fused vs unfused ABFT overhead.
//
// "By fusing the ABFT memory footprint, the FT overhead becomes purely
// computational, decreasing from about 15% to 2.94%."  This bench prints
// the overhead of both schemes over the same Ori GEMM, and the fused
// scheme's overhead at beta = 1, where the FT call also keeps a copy of
// beta*C0 for its repair.
//
// Every rep times five calls back to back, in an order that rotates every
// rep: Ori and fused FT at beta = 0, Ori and fused FT at beta = 1, and the
// unfused scheme at beta = 0.  Each beta = 1 call starts from the same C0,
// restored untimed just before it.  The GFLOPS columns are beta = 0
// medians; each `_%` column is 100 * (median per-rep t_FT / t_Ori - 1)
// against the Ori call of its beta.  The harness exits 1 unless every FT
// call leaves C bit-identical to its Ori call and reports clean.
#include <cstring>
#include <functional>

#include "bench_common.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

int main() {
  const int reps = bench_reps();
  print_header("ABFT overhead over Ori, percent (median per-rep time ratio)",
               "section 2.2 (paper: unfused ~15%, fused 2.94%)", 1,
               {"ori_GF", "fused_GF", "fused_%", "fused_b1_%", "unfused_GF",
                "unfused_%"});

  GemmEngine<double> engine;
  engine.options().threads = 1;
  Options serial_opts;
  serial_opts.threads = 1;

  bool ok = true;
  for (const index_t n : square_sizes(256)) {
    SquareWorkload<double> w(n);
    Matrix<double> c0(n, n);
    c0.fill_random(7);
    enum { kOri, kFt, kOriB1, kFtB1, kUnfused, kSeries };
    Matrix<double> c[kSeries];
    for (Matrix<double>& m : c) m = Matrix<double>(n, n);
    const auto ori = [&](double beta, Matrix<double>& out) {
      engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n,
                  n, 1.0, w.a.data(), n, w.b.data(), n, beta, out.data(), n);
    };
    const auto ft = [&](double beta, Matrix<double>& out) {
      ok &= engine
                .ft_gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
                         n, n, n, 1.0, w.a.data(), n, w.b.data(), n, beta,
                         out.data(), n)
                .clean();
    };
    const std::function<void()> series[kSeries] = {
        [&] { ori(0.0, c[kOri]); },
        [&] { ft(0.0, c[kFt]); },
        [&] { ori(1.0, c[kOriB1]); },
        [&] { ft(1.0, c[kFtB1]); },
        [&] {
          ok &= baseline::unfused_ft_dgemm(
                    Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
                    w.a.data(), n, w.b.data(), n, 0.0, c[kUnfused].data(), n,
                    serial_opts)
                    .clean();
        },
    };
    const std::size_t bytes = sizeof(double) * std::size_t(n * n);
    const auto run = [&](int s) {
      if (s == kOriB1 || s == kFtB1)
        std::memcpy(c[s].data(), c0.data(), bytes);
      const WallTimer t;
      series[s]();
      return t.seconds();
    };
    const auto same = [&](int x, int y) {
      return std::memcmp(c[x].data(), c[y].data(), bytes) == 0;
    };

    for (int s = 0; s < kSeries; ++s) run(s);  // warm-up (workspaces, plans)
    std::vector<double> secs[kSeries], fused, fused_b1, unfused;
    for (int r = 0; r < reps; ++r) {
      double t[kSeries];
      for (int i = 0; i < kSeries; ++i) {
        const int s = (r + i) % kSeries;
        t[s] = run(s);
      }
      for (int s = 0; s < kSeries; ++s) secs[s].push_back(t[s]);
      fused.push_back(t[kFt] / t[kOri]);
      fused_b1.push_back(t[kFtB1] / t[kOriB1]);
      unfused.push_back(t[kUnfused] / t[kOri]);
      ok &= same(kFt, kOri) && same(kFtB1, kOriB1) && same(kUnfused, kOri);
    }

    const auto gflops = [n](const std::vector<double>& s) {
      return gemm_gflops(double(n), double(n), double(n),
                         compute_stats(s).median);
    };
    const auto pct = [](const std::vector<double>& r) {
      return 100.0 * (compute_stats(r).median - 1.0);
    };
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f%14.2f%14.2f\n",
                static_cast<long long>(n), gflops(secs[kOri]),
                gflops(secs[kFt]), pct(fused), pct(fused_b1),
                gflops(secs[kUnfused]), pct(unfused));
    std::fflush(stdout);
  }
  if (!ok) {
    std::fprintf(stderr,
                 "bench_overhead: an FT call's C differs from its Ori call's "
                 "or its report is not clean\n");
    return 1;
  }
  return 0;
}
