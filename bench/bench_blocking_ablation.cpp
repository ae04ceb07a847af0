// Ablation: sensitivity of Ori / FT performance to the cache-blocking plan.
//
// §2.1: "the step sizes of these three for loops, MC, NC, and KC ... is
// determined by the size of each layer of the cache."  This bench sweeps KC
// and MC around the cache-derived defaults to show the plan sits at (or
// near) the optimum, and that the FT scheme's overhead is insensitive to
// the plan — the fusion argument is about memory passes, not tile shapes.
#include <cstdlib>

#include "bench_common.hpp"
#include "blocking/plan.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

namespace {

double run_point(index_t n, int reps, bool ft, SquareWorkload<double>& w) {
  // A fresh engine per point: FTGEMM_* knobs are read at plan-build time and
  // a warm PlanCache would mask the override, so start from an empty cache.
  GemmEngine<double> engine;
  engine.options().threads = 1;
  return median_gflops(n, n, n, reps, [&] {
    if (ft) {
      engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                     n, n, 1.0, w.a.data(), n, w.b.data(), n, 0.0,
                     w.c.data(), n);
    } else {
      engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n,
                  n, 1.0, w.a.data(), n, w.b.data(), n, 0.0, w.c.data(), n);
    }
  });
}

}  // namespace

int main() {
  const int reps = bench_reps();
  const index_t n = std::min<index_t>(env_long("FTGEMM_BENCH_MAX", 1024),
                                      1024);
  const BlockingPlan base = make_plan(select_isa(), 8);
  std::printf("# blocking ablation at %lldx%lldx%lld (defaults: MC=%lld "
              "NC=%lld KC=%lld)\n",
              (long long)n, (long long)n, (long long)n, (long long)base.mc,
              (long long)base.nc, (long long)base.kc);
  std::printf("%-12s%-8s%14s%14s%14s\n", "param", "value", "ori_GF", "ft_GF",
              "ft_ovr_%");

  SquareWorkload<double> w(n);

  const auto run_with = [&](const char* var, long value) {
    ::setenv(var, std::to_string(value).c_str(), 1);
    const double ori = run_point(n, reps, false, w);
    const double ft = run_point(n, reps, true, w);
    ::unsetenv(var);
    std::printf("%-12s%-8ld%14.2f%14.2f%14.2f\n", var + 7 /* skip FTGEMM_ */,
                value, ori, ft, ori > 0 ? 100.0 * (ori - ft) / ori : 0.0);
    std::fflush(stdout);
  };

  for (const long kc : {64L, 128L, 256L, 384L, 512L}) run_with("FTGEMM_KC", kc);
  for (const long mc : {32L, 64L, 128L, 256L, 512L}) run_with("FTGEMM_MC", mc);
  for (const long nc : {512L, 1024L, 4096L, 8192L}) run_with("FTGEMM_NC", nc);
  return 0;
}
