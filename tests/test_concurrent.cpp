// Concurrent application threads as first-class submitters: N std::threads
// issue mixed (FT-)GEMM entry points simultaneously against the process-wide
// leased context pool, every result is verified, and the pool's accounting
// must balance afterwards.  This is the serving regime the context-leasing
// and team-runtime layers exist for: every submitter leads its own teams.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/gemm_batched.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::GemmCase;
using testing::Problem;
using testing::gemm_tolerance;
using testing::reference_result;

/// One submitter's workload: a fixed rotation of entry points, precisions
/// and team sizes, each call verified against the naive oracle.  All
/// shapes are deterministic functions of (id, iter) so failures reproduce.
void submitter(int id, int iters, std::atomic<int>& failures) {
  const auto note = [&](bool ok) {
    if (!ok) failures.fetch_add(1);
  };
  for (int it = 0; it < iters; ++it) {
    Options opts;
    opts.threads = 1 + (id + it) % 3;  // 1..3-member teams
    const std::uint64_t seed = std::uint64_t(1000 * id + it);
    switch ((id + it) % 4) {
      case 0: {  // ft_dgemm, multi-panel shape
        const GemmCase cs{96 + 8 * (id % 3), 80, 260};
        Problem<double> p(cs, seed);
        const Matrix<double> ref = reference_result(cs, p);
        Matrix<double> c = p.c.clone();
        const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m,
                                      cs.n, cs.k, cs.alpha, p.a.data(),
                                      p.a.ld(), p.b.data(), p.b.ld(),
                                      cs.beta, c.data(), c.ld(), opts);
        note(rep.clean() && rep.errors_detected == 0);
        note(max_rel_diff(c, ref) <= gemm_tolerance<double>(cs.k));
        break;
      }
      case 1: {  // ft_sgemm, small protected GEMM (fast-path regime)
        const GemmCase cs{48, 40, 64, Trans::kNoTrans, Trans::kTrans, 1.25,
                          -0.5};
        Problem<float> p(cs, seed);
        const Matrix<float> ref = reference_result(cs, p);
        Matrix<float> c = p.c.clone();
        const FtReport rep = ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m,
                                      cs.n, cs.k, float(cs.alpha),
                                      p.a.data(), p.a.ld(), p.b.data(),
                                      p.b.ld(), float(cs.beta), c.data(),
                                      c.ld(), opts);
        note(rep.clean());
        note(max_rel_diff(c, ref) <= gemm_tolerance<float>(cs.k));
        break;
      }
      case 2: {  // ft_dgemm_reliable
        const GemmCase cs{64, 96, 150, Trans::kTrans, Trans::kNoTrans};
        Problem<double> p(cs, seed);
        const Matrix<double> ref = reference_result(cs, p);
        Matrix<double> c = p.c.clone();
        const FtReport rep = ft_dgemm_reliable(
            Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
            p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c.data(),
            c.ld(), opts);
        note(rep.clean());
        note(max_rel_diff(c, ref) <= gemm_tolerance<double>(cs.k));
        break;
      }
      default: {  // strided-batched FT, inter-batch teams on the runtime
        const index_t n = 32, batch = 6;
        const GemmCase whole{n, n * batch, n};
        Problem<double> p(whole, seed);
        const Matrix<double> ref = reference_result(whole, p);
        Matrix<double> c = p.c.clone();
        BatchOptions bopts;
        bopts.base = opts;
        bopts.base.threads = 2;
        bopts.inject_problem = -1;
        const BatchReport rep = ft_gemm_strided_batched<double>(
            Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n,
            1.0, p.a.data(), p.a.ld(), 0, p.b.data(), p.b.ld(),
            n * p.b.ld(), 0.0, c.data(), c.ld(), n * c.ld(), batch, bopts);
        note(rep.problems == batch && rep.dirty_problems == 0);
        // The broadcast-A strided batch computes the same values as one
        // wide GEMM against B's concatenated panels.
        note(max_rel_diff(c, ref) <= gemm_tolerance<double>(n));
        break;
      }
    }
  }
}

TEST(ConcurrentSubmitters, MixedEntryPointsAllVerified) {
  const int kThreads = 6;
  const int kIters = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back(submitter, id, kIters, std::ref(failures));
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0)
      << failures.load() << " verification failures across "
      << kThreads * kIters << " concurrent calls";

  // Every lease returned: the pool's accounting balances once all
  // submitters are done, and workspace count is bounded by the peak
  // concurrency, not by total call volume.
  EXPECT_EQ(process_context_cache<double>().outstanding(), 0);
  EXPECT_EQ(process_context_cache<float>().outstanding(), 0);
  EXPECT_LE(process_context_cache<float>().size(), kThreads);
}

TEST(ConcurrentSubmitters, RecurringShapeIsPlannedOnceProcessWide) {
  // Hammer one fingerprint from many threads: the shared PlanCache must
  // build it exactly once — the misses a per-thread cache would multiply.
  const GemmCase cs{64, 64, 64};
  Problem<float> p(cs, 5);
  const std::uint64_t misses_before =
      process_context_cache<float>().plan_misses();

  const int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&] {
      for (int it = 0; it < 4; ++it) {
        Matrix<float> c = p.c.clone();
        Options opts;
        opts.threads = 1;
        sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
              float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
              float(cs.beta), c.data(), c.ld(), opts);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(process_context_cache<float>().plan_misses(), misses_before + 1)
      << "32 concurrent calls of one shape must plan exactly once";
  EXPECT_EQ(process_context_cache<float>().outstanding(), 0);
}

}  // namespace
}  // namespace ftgemm
