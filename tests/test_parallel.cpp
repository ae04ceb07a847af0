// Parallel FT-GEMM tests (§2.3): the same driver with threads > 1 must
// produce correct results, preserve FT guarantees, and partition work
// per the shared-B~/private-A~ scheme.  On a single-core CI machine the
// threads oversubscribe, which still exercises every synchronization path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/gemm_i8.hpp"
#include "core/plan.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::GemmCase;
using testing::Problem;
using testing::expect_matrix_near;
using testing::gemm_tolerance;
using testing::reference_result;

class ParallelSweep
    : public ::testing::TestWithParam<std::tuple<int, GemmCase>> {};

TEST_P(ParallelSweep, OriMatchesOracle) {
  const auto [threads, cs] = GetParam();
  Problem<double> p(cs);
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  Options opts;
  opts.threads = threads;
  dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c.data(), c.ld(),
        opts);
  expect_matrix_near(c, ref, gemm_tolerance<double>(cs.k),
                     "threads=" + std::to_string(threads) + " " + cs.name());
}

TEST_P(ParallelSweep, FtCleanAndMatchesOracle) {
  const auto [threads, cs] = GetParam();
  Problem<double> p(cs);
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  Options opts;
  opts.threads = threads;
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  EXPECT_TRUE(rep.clean()) << "threads=" << threads << " " << cs;
  EXPECT_EQ(rep.errors_detected, 0);
  expect_matrix_near(c, ref, gemm_tolerance<double>(cs.k),
                     "threads=" + std::to_string(threads) + " " + cs.name());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsTimesShapes, ParallelSweep,
    ::testing::Combine(
        ::testing::Values(2, 3, 4),
        ::testing::Values(GemmCase{128, 96, 300},
                          GemmCase{97, 203, 129},
                          // fewer M-rows than threads*MR: some threads idle
                          GemmCase{17, 64, 64},
                          GemmCase{256, 32, 512, Trans::kTrans,
                                   Trans::kNoTrans},
                          GemmCase{64, 64, 64, Trans::kNoTrans,
                                   Trans::kTrans, -1.5, 2.0})),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_" +
             GemmCase(std::get<1>(info.param)).name();
    });

TEST(ParallelFt, InjectionCorrectedAcrossThreadBoundaries) {
  // Errors in different threads' row partitions, same panel: the Cr
  // reduction and the single-threaded solve must see all of them.
  const GemmCase cs{128, 128, 128};
  Problem<double> p(cs);
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 5, 100, 2.0, 0},    // thread 0 rows
      {InjectionKind::kAddDelta, 0, 120, 3, -7.0, 0},   // last thread rows
  });
  Options opts;
  opts.threads = 4;
  opts.injector = &inj;
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  EXPECT_EQ(static_cast<std::size_t>(rep.errors_corrected), inj.injected_count());
  EXPECT_TRUE(rep.clean());
  expect_matrix_near(c, ref, gemm_tolerance<double>(cs.k), "corrected C");
}

TEST(ParallelFt, TwentyRandomErrorsWithFourThreads) {
  const GemmCase cs{192, 160, 384};
  CountInjector inj(20, 2024, 5.0);
  Problem<double> p(cs);
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  Options opts;
  opts.threads = 4;
  opts.injector = &inj;
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  EXPECT_EQ(inj.injected_count(), 20u);
  EXPECT_TRUE(rep.clean());
  expect_matrix_near(c, ref, gemm_tolerance<double>(cs.k), "corrected C");
}

TEST(ParallelFt, ResultsIdenticalAcrossThreadCounts) {
  // The M-partition changes which kernel instance computes each row, but
  // every row's FMA sequence is identical -> results must match bitwise.
  const GemmCase cs{160, 96, 320};
  Problem<double> p(cs);
  Matrix<double> c1 = p.c.clone();
  Matrix<double> c4 = p.c.clone();
  Options o1, o4;
  o1.threads = 1;
  o4.threads = 4;
  ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
           p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c1.data(),
           c1.ld(), o1);
  ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
           p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c4.data(),
           c4.ld(), o4);
  expect_matrix_near(c1, c4, 0.0, "1 vs 4 threads");
}

TEST(ParallelFt, MoreThreadsThanRowTiles) {
  // 8 threads, one MR tile of rows: most threads have empty M-partitions
  // yet still participate in packing and barriers.
  const GemmCase cs{16, 128, 256};
  Problem<double> p(cs);
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  Options opts;
  opts.threads = 8;
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  EXPECT_TRUE(rep.clean());
  expect_matrix_near(c, ref, gemm_tolerance<double>(cs.k), "idle threads");
}

/// General path at 4 threads with n = 3*NR of the call's plan: the B~
/// chunk partition leaves one member without columns, so it contributes a
/// zero Bc partial on every tier.  k = 3*512 + 17 runs at least three KC
/// panels on every tier (the planner clamps KC to at most 512).  Errors
/// struck into panel 1 only must be corrected there, every one of them,
/// and C must be bit-identical to the same call on one thread.  `call`
/// runs the precision's FT entry point with (m, n, k, opts, c) at beta = 0.
template <typename S, typename C, typename Out, typename Call>
void expect_panel_one_corrected_with_empty_chunk(double delta, Call&& call) {
  const auto options = [](int threads) {
    Options o;
    o.threads = threads;
    o.small_fast_path = false;
    return o;
  };
  const index_t nr = build_plan<S, C>(Trans::kNoTrans, Trans::kNoTrans, 64,
                                      64, 64, options(4), true)
                         .blocking.nr;
  const index_t m = 200, n = 3 * nr, k = 3 * 512 + 17;
  std::vector<Matrix<Out>> out;
  for (const int threads : {4, 1}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Options opts = options(threads);
    const GemmPlan<S, C> plan = build_plan<S, C>(
        Trans::kNoTrans, Trans::kNoTrans, m, n, k, opts, true);
    ASSERT_EQ(plan.blocking.nr, nr);
    ASSERT_EQ(plan.threads, threads);
    ASSERT_GE(plan.num_panels, 3);
    DeterministicInjector inj({
        {InjectionKind::kAddDelta, 1, 3, 1, delta, 0},
        {InjectionKind::kAddDelta, 1, m / 2, nr + 2, -delta, 0},
        {InjectionKind::kAddDelta, 1, m - 2, n - 1, 2.0 * delta, 0},
    });
    std::vector<CorrectionRecord> log;
    opts.injector = &inj;
    opts.correction_log = &log;
    Matrix<Out> c(m, n);
    c.fill_random(99);
    const FtReport rep = call(m, n, k, opts, c);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.panels, plan.num_panels);
    EXPECT_EQ(inj.injected_count(), 3u);
    EXPECT_EQ(static_cast<std::size_t>(rep.errors_corrected),
              inj.injected_count());
    EXPECT_FALSE(log.empty());
    for (const CorrectionRecord& r : log) EXPECT_EQ(r.panel, 1);
    out.push_back(std::move(c));
  }
  expect_matrix_near(out[0], out[1], 0.0, "4 threads vs 1");
}

/// Each precision's FT entry point at beta = 0 on fixed random operands:
/// the `call(m, n, k, opts, c)` the panel-1 helpers take.
FtReport ft_f64(index_t m, index_t n, index_t k, const Options& opts,
                Matrix<double>& c) {
  Matrix<double> a(m, k), b(k, n);
  a.fill_random(11);
  b.fill_random(12);
  return ft_dgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n,
                  k, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.0, c.data(),
                  c.ld(), opts);
}

FtReport ft_bf16(index_t m, index_t n, index_t k, const Options& opts,
                 Matrix<float>& c) {
  Matrix<float> a32(m, k), b32(k, n);
  a32.fill_random(13);
  b32.fill_random(14);
  Matrix<bf16_t> a(m, k), b(k, n);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) a(i, j) = bf16_t(a32(i, j));
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < k; ++i) b(i, j) = bf16_t(b32(i, j));
  return ft_gemm_bf16(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m,
                      n, k, 1.0f, a.data(), a.ld(), b.data(), b.ld(), 0.0f,
                      c.data(), c.ld(), opts);
}

FtReport ft_i8(index_t m, index_t n, index_t k, const Options& opts,
               Matrix<float>& c) {
  const Matrix<std::int8_t> a = testing::random_i8_matrix(m, k, 15);
  const Matrix<std::int8_t> b = testing::random_i8_matrix(k, n, 16);
  const QuantParams qp{0.125f, 0.25f, 3, -5};
  return ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m,
                    n, k, 1.0f, a.data(), a.ld(), b.data(), b.ld(), 0.0f,
                    c.data(), c.ld(), qp, opts);
}

TEST(ParallelFt, EmptyBChunkMemberPanelOneF64) {
  expect_panel_one_corrected_with_empty_chunk<double, double, double>(2.0,
                                                                      ft_f64);
}

TEST(ParallelFt, EmptyBChunkMemberPanelOneBf16) {
  expect_panel_one_corrected_with_empty_chunk<bf16_t, float, float>(64.0,
                                                                    ft_bf16);
}

TEST(ParallelFt, EmptyBChunkMemberPanelOneI8) {
  expect_panel_one_corrected_with_empty_chunk<std::int8_t, std::int32_t,
                                              float>(500.0, ft_i8);
}

/// Errors struck into panel 1, in units of the precision's delta, and
/// whether the repair must flag the panel.
struct RepairPattern {
  const char* name;
  std::vector<std::tuple<index_t, index_t, double>> errors;  ///< (i, j, units)
  bool flagged;
};

/// The team repair against the same call on one thread, at 2, 3 and 4
/// threads: general path, beta = 0, m = 200 so every member owns rows at 4
/// threads, k = 1.5 KC so the call has two panels and a flagged panel 1 is
/// its only flag.  The report counters, the correction log (record for
/// record, in order) and C must equal the one-thread run's; a pattern that
/// is not flagged must be corrected in full.
template <typename S, typename C, typename Out, typename Call>
void expect_team_repair_matches_one_thread(double delta, Call&& call) {
  const auto options = [](int threads) {
    Options o;
    o.threads = threads;
    o.small_fast_path = false;
    return o;
  };
  const index_t kc = build_plan<S, C>(Trans::kNoTrans, Trans::kNoTrans, 64,
                                      64, 4096, options(4), true)
                         .blocking.kc;
  const index_t m = 200, n = 96, k = kc + kc / 2;
  const RepairPattern patterns[] = {
      // |R| = 1: three of four members recompute nothing.
      {"one error", {{150, 40, 1}}, false},
      // Distinct rows and columns: the seven rows split unevenly.
      {"seven errors",
       {{5, 3, 1}, {37, 17, -1}, {70, 30, 2}, {101, 44, -2}, {133, 58, 3},
        {166, 71, -3}, {198, 90, 1}},
       false},
      {"row burst", {{120, 10, 1}, {120, 33, -2}, {120, 60, 3}, {120, 91, 1}},
       false},
      {"column burst",
       {{12, 50, 1}, {77, 50, 2}, {140, 50, -1}, {185, 50, 3}},
       false},
      // The pair cancels in column 20, so its rows cross only column 70:
      // the recompute fixes (100, 70) and rows 30 and 160 still mismatch.
      {"failed re-verification", {{30, 20, 1}, {160, 20, -1}, {100, 70, 2}},
       true},
  };
  for (const RepairPattern& pattern : patterns) {
    SCOPED_TRACE(pattern.name);
    std::vector<InjectionRecord> schedule;
    for (const auto& [i, j, units] : pattern.errors)
      schedule.push_back({InjectionKind::kAddDelta, 1, i, j, units * delta, 0});
    FtReport one;
    std::vector<CorrectionRecord> one_log;
    Matrix<Out> one_c;
    for (const int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Options opts = options(threads);
      const GemmPlan<S, C> plan = build_plan<S, C>(
          Trans::kNoTrans, Trans::kNoTrans, m, n, k, opts, true);
      ASSERT_EQ(plan.threads, threads);
      ASSERT_EQ(plan.num_panels, 2);
      ASSERT_GE((m + plan.blocking.mr - 1) / plan.blocking.mr, 4);
      DeterministicInjector inj(schedule);
      std::vector<CorrectionRecord> log;
      opts.injector = &inj;
      opts.correction_log = &log;
      Matrix<Out> c(m, n);
      c.fill_random(99);
      const FtReport rep = call(m, n, k, opts, c);
      EXPECT_EQ(inj.injected_count(), schedule.size());
      if (pattern.flagged) {
        EXPECT_EQ(rep.uncorrectable_panels, 1);
      } else {
        EXPECT_TRUE(rep.clean());
        EXPECT_EQ(static_cast<std::size_t>(rep.errors_corrected),
                  schedule.size());
      }
      if (threads == 1) {
        one = rep;
        one_log = log;
        one_c = std::move(c);
        continue;
      }
      EXPECT_EQ(rep.panels, one.panels);
      EXPECT_EQ(rep.errors_detected, one.errors_detected);
      EXPECT_EQ(rep.errors_corrected, one.errors_corrected);
      EXPECT_EQ(rep.uncorrectable_panels, one.uncorrectable_panels);
      ASSERT_EQ(log.size(), one_log.size());
      for (std::size_t r = 0; r < log.size(); ++r) {
        SCOPED_TRACE("record " + std::to_string(r));
        EXPECT_EQ(log[r].panel, one_log[r].panel);
        EXPECT_EQ(log[r].round, one_log[r].round);
        EXPECT_EQ(log[r].i, one_log[r].i);
        EXPECT_EQ(log[r].j, one_log[r].j);
        EXPECT_EQ(log[r].delta, one_log[r].delta);
      }
      expect_matrix_near(c, one_c, 0.0, "vs 1 thread");
    }
  }
}

TEST(ParallelFt, TeamRepairMatchesOneThreadF64) {
  expect_team_repair_matches_one_thread<double, double, double>(2.0, ft_f64);
}

TEST(ParallelFt, TeamRepairMatchesOneThreadBf16) {
  expect_team_repair_matches_one_thread<bf16_t, float, float>(64.0, ft_bf16);
}

TEST(ParallelFt, TeamRepairMatchesOneThreadI8) {
  expect_team_repair_matches_one_thread<std::int8_t, std::int32_t, float>(
      500.0, ft_i8);
}

}  // namespace
}  // namespace ftgemm
