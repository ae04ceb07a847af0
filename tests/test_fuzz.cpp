// Randomized property sweeps ("fuzz"): arbitrary shapes, scalars,
// transposes and fault patterns — deterministic by default.  The sweep
// seeds derive from FTGEMM_TEST_SEED (unset = the fixed suite default, so
// every run replays the same cases); a failing expectation prints the seed
// to reproduce with.  The whole binary stays under the `slow` ctest label.
// Each iteration asserts the two core invariants end-to-end:
//   (1) ft_dgemm equals the naive oracle on clean runs,
//   (2) under random injection the result is either corrected to the
//       oracle or the report flags the run — never silently wrong.
// Also pins the correction log to the injector's ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "test_common.hpp"
#include "core/gemm_i8.hpp"
#include "inject/injectors.hpp"

namespace ftgemm {
namespace {

using testing::GemmCase;
using testing::Problem;
using testing::expect_matrix_near;
using testing::gemm_tolerance;
using testing::reference_result;
using testing::seed_note;

/// Eight sweep seeds fanned out from the base seed.  The default base (11,
/// stride 11) reproduces the suite's historical fixed seeds exactly;
/// FTGEMM_TEST_SEED=<base> replays any CI failure locally.
std::vector<std::uint64_t> sweep_seeds() {
  const std::uint64_t base = testing::test_seed(11);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 8; ++i) seeds.push_back(base + 11 * i);
  return seeds;
}

GemmCase random_case(Xoshiro256& rng) {
  GemmCase cs{1 + index_t(rng.bounded(200)), 1 + index_t(rng.bounded(200)),
              1 + index_t(rng.bounded(300))};
  cs.ta = rng.uniform() < 0.5 ? Trans::kNoTrans : Trans::kTrans;
  cs.tb = rng.uniform() < 0.5 ? Trans::kNoTrans : Trans::kTrans;
  const double alphas[] = {1.0, -1.0, 0.5, 2.0, 0.0};
  const double betas[] = {0.0, 1.0, -0.5, 2.0};
  cs.alpha = alphas[rng.bounded(5)];
  cs.beta = betas[rng.bounded(4)];
  return cs;
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, CleanRunsMatchOracle) {
  Xoshiro256 rng(GetParam());
  for (int iter = 0; iter < 8; ++iter) {
    const GemmCase cs = random_case(rng);
    Problem<double> p(cs, rng.next());
    const Matrix<double> ref = reference_result(cs, p);
    Matrix<double> c = p.c.clone();
    const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m,
                                  cs.n, cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                  p.b.data(), p.b.ld(), cs.beta, c.data(),
                                  c.ld());
    EXPECT_TRUE(rep.clean()) << cs << seed_note(GetParam());
    EXPECT_EQ(rep.errors_detected, 0) << cs << seed_note(GetParam());
    expect_matrix_near(c, ref, gemm_tolerance<double>(cs.k),
                       cs.name() + seed_note(GetParam()));
  }
}

TEST_P(FuzzSweep, InjectedRunsNeverSilentlyWrong) {
  Xoshiro256 rng(GetParam() ^ 0xABCDEF);
  for (int iter = 0; iter < 6; ++iter) {
    GemmCase cs = random_case(rng);
    // Injection needs a non-degenerate product.
    cs.alpha = cs.alpha == 0.0 ? 1.0 : cs.alpha;
    cs.m = std::max<index_t>(cs.m, 8);
    cs.n = std::max<index_t>(cs.n, 8);
    cs.k = std::max<index_t>(cs.k, 8);
    Problem<double> p(cs, rng.next());
    const Matrix<double> ref = reference_result(cs, p);
    Matrix<double> c = p.c.clone();
    CountInjector inj(int(1 + rng.bounded(8)), rng.next(), 5.0);
    Options opts;
    opts.injector = &inj;
    const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m,
                                  cs.n, cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                  p.b.data(), p.b.ld(), cs.beta, c.data(),
                                  c.ld(), opts);
    const double err = max_rel_diff(c, ref);
    if (rep.clean()) {
      EXPECT_LE(err, std::max(gemm_tolerance<double>(cs.k), 1e-10))
          << cs << " injected=" << inj.injected_count()
          << seed_note(GetParam());
    }
    // Dirty reports are allowed (pathological patterns) — silent corruption
    // is not: a large error with a clean report is the only failure mode.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::ValuesIn(sweep_seeds()));

/// Mixed-precision sweep: the same clean-run property for narrow-storage
/// (bf16/fp16) operands with fp32 accumulation.  The oracle is the naive
/// fp32 GEMM over the *widened* operands — quantized narrow values are
/// exact fp32 numbers, so only accumulation order differs and the fp32
/// rounding budget applies (DESIGN.md §10).
template <typename S>
void mixed_clean_runs_match_oracle(std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x5AD0);
  for (int iter = 0; iter < 6; ++iter) {
    const GemmCase cs = random_case(rng);
    const std::uint64_t pseed = rng.next();
    const auto [am, an] = testing::a_dims(cs);
    const auto [bm, bn] = testing::b_dims(cs);
    Matrix<S> a(am, an), b(bm, bn);
    Matrix<float> c(cs.m, cs.n);
    a.fill_random(pseed);
    b.fill_random(pseed + 1);
    c.fill_random(pseed + 2);

    Matrix<float> wa(am, an), wb(bm, bn);
    for (index_t j = 0; j < an; ++j)
      for (index_t i = 0; i < am; ++i) wa(i, j) = float(a(i, j));
    for (index_t j = 0; j < bn; ++j)
      for (index_t i = 0; i < bm; ++i) wb(i, j) = float(b(i, j));
    Matrix<float> ref = c.clone();
    testing::naive_ref_gemm<float>(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                   float(cs.alpha), wa.data(), wa.ld(),
                                   wb.data(), wb.ld(), float(cs.beta),
                                   ref.data(), ref.ld());

    Matrix<float> got = c.clone();
    FtReport rep;
    if constexpr (std::is_same_v<S, bf16_t>) {
      rep = ft_gemm_bf16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                         float(cs.alpha), a.data(), a.ld(), b.data(), b.ld(),
                         float(cs.beta), got.data(), got.ld());
    } else {
      rep = ft_gemm_f16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                        float(cs.alpha), a.data(), a.ld(), b.data(), b.ld(),
                        float(cs.beta), got.data(), got.ld());
    }
    EXPECT_TRUE(rep.clean()) << cs << seed_note(seed);
    EXPECT_EQ(rep.errors_detected, 0) << cs << seed_note(seed);
    expect_matrix_near(got, ref, gemm_tolerance<float>(cs.k),
                       cs.name() + seed_note(seed));
  }
}

class MixedFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedFuzzSweep, Bf16CleanRunsMatchWidenedOracle) {
  mixed_clean_runs_match_oracle<bf16_t>(GetParam());
}

TEST_P(MixedFuzzSweep, F16CleanRunsMatchWidenedOracle) {
  mixed_clean_runs_match_oracle<fp16_t>(GetParam());
}

TEST_P(MixedFuzzSweep, Bf16InjectedRunsNeverSilentlyWrong) {
  Xoshiro256 rng(GetParam() ^ 0xBF16);
  for (int iter = 0; iter < 4; ++iter) {
    GemmCase cs = random_case(rng);
    cs.alpha = cs.alpha == 0.0 ? 1.0 : cs.alpha;
    cs.m = std::max<index_t>(cs.m, 8);
    cs.n = std::max<index_t>(cs.n, 8);
    cs.k = std::max<index_t>(cs.k, 8);
    const std::uint64_t pseed = rng.next();
    const auto [am, an] = testing::a_dims(cs);
    const auto [bm, bn] = testing::b_dims(cs);
    Matrix<bf16_t> a(am, an), b(bm, bn);
    Matrix<float> c(cs.m, cs.n);
    a.fill_random(pseed);
    b.fill_random(pseed + 1);
    c.fill_random(pseed + 2);

    Matrix<float> wa(am, an), wb(bm, bn);
    for (index_t j = 0; j < an; ++j)
      for (index_t i = 0; i < am; ++i) wa(i, j) = float(a(i, j));
    for (index_t j = 0; j < bn; ++j)
      for (index_t i = 0; i < bm; ++i) wb(i, j) = float(b(i, j));
    Matrix<float> ref = c.clone();
    testing::naive_ref_gemm<float>(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                   float(cs.alpha), wa.data(), wa.ld(),
                                   wb.data(), wb.ld(), float(cs.beta),
                                   ref.data(), ref.ld());

    Matrix<float> got = c.clone();
    CountInjector inj(int(1 + rng.bounded(6)), rng.next(), 5.0);
    Options opts;
    opts.injector = &inj;
    const FtReport rep = ft_gemm_bf16(
        Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, float(cs.alpha),
        a.data(), a.ld(), b.data(), b.ld(), float(cs.beta), got.data(),
        got.ld(), opts);
    if (rep.clean()) {
      EXPECT_LE(max_rel_diff(got, ref),
                std::max(gemm_tolerance<float>(cs.k), 1e-5))
          << cs << " injected=" << inj.injected_count()
          << seed_note(GetParam());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedFuzzSweep,
                         ::testing::ValuesIn(sweep_seeds()));

/// int8 sweep: the quantized path's contract is *stronger* than the float
/// sweeps' — the oracle (widened-int64 sum + the epilogue's exact double
/// expression) must match BIT-FOR-BIT on clean runs, and tolerance-zero
/// verification must never fire on them.
class Int8FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Int8FuzzSweep, CleanRunsBitExactVsWidenedOracle) {
  Xoshiro256 rng(GetParam() ^ 0x18);
  for (int iter = 0; iter < 6; ++iter) {
    const GemmCase cs = random_case(rng);
    const QuantParams qp = testing::random_quant_params(rng);
    const std::uint64_t pseed = rng.next();
    const auto [am, an] = testing::a_dims(cs);
    const auto [bm, bn] = testing::b_dims(cs);
    const Matrix<std::int8_t> a = testing::random_i8_matrix(am, an, pseed);
    const Matrix<std::int8_t> b =
        testing::random_i8_matrix(bm, bn, pseed + 1);
    Matrix<float> c(cs.m, cs.n);
    c.fill_random(pseed + 2);
    Matrix<float> ref = c.clone();
    testing::naive_ref_gemm_i8(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                               cs.k, float(cs.alpha), a.data(), a.ld(),
                               b.data(), b.ld(), float(cs.beta), ref.data(),
                               ref.ld(), qp);
    Matrix<float> got = c.clone();
    const FtReport rep = ft_gemm_i8(Layout::kColMajor, cs.ta, cs.tb, cs.m,
                                    cs.n, cs.k, float(cs.alpha), a.data(),
                                    a.ld(), b.data(), b.ld(),
                                    float(cs.beta), got.data(), got.ld(),
                                    qp);
    EXPECT_TRUE(rep.clean()) << cs << seed_note(GetParam());
    EXPECT_EQ(rep.errors_detected, 0)
        << cs << ": tolerance-0 false positive" << seed_note(GetParam());
    expect_matrix_near(got, ref, 0.0, cs.name() + seed_note(GetParam()));
    Matrix<float> ori = c.clone();
    gemm_i8(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
            float(cs.alpha), a.data(), a.ld(), b.data(), b.ld(),
            float(cs.beta), ori.data(), ori.ld(), qp);
    expect_matrix_near(ori, ref, 0.0,
                       "ori " + cs.name() + seed_note(GetParam()));
  }
}

TEST_P(Int8FuzzSweep, InjectedRunsCorrectedToBitExactness) {
  // Injection parity with the float sweeps, sharpened: a clean report
  // means C is bit-identical to the fault-free oracle (the integer solver
  // reverses the exact delta, leaving no rounding residue), and a nonzero
  // integer strike is always detected at tolerance 0.
  Xoshiro256 rng(GetParam() ^ 0x18AB);
  for (int iter = 0; iter < 4; ++iter) {
    GemmCase cs = random_case(rng);
    cs.alpha = cs.alpha == 0.0 ? 1.0 : cs.alpha;
    cs.m = std::max<index_t>(cs.m, 8);
    cs.n = std::max<index_t>(cs.n, 8);
    cs.k = std::max<index_t>(cs.k, 8);
    const QuantParams qp = testing::random_quant_params(rng);
    const std::uint64_t pseed = rng.next();
    const auto [am, an] = testing::a_dims(cs);
    const auto [bm, bn] = testing::b_dims(cs);
    const Matrix<std::int8_t> a = testing::random_i8_matrix(am, an, pseed);
    const Matrix<std::int8_t> b =
        testing::random_i8_matrix(bm, bn, pseed + 1);
    Matrix<float> c(cs.m, cs.n);
    c.fill_random(pseed + 2);
    Matrix<float> ref = c.clone();
    testing::naive_ref_gemm_i8(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                               cs.k, float(cs.alpha), a.data(), a.ld(),
                               b.data(), b.ld(), float(cs.beta), ref.data(),
                               ref.ld(), qp);
    Matrix<float> got = c.clone();
    CountInjector inj(int(1 + rng.bounded(6)), rng.next(), 700.0);
    Options opts;
    opts.injector = &inj;
    const FtReport rep = ft_gemm_i8(Layout::kColMajor, cs.ta, cs.tb, cs.m,
                                    cs.n, cs.k, float(cs.alpha), a.data(),
                                    a.ld(), b.data(), b.ld(),
                                    float(cs.beta), got.data(), got.ld(),
                                    qp, opts);
    EXPECT_GE(rep.errors_detected, 1) << cs << seed_note(GetParam());
    if (rep.clean()) {
      expect_matrix_near(got, ref, 0.0, cs.name() + seed_note(GetParam()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Int8FuzzSweep,
                         ::testing::ValuesIn(sweep_seeds()));

TEST(CorrectionLog, MatchesInjectorGroundTruth) {
  // k above the largest rank-KC panel any tier plans (KC <= 512), so the
  // panel-1 error is delivered on every ISA.
  const GemmCase cs{96, 80, 640};
  Problem<double> p(cs);
  Matrix<double> c = p.c.clone();
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 10, 20, 2.5, 0},
      {InjectionKind::kAddDelta, 1, 70, 5, -4.25, 0},
  });
  std::vector<CorrectionRecord> log;
  Options opts;
  opts.injector = &inj;
  opts.correction_log = &log;
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  ASSERT_TRUE(rep.clean());
  ASSERT_GE(rep.panels, 2);
  ASSERT_EQ(log.size(), 2u);
  std::sort(log.begin(), log.end(),
            [](const CorrectionRecord& a, const CorrectionRecord& b) {
              return a.panel < b.panel;
            });
  EXPECT_EQ(log[0].panel, 0);
  EXPECT_EQ(log[0].i, 10);
  EXPECT_EQ(log[0].j, 20);
  EXPECT_NEAR(log[0].delta, 2.5, 1e-9);
  EXPECT_EQ(log[1].panel, 1);
  EXPECT_EQ(log[1].i, 70);
  EXPECT_EQ(log[1].j, 5);
  EXPECT_NEAR(log[1].delta, -4.25, 1e-9);
}

TEST(CorrectionLog, HugeUpsetIsOneRecompute) {
  // One corruption whose magnitude dwarfs the whole row sum (an exponent-
  // scale upset) at (17, 23).  The element is rebuilt from its starting
  // value and A and B in one step at every beta, whatever the size of the
  // upset: one record, and C right.
  for (const double beta : {0.0, 1.0}) {
    SCOPED_TRACE("beta=" + std::to_string(beta));
    const GemmCase cs{64, 64, 64, Trans::kNoTrans, Trans::kNoTrans, 1.0,
                      beta};
    const Problem<double> p(cs);
    Matrix<double> c = p.c.clone();
    DeterministicInjector inj(
        {{InjectionKind::kAddDelta, 0, 17, 23, 1e300, 0}});
    std::vector<CorrectionRecord> log;
    Options opts;
    opts.injector = &inj;
    opts.correction_log = &log;
    const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m,
                                  cs.n, cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                  p.b.data(), p.b.ld(), cs.beta, c.data(),
                                  c.ld(), opts);
    EXPECT_TRUE(rep.clean());
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].i, 17);
    EXPECT_EQ(log[0].j, 23);
    EXPECT_NEAR(log[0].delta, 1e300, 1e285);
    EXPECT_LE(max_rel_diff(c, reference_result(cs, p)),
              gemm_tolerance<double>(cs.k));
  }
}

}  // namespace
}  // namespace ftgemm
