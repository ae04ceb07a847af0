// Integration tests: single-precision sgemm / ft_sgemm against the oracle.
#include <gtest/gtest.h>

#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::GemmCase;
using testing::Problem;
using testing::expect_matrix_near;
using testing::gemm_tolerance;
using testing::naive_ref_gemm;
using testing::reference_result;

class SgemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(SgemmSweep, MatchesNaiveOracle) {
  const GemmCase cs = GetParam();
  Problem<float> p(cs);
  const Matrix<float> ref = reference_result(cs, p);
  Matrix<float> c = p.c.clone();
  sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, float(cs.alpha),
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), float(cs.beta), c.data(),
        c.ld());
  expect_matrix_near(c, ref, gemm_tolerance<float>(cs.k), cs.name());
}

TEST_P(SgemmSweep, FtMatchesOriBitwiseAndReportsClean) {
  const GemmCase cs = GetParam();
  Problem<float> p(cs);
  Matrix<float> c_ori = p.c.clone();
  sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, float(cs.alpha),
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), float(cs.beta),
        c_ori.data(), c_ori.ld());
  Matrix<float> c_ft = p.c.clone();
  const FtReport rep = ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, float(cs.alpha), p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), float(cs.beta),
                                c_ft.data(), c_ft.ld());
  // The FT kernels perform the identical FMA sequence, so results agree
  // bitwise with the unprotected path.
  expect_matrix_near(c_ft, c_ori, 0.0, "FT vs Ori " + cs.name());
  EXPECT_TRUE(rep.clean()) << cs;
  EXPECT_EQ(rep.errors_detected, 0) << "no injection -> no detections";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SgemmSweep,
    ::testing::Values(
        GemmCase{1, 1, 1}, GemmCase{31, 9, 65}, GemmCase{32, 8, 64},
        GemmCase{33, 7, 63}, GemmCase{96, 96, 96},
        GemmCase{129, 127, 130}, GemmCase{200, 100, 50},
        GemmCase{63, 65, 257, Trans::kTrans, Trans::kNoTrans},
        GemmCase{63, 65, 257, Trans::kNoTrans, Trans::kTrans},
        GemmCase{64, 64, 64, Trans::kTrans, Trans::kTrans, -1.5, 0.5},
        GemmCase{77, 77, 77, Trans::kNoTrans, Trans::kNoTrans, 2.0, 1.0}),
    [](const auto& info) { return GemmCase(info.param).name(); });

TEST(Sgemm, FtCorrectsInjectedErrors) {
  // Five errors: the recompute rebuilds every crossing of a mismatched row
  // and column.
  const index_t sz = 96;
  Matrix<float> a(sz, sz), b(sz, sz), c(sz, sz);
  a.fill_random(81);
  b.fill_random(82);
  c.fill_random(83);
  Matrix<float> ref = c.clone();
  naive_ref_gemm<float>(Trans::kNoTrans, Trans::kNoTrans, sz, sz, sz, 1.0f,
                        a.data(), sz, b.data(), sz, 0.0f, ref.data(), sz);

  CountInjector inj(5, 99, 2.0);
  Options opts;
  opts.injector = &inj;
  const FtReport rep = ft_sgemm(Layout::kColMajor, Trans::kNoTrans,
                                Trans::kNoTrans, sz, sz, sz, 1.0f, a.data(),
                                sz, b.data(), sz, 0.0f, c.data(), sz, opts);
  EXPECT_EQ(static_cast<std::size_t>(rep.errors_corrected), inj.injected_count());
  EXPECT_TRUE(rep.clean());
  expect_matrix_near(c, ref, gemm_tolerance<float>(sz), "corrected C");
}

}  // namespace
}  // namespace ftgemm
