// End-to-end integration tests: multi-call workloads built on the public
// API, running under continuous fault injection — the situations the
// example applications model.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::gemm_tolerance;
using testing::norm2;

TEST(Integration, ChainedGemmsMlpForwardUnderInjection) {
  // A 4-layer MLP forward pass: each layer is C = A_l * X with injected
  // faults throughout; the protected chain must equal the oracle chain.
  const index_t dims[5] = {96, 128, 64, 80, 10};
  const index_t batch = 33;

  std::vector<Matrix<double>> weights;
  for (int l = 0; l < 4; ++l) {
    weights.emplace_back(dims[l + 1], dims[l]);
    weights.back().fill_random(100 + std::uint64_t(l), -0.5, 0.5);
  }
  Matrix<double> input(dims[0], batch);
  input.fill_random(200);

  // Oracle chain via naive GEMM.
  Matrix<double> ref = input.clone();
  for (int l = 0; l < 4; ++l) {
    Matrix<double> next(dims[l + 1], batch);
    next.fill(0.0);
    baseline::naive_dgemm(Trans::kNoTrans, Trans::kNoTrans, dims[l + 1],
                          batch, dims[l], 1.0, weights[std::size_t(l)].data(),
                          weights[std::size_t(l)].ld(), ref.data(), ref.ld(),
                          0.0, next.data(), next.ld());
    ref = std::move(next);
  }

  // Protected chain with 3 errors injected per layer.
  CountInjector inj(3, 777, 2.0);
  Options opts;
  opts.injector = &inj;
  GemmEngine<double> engine(opts);
  Matrix<double> act = input.clone();
  std::int64_t corrected = 0;
  for (int l = 0; l < 4; ++l) {
    Matrix<double> next(dims[l + 1], batch);
    next.fill(0.0);
    const FtReport rep = engine.ft_gemm(
        Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, dims[l + 1],
        batch, dims[l], 1.0, weights[std::size_t(l)].data(),
        weights[std::size_t(l)].ld(), act.data(), act.ld(), 0.0, next.data(),
        next.ld());
    EXPECT_TRUE(rep.clean()) << "layer " << l;
    corrected += rep.errors_corrected;
    act = std::move(next);
  }
  EXPECT_GT(corrected, 0) << "injection must have fired somewhere";
  EXPECT_LE(max_rel_diff(act, ref), 4 * gemm_tolerance<double>(128));
}

TEST(Integration, PowerIterationConvergesUnderInjection) {
  // Dominant eigenvalue of a symmetric positive matrix via repeated
  // ft_dgemm-based mat-vec (n x 1 GEMM), with faults injected every step.
  const index_t n = 120;
  Matrix<double> a(n, n);
  a.fill_random(300, 0.0, 1.0);
  // Symmetrize: A := (A + Aᵀ)/2 + n*I to make it SPD-ish and dominant.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) {
      const double avg = 0.5 * (a(i, j) + a(j, i));
      a(i, j) = avg;
      a(j, i) = avg;
    }
    a(j, j) += double(n);
  }

  CountInjector inj(2, 55, 10.0);
  Options opts;
  opts.injector = &inj;

  Matrix<double> v(n, 1), w(n, 1);
  v.fill(1.0 / std::sqrt(double(n)));
  double lambda = 0.0;
  for (int iter = 0; iter < 40; ++iter) {
    w.fill(0.0);
    const FtReport rep = ft_dgemm(Layout::kColMajor, Trans::kNoTrans,
                                  Trans::kNoTrans, n, 1, n, 1.0, a.data(),
                                  a.ld(), v.data(), v.ld(), 0.0, w.data(),
                                  w.ld(), opts);
    ASSERT_TRUE(rep.clean());
    const double norm = norm2(w);
    ASSERT_GT(norm, 0.0);
    for (index_t i = 0; i < n; ++i) v(i, 0) = w(i, 0) / norm;
    lambda = norm;
  }

  // Oracle lambda via clean naive iteration.
  Matrix<double> v2(n, 1), w2(n, 1);
  v2.fill(1.0 / std::sqrt(double(n)));
  double lambda_ref = 0.0;
  for (int iter = 0; iter < 40; ++iter) {
    w2.fill(0.0);
    baseline::naive_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, 1, n, 1.0,
                          a.data(), a.ld(), v2.data(), v2.ld(), 0.0,
                          w2.data(), w2.ld());
    const double norm = norm2(w2);
    for (index_t i = 0; i < n; ++i) v2(i, 0) = w2(i, 0) / norm;
    lambda_ref = norm;
  }
  EXPECT_NEAR(lambda, lambda_ref, 1e-8 * lambda_ref);
}

TEST(Integration, MixedPrecisionPipeline) {
  // f32 forward pass, f64 residual check — exercises both kernel families
  // in one process with shared thread-local contexts.
  const index_t m = 64, n = 48, k = 56;
  Matrix<float> af(m, k), bf(k, n), cf(m, n);
  af.fill_random(1);
  bf.fill_random(2);
  cf.fill(0.0f);
  const FtReport r32 = ft_sgemm(Layout::kColMajor, Trans::kNoTrans,
                                Trans::kNoTrans, m, n, k, 1.0f, af.data(), m,
                                bf.data(), k, 0.0f, cf.data(), m);
  EXPECT_TRUE(r32.clean());

  Matrix<double> ad(m, k), bd(k, n), cd(m, n);
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < m; ++i) ad(i, j) = double(af(i, j));
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < k; ++i) bd(i, j) = double(bf(i, j));
  cd.fill(0.0);
  const FtReport r64 = ft_dgemm(Layout::kColMajor, Trans::kNoTrans,
                                Trans::kNoTrans, m, n, k, 1.0, ad.data(), m,
                                bd.data(), k, 0.0, cd.data(), m);
  EXPECT_TRUE(r64.clean());

  double worst = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      worst = std::max(worst, std::abs(double(cf(i, j)) - cd(i, j)));
  EXPECT_LT(worst, 1e-3) << "f32 result must track the f64 result";
}

TEST(Integration, LargeSquareUnderSustainedInjection) {
  // One larger run, ~8 panels, 40 injected errors across the whole call.
  const index_t sz = 320;
  Matrix<double> a(sz, sz), b(sz, sz), c(sz, sz);
  a.fill_random(400);
  b.fill_random(401);
  c.fill_random(402);
  Matrix<double> ref = c.clone();
  baseline::naive_dgemm(Trans::kNoTrans, Trans::kNoTrans, sz, sz, sz, 1.0,
                        a.data(), sz, b.data(), sz, 1.0, ref.data(), sz);

  CountInjector inj(40, 999, 1.0);
  Options opts;
  opts.injector = &inj;
  const FtReport rep = ft_dgemm(Layout::kColMajor, Trans::kNoTrans,
                                Trans::kNoTrans, sz, sz, sz, 1.0, a.data(),
                                sz, b.data(), sz, 1.0, c.data(), sz, opts);
  EXPECT_EQ(inj.injected_count(), 40u);
  EXPECT_TRUE(rep.clean());
  EXPECT_LE(max_rel_diff(c, ref), gemm_tolerance<double>(sz));
}

TEST(Integration, ReportAggregationAcrossEngineCalls) {
  GemmEngine<double> engine;
  CountInjector inj(2, 31, 4.0);
  engine.options().injector = &inj;
  std::int64_t total_corrected = 0;
  for (int call = 0; call < 5; ++call) {
    const index_t sz = 64;
    Matrix<double> a(sz, sz), b(sz, sz), c(sz, sz);
    a.fill_random(std::uint64_t(call) * 3 + 1);
    b.fill_random(std::uint64_t(call) * 3 + 2);
    c.fill(0.0);
    const FtReport rep = engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans,
                                        Trans::kNoTrans, sz, sz, sz, 1.0,
                                        a.data(), sz, b.data(), sz, 0.0,
                                        c.data(), sz);
    EXPECT_TRUE(rep.clean());
    total_corrected += rep.errors_corrected;
  }
  EXPECT_GE(total_corrected, 5);
  EXPECT_EQ(inj.injected_count(), 10u);
}

}  // namespace
}  // namespace ftgemm
