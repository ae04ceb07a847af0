// int8 quantized FT-GEMM suite (core/gemm_i8.hpp): every comparison here is
// BIT-EXACT (expect_matrix_near at tolerance 0.0).  The path computes in
// exact integer arithmetic and dequantizes through one deterministic double
// expression, so the widened-int64 oracle (naive_ref_gemm_i8) must agree to
// the last bit — across transposes, layouts, thread counts, ISAs, resident
// hits, batching, and the serving layer.  The same exactness makes the FT
// contract strict both ways: a clean run may never report a detection
// (tolerance-zero verification cannot false-positive, DESIGN.md §11), and
// an injected run that reports clean() must have corrected C exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "arch/cpu_features.hpp"
#include "core/gemm_i8.hpp"
#include "inject/injectors.hpp"
#include "serve/service.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::expect_matrix_near;
using testing::naive_ref_gemm_i8;
using testing::random_i8_matrix;
using testing::random_quant_params;
using testing::seed_note;
using testing::test_seed;

/// Operands of one column-major int8 case: s8 A/B over the full lane range,
/// random fp32 C.
struct I8Problem {
  Matrix<std::int8_t> a, b;
  Matrix<float> c;

  I8Problem(index_t m, index_t n, index_t k, Trans ta, Trans tb,
            std::uint64_t seed, index_t ld_slack = 0) {
    const index_t am = ta == Trans::kNoTrans ? m : k;
    const index_t an = ta == Trans::kNoTrans ? k : m;
    const index_t bm = tb == Trans::kNoTrans ? k : n;
    const index_t bn = tb == Trans::kNoTrans ? n : k;
    a = random_i8_matrix(am, an, seed, am + ld_slack);
    b = random_i8_matrix(bm, bn, seed ^ 0xB0B0, bm + ld_slack);
    c = Matrix<float>(m, n, m + ld_slack);
    c.fill_random(seed ^ 0xC0DE, -4.0f, 4.0f);
  }
};

/// Run one column-major case through Ori and FT and demand bit-identity
/// with the oracle plus a spotless FT report.
void check_case(index_t m, index_t n, index_t k, Trans ta, Trans tb,
                float alpha, float beta, const QuantParams& qp,
                std::uint64_t seed, const Options& opts = {},
                index_t ld_slack = 0) {
  const std::string label = std::to_string(m) + "x" + std::to_string(n) +
                            "x" + std::to_string(k) +
                            (ta == Trans::kTrans ? "_Ta" : "_Na") +
                            (tb == Trans::kTrans ? "_Tb" : "_Nb");
  I8Problem p(m, n, k, ta, tb, seed, ld_slack);
  Matrix<float> want = p.c.clone();
  naive_ref_gemm_i8(Layout::kColMajor, ta, tb, m, n, k, alpha, p.a.data(),
                    p.a.ld(), p.b.data(), p.b.ld(), beta, want.data(),
                    want.ld(), qp);

  Matrix<float> ori = p.c.clone();
  gemm_i8(Layout::kColMajor, ta, tb, m, n, k, alpha, p.a.data(), p.a.ld(),
          p.b.data(), p.b.ld(), beta, ori.data(), ori.ld(), qp, opts);
  expect_matrix_near(ori, want, 0.0, "ori " + label + seed_note(seed));

  Matrix<float> ft = p.c.clone();
  const FtReport rep =
      ft_gemm_i8(Layout::kColMajor, ta, tb, m, n, k, alpha, p.a.data(),
                 p.a.ld(), p.b.data(), p.b.ld(), beta, ft.data(), ft.ld(),
                 qp, opts);
  expect_matrix_near(ft, want, 0.0, "ft " + label + seed_note(seed));
  EXPECT_FALSE(rep.invalid_args) << label;
  EXPECT_TRUE(rep.clean()) << label;
  EXPECT_EQ(rep.errors_detected, 0)
      << label << ": tolerance-zero verification false-positived"
      << seed_note(seed);
  EXPECT_EQ(rep.errors_corrected, 0) << label;
  if (k > 0 && alpha != 0.0f && m > 0 && n > 0) {
    EXPECT_GE(rep.panels, 1) << label;
  }
}

/// Every executable int8 FT micro-kernel on a tile that starts near
/// INT32_MIN/INT32_MAX: C must get the exact update, cr_ref/cc_ref must
/// gain the exact int64 column/row sums of the updated tile (16 values near
/// the int32 limits overflow any int32 sum), and exactly nr cr_ref slots
/// and mr cc_ref slots may be written — the canaries just past them, and
/// the rows of C between mr and ldc, stay untouched.
TEST(Int8Kernel, FtReferencesExactNearInt32Limits) {
  std::vector<Isa> isas{Isa::kScalar};
  if (cpu_features().has_avx2_kernel_support()) isas.push_back(Isa::kAvx2);
  if (cpu_features().has_avx512_kernel_support()) isas.push_back(Isa::kAvx512);
  constexpr std::int64_t kCanary = 0x5A5A5A5A5A5A5A5A;
  for (const Isa isa : isas) {
    const auto ks = get_kernel_set<std::int8_t, std::int32_t>(isa);
    const index_t mr = ks.mr, nr = ks.nr, ldc = mr + 3;
    for (const index_t kc : {index_t(1), index_t(61), index_t(256)}) {
      SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                   " kc=" + std::to_string(kc));
      Xoshiro256 rng(std::uint64_t(kc) * 977 + std::uint64_t(mr));
      // Packed tiles with zero depth padding, as the packers leave them.
      std::vector<std::uint8_t> a(std::size_t(i8_tile_bytes(kc, mr)), 0);
      std::vector<std::int8_t> b(std::size_t(i8_tile_bytes(kc, nr)), 0);
      for (index_t kk = 0; kk < kc; ++kk) {
        const index_t q = kk / kI8KQuad, t = kk % kI8KQuad;
        for (index_t i = 0; i < mr; ++i)
          a[std::size_t((q * mr + i) * kI8KQuad + t)] =
              std::uint8_t(rng.bounded(256));
        for (index_t j = 0; j < nr; ++j)
          b[std::size_t((q * nr + j) * kI8KQuad + t)] =
              std::int8_t(std::int32_t(rng.bounded(256)) - 128);
      }
      // |update| <= 32640 * kc, so the updated tile stays inside int32.
      const std::int64_t margin = 32640 * std::int64_t(kc) + 1000;
      std::vector<std::int32_t> c(std::size_t(ldc * nr));
      for (std::size_t e = 0; e < c.size(); ++e) {
        const std::int64_t off = margin + std::int64_t(rng.bounded(1000));
        c[e] = std::int32_t(e % 3 == 0 ? std::int64_t(INT32_MIN) + off
                                       : std::int64_t(INT32_MAX) - off);
      }
      std::vector<std::int32_t> want_c = c;
      std::vector<std::int64_t> want_cr(std::size_t(nr) + 1, kCanary);
      std::vector<std::int64_t> want_cc(std::size_t(mr) + 1, kCanary);
      for (index_t j = 0; j < nr; ++j) want_cr[std::size_t(j)] = 3 * j - 40;
      for (index_t i = 0; i < mr; ++i) want_cc[std::size_t(i)] = 17 - 5 * i;
      std::vector<std::int64_t> cr = want_cr, cc = want_cc;
      for (index_t j = 0; j < nr; ++j) {
        for (index_t i = 0; i < mr; ++i) {
          std::int64_t v = want_c[std::size_t(i + j * ldc)];
          for (index_t kk = 0; kk < kc; ++kk) {
            const index_t q = kk / kI8KQuad, t = kk % kI8KQuad;
            v += std::int64_t(a[std::size_t((q * mr + i) * kI8KQuad + t)]) *
                 std::int64_t(b[std::size_t((q * nr + j) * kI8KQuad + t)]);
          }
          ASSERT_GE(v, INT32_MIN);
          ASSERT_LE(v, INT32_MAX);
          want_c[std::size_t(i + j * ldc)] = std::int32_t(v);
          want_cr[std::size_t(j)] += v;
          want_cc[std::size_t(i)] += v;
        }
      }
      ks.ft(kc, a.data(), b.data(), c.data(), ldc, cr.data(), cc.data());
      EXPECT_EQ(c, want_c);
      EXPECT_EQ(cr, want_cr) << "cr_ref[nr] is a canary";
      EXPECT_EQ(cc, want_cc) << "cc_ref[mr] is a canary";
    }
  }
}

TEST(Int8Gemm, ExactVsOracleAllShapesAndTransposes) {
  const std::uint64_t seed = test_seed(23);
  const QuantParams qp{0.02f, 0.5f, 3, -7};
  const struct { index_t m, n, k; } shapes[] = {
      {1, 1, 1},   {2, 3, 4},    {5, 5, 64},    {16, 16, 16}, {17, 19, 23},
      {31, 33, 37}, {64, 48, 96}, {8, 7, 501},  {1, 33, 250}, {130, 120, 600},
  };
  int idx = 0;
  for (const auto& s : shapes) {
    for (Trans ta : {Trans::kNoTrans, Trans::kTrans}) {
      for (Trans tb : {Trans::kNoTrans, Trans::kTrans}) {
        check_case(s.m, s.n, s.k, ta, tb, 0.5f, 1.0f, qp, seed + idx++);
      }
    }
  }
}

TEST(Int8Gemm, ScalarAndQuantVariants) {
  const std::uint64_t seed = test_seed(29);
  const float alphas[] = {1.0f, -1.25f, 2.0f};
  const float betas[] = {0.0f, 1.0f, -0.5f};
  const QuantParams qps[] = {
      {},                              // identity quantization
      {0.02f, 0.5f, 3, -7},            // generic scales + zeros
      {0.125f, 0.25f, -128, 127},      // extreme zero points
      {3.0f, 0.07f, 100, -100},        // inexact scale product
  };
  int idx = 0;
  for (float alpha : alphas) {
    for (float beta : betas) {
      for (const QuantParams& qp : qps) {
        check_case(31, 33, 37, Trans::kNoTrans, Trans::kNoTrans, alpha, beta,
                   qp, seed + idx, {}, /*ld_slack=*/(idx % 3));
        ++idx;
      }
    }
  }
}

/// Saturated operand tiles: every lane at an s8 extreme.  All-(-128) A is
/// the biased-domain edge (u8 = 0); all-(+127) against all-(-128) drives
/// each biased product to its +/-32640 bound.
TEST(Int8Gemm, CornerTilesAtLaneExtremes) {
  const std::int8_t lo = -128, hi = 127;
  const QuantParams qps[] = {{}, {0.5f, 0.25f, -128, 127}};
  const struct { index_t m, n, k; } shapes[] = {{64, 64, 64}, {37, 29, 131}};
  for (const auto& s : shapes) {
    for (const QuantParams& qp : qps) {
      for (std::int8_t av : {lo, hi}) {
        for (std::int8_t bv : {lo, hi}) {
          Matrix<std::int8_t> a(s.m, s.k), b(s.k, s.n);
          a.fill(av);
          b.fill(bv);
          Matrix<float> c(s.m, s.n);
          c.fill(1.5f);
          Matrix<float> want = c.clone();
          naive_ref_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                            Trans::kNoTrans, s.m, s.n, s.k, 1.0f, a.data(),
                            a.ld(), b.data(), b.ld(), 0.5f, want.data(),
                            want.ld(), qp);
          Matrix<float> got = c.clone();
          const FtReport rep = ft_gemm_i8(
              Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, s.m, s.n,
              s.k, 1.0f, a.data(), a.ld(), b.data(), b.ld(), 0.5f,
              got.data(), got.ld(), qp);
          EXPECT_TRUE(rep.clean());
          EXPECT_EQ(rep.errors_detected, 0);
          expect_matrix_near(got, want, 0.0,
                             "corner a=" + std::to_string(av) +
                                 " b=" + std::to_string(bv));
        }
      }
    }
  }
}

/// The depth bound is tight: k == kI8MaxDepth with every biased product at
/// its bound drives an accumulator to -2147483520 — 128 short of int32
/// wrap — and must still be exact; k == kI8MaxDepth + 1 is rejected with C
/// untouched.
TEST(Int8Gemm, DepthBoundaryExactThenRejected) {
  {
    const index_t k = kI8MaxDepth;
    Matrix<std::int8_t> a(1, k), b(k, 1);
    a.fill(std::int8_t(127));   // biased u8 = 255
    b.fill(std::int8_t(-128));  // product -32640 each
    Matrix<float> c(1, 1);
    c(0, 0) = 0.25f;
    Matrix<float> want = c.clone();
    naive_ref_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 1,
                      1, k, 1.0f, a.data(), a.ld(), b.data(), b.ld(), 1.0f,
                      want.data(), want.ld(), {});
    Matrix<float> got = c.clone();
    const FtReport rep = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                    Trans::kNoTrans, 1, 1, k, 1.0f, a.data(),
                                    a.ld(), b.data(), b.ld(), 1.0f,
                                    got.data(), got.ld());
    EXPECT_FALSE(rep.invalid_args);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.errors_detected, 0);
    expect_matrix_near(got, want, 0.0, "k == kI8MaxDepth");
  }
  {
    const index_t k = kI8MaxDepth + 1;
    std::vector<std::int8_t> a(std::size_t(k), 0), b(std::size_t(k), 0);
    Matrix<float> c(2, 2);
    c.fill(3.0f);
    Matrix<float> before = c.clone();
    const FtReport rep = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                    Trans::kNoTrans, 1, 1, k, 1.0f, a.data(),
                                    1, b.data(), k, 1.0f, c.data(), c.ld());
    EXPECT_TRUE(rep.invalid_args);
    EXPECT_EQ(rep.panels, 0);
    gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 1, 1, k,
            1.0f, a.data(), 1, b.data(), k, 1.0f, c.data(), c.ld());
    expect_matrix_near(c, before, 0.0, "rejected call touched C");
  }
}

/// Regression for the biased-pack sign flip: alternating -128/+127 rows in
/// A (the two lanes whose u8 images are 0 and 255) against a random B, with
/// a zero point that annihilates half the terms.
TEST(Int8Gemm, NegativeAValuesAgainstBiasEdge) {
  const std::uint64_t seed = test_seed(31);
  const index_t m = 48, n = 33, k = 190;
  Matrix<std::int8_t> a(m, k);
  for (index_t kk = 0; kk < k; ++kk) {
    for (index_t i = 0; i < m; ++i) {
      a(i, kk) = ((i + kk) % 2) ? std::int8_t(-128) : std::int8_t(127);
    }
  }
  Matrix<std::int8_t> b = random_i8_matrix(k, n, seed);
  Matrix<float> c(m, n);
  c.fill_random(seed + 1);
  const QuantParams qp{0.5f, 1.0f, -128, 5};  // a - za == 0 on the -128 lanes
  Matrix<float> want = c.clone();
  naive_ref_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m,
                    n, k, 1.5f, a.data(), a.ld(), b.data(), b.ld(), 0.75f,
                    want.data(), want.ld(), qp);
  Matrix<float> got = c.clone();
  const FtReport rep = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                  Trans::kNoTrans, m, n, k, 1.5f, a.data(),
                                  a.ld(), b.data(), b.ld(), 0.75f,
                                  got.data(), got.ld(), qp);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.errors_detected, 0);
  expect_matrix_near(got, want, 0.0, "bias-edge A" + seed_note(seed));
}

/// Row-major calls re-associate the scale product (normalize_quant swaps
/// the QuantParams with the operands); the oracle mirrors that order, so
/// deliberately inexact scales must still agree bit-for-bit.
TEST(Int8Gemm, RowMajorAllTransposes) {
  const std::uint64_t seed = test_seed(37);
  const index_t m = 29, n = 34, k = 77;
  const QuantParams qp{0.3f, 0.07f, 11, -23};  // (alpha*sa)*sb != (alpha*sb)*sa
  int idx = 0;
  for (Trans ta : {Trans::kNoTrans, Trans::kTrans}) {
    for (Trans tb : {Trans::kNoTrans, Trans::kTrans}) {
      const index_t ar = ta == Trans::kNoTrans ? m : k;
      const index_t ac = ta == Trans::kNoTrans ? k : m;
      const index_t br = tb == Trans::kNoTrans ? k : n;
      const index_t bc = tb == Trans::kNoTrans ? n : k;
      const index_t lda = ac + 2, ldb = bc + 1, ldc = n + 3;
      Matrix<std::int8_t> am = random_i8_matrix(index_t(ar * lda), 1,
                                                seed + idx);
      Matrix<std::int8_t> bm = random_i8_matrix(index_t(br * ldb), 1,
                                                seed + idx + 100);
      std::vector<float> c(std::size_t(m * ldc));
      Xoshiro256 rng(seed + idx + 200);
      for (float& v : c) v = float(rng.uniform() * 4.0 - 2.0);
      std::vector<float> want = c;
      naive_ref_gemm_i8(Layout::kRowMajor, ta, tb, m, n, k, -0.625f,
                        am.data(), lda, bm.data(), ldb, 0.5f, want.data(),
                        ldc, qp);
      std::vector<float> got = c;
      const FtReport rep =
          ft_gemm_i8(Layout::kRowMajor, ta, tb, m, n, k, -0.625f, am.data(),
                     lda, bm.data(), ldb, 0.5f, got.data(), ldc, qp);
      EXPECT_TRUE(rep.clean());
      EXPECT_EQ(rep.errors_detected, 0);
      std::vector<float> ori = c;
      gemm_i8(Layout::kRowMajor, ta, tb, m, n, k, -0.625f, am.data(), lda,
              bm.data(), ldb, 0.5f, ori.data(), ldc, qp);
      for (std::size_t e = 0; e < c.size(); ++e) {
        ASSERT_EQ(got[e], want[e])
            << "row-major ft elem " << e << seed_note(seed + idx);
        ASSERT_EQ(ori[e], want[e])
            << "row-major ori elem " << e << seed_note(seed + idx);
      }
      ++idx;
    }
  }
}

TEST(Int8Gemm, DegenerateCases) {
  const std::uint64_t seed = test_seed(41);
  // k == 0: nullptr operands are legal, C scales by beta exactly.
  for (float beta : {0.0f, 1.0f, 2.5f}) {
    Matrix<float> c(7, 9);
    c.fill_random(seed);
    Matrix<float> want = c.clone();
    naive_ref_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 7,
                      9, 0, 1.0f, nullptr, 1, nullptr, 1, beta, want.data(),
                      want.ld(), {});
    const FtReport rep = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                    Trans::kNoTrans, 7, 9, 0, 1.0f, nullptr,
                                    1, nullptr, 1, beta, c.data(), c.ld());
    EXPECT_FALSE(rep.invalid_args);
    EXPECT_EQ(rep.panels, 0);
    EXPECT_TRUE(rep.clean());
    expect_matrix_near(c, want, 0.0, "k=0 beta=" + std::to_string(beta));
  }
  // alpha == 0: operands unread, same beta-only contract.
  check_case(12, 13, 50, Trans::kNoTrans, Trans::kTrans, 0.0f, -1.5f,
             {0.1f, 0.2f, 1, 2}, seed + 1);
  // m == 0 / n == 0: silent no-op.
  I8Problem p(4, 4, 8, Trans::kNoTrans, Trans::kNoTrans, seed + 2);
  EXPECT_FALSE(ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                          Trans::kNoTrans, 0, 4, 8, 1.0f, p.a.data(),
                          p.a.ld(), p.b.data(), p.b.ld(), 1.0f, p.c.data(),
                          p.c.ld())
                   .invalid_args);
  // Negative dimension: invalid_args, C untouched.
  Matrix<float> before = p.c.clone();
  const FtReport bad = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                  Trans::kNoTrans, -1, 4, 8, 1.0f,
                                  p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                                  1.0f, p.c.data(), p.c.ld());
  EXPECT_TRUE(bad.invalid_args);
  expect_matrix_near(p.c, before, 0.0, "invalid call touched C");
}

/// Integer accumulation is order-independent: any thread count must produce
/// the very same bits.  This shape takes the general path at every thread
/// count; fast-vs-general bit-identity is PlanEquivalenceTyped's job
/// (tests/test_plan.cpp).
TEST(Int8Gemm, ThreadCountsBitIdentical) {
  const std::uint64_t seed = test_seed(43);
  const index_t m = 150, n = 140, k = 700;
  const QuantParams qp{0.05f, 0.25f, 17, -9};
  I8Problem p(m, n, k, Trans::kNoTrans, Trans::kNoTrans, seed);
  Options one;
  one.threads = 1;
  Matrix<float> base = p.c.clone();
  const FtReport rep1 = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                   Trans::kNoTrans, m, n, k, 1.0f,
                                   p.a.data(), p.a.ld(), p.b.data(),
                                   p.b.ld(), 0.5f, base.data(), base.ld(),
                                   qp, one);
  EXPECT_TRUE(rep1.clean());
  for (int nt : {2, 4}) {
    Options opts;
    opts.threads = nt;
    Matrix<float> got = p.c.clone();
    const FtReport rep = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                    Trans::kNoTrans, m, n, k, 1.0f,
                                    p.a.data(), p.a.ld(), p.b.data(),
                                    p.b.ld(), 0.5f, got.data(), got.ld(), qp,
                                    opts);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.errors_detected, 0);
    expect_matrix_near(got, base, 0.0,
                       "threads=" + std::to_string(nt) + seed_note(seed));
    Matrix<float> ori = p.c.clone();
    gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k,
            1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
            ori.data(), ori.ld(), qp, opts);
    expect_matrix_near(ori, base, 0.0,
                       "ori threads=" + std::to_string(nt) + seed_note(seed));
  }
}

/// The scalar kernels are the semantics reference: whatever ISA dispatch
/// picked natively must match them bit-for-bit (and both match the
/// oracle — checked via check_case on the scalar leg).
TEST(Int8Gemm, ForcedScalarIsaBitIdenticalToNative) {
  const std::uint64_t seed = test_seed(47);
  const index_t m = 67, n = 53, k = 320;
  const QuantParams qp{0.02f, 0.5f, -30, 90};
  Options scalar;
  scalar.isa = Isa::kScalar;
  check_case(m, n, k, Trans::kNoTrans, Trans::kNoTrans, 1.25f, 0.5f, qp,
             seed, scalar);
  I8Problem p(m, n, k, Trans::kTrans, Trans::kNoTrans, seed + 1);
  Matrix<float> native = p.c.clone(), forced = p.c.clone();
  ft_gemm_i8(Layout::kColMajor, Trans::kTrans, Trans::kNoTrans, m, n, k,
             1.25f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
             native.data(), native.ld(), qp);
  ft_gemm_i8(Layout::kColMajor, Trans::kTrans, Trans::kNoTrans, m, n, k,
             1.25f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
             forced.data(), forced.ld(), qp, scalar);
  expect_matrix_near(forced, native, 0.0,
                     "scalar vs native ISA" + seed_note(seed));
}

/// A planted strike is detected via the exact integer checksums, located,
/// and reversed exactly: the corrected C is bit-identical to a fault-free
/// run, and the correction log names the planted coordinates.
TEST(Int8Ft, DeterministicInjectionCorrectedExactly) {
  const std::uint64_t seed = test_seed(53);
  const index_t m = 96, n = 80, k = 300;
  const QuantParams qp{0.04f, 0.5f, 7, -3};
  I8Problem p(m, n, k, Trans::kNoTrans, Trans::kNoTrans, seed);
  Matrix<float> want = p.c.clone();
  naive_ref_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m,
                    n, k, 1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                    0.5f, want.data(), want.ld(), qp);

  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 5, 7, 1000.0, 0},
      {InjectionKind::kAddDelta, 0, 40, 61, -3.5, 0},
      {InjectionKind::kFlipBit, 0, 17, 2, 0.0, 20},
  });
  std::vector<CorrectionRecord> log;
  Options opts;
  opts.injector = &inj;
  opts.correction_log = &log;
  Matrix<float> got = p.c.clone();
  const FtReport rep = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                  Trans::kNoTrans, m, n, k, 1.0f,
                                  p.a.data(), p.a.ld(), p.b.data(),
                                  p.b.ld(), 0.5f, got.data(), got.ld(), qp,
                                  opts);
  EXPECT_TRUE(rep.clean()) << seed_note(seed);
  EXPECT_GE(rep.errors_detected, 3);
  EXPECT_GE(rep.errors_corrected, 3);
  expect_matrix_near(got, want, 0.0, "corrected run" + seed_note(seed));
  ASSERT_GE(log.size(), 3u);
  bool hit_5_7 = false;
  for (const CorrectionRecord& r : log) {
    hit_5_7 = hit_5_7 || (r.i == 5 && r.j == 7);
  }
  EXPECT_TRUE(hit_5_7) << "planted (5, 7) strike missing from the log";
}

/// Paper-regime campaign: many random strikes per call, every one of them
/// reversed to bit-exactness (integer ABFT has no rounding residue to
/// hide behind).  Magnitude 500 draws distinct deltas; magnitude 2.0 draws
/// the integers 1..3, so equal deltas meet in one panel.
TEST(Int8Ft, RandomInjectionCampaignBitExactWhenClean) {
  const std::uint64_t seed = test_seed(59);
  Xoshiro256 rng(seed);
  for (int iter = 0; iter < 12; ++iter) {
    const double magnitude = iter < 6 ? 500.0 : 2.0;
    const index_t m = 32 + index_t(rng.bounded(96));
    const index_t n = 32 + index_t(rng.bounded(96));
    const index_t k = 64 + index_t(rng.bounded(400));
    const QuantParams qp = random_quant_params(rng);
    I8Problem p(m, n, k, Trans::kNoTrans, Trans::kNoTrans, rng.next());
    Matrix<float> want = p.c.clone();
    naive_ref_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m,
                      n, k, 0.5f, p.a.data(), p.a.ld(), p.b.data(),
                      p.b.ld(), 1.0f, want.data(), want.ld(), qp);
    CountInjector inj(int(1 + rng.bounded(8)), rng.next(), magnitude);
    Options opts;
    opts.injector = &inj;
    Matrix<float> got = p.c.clone();
    const FtReport rep = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                    Trans::kNoTrans, m, n, k, 0.5f,
                                    p.a.data(), p.a.ld(), p.b.data(),
                                    p.b.ld(), 1.0f, got.data(), got.ld(),
                                    qp, opts);
    EXPECT_GE(rep.errors_detected, 1) << seed_note(seed);
    if (rep.clean()) {
      expect_matrix_near(got, want, 0.0,
                         "iter " + std::to_string(iter) + seed_note(seed));
    }
  }
}

/// Resident-operand cache on the int8 path: the warm hit serves the raw
/// biased bytes and the rowchk side vector, and must be bit-identical to
/// the cold call; a memory strike on the cached panels is healed before
/// use (resident_verify) and still yields exact bits.
TEST(Int8Resident, HitsAreBitIdenticalAndHealsFlips) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(61);
  const index_t m = 64, n = 50, k = 256;
  const QuantParams qp{0.03f, 0.2f, 5, -11};
  I8Problem p(m, n, k, Trans::kNoTrans, Trans::kNoTrans, seed);
  Matrix<float> want = p.c.clone();
  const FtReport cold = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                   Trans::kNoTrans, m, n, k, 2.0f,
                                   p.a.data(), p.a.ld(), p.b.data(),
                                   p.b.ld(), 0.5f, want.data(), want.ld(),
                                   qp);
  ASSERT_TRUE(cold.clean());

  Options res;
  res.resident_a = true;
  Matrix<float> first = p.c.clone();
  const FtReport miss = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                   Trans::kNoTrans, m, n, k, 2.0f,
                                   p.a.data(), p.a.ld(), p.b.data(),
                                   p.b.ld(), 0.5f, first.data(), first.ld(),
                                   qp, res);
  EXPECT_FALSE(miss.resident_hit);
  expect_matrix_near(first, want, 0.0, "resident miss" + seed_note(seed));

  Matrix<float> second = p.c.clone();
  const FtReport hit = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                  Trans::kNoTrans, m, n, k, 2.0f,
                                  p.a.data(), p.a.ld(), p.b.data(),
                                  p.b.ld(), 0.5f, second.data(),
                                  second.ld(), qp, res);
  EXPECT_TRUE(hit.resident_hit);
  EXPECT_EQ(hit.errors_detected, 0);
  expect_matrix_near(second, want, 0.0, "resident hit" + seed_note(seed));

  // The payload is QuantParams-independent: a different qp on the same
  // operand must still hit and still be exact against its own oracle.
  const QuantParams qp2{0.5f, 0.125f, -60, 42};
  Matrix<float> want2 = p.c.clone();
  naive_ref_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m,
                    n, k, 2.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                    0.5f, want2.data(), want2.ld(), qp2);
  Matrix<float> third = p.c.clone();
  const FtReport requant = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                      Trans::kNoTrans, m, n, k, 2.0f,
                                      p.a.data(), p.a.ld(), p.b.data(),
                                      p.b.ld(), 0.5f, third.data(),
                                      third.ld(), qp2, res);
  EXPECT_TRUE(requant.resident_hit);
  expect_matrix_near(third, want2, 0.0, "requantized hit" + seed_note(seed));

  // Strike the cached panels: CHECK_BEFORE must heal and stay exact.
  PanelBitFlipInjector flips(3, seed, /*bit=*/5);
  Options hurt = res;
  hurt.memory_injector = &flips;
  Matrix<float> healed = p.c.clone();
  const FtReport heal = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                   Trans::kNoTrans, m, n, k, 2.0f,
                                   p.a.data(), p.a.ld(), p.b.data(),
                                   p.b.ld(), 0.5f, healed.data(),
                                   healed.ld(), qp, hurt);
  EXPECT_TRUE(heal.resident_hit);
  EXPECT_EQ(heal.resident_heals, 1);
  expect_matrix_near(healed, want, 0.0, "healed hit" + seed_note(seed));
}

TEST(Int8Resident, PrewarmHandleHitsFirstCall) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(67);
  const index_t m = 40, n = 36, k = 200;
  I8Problem p(m, n, k, Trans::kNoTrans, Trans::kNoTrans, seed);
  const ResidentOperand handle = make_resident_a_i8(
      Trans::kNoTrans, Trans::kNoTrans, m, n, k, p.a.data(), p.a.ld());
  ASSERT_TRUE(handle.valid());
  EXPECT_GT(handle.bytes(), 0u);
  Options res;
  res.resident_a = true;
  Matrix<float> want = p.c.clone();
  ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k,
             1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.25f,
             want.data(), want.ld());
  Matrix<float> got = p.c.clone();
  const FtReport rep = ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans,
                                  Trans::kNoTrans, m, n, k, 1.0f,
                                  p.a.data(), p.a.ld(), p.b.data(),
                                  p.b.ld(), 0.25f, got.data(), got.ld(), {},
                                  res);
  EXPECT_TRUE(rep.resident_hit) << "prewarm handle missed";
  expect_matrix_near(got, want, 0.0, "prewarmed" + seed_note(seed));
  // Deep problems yield no handle rather than a wrapping encode.
  EXPECT_FALSE(make_resident_a_i8(Trans::kNoTrans, Trans::kNoTrans, 1, 1,
                                  kI8MaxDepth + 1, p.a.data(), p.a.ld())
                   .valid());
}

TEST(Int8Engine, MatchesFreeFunctions) {
  const std::uint64_t seed = test_seed(71);
  const index_t m = 45, n = 38, k = 160;
  const QuantParams qp{0.1f, 0.4f, 2, 9};
  I8Problem p(m, n, k, Trans::kNoTrans, Trans::kTrans, seed);
  Matrix<float> want_ori = p.c.clone(), want_ft = p.c.clone();
  gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kTrans, m, n, k, 0.5f,
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 1.0f, want_ori.data(),
          want_ori.ld(), qp);
  const FtReport want_rep = ft_gemm_i8(
      Layout::kColMajor, Trans::kNoTrans, Trans::kTrans, m, n, k, 0.5f,
      p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 1.0f, want_ft.data(),
      want_ft.ld(), qp);

  GemmEngineI8 engine;
  Matrix<float> got_ori = p.c.clone(), got_ft = p.c.clone();
  engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kTrans, m, n, k,
              0.5f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 1.0f,
              got_ori.data(), got_ori.ld(), qp);
  const FtReport rep = engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans,
                                      Trans::kTrans, m, n, k, 0.5f,
                                      p.a.data(), p.a.ld(), p.b.data(),
                                      p.b.ld(), 1.0f, got_ft.data(),
                                      got_ft.ld(), qp);
  expect_matrix_near(got_ori, want_ori, 0.0, "engine ori" + seed_note(seed));
  expect_matrix_near(got_ft, want_ft, 0.0, "engine ft" + seed_note(seed));
  EXPECT_EQ(rep.panels, want_rep.panels);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.errors_detected, 0);
}

/// Batched forms against a loop of single calls, across every scheduling
/// decision the dispatcher can take.
TEST(Int8Batched, StridedMatchesSinglesUnderEverySchedule) {
  const std::uint64_t seed = test_seed(73);
  const index_t m = 40, n = 30, k = 128, batch = 5;
  const index_t lda = m + 3, ldb = k + 1, ldc = m + 2;
  const index_t sa = lda * k, sb = ldb * n, sc = ldc * n;
  const QuantParams qp{0.05f, 0.5f, 4, -6};
  Xoshiro256 rng(seed);
  std::vector<std::int8_t> a(std::size_t(sa * batch)),
      b(std::size_t(sb * batch));
  for (auto& v : a) v = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
  for (auto& v : b) v = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
  std::vector<float> c0(std::size_t(sc * batch));
  for (float& v : c0) v = float(rng.uniform() * 2.0 - 1.0);

  // Singles oracle (already bit-exact vs naive per the suites above).
  std::vector<float> want = c0;
  for (index_t p = 0; p < batch; ++p) {
    gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k,
            1.5f, a.data() + p * sa, lda, b.data() + p * sb, ldb, 0.5f,
            want.data() + p * sc, ldc, qp);
  }

  for (BatchSchedule sched : {BatchSchedule::kAuto, BatchSchedule::kIntra,
                              BatchSchedule::kInter}) {
    BatchOptions bopts;
    bopts.schedule = sched;
    std::vector<float> got = c0;
    const BatchReport rep = ft_gemm_i8_strided_batched(
        Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.5f,
        a.data(), lda, sa, b.data(), ldb, sb, 0.5f, got.data(), ldc, sc,
        batch, qp, bopts);
    EXPECT_FALSE(rep.invalid_args);
    EXPECT_EQ(rep.problems, batch);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.errors_detected, 0);
    ASSERT_EQ(rep.per_problem.size(), std::size_t(batch));
    for (std::size_t e = 0; e < want.size(); ++e) {
      ASSERT_EQ(got[e], want[e])
          << "ft strided sched=" << int(sched) << " elem " << e
          << seed_note(seed);
    }
    std::vector<float> ori = c0;
    const BatchReport orep = gemm_i8_strided_batched(
        Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.5f,
        a.data(), lda, sa, b.data(), ldb, sb, 0.5f, ori.data(), ldc, sc,
        batch, qp, bopts);
    EXPECT_EQ(orep.problems, batch);
    for (std::size_t e = 0; e < want.size(); ++e) {
      ASSERT_EQ(ori[e], want[e])
          << "ori strided sched=" << int(sched) << " elem " << e
          << seed_note(seed);
    }
  }

  // Pointer-array form, plus a per-member injection through the batch
  // options: only the targeted member is faulty, all members end exact.
  std::vector<const std::int8_t*> ap, bp;
  std::vector<float> got = c0;
  std::vector<float*> cp;
  for (index_t p = 0; p < batch; ++p) {
    ap.push_back(a.data() + p * sa);
    bp.push_back(b.data() + p * sb);
    cp.push_back(got.data() + p * sc);
  }
  DeterministicInjector inj({{InjectionKind::kAddDelta, 0, 3, 4, 77.0, 0}});
  BatchOptions bopts;
  bopts.base.injector = &inj;
  bopts.inject_problem = 2;
  const BatchReport rep = ft_gemm_i8_batched(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.5f,
      ap.data(), lda, bp.data(), ldb, 0.5f, cp.data(), ldc, batch, qp,
      bopts);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.faulty_problems, 1);
  ASSERT_EQ(rep.per_problem.size(), std::size_t(batch));
  EXPECT_GE(rep.per_problem[2].errors_detected, 1);
  for (std::size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(got[e], want[e])
        << "injected batch elem " << e << seed_note(seed);
  }
  // The deep-k rejection also covers the batched forms.
  EXPECT_TRUE(ft_gemm_i8_strided_batched(
                  Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 1, 1,
                  kI8MaxDepth + 1, 1.0f, a.data(), 1, 0, b.data(),
                  kI8MaxDepth + 1, 0, 0.0f, got.data(), 1, 0, 1, qp)
                  .invalid_args);
}

/// Serving layer: Precision::kI8 requests through direct dispatch and the
/// coalesced window deliver the synchronous entry points' exact bits, and
/// only same-QuantParams requests merge (differing qp members must still
/// each be exact under their own qp).
TEST(Int8Service, DirectAndCoalescedBitExact) {
  const std::uint64_t seed = test_seed(79);
  const index_t m = 24, n = 20, k = 64;
  const QuantParams qp{0.05f, 0.25f, 2, -3};
  const QuantParams qp2{0.5f, 0.5f, -20, 40};
  I8Problem p(m, n, k, Trans::kNoTrans, Trans::kNoTrans, seed);
  Matrix<float> sync_ft = p.c.clone(), sync_qp2 = p.c.clone();
  ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k,
             1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
             sync_ft.data(), sync_ft.ld(), qp);
  ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k,
             1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
             sync_qp2.data(), sync_qp2.ld(), qp2);

  serve::GemmService service;
  {
    Matrix<float> c = p.c.clone();
    const serve::GemmResult res =
        service
            .submit(serve::make_gemm_request_i8(
                true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m,
                n, k, 1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
                c.data(), c.ld(), qp))
            .wait();
    ASSERT_EQ(res.status, serve::RequestStatus::kDone);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.report.clean());
    expect_matrix_near(c, sync_ft, 0.0, "service direct" + seed_note(seed));
  }
  {
    // A window of same-shape requests — six under qp, two under qp2.  The
    // qp run merges into one batched call, never across the qp boundary,
    // and every result is bit-exact.
    std::vector<Matrix<float>> cs;
    for (int r = 0; r < 8; ++r) cs.push_back(p.c.clone());
    std::vector<serve::GemmRequest> reqs;
    for (int r = 0; r < 8; ++r) {
      reqs.push_back(serve::make_gemm_request_i8(
          true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k,
          1.0f, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), 0.5f,
          cs[std::size_t(r)].data(), cs[std::size_t(r)].ld(),
          r < 6 ? qp : qp2));
    }
    const serve::ServiceStats before = service.stats();
    std::vector<serve::GemmFuture> futs = service.submit_all(reqs);
    for (int r = 0; r < 8; ++r) {
      const serve::GemmResult res = futs[std::size_t(r)].wait();
      ASSERT_EQ(res.status, serve::RequestStatus::kDone) << r;
      EXPECT_TRUE(res.report.clean()) << r;
      EXPECT_TRUE(res.coalesced) << r;
      expect_matrix_near(cs[std::size_t(r)], r < 6 ? sync_ft : sync_qp2, 0.0,
                         "window member " + std::to_string(r) +
                             seed_note(seed));
    }
    // submit_all queues the window before it wakes the dispatcher: one
    // batched call per QuantParams run.
    const serve::ServiceStats after = service.stats();
    EXPECT_EQ(after.coalesced_batches - before.coalesced_batches, 2u);
    EXPECT_EQ(after.coalesced_members - before.coalesced_members, 8u);
  }
  {
    // Strided-batched request routes direct.
    const index_t batch = 3;
    const index_t sc = p.c.ld() * n;
    std::vector<float> got(std::size_t(sc * batch));
    std::vector<float> want(std::size_t(sc * batch));
    for (index_t bi = 0; bi < batch; ++bi) {
      for (index_t e = 0; e < sc; ++e) {
        got[std::size_t(bi * sc + e)] = p.c.data()[e];
        want[std::size_t(bi * sc + e)] = sync_ft.data()[e];
      }
    }
    const serve::GemmResult res =
        service
            .submit(serve::make_strided_batched_request_i8(
                true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m,
                n, k, 1.0f, p.a.data(), p.a.ld(), 0, p.b.data(), p.b.ld(), 0,
                0.5f, got.data(), p.c.ld(), sc, batch, qp))
            .wait();
    ASSERT_EQ(res.status, serve::RequestStatus::kDone);
    EXPECT_EQ(res.batch.problems, batch);
    EXPECT_TRUE(res.batch.clean());
    for (std::size_t e = 0; e < want.size(); ++e) {
      ASSERT_EQ(got[e], want[e]) << "service batch elem " << e;
    }
  }
  {
    // Depth guard holds at admission: the request is rejected, not run.
    Matrix<float> c = p.c.clone();
    const serve::GemmResult res =
        service
            .submit(serve::make_gemm_request_i8(
                true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 1,
                1, kI8MaxDepth + 1, 1.0f, p.a.data(), 1, p.b.data(),
                kI8MaxDepth + 1, 0.0f, c.data(), c.ld(), qp))
            .wait();
    EXPECT_EQ(res.status, serve::RequestStatus::kRejected);
  }
  service.shutdown();
}

}  // namespace
}  // namespace ftgemm
