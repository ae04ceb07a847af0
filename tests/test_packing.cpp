// Unit tests: packing routines and their fused checksum side effects, plus
// the ISA-dispatched SIMD engine against the scalar oracle (panels must be
// bit-identical; checksum sums are lane-reassociated, so they match within
// a rounding tolerance — the summation-order contract of
// docs/DESIGN.md "SIMD packing & checksum engine").
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "abft/checksum.hpp"
#include "arch/cpu_features.hpp"
#include "kernels/kernel_int8.hpp"
#include "kernels/packing.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace ftgemm {
namespace {

/// Reconstruct element (i, kk) of a packed-A region.
template <typename T>
T packed_a_at(const std::vector<T>& dst, index_t mr, index_t klen, index_t i,
              index_t kk) {
  const index_t panel = i / mr;
  return dst[std::size_t(panel * mr * klen + kk * mr + (i % mr))];
}

/// Reconstruct element (kk, j) of a packed-B region.
template <typename T>
T packed_b_at(const std::vector<T>& dst, index_t nr, index_t klen, index_t kk,
              index_t j) {
  const index_t panel = j / nr;
  return dst[std::size_t(panel * nr * klen + kk * nr + (j % nr))];
}

class PackATest
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, bool>> {};

TEST_P(PackATest, RoundTripWithAlphaAndPadding) {
  const auto [mlen, klen, trans] = GetParam();
  const index_t mr = 16;
  const double alpha = 1.25;
  // Source "A" is 100x100 so sub-regions with offsets are exercised.
  Matrix<double> src(100, 100);
  src.fill_random(11);
  const OperandView<double> view{src.data(), src.ld(), trans};
  const index_t m0 = 8, k0 = 8;

  const index_t panels = (mlen + mr - 1) / mr;
  std::vector<double> dst(static_cast<std::size_t>(panels * mr * klen), -777.0);
  pack_a(view, m0, k0, mlen, klen, mr, alpha, dst.data());

  for (index_t i = 0; i < mlen; ++i)
    for (index_t kk = 0; kk < klen; ++kk)
      EXPECT_DOUBLE_EQ(packed_a_at(dst, mr, klen, i, kk),
                       alpha * view.at(m0 + i, k0 + kk))
          << i << "," << kk;
  // Zero padding in the last partial panel.
  for (index_t i = mlen; i < panels * mr; ++i)
    for (index_t kk = 0; kk < klen; ++kk)
      EXPECT_DOUBLE_EQ(packed_a_at(dst, mr, klen, i, kk), 0.0);
}

TEST_P(PackATest, FtVariantPacksIdenticallyAndUpdatesCc) {
  const auto [mlen, klen, trans] = GetParam();
  const index_t mr = 16;
  const double alpha = -0.5;
  Matrix<double> src(100, 100);
  src.fill_random(13);
  const OperandView<double> view{src.data(), src.ld(), trans};
  const index_t m0 = 0, k0 = 4;

  std::vector<double> bc(static_cast<std::size_t>(klen));
  for (index_t kk = 0; kk < klen; ++kk) bc[std::size_t(kk)] = 0.1 * double(kk + 1);

  const index_t panels = (mlen + mr - 1) / mr;
  std::vector<double> dst_plain(static_cast<std::size_t>(panels * mr * klen));
  std::vector<double> dst_ft(static_cast<std::size_t>(panels * mr * klen));
  std::vector<double> cc(static_cast<std::size_t>(mlen), 1.0);  // pre-seeded: must accumulate

  pack_a(view, m0, k0, mlen, klen, mr, alpha, dst_plain.data());
  pack_a_ft(view, m0, k0, mlen, klen, mr, alpha, dst_ft.data(), bc.data(),
            cc.data());

  EXPECT_EQ(dst_plain, dst_ft) << "FT packing must not change the panel";
  for (index_t i = 0; i < mlen; ++i) {
    double want = 1.0;
    for (index_t kk = 0; kk < klen; ++kk)
      want += alpha * view.at(m0 + i, k0 + kk) * bc[std::size_t(kk)];
    EXPECT_NEAR(cc[std::size_t(i)], want,
                1e-12 * std::max(1.0, std::abs(want)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackATest,
    ::testing::Combine(::testing::Values<index_t>(1, 15, 16, 17, 48, 61),
                       ::testing::Values<index_t>(1, 7, 64),
                       ::testing::Bool()),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_trans" : "_notrans");
    });

class PackBTest
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, bool>> {};

TEST_P(PackBTest, RoundTripWithPadding) {
  const auto [nlen, klen, trans] = GetParam();
  const index_t nr = 8;
  Matrix<double> src(100, 100);
  src.fill_random(17);
  const OperandView<double> view{src.data(), src.ld(), trans};
  const index_t k0 = 3, j0 = 5;

  const index_t panels = (nlen + nr - 1) / nr;
  std::vector<double> dst(static_cast<std::size_t>(panels * nr * klen), -777.0);
  pack_b(view, k0, j0, klen, nlen, nr, dst.data());

  for (index_t kk = 0; kk < klen; ++kk) {
    for (index_t j = 0; j < nlen; ++j)
      EXPECT_DOUBLE_EQ(packed_b_at(dst, nr, klen, kk, j),
                       view.at(k0 + kk, j0 + j));
    for (index_t j = nlen; j < panels * nr; ++j)
      EXPECT_DOUBLE_EQ(packed_b_at(dst, nr, klen, kk, j), 0.0);
  }
}

TEST_P(PackBTest, FtVariantPacksIdenticallyAndUpdatesCr) {
  const auto [nlen, klen, trans] = GetParam();
  const index_t nr = 8;
  Matrix<double> src(100, 100);
  src.fill_random(19);
  const OperandView<double> view{src.data(), src.ld(), trans};
  const index_t k0 = 0, j0 = 2;

  std::vector<double> ar(static_cast<std::size_t>(klen));
  for (index_t kk = 0; kk < klen; ++kk)
    ar[std::size_t(kk)] = 0.01 * double(kk) - 0.3;

  const index_t panels = (nlen + nr - 1) / nr;
  std::vector<double> dst_plain(static_cast<std::size_t>(panels * nr * klen));
  std::vector<double> dst_ft(static_cast<std::size_t>(panels * nr * klen));
  std::vector<double> cr(static_cast<std::size_t>(nlen), 2.0);

  pack_b(view, k0, j0, klen, nlen, nr, dst_plain.data());
  pack_b_ft(view, k0, j0, klen, nlen, nr, dst_ft.data(), ar.data(),
            cr.data());

  EXPECT_EQ(dst_plain, dst_ft);
  for (index_t j = 0; j < nlen; ++j) {
    double want = 2.0;
    for (index_t kk = 0; kk < klen; ++kk)
      want += ar[std::size_t(kk)] * view.at(k0 + kk, j0 + j);
    EXPECT_NEAR(cr[std::size_t(j)], want,
                1e-11 * std::max(1.0, std::abs(want)))
        << "col " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackBTest,
    ::testing::Combine(::testing::Values<index_t>(1, 7, 8, 9, 40, 83),
                       ::testing::Values<index_t>(1, 13, 64),
                       ::testing::Bool()),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_trans" : "_notrans");
    });

TEST(ReduceBc, MatchesDirectRowSumsAndTracksAmax) {
  const index_t nr = 8, klen = 37, nlen = 43;
  Matrix<double> src(klen, nlen);
  src.fill_random(23, -2.0, 2.0);
  const OperandView<double> view{src.data(), src.ld(), false};

  const index_t panels = (nlen + nr - 1) / nr;
  std::vector<double> packed(static_cast<std::size_t>(panels * nr * klen));
  pack_b(view, 0, 0, klen, nlen, nr, packed.data());

  std::vector<double> bc(static_cast<std::size_t>(klen), -1.0);
  const double amax =
      reduce_bc_from_panel(packed.data(), klen, nlen, nr, bc.data(), 0.5);

  double amax_want = 0.5;
  for (index_t kk = 0; kk < klen; ++kk) {
    double want = 0.0;
    for (index_t j = 0; j < nlen; ++j) {
      want += src(kk, j);
      amax_want = std::max(amax_want, std::abs(src(kk, j)));
    }
    EXPECT_NEAR(bc[std::size_t(kk)], want, 1e-12 * std::max(1.0, std::abs(want)));
  }
  EXPECT_DOUBLE_EQ(amax, amax_want);
}

// ---------------------------------------------------------------------------
// Regression: tiles wider than the fixed accumulator block (nr >
// kPackAccLanes) used to overrun the stack-local amax/acc arrays.  Both
// panel reductions must produce correct results for any nr.
// ---------------------------------------------------------------------------

TEST(WideTileRegression, ReduceBcHandlesNrBeyondAccumulatorBlock) {
  const index_t nr = kPackAccLanes + 8;  // 24: wider than one acc block
  const index_t klen = 9, nlen = 2 * nr + 5;
  Matrix<double> src(klen, nlen);
  src.fill_random(29, -3.0, 3.0);
  const OperandView<double> view{src.data(), src.ld(), false};

  const index_t panels = (nlen + nr - 1) / nr;
  std::vector<double> packed(static_cast<std::size_t>(panels * nr * klen));
  pack_b(view, 0, 0, klen, nlen, nr, packed.data());

  std::vector<double> bc(static_cast<std::size_t>(klen));
  const double amax =
      reduce_bc_from_panel(packed.data(), klen, nlen, nr, bc.data(), 0.0);

  double amax_want = 0.0;
  for (index_t kk = 0; kk < klen; ++kk) {
    double want = 0.0;
    for (index_t j = 0; j < nlen; ++j) {
      want += src(kk, j);
      amax_want = std::max(amax_want, std::abs(src(kk, j)));
    }
    EXPECT_NEAR(bc[std::size_t(kk)], want,
                1e-12 * std::max(1.0, std::abs(want)));
  }
  EXPECT_DOUBLE_EQ(amax, amax_want);
}

TEST(WideTileRegression, PackBFtHandlesNrBeyondAccumulatorBlock) {
  const index_t nr = kPackAccLanes + 8, klen = 11, nlen = nr + 7;
  Matrix<double> src(klen, nlen);
  src.fill_random(31);
  const OperandView<double> view{src.data(), src.ld(), false};

  std::vector<double> ar(static_cast<std::size_t>(klen));
  for (index_t kk = 0; kk < klen; ++kk)
    ar[std::size_t(kk)] = 0.05 * double(kk) - 0.2;

  const index_t panels = (nlen + nr - 1) / nr;
  std::vector<double> dst(static_cast<std::size_t>(panels * nr * klen));
  std::vector<double> cr(static_cast<std::size_t>(nlen), 0.5);
  pack_b_ft(view, 0, 0, klen, nlen, nr, dst.data(), ar.data(), cr.data());

  for (index_t j = 0; j < nlen; ++j) {
    double want = 0.5;
    for (index_t kk = 0; kk < klen; ++kk)
      want += ar[std::size_t(kk)] * src(kk, j);
    EXPECT_NEAR(cr[std::size_t(j)], want,
                1e-11 * std::max(1.0, std::abs(want)))
        << "col " << j;
  }
}

// ---------------------------------------------------------------------------
// ISA-dispatched SIMD engine vs the scalar oracle: panels bit-identical,
// checksums within a reassociation tolerance, over {NoTrans, Trans} x
// ragged tails x every ISA this machine can execute.
// ---------------------------------------------------------------------------

std::vector<Isa> executable_isas() {
  std::vector<Isa> v{Isa::kScalar};
  if (cpu_features().has_avx2_kernel_support()) v.push_back(Isa::kAvx2);
  if (cpu_features().has_avx512_kernel_support()) v.push_back(Isa::kAvx512);
  return v;
}

template <typename T>
double near_tol() {
  return sizeof(T) == 8 ? 1e-11 : 1e-3;
}

template <typename T>
void expect_near_vec(const std::vector<T>& got, const std::vector<T>& want,
                     const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(double(got[i]), double(want[i]),
                near_tol<T>() * std::max(1.0, std::abs(double(want[i]))))
        << what << " [" << i << "]";
  }
}

template <typename T>
void run_dispatch_sweep(Isa isa) {
  const PackSet<T> simd = get_pack_set<T>(isa);
  const PackSet<T> ref = get_pack_set<T>(Isa::kScalar);
  ASSERT_NE(simd.pack_a, nullptr);
  ASSERT_NE(simd.pack_a_ft, nullptr);
  ASSERT_NE(simd.pack_b, nullptr);
  ASSERT_NE(simd.pack_b_ft, nullptr);
  ASSERT_NE(simd.reduce_bc, nullptr);
  ASSERT_NE(simd.scale_encode_c, nullptr);
  ASSERT_NE(simd.encode_ar, nullptr);

  const KernelSet<T> ks = get_kernel_set<T>(isa);
  const index_t mr = ks.mr, nr = ks.nr;
  const T alpha = T(1.25);
  Matrix<T> src(200, 200);
  src.fill_random(37);

  // 13 and 37 leave a ragged last register block in reduce_bc for every
  // tier's NR; 16 x 2*NR is two whole sub-panels.
  const index_t klens[] = {1, 3, 7, 8, 13, 16, 37, 64};
  const index_t mlens[] = {1,      mr - 1, mr,         mr + 1,
                           3 * mr, 5 * mr - 3};
  const index_t nlens[] = {1,          nr - 1, nr,     nr + 1,     2 * nr,
                           3 * nr - 1, 4 * nr, 6 * nr - 3};

  for (const bool trans : {false, true}) {
    const OperandView<T> view{src.data(), src.ld(), trans};
    for (const index_t klen : klens) {
      // ---- pack_a / pack_a_ft ----
      for (const index_t mlen : mlens) {
        if (mlen <= 0) continue;
        SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                     " trans=" + std::to_string(trans) +
                     " mlen=" + std::to_string(mlen) +
                     " klen=" + std::to_string(klen));
        const index_t panels = (mlen + mr - 1) / mr;
        const std::size_t dn = std::size_t(panels * mr * klen);
        std::vector<T> want(dn, T(-77)), got(dn, T(-55));
        ref.pack_a(view, 2, 1, mlen, klen, mr, alpha, want.data());
        simd.pack_a(view, 2, 1, mlen, klen, mr, alpha, got.data());
        EXPECT_EQ(want, got) << "pack_a panel must be bit-identical";

        std::vector<T> bc(static_cast<std::size_t>(klen));
        for (index_t kk = 0; kk < klen; ++kk)
          bc[std::size_t(kk)] = T(0.1) * T(kk + 1);
        std::vector<T> cc_want(std::size_t(mlen), T(1)),
            cc_got(std::size_t(mlen), T(1));
        ref.pack_a_ft(view, 2, 1, mlen, klen, mr, alpha, want.data(),
                      bc.data(), cc_want.data());
        simd.pack_a_ft(view, 2, 1, mlen, klen, mr, alpha, got.data(),
                       bc.data(), cc_got.data());
        EXPECT_EQ(want, got) << "pack_a_ft panel must be bit-identical";
        expect_near_vec(cc_got, cc_want, "cc");
      }

      // ---- pack_b / pack_b_ft / reduce_bc ----
      for (const index_t nlen : nlens) {
        if (nlen <= 0) continue;
        SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                     " trans=" + std::to_string(trans) +
                     " nlen=" + std::to_string(nlen) +
                     " klen=" + std::to_string(klen));
        const index_t panels = (nlen + nr - 1) / nr;
        const std::size_t dn = std::size_t(panels * nr * klen);
        std::vector<T> want(dn, T(-77)), got(dn, T(-55));
        ref.pack_b(view, 1, 2, klen, nlen, nr, want.data());
        simd.pack_b(view, 1, 2, klen, nlen, nr, got.data());
        EXPECT_EQ(want, got) << "pack_b panel must be bit-identical";

        std::vector<T> ar(static_cast<std::size_t>(klen));
        for (index_t kk = 0; kk < klen; ++kk)
          ar[std::size_t(kk)] = T(0.01) * T(kk) - T(0.3);
        std::vector<T> cr_want(std::size_t(nlen), T(2)),
            cr_got(std::size_t(nlen), T(2));
        ref.pack_b_ft(view, 1, 2, klen, nlen, nr, want.data(), ar.data(),
                      cr_want.data());
        simd.pack_b_ft(view, 1, 2, klen, nlen, nr, got.data(), ar.data(),
                       cr_got.data());
        EXPECT_EQ(want, got) << "pack_b_ft panel must be bit-identical";
        expect_near_vec(cr_got, cr_want, "cr");

        std::vector<T> bc_want(static_cast<std::size_t>(klen), T(-9)),
            bc_got(static_cast<std::size_t>(klen), T(-7));
        const double amax_want = ref.reduce_bc(want.data(), klen, nlen, nr,
                                               bc_want.data(), 0.25);
        const double amax_got = simd.reduce_bc(got.data(), klen, nlen, nr,
                                               bc_got.data(), 0.25);
        expect_near_vec(bc_got, bc_want, "bc");
        EXPECT_DOUBLE_EQ(amax_got, amax_want) << "amax is order-independent";
      }

      // A member that packed no columns contributes a zero Bc partial.
      std::vector<T> bc_empty(static_cast<std::size_t>(klen), T(-9));
      EXPECT_DOUBLE_EQ(
          simd.reduce_bc(src.data(), klen, 0, nr, bc_empty.data(), 0.25),
          0.25);
      EXPECT_EQ(bc_empty, std::vector<T>(std::size_t(klen), T(0)));
    }
  }

  // ---- scale_encode_c (beta = 0 / 1 / other) + encode_ar ----
  for (const T beta : {T(0), T(1), T(-0.75)}) {
    for (const index_t ilen : {index_t(1), index_t(7), index_t(8),
                               index_t(33), index_t(64)}) {
      SCOPED_TRACE("isa=" + std::string(isa_name(isa)) + " beta=" +
                   std::to_string(double(beta)) +
                   " ilen=" + std::to_string(ilen));
      const index_t n = 19, ldc = 70, i0 = 3;
      Matrix<T> c_want(ldc, n), c_got(ldc, n);
      c_want.fill_random(41);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < ldc; ++i) c_got(i, j) = c_want(i, j);
      std::vector<T> cc_want(std::size_t(i0 + ilen), T(0.5)),
          cc_got(std::size_t(i0 + ilen), T(0.5));
      std::vector<T> cr_want(std::size_t(n), T(-1)),
          cr_got(std::size_t(n), T(-1));
      const PackSet<T> sc = get_pack_set<T>(Isa::kScalar);
      const double amax_want =
          sc.scale_encode_c(c_want.data(), ldc, i0, ilen, n, beta,
                            cc_want.data(), cr_want.data());
      const double amax_got =
          get_pack_set<T>(isa).scale_encode_c(c_got.data(), ldc, i0, ilen, n,
                                              beta, cc_got.data(),
                                              cr_got.data());
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < ldc; ++i)
          EXPECT_EQ(c_got(i, j), c_want(i, j))
              << "scaled C must be bit-identical at " << i << "," << j;
      expect_near_vec(cc_got, cc_want, "cc");
      expect_near_vec(cr_got, cr_want, "cr_part");
      EXPECT_DOUBLE_EQ(amax_got, amax_want);
    }
  }

  for (const bool trans : {false, true}) {
    for (const index_t ilen : {index_t(1), index_t(9), index_t(40)}) {
      for (const index_t k : {index_t(1), index_t(13), index_t(64)}) {
        SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                     " trans=" + std::to_string(trans) +
                     " ilen=" + std::to_string(ilen) +
                     " k=" + std::to_string(k));
        const OperandView<T> view{src.data(), src.ld(), trans};
        std::vector<T> ar_want(std::size_t(k), T(0.25)),
            ar_got(std::size_t(k), T(0.25));
        const double amax_want = get_pack_set<T>(Isa::kScalar).encode_ar(
            view, 4, ilen, k, T(-0.5), ar_want.data());
        const double amax_got = get_pack_set<T>(isa).encode_ar(
            view, 4, ilen, k, T(-0.5), ar_got.data());
        expect_near_vec(ar_got, ar_want, "ar_part");
        EXPECT_DOUBLE_EQ(amax_got, amax_want);
      }
    }
  }
}

TEST(PackDispatch, F64MatchesScalarOracleAcrossIsas) {
  for (const Isa isa : executable_isas()) run_dispatch_sweep<double>(isa);
}

TEST(PackDispatch, F32MatchesScalarOracleAcrossIsas) {
  for (const Isa isa : executable_isas()) run_dispatch_sweep<float>(isa);
}

TEST(PackDispatch, I8ReduceBcMatchesScalarAcrossIsas) {
  // Integer sums are exact: every tier's Bc must equal the column sums of
  // the operand, including ragged depth quads and a chunk with no columns.
  Matrix<std::int8_t> src(80, 80);
  src.fill_random(43, std::int8_t(-128), std::int8_t(127));
  const OperandView<std::int8_t> view{src.data(), src.ld(), false};
  const PackSet<std::int8_t, std::int32_t> ref =
      get_pack_set<std::int8_t, std::int32_t>(Isa::kScalar);
  for (const Isa isa : executable_isas()) {
    const auto ks = get_kernel_set<std::int8_t, std::int32_t>(isa);
    const index_t nr = ks.nr;
    for (const index_t klen : {index_t(1), index_t(4), index_t(7),
                               index_t(17), index_t(64)}) {
      for (const index_t nlen : {index_t(0), index_t(1), nr - 1, nr,
                                 2 * nr + 3}) {
        SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                     " klen=" + std::to_string(klen) +
                     " nlen=" + std::to_string(nlen));
        const index_t tiles = std::max<index_t>((nlen + nr - 1) / nr, 1);
        std::vector<std::int8_t> packed(
            std::size_t(tiles * i8_tile_bytes(klen, nr)), 0);
        ref.pack_b(view, 1, 2, klen, nlen, nr, packed.data(), nullptr);
        std::vector<std::int32_t> want(std::size_t(klen), 0);
        for (index_t kk = 0; kk < klen; ++kk)
          for (index_t j = 0; j < nlen; ++j)
            want[std::size_t(kk)] += src(1 + kk, 2 + j);
        std::vector<std::int32_t> got(std::size_t(klen), -9);
        ks.pack.reduce_bc(packed.data(), klen, nlen, nr, got.data());
        EXPECT_EQ(got, want);
      }
    }
  }
}

/// Checksum operands at every base-256 digit boundary the SIMD passes
/// split on, plus the largest values four signed digits cover and the
/// first that does not (the portable fallback).
std::vector<std::int32_t> i8_digit_boundaries() {
  return {0,          127,        -127,       128,        -128,
          1 << 15,    -(1 << 15), (1 << 23) - 1, -((1 << 23) - 1),
          1 << 23,    -(1 << 23), 2139062143, 2139062144,
          std::numeric_limits<std::int32_t>::max(),
          std::numeric_limits<std::int32_t>::min()};
}

/// Checksum operand vectors of depth klen: random magnitudes, then every
/// boundary value alone and interleaved with small values (so each vector's
/// largest magnitude is the boundary value itself).
std::vector<std::vector<std::int32_t>> i8_checksum_vectors(
    index_t klen, std::uint64_t seed) {
  std::vector<std::vector<std::int32_t>> out;
  Xoshiro256 rng(seed);
  std::vector<std::int32_t> random(static_cast<std::size_t>(klen));
  for (auto& v : random) v = std::int32_t(rng.bounded(200001)) - 100000;
  out.push_back(random);
  for (const std::int32_t b : i8_digit_boundaries()) {
    out.emplace_back(static_cast<std::size_t>(klen), b);
    std::vector<std::int32_t> mixed(static_cast<std::size_t>(klen));
    for (index_t kk = 0; kk < klen; ++kk)
      mixed[std::size_t(kk)] = kk % 2 == 0 ? b : std::int32_t(kk % 3) - 1;
    out.push_back(mixed);
  }
  return out;
}

// Every tier's Cc (from the packed A~) and Cr (fused into pack_b_ft over
// op(B), both transposes) must equal a direct int64 sum over the operand,
// on ragged tiles and depths and at every digit boundary of Bc/Ar.
TEST(PackDispatch, I8EncodeCcAndPackBFtMatchDirectSumsAcrossIsas) {
  Matrix<std::int8_t> src(300, 300);
  src.fill_random(47, std::int8_t(-128), std::int8_t(127));
  const PackSet<std::int8_t, std::int32_t> ref =
      get_pack_set<std::int8_t, std::int32_t>(Isa::kScalar);
  const index_t m0 = 5, k0 = 3, j0 = 2;
  for (const Isa isa : executable_isas()) {
    const auto ks = get_kernel_set<std::int8_t, std::int32_t>(isa);
    const index_t mr = ks.mr, nr = ks.nr;
    for (const index_t klen : {index_t(1), index_t(3), index_t(4),
                               index_t(17), index_t(64), index_t(257)}) {
      const auto sums = i8_checksum_vectors(klen, std::uint64_t(klen));
      // ---- encode_cc over a packed A~ slab ----
      const OperandView<std::int8_t> av{src.data(), src.ld(), false};
      for (const index_t mlen : {index_t(1), mr - 1, mr, 2 * mr + 3}) {
        if (mlen <= 0) continue;
        const index_t tiles = (mlen + mr - 1) / mr;
        std::vector<std::uint8_t> packed(
            std::size_t(tiles * i8_tile_bytes(klen, mr)), 0xEE);
        ks.pack.pack_a(av, m0, k0, mlen, klen, mr, packed.data(), nullptr);
        for (std::size_t v = 0; v < sums.size(); ++v) {
          SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                       " mlen=" + std::to_string(mlen) +
                       " klen=" + std::to_string(klen) +
                       " bc vector " + std::to_string(v));
          const std::vector<std::int32_t>& bc = sums[v];
          std::vector<std::int64_t> want(std::size_t(mlen) + 1), got;
          for (index_t i = 0; i <= mlen; ++i)
            want[std::size_t(i)] = 7 * i - 3;
          got = want;
          for (index_t i = 0; i < mlen; ++i)
            for (index_t kk = 0; kk < klen; ++kk)
              want[std::size_t(i)] +=
                  std::int64_t(bias_i8(src(m0 + i, k0 + kk))) *
                  std::int64_t(bc[std::size_t(kk)]);
          ks.pack.encode_cc(packed.data(), mlen, klen, mr, bc.data(),
                            got.data());
          EXPECT_EQ(got, want) << "the slot past mlen is a canary";
        }
      }
      // ---- pack_b_ft: bytes, bcol and Cr over op(B) ----
      for (const bool trans : {false, true}) {
        const OperandView<std::int8_t> bv{src.data(), src.ld(), trans};
        for (const index_t nlen : {index_t(1), nr - 1, nr, 2 * nr + 3}) {
          if (nlen <= 0) continue;
          const index_t tiles = (nlen + nr - 1) / nr;
          const std::size_t bytes =
              std::size_t(tiles * i8_tile_bytes(klen, nr));
          std::vector<std::int8_t> want_b(bytes, 0x11);
          std::vector<std::int32_t> want_bcol(std::size_t(j0 + nlen), 4);
          ref.pack_b(bv, k0, j0, klen, nlen, nr, want_b.data(),
                     want_bcol.data());
          for (std::size_t v = 0; v < sums.size(); ++v) {
            SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                         " trans=" + std::to_string(trans) +
                         " nlen=" + std::to_string(nlen) +
                         " klen=" + std::to_string(klen) +
                         " ar vector " + std::to_string(v));
            const std::vector<std::int32_t>& ar = sums[v];
            std::vector<std::int64_t> want(std::size_t(j0 + nlen) + 1), got;
            for (std::size_t j = 0; j < want.size(); ++j)
              want[j] = 5 - 11 * std::int64_t(j);
            got = want;
            for (index_t j = 0; j < nlen; ++j)
              for (index_t kk = 0; kk < klen; ++kk)
                want[std::size_t(j0 + j)] +=
                    std::int64_t(ar[std::size_t(kk)]) *
                    std::int64_t(bv.at(k0 + kk, j0 + j));
            std::vector<std::int8_t> got_b(bytes, 0x22);
            std::vector<std::int32_t> got_bcol(std::size_t(j0 + nlen), 4);
            ks.pack.pack_b_ft(bv, k0, j0, klen, nlen, nr, got_b.data(),
                              got_bcol.data(), ar.data(), got.data());
            EXPECT_EQ(got, want) << "the slot past j0+nlen is a canary";
            EXPECT_EQ(got_b, want_b) << "pack_b_ft bytes must equal pack_b";
            EXPECT_EQ(got_bcol, want_bcol);
          }
        }
      }
    }
  }
}

TEST(PackDispatch, KernelSetCarriesMatchingPackSet) {
  for (const Isa isa : executable_isas()) {
    const KernelSet<double> ks = get_kernel_set<double>(isa);
    EXPECT_EQ(ks.pack.isa, isa);
    EXPECT_NE(ks.pack.pack_a_ft, nullptr);
    EXPECT_NE(ks.pack.reduce_bc, nullptr);
    EXPECT_NE(ks.pack.scale_encode_c, nullptr);
  }
}

}  // namespace
}  // namespace ftgemm
