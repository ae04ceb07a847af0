// Mixed-precision (bf16/fp16 storage, fp32 compute) test suite — the
// contracts DESIGN.md §10 states:
//
//   1. Conversion layer: widen is exact over every representable bit
//      pattern, narrow is round-to-nearest-even (normals, subnormals,
//      overflow-to-inf), NaNs quiet but never turn finite.
//   2. Convert-on-pack bit-identity: for every executable ISA, the fused
//      widening packers produce panels bit-identical to converting each
//      element to fp32 first and running the fp32 scalar packer; panels,
//      Cc, Cr, Ar and amax are bit-identical to the same ISA's fp32 set run
//      on the widened operand (one engine, a widening load in front); and
//      the resident raw-pack + widen-on-hit pair reproduces the cold pack
//      bit-for-bit.
//   3. Tolerance contract: FT verification thresholds (derived in the fp32
//      accumulator type) hold with narrow storage — clean runs report
//      clean and match the fp32 oracle on the widened operands, across
//      fast/general paths, sync/engine/resident/service routing, and
//      injected faults are corrected or flagged at parity with fp32.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/cpu_features.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batched.hpp"
#include "inject/injectors.hpp"
#include "serve/service.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::expect_matrix_near;
using testing::GemmCase;
using testing::gemm_tolerance;
using testing::seed_note;
using testing::test_seed;

std::vector<Isa> executable_isas() {
  std::vector<Isa> v{Isa::kScalar};
  if (cpu_features().has_avx2_kernel_support()) v.push_back(Isa::kAvx2);
  if (cpu_features().has_avx512_kernel_support()) v.push_back(Isa::kAvx512);
  return v;
}

// ---------------------------------------------------------------------------
// 1. Conversion layer.
// ---------------------------------------------------------------------------

TEST(Bf16Convert, AllBitPatternsRoundTripThroughFloat) {
  for (std::uint32_t b = 0; b <= 0xffffu; ++b) {
    const bf16_t h = bf16_t::from_bits(std::uint16_t(b));
    const float f = float(h);
    const bf16_t back(f);
    if (std::isnan(f)) {
      // NaN payloads may be quieted, but NaN-ness and sign must survive.
      EXPECT_TRUE(std::isnan(float(back))) << "bits=" << b;
      EXPECT_EQ(back.bits & 0x8000u, b & 0x8000u) << "bits=" << b;
    } else {
      // bf16 is a strict subset of f32: widen is exact, so narrowing the
      // widened value must reproduce the bits — including ±0, ±inf, and
      // every subnormal.
      EXPECT_EQ(back.bits, std::uint16_t(b)) << "bits=" << b;
    }
  }
}

TEST(F16Convert, AllBitPatternsRoundTripThroughFloat) {
  for (std::uint32_t b = 0; b <= 0xffffu; ++b) {
    const fp16_t h = fp16_t::from_bits(std::uint16_t(b));
    const float f = float(h);
    const fp16_t back(f);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(float(back))) << "bits=" << b;
      EXPECT_EQ(back.bits & 0x8000u, b & 0x8000u) << "bits=" << b;
    } else {
      EXPECT_EQ(back.bits, std::uint16_t(b)) << "bits=" << b;
    }
  }
}

TEST(Bf16Convert, NarrowingRoundsToNearestEven) {
  // 1.0 = 0x3f80; one bf16 ulp at that scale is 2^-7.  Exactly-halfway
  // values must round to the even mantissa, everything else to nearest.
  const float ulp = std::ldexp(1.0f, -7);
  EXPECT_EQ(bf16_t(1.0f).bits, 0x3f80u);
  EXPECT_EQ(bf16_t(1.0f + 0.5f * ulp).bits, 0x3f80u);   // halfway -> even
  EXPECT_EQ(bf16_t(1.0f + 1.5f * ulp).bits, 0x3f82u);   // halfway -> even
  EXPECT_EQ(bf16_t(1.0f + 0.51f * ulp).bits, 0x3f81u);  // above half -> up
  EXPECT_EQ(bf16_t(1.0f + 0.49f * ulp).bits, 0x3f80u);  // below half -> down
  EXPECT_EQ(bf16_t(-(1.0f + 0.5f * ulp)).bits, 0xbf80u);
}

TEST(F16Convert, NarrowingRoundsToNearestEven) {
  // 1.0 = 0x3c00; one fp16 ulp at that scale is 2^-10.
  const float ulp = std::ldexp(1.0f, -10);
  EXPECT_EQ(fp16_t(1.0f).bits, 0x3c00u);
  EXPECT_EQ(fp16_t(1.0f + 0.5f * ulp).bits, 0x3c00u);
  EXPECT_EQ(fp16_t(1.0f + 1.5f * ulp).bits, 0x3c02u);
  EXPECT_EQ(fp16_t(1.0f + 0.51f * ulp).bits, 0x3c01u);
  EXPECT_EQ(fp16_t(-(1.0f + 0.5f * ulp)).bits, 0xbc00u);
}

TEST(F16Convert, SubnormalsAndOverflow) {
  // Smallest fp16 subnormal is 2^-24; halves below 2^-25 round to zero.
  EXPECT_EQ(fp16_t(std::ldexp(1.0f, -24)).bits, 0x0001u);
  EXPECT_EQ(fp16_t(std::ldexp(1.5f, -24)).bits, 0x0002u);  // halfway -> even
  EXPECT_EQ(fp16_t(std::ldexp(1.0f, -25)).bits, 0x0000u);  // halfway -> even
  EXPECT_EQ(fp16_t(std::ldexp(1.0f, -26)).bits, 0x0000u);
  EXPECT_EQ(fp16_t(-std::ldexp(1.0f, -24)).bits, 0x8001u);
  // Subnormal widening is exact and normalizes.
  EXPECT_EQ(float(fp16_t::from_bits(0x0001u)), std::ldexp(1.0f, -24));
  EXPECT_EQ(float(fp16_t::from_bits(0x03ffu)),
            1023.0f * std::ldexp(1.0f, -24));
  // Largest normal is 65504; the halfway point to the (absent) next value
  // rounds up to inf, as does any larger magnitude.
  EXPECT_EQ(fp16_t(65504.0f).bits, 0x7bffu);
  EXPECT_EQ(fp16_t(65520.0f).bits, 0x7c00u);
  EXPECT_EQ(fp16_t(1e30f).bits, 0x7c00u);
  EXPECT_EQ(fp16_t(-1e30f).bits, 0xfc00u);
}

TEST(HalfConvert, InfAndNanSemantics) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(bf16_t(inf).bits, 0x7f80u);
  EXPECT_EQ(bf16_t(-inf).bits, 0xff80u);
  EXPECT_EQ(float(bf16_t::from_bits(0x7f80u)), inf);
  EXPECT_TRUE(std::isnan(float(bf16_t(qnan))));
  EXPECT_EQ(fp16_t(inf).bits, 0x7c00u);
  EXPECT_EQ(float(fp16_t::from_bits(0xfc00u)), -inf);
  EXPECT_TRUE(std::isnan(float(fp16_t(qnan))));
  // Signaling-NaN inputs widen to NaN (quieted), never to a finite value.
  EXPECT_TRUE(std::isnan(float(fp16_t::from_bits(0x7c01u))));
  EXPECT_TRUE(std::isnan(float(bf16_t::from_bits(0x7f81u))));
}

// ---------------------------------------------------------------------------
// 2. Convert-on-pack bit-identity across ISAs.
// ---------------------------------------------------------------------------

/// Widen a narrow matrix elementwise into fp32 (the "convert first"
/// reference path).
template <typename S>
Matrix<float> widened(const Matrix<S>& src) {
  Matrix<float> out(src.rows(), src.cols(), src.ld());
  for (index_t j = 0; j < src.cols(); ++j)
    for (index_t i = 0; i < src.ld(); ++i) out(i, j) = float(src(i, j));
  return out;
}

/// The narrow set of `isa` against (a) the scalar fp32 oracle and (b) the
/// fp32 set of the same ISA, both run on the widened operand.  (b) is exact
/// on every output: the narrow and fp32 sets are one engine whose loads
/// differ only by the widen.
template <typename S>
void convert_on_pack_sweep(Isa isa) {
  const PackSet<S, float> mixed = get_pack_set<S, float>(isa);
  const PackSet<float> f32 = get_pack_set<float>(Isa::kScalar);
  const PackSet<float> same = get_pack_set<float>(isa);
  ASSERT_NE(mixed.pack_a, nullptr);
  ASSERT_NE(mixed.pack_a_ft, nullptr);
  ASSERT_NE(mixed.pack_b, nullptr);
  ASSERT_NE(mixed.pack_b_ft, nullptr);
  ASSERT_NE(mixed.pack_a_raw, nullptr);
  ASSERT_NE(mixed.widen_a, nullptr);
  EXPECT_EQ(mixed.isa, isa);

  const KernelSet<S, float> ks = get_kernel_set<S, float>(isa);
  const index_t mr = ks.mr, nr = ks.nr;
  Matrix<S> src(150, 150);
  src.fill_random(53);
  const Matrix<float> wide = widened(src);

  for (const bool trans : {false, true}) {
    const OperandView<S> view{src.data(), src.ld(), trans};
    const OperandView<float> wview{wide.data(), wide.ld(), trans};
    for (const index_t klen : {index_t(1), index_t(7), index_t(64)}) {
      for (const index_t mlen :
           {index_t(1), mr - 1, mr, mr + 1, 3 * mr - 2}) {
        SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                     " trans=" + std::to_string(trans) +
                     " mlen=" + std::to_string(mlen) +
                     " klen=" + std::to_string(klen));
        // Rows 2 .. 2 + mlen must lie inside the 150 x 150 source under
        // either transpose (the packers read whole tiles of them).
        ASSERT_LE(2 + mlen, src.rows());
        const float alpha = -1.25f;
        const index_t panels = (mlen + mr - 1) / mr;
        const std::size_t dn = std::size_t(panels * mr * klen);
        std::vector<float> want(dn, -77.0f), got(dn, -55.0f);
        // Reference: convert-then-scalar-pack in fp32.
        f32.pack_a(wview, 2, 1, mlen, klen, mr, alpha, want.data());
        // Under test: fused convert-on-pack.
        mixed.pack_a(view, 2, 1, mlen, klen, mr, alpha, got.data());
        EXPECT_EQ(want, got) << "pack_a must be bit-identical";

        std::vector<float> bc(static_cast<std::size_t>(klen));
        for (index_t kk = 0; kk < klen; ++kk)
          bc[std::size_t(kk)] = 0.1f * float(kk + 1);
        std::vector<float> cc_want(std::size_t(mlen), 1.0f),
            cc_got(std::size_t(mlen), 1.0f);
        f32.pack_a_ft(wview, 2, 1, mlen, klen, mr, alpha, want.data(),
                      bc.data(), cc_want.data());
        mixed.pack_a_ft(view, 2, 1, mlen, klen, mr, alpha, got.data(),
                        bc.data(), cc_got.data());
        EXPECT_EQ(want, got) << "pack_a_ft panel must be bit-identical";
        for (std::size_t i = 0; i < cc_want.size(); ++i) {
          EXPECT_NEAR(cc_got[i], cc_want[i],
                      1e-3 * std::max(1.0, std::abs(double(cc_want[i]))))
              << "cc[" << i << "]";
        }

        // Same ISA's fp32 set on the widened operand: exact everywhere.
        std::vector<float> same_panel(dn, -66.0f);
        same.pack_a(wview, 2, 1, mlen, klen, mr, alpha, same_panel.data());
        mixed.pack_a(view, 2, 1, mlen, klen, mr, alpha, got.data());
        EXPECT_EQ(same_panel, got) << "pack_a must equal the fp32 set";
        std::vector<float> cc_same(std::size_t(mlen), 1.0f);
        same.pack_a_ft(wview, 2, 1, mlen, klen, mr, alpha, same_panel.data(),
                       bc.data(), cc_same.data());
        EXPECT_EQ(same_panel, got) << "pack_a_ft must equal the fp32 set";
        EXPECT_EQ(cc_same, cc_got) << "Cc must equal the fp32 set's";

        // Resident pair: raw permuted storage bits, widened+scaled on hit,
        // must reproduce the cold convert-on-pack panel bit-for-bit
        // (including explicit zero padding rows under negative alpha).
        std::vector<S> raw(dn);
        std::vector<float> widened_panel(dn, -33.0f);
        mixed.pack_a_raw(view, 2, 1, mlen, klen, mr, raw.data());
        mixed.widen_a(raw.data(), mlen, klen, mr, alpha,
                      widened_panel.data());
        EXPECT_EQ(want, widened_panel)
            << "pack_a_raw + widen_a must equal the cold pack";
      }
      for (const index_t nlen :
           {index_t(1), nr - 1, nr, nr + 1, 4 * nr - 3}) {
        SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                     " trans=" + std::to_string(trans) +
                     " nlen=" + std::to_string(nlen) +
                     " klen=" + std::to_string(klen));
        const index_t panels = (nlen + nr - 1) / nr;
        const std::size_t dn = std::size_t(panels * nr * klen);
        std::vector<float> want(dn, -77.0f), got(dn, -55.0f);
        f32.pack_b(wview, 1, 2, klen, nlen, nr, want.data());
        mixed.pack_b(view, 1, 2, klen, nlen, nr, got.data());
        EXPECT_EQ(want, got) << "pack_b must be bit-identical";

        std::vector<float> ar(static_cast<std::size_t>(klen));
        for (index_t kk = 0; kk < klen; ++kk)
          ar[std::size_t(kk)] = 0.01f * float(kk) - 0.3f;
        std::vector<float> cr_want(std::size_t(nlen), 2.0f),
            cr_got(std::size_t(nlen), 2.0f);
        f32.pack_b_ft(wview, 1, 2, klen, nlen, nr, want.data(), ar.data(),
                      cr_want.data());
        mixed.pack_b_ft(view, 1, 2, klen, nlen, nr, got.data(), ar.data(),
                        cr_got.data());
        EXPECT_EQ(want, got) << "pack_b_ft panel must be bit-identical";
        for (std::size_t j = 0; j < cr_want.size(); ++j) {
          EXPECT_NEAR(cr_got[j], cr_want[j],
                      1e-3 * std::max(1.0, std::abs(double(cr_want[j]))))
              << "cr[" << j << "]";
        }

        std::vector<float> same_panel(dn, -66.0f);
        same.pack_b(wview, 1, 2, klen, nlen, nr, same_panel.data());
        mixed.pack_b(view, 1, 2, klen, nlen, nr, got.data());
        EXPECT_EQ(same_panel, got) << "pack_b must equal the fp32 set";
        std::vector<float> cr_same(std::size_t(nlen), 2.0f);
        same.pack_b_ft(wview, 1, 2, klen, nlen, nr, same_panel.data(),
                       ar.data(), cr_same.data());
        EXPECT_EQ(same_panel, got) << "pack_b_ft must equal the fp32 set";
        EXPECT_EQ(cr_same, cr_got) << "Cr must equal the fp32 set's";
      }
    }

    // Ar partial encode + amax over ragged row counts and depths (full
    // vectors, masked tails, and the two-accumulator NoTrans split).
    for (const index_t ilen :
         {index_t(1), index_t(7), index_t(16), index_t(33), index_t(100)}) {
      for (const index_t k :
           {index_t(1), index_t(9), index_t(16), index_t(47), index_t(128)}) {
        SCOPED_TRACE("isa=" + std::string(isa_name(isa)) +
                     " trans=" + std::to_string(trans) +
                     " encode_ar ilen=" + std::to_string(ilen) +
                     " k=" + std::to_string(k));
        ASSERT_LE(3 + ilen, src.rows());
        ASSERT_LE(k, src.cols());
        const float alpha = 0.75f;
        std::vector<float> ar_want(std::size_t(k), 0.5f),
            ar_same(std::size_t(k), 0.5f), ar_got(std::size_t(k), 0.5f);
        const double amax_want =
            f32.encode_ar(wview, 3, ilen, k, alpha, ar_want.data());
        const double amax_same =
            same.encode_ar(wview, 3, ilen, k, alpha, ar_same.data());
        const double amax_got =
            mixed.encode_ar(view, 3, ilen, k, alpha, ar_got.data());
        EXPECT_EQ(amax_want, amax_got) << "amax is a max: exact in any order";
        EXPECT_EQ(amax_same, amax_got);
        EXPECT_EQ(ar_same, ar_got) << "Ar must equal the fp32 set's";
        for (std::size_t p = 0; p < ar_want.size(); ++p) {
          EXPECT_NEAR(ar_got[p], ar_want[p],
                      1e-3 * std::max(1.0, std::abs(double(ar_want[p]))))
              << "ar[" << p << "]";
        }
      }
    }
  }
}

TEST(MixedPackDispatch, Bf16ConvertOnPackMatchesConvertThenPack) {
  for (const Isa isa : executable_isas()) convert_on_pack_sweep<bf16_t>(isa);
}

TEST(MixedPackDispatch, F16ConvertOnPackMatchesConvertThenPack) {
  for (const Isa isa : executable_isas()) convert_on_pack_sweep<fp16_t>(isa);
}

TEST(MixedPackDispatch, KernelSetReusesComputeTypeMicroKernels) {
  for (const Isa isa : executable_isas()) {
    const KernelSet<bf16_t, float> mixed = get_kernel_set<bf16_t, float>(isa);
    const KernelSet<float> f32 = get_kernel_set<float>(isa);
    // Narrow storage never reaches a multiplier: the micro-kernels, register
    // tile, and FT epilogue lanes are the fp32 ones.
    EXPECT_EQ(mixed.base, f32.base);
    EXPECT_EQ(mixed.ft, f32.ft);
    EXPECT_EQ(mixed.mr, f32.mr);
    EXPECT_EQ(mixed.nr, f32.nr);
    EXPECT_EQ(mixed.cr_lanes, f32.cr_lanes);
    // ...and the checksum reductions over fp32 panels are shared too.
    EXPECT_EQ(mixed.pack.reduce_bc, f32.pack.reduce_bc);
    EXPECT_EQ(mixed.pack.scale_encode_c, f32.pack.scale_encode_c);
    EXPECT_EQ(mixed.pack.encode_cc, f32.pack.encode_cc);
  }
}

// ---------------------------------------------------------------------------
// 3. End-to-end mixed FT-GEMM: tolerance contract, routing bit-identity,
//    and fault-injection parity.
// ---------------------------------------------------------------------------

/// Mixed-precision problem: narrow A/B, fp32 C.
template <typename S>
struct MixedProblem {
  Matrix<S> a, b;
  Matrix<float> c;

  explicit MixedProblem(const GemmCase& cs, std::uint64_t seed = 7) {
    const auto [am, an] = testing::a_dims(cs);
    const auto [bm, bn] = testing::b_dims(cs);
    a = Matrix<S>(am, an);
    b = Matrix<S>(bm, bn);
    c = Matrix<float>(cs.m, cs.n);
    a.fill_random(seed);
    b.fill_random(seed + 1);
    c.fill_random(seed + 2);
  }

  /// fp32 oracle on the *quantized* operands: the narrow values are exact
  /// fp32 numbers, so the only difference vs the library is accumulation
  /// order — gemm_tolerance<float>(k) is the right budget.
  [[nodiscard]] Matrix<float> reference(const GemmCase& cs) const {
    Matrix<float> ref = c.clone();
    const Matrix<float> wa = widened(a), wb = widened(b);
    testing::naive_ref_gemm<float>(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                   float(cs.alpha), wa.data(), wa.ld(),
                                   wb.data(), wb.ld(), float(cs.beta),
                                   ref.data(), ref.ld());
    return ref;
  }
};

template <typename S>
FtReport run_mixed_ft(const GemmCase& cs, const MixedProblem<S>& p,
                      Matrix<float>& c, const Options& opts = {}) {
  if constexpr (std::is_same_v<S, float>) {
    return ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                    float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                    p.b.ld(), float(cs.beta), c.data(), c.ld(), opts);
  } else if constexpr (std::is_same_v<S, bf16_t>) {
    return ft_gemm_bf16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                        float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                        p.b.ld(), float(cs.beta), c.data(), c.ld(), opts);
  } else {
    return ft_gemm_f16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                       float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                       p.b.ld(), float(cs.beta), c.data(), c.ld(), opts);
  }
}

template <typename S>
void run_mixed_ori(const GemmCase& cs, const MixedProblem<S>& p,
                   Matrix<float>& c, const Options& opts = {}) {
  if constexpr (std::is_same_v<S, bf16_t>) {
    gemm_bf16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
              float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
              float(cs.beta), c.data(), c.ld(), opts);
  } else {
    gemm_f16(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
             float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
             float(cs.beta), c.data(), c.ld(), opts);
  }
}

std::vector<GemmCase> mixed_cases() {
  std::vector<GemmCase> cases;
  for (Trans ta : {Trans::kNoTrans, Trans::kTrans}) {
    for (Trans tb : {Trans::kNoTrans, Trans::kTrans}) {
      cases.push_back({20, 24, 16, ta, tb, 1.25, 0.5});
    }
  }
  cases.push_back({60, 48, 300, Trans::kNoTrans, Trans::kNoTrans, -0.5, 1.0});
  cases.push_back({97, 65, 130, Trans::kTrans, Trans::kNoTrans, 1.0, 0.0});
  cases.push_back({128, 96, 64, Trans::kNoTrans, Trans::kTrans, 2.0, -0.75});
  return cases;
}

/// Tolerance contract: narrow storage, fp32 checksums — clean runs must
/// verify clean (no false detections from the width change) and match the
/// fp32 oracle on the quantized operands within the fp32 rounding budget.
template <typename S>
void tolerance_contract_sweep() {
  const std::uint64_t seed = test_seed(2411);
  std::size_t ci = 0;
  for (const GemmCase& cs : mixed_cases()) {
    const MixedProblem<S> p(cs, seed + ci++);
    const Matrix<float> ref = p.reference(cs);
    for (const Isa isa : executable_isas()) {
      Options opts;
      opts.isa = isa;
      Matrix<float> c = p.c.clone();
      const FtReport rep = run_mixed_ft<S>(cs, p, c, opts);
      EXPECT_TRUE(rep.clean())
          << cs << " isa=" << isa_name(isa) << seed_note(seed);
      EXPECT_EQ(rep.errors_detected, 0)
          << cs << " isa=" << isa_name(isa) << seed_note(seed);
      expect_matrix_near(c, ref, gemm_tolerance<float>(cs.k),
                         cs.name() + "_" + std::string(isa_name(isa)) +
                             seed_note(seed));

      // Ori path agrees with FT bit-for-bit (same packing and kernels).
      Matrix<float> c_ori = p.c.clone();
      run_mixed_ori<S>(cs, p, c_ori, opts);
      expect_matrix_near(c_ori, c, 0.0,
                         cs.name() + "_ori_vs_ft" + seed_note(seed));
    }
  }
}

TEST(MixedToleranceContract, Bf16CleanRunsVerifyCleanAcrossIsas) {
  tolerance_contract_sweep<bf16_t>();
}

TEST(MixedToleranceContract, F16CleanRunsVerifyCleanAcrossIsas) {
  tolerance_contract_sweep<fp16_t>();
}

/// Routing bit-identity: sync, engine, general blocked path, resident
/// cache (miss and hit), and the async service must deliver the same C
/// bit-for-bit.
template <typename S>
void routing_bit_identity() {
  const std::uint64_t seed = test_seed(2412);
  const GemmCase small{24, 16, 20, Trans::kNoTrans, Trans::kTrans, 1.25, 0.5};
  const GemmCase big{80, 48, 330, Trans::kTrans, Trans::kNoTrans, -1.0, 1.0};
  std::size_t ci = 0;
  for (const GemmCase& cs : {small, big}) {
    const MixedProblem<S> p(cs, seed + ci++);

    Matrix<float> c_sync = p.c.clone();
    const FtReport rep = run_mixed_ft<S>(cs, p, c_sync, {});
    EXPECT_TRUE(rep.clean()) << cs << seed_note(seed);

    // Engine route.
    GemmEngine<S, float> engine;
    Matrix<float> c_engine = p.c.clone();
    engine.ft_gemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                   float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                   p.b.ld(), float(cs.beta), c_engine.data(), c_engine.ld());
    expect_matrix_near(c_engine, c_sync, 0.0,
                       cs.name() + "_engine" + seed_note(seed));

    // Resident-A route: encoding miss, then a verified hit, both
    // bit-identical to the cold path (widen-on-hit applies alpha with the
    // same single fp32 rounding the cold pack does).
    Options ropts;
    ropts.resident_a = true;
    Matrix<float> c_miss = p.c.clone();
    const FtReport r_miss = run_mixed_ft<S>(cs, p, c_miss, ropts);
    expect_matrix_near(c_miss, c_sync, 0.0,
                       cs.name() + "_resident_miss" + seed_note(seed));
    EXPECT_FALSE(r_miss.resident_hit) << cs << seed_note(seed);
    Matrix<float> c_hit = p.c.clone();
    const FtReport r_hit = run_mixed_ft<S>(cs, p, c_hit, ropts);
    expect_matrix_near(c_hit, c_sync, 0.0,
                       cs.name() + "_resident_hit" + seed_note(seed));
    EXPECT_TRUE(r_hit.resident_hit) << cs << seed_note(seed);
    EXPECT_EQ(r_hit.resident_heals, 0) << cs << seed_note(seed);

    // Service route (direct or inline; single-member group).
    serve::GemmService service;
    Matrix<float> c_async = p.c.clone();
    serve::GemmRequest req = serve::make_gemm_request<S>(
        /*ft=*/true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
        float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
        float(cs.beta), c_async.data(), c_async.ld());
    const serve::GemmResult res = service.submit(req).wait();
    EXPECT_TRUE(res.ok()) << cs << seed_note(seed);
    expect_matrix_near(c_async, c_sync, 0.0,
                       cs.name() + "_service" + seed_note(seed));
    service.shutdown();
  }
}

TEST(MixedRoutingBitIdentity, Bf16SyncEngineResidentService) {
  clear_process_caches();
  routing_bit_identity<bf16_t>();
}

TEST(MixedRoutingBitIdentity, F16SyncEngineResidentService) {
  clear_process_caches();
  routing_bit_identity<fp16_t>();
}

/// Coalesced service route: a window of same-fingerprint narrow-storage
/// requests must merge into one batched call and still deliver
/// bit-identical results.  The last member carries QuantParams of its own:
/// the float domains ignore them, so it must merge all the same.
template <typename S>
void coalesced_window_bit_identity() {
  const std::uint64_t seed = test_seed(2413);
  const GemmCase cs{24, 16, 20, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  constexpr int kWindow = 7;
  std::vector<MixedProblem<S>> problems;
  problems.reserve(kWindow);
  for (int i = 0; i < kWindow; ++i) problems.emplace_back(cs, seed + i);

  std::vector<Matrix<float>> c_sync, c_async;
  for (int i = 0; i < kWindow; ++i) {
    c_sync.push_back(problems[std::size_t(i)].c.clone());
    c_async.push_back(problems[std::size_t(i)].c.clone());
    const FtReport rep =
        run_mixed_ft<S>(cs, problems[std::size_t(i)], c_sync.back(), {});
    EXPECT_TRUE(rep.clean()) << seed_note(seed);
  }

  serve::ServiceConfig cfg;
  cfg.shards = 1;
  serve::GemmService service(cfg);
  std::vector<serve::GemmRequest> reqs;
  for (int i = 0; i < kWindow; ++i) {
    const MixedProblem<S>& p = problems[std::size_t(i)];
    reqs.push_back(serve::make_gemm_request<S>(
        /*ft=*/true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
        float(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
        float(cs.beta), c_async[std::size_t(i)].data(),
        c_async[std::size_t(i)].ld()));
  }
  reqs.back().qp = QuantParams{0.5f, 2.0f, 3, -4};
  std::vector<serve::GemmFuture> futures = service.submit_all(reqs);
  for (int i = 0; i < kWindow; ++i) {
    const serve::GemmResult res = futures[std::size_t(i)].wait();
    EXPECT_TRUE(res.ok()) << "member " << i << seed_note(seed);
    EXPECT_TRUE(res.coalesced) << "member " << i << seed_note(seed);
    expect_matrix_near(c_async[std::size_t(i)], c_sync[std::size_t(i)], 0.0,
                       "member " + std::to_string(i) + seed_note(seed));
  }
  // submit_all queues the whole window before it wakes the dispatcher, so
  // whoever runs it (dispatcher or waiter) takes it as one batched call.
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced_batches, 1u) << seed_note(seed);
  EXPECT_EQ(stats.coalesced_members, std::uint64_t(kWindow))
      << seed_note(seed);
  service.shutdown();
}

TEST(MixedService, CoalescedWindowMatchesSyncBitForBit) {
  coalesced_window_bit_identity<bf16_t>();
  coalesced_window_bit_identity<fp16_t>();
}

/// Mixed requests never coalesce with fp32 requests of the same shape —
/// the batched call would reinterpret the operand bytes.
TEST(MixedService, Bf16AndF32RequestsDoNotCoalesceTogether) {
  const std::uint64_t seed = test_seed(2414);
  const GemmCase cs{16, 16, 16, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  const MixedProblem<bf16_t> pm(cs, seed);
  const testing::Problem<float> pf(cs, seed + 100);

  Matrix<float> cm_sync = pm.c.clone();
  run_mixed_ft<bf16_t>(cs, pm, cm_sync, {});
  Matrix<float> cf_sync = pf.c.clone();
  ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, float(cs.alpha),
           pf.a.data(), pf.a.ld(), pf.b.data(), pf.b.ld(), float(cs.beta),
           cf_sync.data(), cf_sync.ld());

  // Staged queue: pause, interleave both precisions, resume — the
  // dispatcher may only merge runs of matching precision.  If a bf16
  // request ever coalesced into an fp32 batched call (or vice versa) its
  // operand bytes would be reinterpreted and the result would be garbage.
  serve::ServiceConfig cfg;
  cfg.shards = 1;
  cfg.start_paused = true;
  serve::GemmService service(cfg);
  constexpr int kReps = 3;
  std::vector<Matrix<float>> cm, cf;
  std::vector<serve::GemmFuture> futures;
  for (int rep = 0; rep < kReps; ++rep) {
    cm.push_back(pm.c.clone());
    cf.push_back(pf.c.clone());
    futures.push_back(service.submit(serve::make_gemm_request<bf16_t>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
        float(cs.alpha), pm.a.data(), pm.a.ld(), pm.b.data(), pm.b.ld(),
        float(cs.beta), cm.back().data(), cm.back().ld())));
    futures.push_back(service.submit(serve::make_gemm_request<float>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
        float(cs.alpha), pf.a.data(), pf.a.ld(), pf.b.data(), pf.b.ld(),
        float(cs.beta), cf.back().data(), cf.back().ld())));
  }
  service.resume();
  for (auto& f : futures) EXPECT_TRUE(f.wait().ok()) << seed_note(seed);
  service.shutdown();
  for (int rep = 0; rep < kReps; ++rep) {
    expect_matrix_near(cm[std::size_t(rep)], cm_sync, 0.0,
                       "bf16 C rep " + std::to_string(rep) + seed_note(seed));
    expect_matrix_near(cf[std::size_t(rep)], cf_sync, 0.0,
                       "f32 C rep " + std::to_string(rep) + seed_note(seed));
  }
}

/// Fault-injection parity: injected mixed runs are corrected to the oracle
/// or flagged — never silently wrong — exactly like fp32.
template <typename S>
void injection_parity_sweep() {
  const std::uint64_t seed = test_seed(2415);
  const GemmCase cs{64, 48, 160, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  const MixedProblem<S> p(cs, seed);
  const Matrix<float> ref = p.reference(cs);

  // Deterministic single fault: must be detected and corrected.
  {
    DeterministicInjector inj({{InjectionKind::kAddDelta, 0, 10, 20, 2.5, 0}});
    Options opts;
    opts.injector = &inj;
    Matrix<float> c = p.c.clone();
    const FtReport rep = run_mixed_ft<S>(cs, p, c, opts);
    EXPECT_TRUE(rep.clean()) << cs << seed_note(seed);
    EXPECT_GE(rep.errors_detected, 1) << cs << seed_note(seed);
    EXPECT_GE(rep.errors_corrected, 1) << cs << seed_note(seed);
    expect_matrix_near(c, ref, gemm_tolerance<float>(cs.k),
                       cs.name() + "_corrected" + seed_note(seed));
  }

  // Random multi-fault runs: clean report implies oracle-accurate C.
  Xoshiro256 rng(seed ^ 0xF00D);
  const auto corrected_or_flagged = [&](FaultInjector& inj, int iter) {
    Options opts;
    opts.injector = &inj;
    Matrix<float> c = p.c.clone();
    const FtReport rep = run_mixed_ft<S>(cs, p, c, opts);
    if (rep.clean()) {
      const double err = max_rel_diff(c, ref);
      EXPECT_LE(err, std::max(gemm_tolerance<float>(cs.k), 1e-5))
          << cs << " iter=" << iter << seed_note(seed);
    }
  };
  for (int iter = 0; iter < 4; ++iter) {
    CountInjector inj(int(1 + rng.bounded(4)), rng.next(), 5.0);
    corrected_or_flagged(inj, iter);
  }
  // Four faults of magnitude 2 land several to a row or column of C.
  for (int iter = 4; iter < 64; ++iter) {
    CountInjector inj(4, rng.next(), 2.0);
    corrected_or_flagged(inj, iter);
  }
}

TEST(MixedInjectionParity, Bf16CorrectedOrFlagged) {
  injection_parity_sweep<bf16_t>();
}

TEST(MixedInjectionParity, F16CorrectedOrFlagged) {
  injection_parity_sweep<fp16_t>();
}

TEST(MixedInjectionParity, F32CorrectedOrFlagged) {
  injection_parity_sweep<float>();
}

/// Batched mixed entry points agree with a loop of single calls.
TEST(MixedBatched, StridedBatchMatchesLoopOfSingles) {
  const std::uint64_t seed = test_seed(2416);
  const GemmCase cs{24, 20, 32, Trans::kNoTrans, Trans::kNoTrans, 1.5, 0.0};
  constexpr index_t kBatch = 5;
  const auto [am, an] = testing::a_dims(cs);
  const auto [bm, bn] = testing::b_dims(cs);
  Matrix<bf16_t> a(am, an * kBatch);
  Matrix<bf16_t> b(bm, bn * kBatch);
  Matrix<float> c(cs.m, cs.n * kBatch), c_loop(cs.m, cs.n * kBatch);
  a.fill_random(seed);
  b.fill_random(seed + 1);
  c.fill_random(seed + 2);
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = 0; i < c.rows(); ++i) c_loop(i, j) = c(i, j);

  const index_t sa = am * an, sb = bm * bn, sc = cs.m * cs.n;
  const BatchReport rep = ft_gemm_strided_batched<bf16_t, float>(
      Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, float(cs.alpha),
      a.data(), am, sa, b.data(), bm, sb, float(cs.beta), c.data(), cs.m, sc,
      kBatch);
  EXPECT_TRUE(rep.clean()) << seed_note(seed);
  EXPECT_EQ(rep.problems, kBatch);

  for (index_t pi = 0; pi < kBatch; ++pi) {
    const FtReport r = ft_gemm_bf16(
        Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, float(cs.alpha),
        a.data() + pi * sa, am, b.data() + pi * sb, bm, float(cs.beta),
        c_loop.data() + pi * sc, cs.m);
    EXPECT_TRUE(r.clean()) << "member " << pi << seed_note(seed);
  }
  expect_matrix_near(c, c_loop, 0.0, "batched vs loop" + seed_note(seed));
}

}  // namespace
}  // namespace ftgemm
