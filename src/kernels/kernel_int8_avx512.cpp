// AVX-512 int8 micro-kernels: native VNNI `vpdpbusd` dot product
// (16 x 16 register tile, one zmm accumulator per C column), plus the VNNI
// tier's FT checksum passes.
//
// `vpdpbusd acc, a, b` multiplies 64 unsigned bytes of `a` by 64 signed
// bytes of `b` and adds each adjacent quad's four products into the
// corresponding i32 lane of `acc` — WITHOUT intermediate saturation, unlike
// the AVX2 `vpmaddubsw` route.  The packed quad layout of kernel_int8.hpp
// maps directly onto it: one 64-byte load of A covers all 16 rows of a
// k-quad, one 4-byte broadcast of B covers a column's quad, so each quad
// costs 16 dpbusd + 1 load + 16 broadcasts for 1024 multiply-accumulates.
//
// FT epilogue: each updated column is widened to int64 with shifts (even
// rows `srai(slli(v, 32), 32)`, odd rows `srai(v, 32)`).  Row sums stay
// vertical adds, put back in row order by one permute pair per tile; the 16
// column sums are reduced by one shuffle tree at the end of the tile and
// added into cr_ref as two vectors — exactly nr slots are written.
//
// The checksum passes run on the same instruction.  A checksum operand
// wider than a byte is split into base-256 digits, one vpdpbusd per digit
// accumulates exact int32 partials, and the partials are combined in int64:
//
//   encode_cc : cc[i] += sum_kk u8(i,kk)*bc[kk] over the packed A~ slab;
//               Bc is signed, so its digits are signed bytes in [-128, 127]
//               against the u8 tile quads.
//   pack_b_ft : cr[j] += sum_kk ar[kk]*s8(kk,j) over each contiguous op(B)
//               column; Ar is a sum of biased bytes, so its digits are
//               unsigned bytes against the s8 column.
//
// Four digits cover every non-negative int32 Ar and every int32 Bc in
// [-2155905152, 2139062143]; any other value sends the call to the
// portable loop, as do transposed B and tile heights other than 16.
//
// AVX-512 VNNI is a separate CPUID feature from the AVX-512 F/DQ/BW/VL
// baseline this ISA tier requires (Cascade Lake has it, Skylake-SP does
// not), so everything here is compiled with a *function-level* target
// attribute rather than TU-wide flags, and avx512_kernels_i8() falls back
// to the AVX2 tier at runtime when cpu_features().avx512vnni is false —
// an Isa::kAvx512 plan is therefore valid on every AVX-512 machine, and
// results are identical either way (exact integer arithmetic).
#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "arch/cpu_features.hpp"
#include "kernels/microkernel.hpp"

namespace ftgemm {

namespace {

constexpr index_t kMrAvx512I8 = 16;
constexpr index_t kNrAvx512I8 = 16;

#define FTGEMM_TARGET_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,avx512vnni")))

/// [x.L0 + x.L1, x.L2 + x.L3, y.L0 + y.L1, y.L2 + y.L3] over 128-bit lanes.
FTGEMM_TARGET_VNNI inline __m512i fold_lanes(__m512i x, __m512i y) {
  return _mm512_add_epi64(_mm512_shuffle_i64x2(x, y, _MM_SHUFFLE(2, 0, 2, 0)),
                          _mm512_shuffle_i64x2(x, y, _MM_SHUFFLE(3, 1, 3, 1)));
}

/// 128-bit lane L of the result: [x lanes 2L + 2L+1, y lanes 2L + 2L+1].
FTGEMM_TARGET_VNNI inline __m512i fold_pairs(__m512i x, __m512i y) {
  return _mm512_add_epi64(_mm512_unpacklo_epi64(x, y),
                          _mm512_unpackhi_epi64(x, y));
}

/// Sign-extend the even and the odd i32 lanes of v to i64, summed: the
/// exact pairwise sums lane 2l + lane 2l+1.
FTGEMM_TARGET_VNNI inline __m512i widen_pairs(__m512i v) {
  return _mm512_add_epi64(_mm512_srai_epi64(_mm512_slli_epi64(v, 32), 32),
                          _mm512_srai_epi64(v, 32));
}

template <bool FT>
FTGEMM_TARGET_VNNI void kernel_i8_vnni(index_t kc, const std::uint8_t* a,
                                       const std::int8_t* b, std::int32_t* c,
                                       index_t ldc, std::int64_t* cr_ref,
                                       std::int64_t* cc_ref) {
  const index_t kq = i8_kq(kc);
  __m512i acc[kNrAvx512I8];
#pragma GCC unroll 16
  for (index_t j = 0; j < kNrAvx512I8; ++j) acc[j] = _mm512_setzero_si512();
  for (index_t q = 0; q < kq; ++q) {
    const __m512i av = _mm512_loadu_si512(a + q * (kMrAvx512I8 * kI8KQuad));
    const std::int8_t* bq = b + q * (kNrAvx512I8 * kI8KQuad);
#pragma GCC unroll 16
    for (index_t j = 0; j < kNrAvx512I8; ++j) {
      std::int32_t bw;
      std::memcpy(&bw, bq + j * kI8KQuad, sizeof(bw));
      acc[j] = _mm512_dpbusd_epi32(acc[j], av, _mm512_set1_epi32(bw));
    }
  }
  if constexpr (FT) {
    // Exact int64 sums of the *updated* C values (integer adds reassociate
    // freely, so the references reduce from the finished column vectors
    // instead of mirroring the k-loop; cr_lanes = 1) — every element is
    // updated once per rank-KC panel, so the per-panel references total to
    // exact row/column sums of the current accumulator.
    __m512i row_even = _mm512_setzero_si512();  // rows 0, 2, .., 14
    __m512i row_odd = _mm512_setzero_si512();   // rows 1, 3, .., 15
    // The column tree runs as the columns finish, so at most a few of its
    // nodes are live beside the accumulators.
    __m512i quads[4];  // columns 4g..4g+3, folded twice
#pragma GCC unroll 4
    for (index_t g = 0; g < 4; ++g) {
      __m512i pairs[2];
#pragma GCC unroll 2
      for (index_t h = 0; h < 2; ++h) {
        __m512i col[2];
#pragma GCC unroll 2
        for (index_t e = 0; e < 2; ++e) {
          const index_t j = 4 * g + 2 * h + e;
          const __m512i nv =
              _mm512_add_epi32(_mm512_loadu_si512(c + j * ldc), acc[j]);
          _mm512_storeu_si512(c + j * ldc, nv);
          const __m512i even =
              _mm512_srai_epi64(_mm512_slli_epi64(nv, 32), 32);
          const __m512i odd = _mm512_srai_epi64(nv, 32);
          row_even = _mm512_add_epi64(row_even, even);
          row_odd = _mm512_add_epi64(row_odd, odd);
          col[e] = _mm512_add_epi64(even, odd);
        }
        pairs[h] = fold_pairs(col[0], col[1]);
      }
      quads[g] = fold_lanes(pairs[0], pairs[1]);
    }
    const __m512i lo_idx = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    const __m512i hi_idx = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    _mm512_storeu_si512(
        cc_ref, _mm512_add_epi64(
                    _mm512_loadu_si512(cc_ref),
                    _mm512_permutex2var_epi64(row_even, lo_idx, row_odd)));
    _mm512_storeu_si512(
        cc_ref + 8,
        _mm512_add_epi64(_mm512_loadu_si512(cc_ref + 8),
                         _mm512_permutex2var_epi64(row_even, hi_idx,
                                                   row_odd)));
    _mm512_storeu_si512(
        cr_ref, _mm512_add_epi64(_mm512_loadu_si512(cr_ref),
                                 fold_lanes(quads[0], quads[1])));
    _mm512_storeu_si512(
        cr_ref + 8, _mm512_add_epi64(_mm512_loadu_si512(cr_ref + 8),
                                     fold_lanes(quads[2], quads[3])));
  } else {
    for (index_t j = 0; j < kNrAvx512I8; ++j) {
      __m512i cv = _mm512_loadu_si512(c + j * ldc);
      _mm512_storeu_si512(c + j * ldc, _mm512_add_epi32(cv, acc[j]));
    }
  }
}

FTGEMM_TARGET_VNNI void kernel_i8_vnni_base(index_t kc, const std::uint8_t* a,
                                            const std::int8_t* b,
                                            std::int32_t* c, index_t ldc) {
  kernel_i8_vnni<false>(kc, a, b, c, ldc, nullptr, nullptr);
}

FTGEMM_TARGET_VNNI void kernel_i8_vnni_ft(index_t kc, const std::uint8_t* a,
                                          const std::int8_t* b,
                                          std::int32_t* c, index_t ldc,
                                          std::int64_t* cr_ref,
                                          std::int64_t* cc_ref) {
  kernel_i8_vnni<true>(kc, a, b, c, ldc, cr_ref, cc_ref);
}

// ---------------------------------------------------------------------------
// Checksum passes on vpdpbusd (see the TU header).
// ---------------------------------------------------------------------------

constexpr int kMaxDigits = 4;

const PackSet<std::int8_t, std::int32_t>& portable() {
  static const PackSet<std::int8_t, std::int32_t> p = scalar_pack_i8();
  return p;
}

/// Signed base-256 digits needed for every v[i]: 0 when all are zero,
/// kMaxDigits + 1 when four digits do not cover them.  d digits in
/// [-128, 127] span [-128 * (256^d - 1) / 255, 127 * (256^d - 1) / 255].
int signed_digits(const std::int32_t* v, index_t n) {
  std::int64_t lo = 0, hi = 0;
  for (index_t i = 0; i < n; ++i) {
    lo = std::min<std::int64_t>(lo, v[i]);
    hi = std::max<std::int64_t>(hi, v[i]);
  }
  int d = 0;
  for (std::int64_t dlo = 0, dhi = 0; lo < dlo || hi > dhi; ++d) {
    if (d == kMaxDigits) return kMaxDigits + 1;
    dlo = dlo * 256 - 128;
    dhi = dhi * 256 + 127;
  }
  return d;
}

/// Unsigned base-256 digits needed for every v[i]: 0 when all are zero,
/// kMaxDigits + 1 when one is negative.
int unsigned_digits(const std::int32_t* v, index_t n) {
  std::int32_t hi = 0;
  for (index_t i = 0; i < n; ++i) {
    if (v[i] < 0) return kMaxDigits + 1;
    hi = std::max(hi, v[i]);
  }
  int d = 0;
  for (std::uint32_t r = std::uint32_t(hi); r != 0; r >>= 8) ++d;
  return d;
}

// encode_cc: quads per digit table.  The partials of one tile flush into
// int64 once per chunk, before they can wrap: each quad adds at most
// 4 * 255 * 128 per lane, and 1024 such quads stay far inside int32 (a whole
// kI8MaxDepth sweep would not).
constexpr index_t kCcChunkQuads = 1024;
static_assert(kCcChunkQuads * 4 * 255 * 128 < (std::int64_t(1) << 31));

/// Digit sums of one 16-row tile over nq quads: lo/hi (rows 0..7 / 8..15)
/// += sum_d 256^d * (sum_q quad_q . digit_d(q)).
template <int D>
FTGEMM_TARGET_VNNI void cc_tile(const std::uint8_t* quads, index_t nq,
                                const std::int32_t (*words)[kCcChunkQuads],
                                __m512i& lo, __m512i& hi) {
  __m512i acc[D];
#pragma GCC unroll 4
  for (int d = 0; d < D; ++d) acc[d] = _mm512_setzero_si512();
  for (index_t q = 0; q < nq; ++q) {
    const __m512i av =
        _mm512_loadu_si512(quads + q * (kMrAvx512I8 * kI8KQuad));
#pragma GCC unroll 4
    for (int d = 0; d < D; ++d)
      acc[d] = _mm512_dpbusd_epi32(acc[d], av, _mm512_set1_epi32(words[d][q]));
  }
#pragma GCC unroll 4
  for (int d = 0; d < D; ++d) {
    lo = _mm512_add_epi64(
        lo, _mm512_slli_epi64(
                _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc[d])),
                unsigned(8 * d)));
    hi = _mm512_add_epi64(
        hi, _mm512_slli_epi64(
                _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc[d], 1)),
                unsigned(8 * d)));
  }
}

template <int D>
FTGEMM_TARGET_VNNI void encode_cc_digits(const std::uint8_t* packed,
                                         index_t mlen, index_t klen,
                                         const std::int32_t* bc,
                                         std::int64_t* cc) {
  constexpr index_t mr = kMrAvx512I8;
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kI8KQuad * mr;
  alignas(64) std::int32_t words[D][kCcChunkQuads];
  for (index_t q0 = 0; q0 < kq; q0 += kCcChunkQuads) {
    const index_t nq = std::min(kCcChunkQuads, kq - q0);
    // One digit word per (digit, quad): the quad's four digit bytes, depth
    // padding as zero digits.
    for (index_t q = 0; q < nq; ++q) {
      std::uint32_t w[D] = {};
      for (index_t t = 0; t < kI8KQuad; ++t) {
        const index_t kk = (q0 + q) * kI8KQuad + t;
        std::int64_t x = kk < klen ? bc[kk] : 0;
        for (int d = 0; d < D; ++d) {
          const std::int8_t digit = std::int8_t(std::uint8_t(x & 0xFF));
          w[d] |= std::uint32_t(std::uint8_t(digit)) << (8 * t);
          x = (x - digit) / 256;
        }
      }
      for (int d = 0; d < D; ++d) words[d][q] = std::int32_t(w[d]);
    }
    for (index_t it = 0; it < mlen; it += mr) {
      __m512i lo = _mm512_setzero_si512(), hi = _mm512_setzero_si512();
      cc_tile<D>(packed + (it / mr) * tile_bytes + q0 * (kI8KQuad * mr), nq,
                 words, lo, hi);
      const index_t live = std::min(mr, mlen - it);
      const __mmask16 rows = __mmask16((1u << live) - 1u);
      const __mmask8 mlo = __mmask8(rows & 0xFF), mhi = __mmask8(rows >> 8);
      std::int64_t* out = cc + it;
      _mm512_mask_storeu_epi64(
          out, mlo, _mm512_add_epi64(_mm512_maskz_loadu_epi64(mlo, out), lo));
      _mm512_mask_storeu_epi64(
          out + 8, mhi,
          _mm512_add_epi64(_mm512_maskz_loadu_epi64(mhi, out + 8), hi));
    }
  }
}

// Predicted-Cc update over the packed 16-row A~ slab (signed Bc digits).
FTGEMM_TARGET_VNNI void encode_cc_i8_vnni(const std::uint8_t* packed,
                                          index_t mlen, index_t klen,
                                          index_t mr, const std::int32_t* bc,
                                          std::int64_t* cc) {
  const int digits = signed_digits(bc, klen);
  if (mr != kMrAvx512I8 || digits > kMaxDigits) {
    portable().encode_cc(packed, mlen, klen, mr, bc, cc);
    return;
  }
  switch (digits) {
    case 1: encode_cc_digits<1>(packed, mlen, klen, bc, cc); break;
    case 2: encode_cc_digits<2>(packed, mlen, klen, bc, cc); break;
    case 3: encode_cc_digits<3>(packed, mlen, klen, bc, cc); break;
    case 4: encode_cc_digits<4>(packed, mlen, klen, bc, cc); break;
    default: break;  // bc is all zero: every product is zero
  }
}

// pack_b_ft: depths per digit table.  Each i32 lane gains at most
// 4 * 255 * 128 per 64-byte block, so a chunk's partials cannot wrap.
constexpr index_t kCrChunk = 4096;

/// One op(B) column's int64 lane partials over len depths: sum_d 256^d *
/// (col . digit_d).  col bytes past len are never read (masked tail load);
/// the digit rows are zero there.
template <int D>
FTGEMM_TARGET_VNNI __m512i cr_column(const std::int8_t* col, index_t len,
                                     const std::uint8_t (*digits)[kCrChunk]) {
  __m512i acc[D];
#pragma GCC unroll 4
  for (int d = 0; d < D; ++d) acc[d] = _mm512_setzero_si512();
  for (index_t kk = 0; kk < len; kk += 64) {
    const index_t rest = len - kk;
    const __mmask64 m =
        rest >= 64 ? ~__mmask64(0) : (__mmask64(1) << rest) - 1;
    const __m512i bv = _mm512_maskz_loadu_epi8(m, col + kk);
#pragma GCC unroll 4
    for (int d = 0; d < D; ++d)
      acc[d] = _mm512_dpbusd_epi32(acc[d], _mm512_load_si512(digits[d] + kk),
                                   bv);
  }
  __m512i sum = widen_pairs(acc[0]);
#pragma GCC unroll 4
  for (int d = 1; d < D; ++d)
    sum = _mm512_add_epi64(
        sum, _mm512_slli_epi64(widen_pairs(acc[d]), unsigned(8 * d)));
  return sum;
}

template <int D>
FTGEMM_TARGET_VNNI void cr_digits(const OperandView<std::int8_t>& b,
                                  index_t k0, index_t j0, index_t klen,
                                  index_t nlen, const std::int32_t* ar,
                                  std::int64_t* cr) {
  alignas(64) std::uint8_t digits[D][kCrChunk];
  for (index_t c0 = 0; c0 < klen; c0 += kCrChunk) {
    const index_t len = std::min(kCrChunk, klen - c0);
    const index_t padded = (len + 63) / 64 * 64;
    for (index_t kk = 0; kk < padded; ++kk) {
      std::uint32_t x = kk < len ? std::uint32_t(ar[c0 + kk]) : 0u;
      for (int d = 0; d < D; ++d, x >>= 8) digits[d][kk] = std::uint8_t(x);
    }
    for (index_t j = 0; j < nlen; ++j) {
      cr[j0 + j] += _mm512_reduce_add_epi64(
          cr_column<D>(b.ptr(k0 + c0, j0 + j), len, digits));
    }
  }
}

// pack_b fused with the predicted-Cr update: bytes and bcol from the
// portable packer, Cr from each contiguous (no-trans) op(B) column dotted
// against the unsigned digits of Ar.
FTGEMM_TARGET_VNNI void pack_b_ft_i8_vnni(const OperandView<std::int8_t>& b,
                                          index_t k0, index_t j0,
                                          index_t klen, index_t nlen,
                                          index_t nr, std::int8_t* dst,
                                          std::int32_t* bcol,
                                          const std::int32_t* ar,
                                          std::int64_t* cr) {
  const int digits = unsigned_digits(ar, klen);
  if (b.trans || digits > kMaxDigits) {
    portable().pack_b_ft(b, k0, j0, klen, nlen, nr, dst, bcol, ar, cr);
    return;
  }
  portable().pack_b(b, k0, j0, klen, nlen, nr, dst, bcol);
  switch (digits) {
    case 1: cr_digits<1>(b, k0, j0, klen, nlen, ar, cr); break;
    case 2: cr_digits<2>(b, k0, j0, klen, nlen, ar, cr); break;
    case 3: cr_digits<3>(b, k0, j0, klen, nlen, ar, cr); break;
    case 4: cr_digits<4>(b, k0, j0, klen, nlen, ar, cr); break;
    default: break;  // ar is all zero: every product is zero
  }
}

#undef FTGEMM_TARGET_VNNI

}  // namespace

KernelSet<std::int8_t, std::int32_t> avx512_kernels_i8() {
  if (!cpu_features().avx512vnni) {
    // AVX-512 baseline without VNNI: the exact AVX2 emulation is the best
    // non-saturating integer dot available (see the TU header).
    KernelSet<std::int8_t, std::int32_t> ks = avx2_kernels_i8();
    ks.isa = Isa::kAvx512;
    ks.pack.isa = Isa::kAvx512;
    return ks;
  }
  KernelSet<std::int8_t, std::int32_t> ks;
  ks.base = &kernel_i8_vnni_base;
  ks.ft = &kernel_i8_vnni_ft;
  ks.mr = kMrAvx512I8;
  ks.nr = kNrAvx512I8;
  ks.cr_lanes = 1;
  ks.isa = Isa::kAvx512;
  // Every AVX-512 machine has AVX2, so the AVX2 checksum passes serve the
  // members without a VNNI sweep (identical packed bytes, bit-identical
  // sums).
  ks.pack = avx2_pack_i8();
  ks.pack.encode_cc = &encode_cc_i8_vnni;
  ks.pack.pack_b_ft = &pack_b_ft_i8_vnni;
  ks.pack.isa = Isa::kAvx512;
  return ks;
}

}  // namespace ftgemm
