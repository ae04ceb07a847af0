// AVX2 accelerations of the int8 FT pack/encode family.
//
// This TU keeps the byte layout EXACTLY as the portable packers produce it
// (it delegates the byte movement to kernel_int8_scalar.cpp) and replaces
// only the checksum passes with vectorized sweeps:
//
//   encode_cc : cc[i] += sum_kk u8(i,kk)*bc[kk]   — over the packed A~ slab
//               (4-row tiles: one 16-byte quad holds 4 rows x 4 depths)
//   pack_b_ft : cr[j] += sum_kk ar[kk]*s8(kk,j)   — columns of op(B) are
//               contiguous in kk (no-trans), a vector dot per column
//   encode_ar : ar[kk] += sum_i u8(i,kk)          — VPSADBW column sums
//   reduce_bc : bc[kk]  = sum_j of the packed panel (NR = 16 tiles)
//
// Every quantity is an integer and integer addition is associative, so the
// vector passes are bit-identical to the scalar ones by construction — the
// FTGEMM_FORCE_ISA=scalar CI leg and Int8Gemm.ForcedScalarIsaBitIdentical*
// assert exactly that.  Other tile heights, transposed views and oversized
// checksum magnitudes (see the mullo headroom guards) delegate to the
// portable implementations wholesale.  The VNNI tier (kernel_int8_avx512.cpp)
// replaces encode_cc and pack_b_ft again with vpdpbusd digit sweeps.
#include <immintrin.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "kernels/microkernel.hpp"

namespace ftgemm {

namespace {

const PackSet<std::int8_t, std::int32_t>& portable() {
  static const PackSet<std::int8_t, std::int32_t> p = scalar_pack_i8();
  return p;
}

/// Largest |v[i]|, in int64 so that INT32_MIN has a magnitude.
std::int64_t max_abs_i32(const std::int32_t* v, index_t n) {
  std::int64_t m = 0;
  for (index_t i = 0; i < n; ++i)
    m = std::max(m, std::abs(std::int64_t(v[i])));
  return m;
}

/// Horizontal sum of a 4 x i64 vector.
std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

// Predicted-Cc update over the packed 4-row A~ tiles: each 16-byte quad is
// rows 0..3 x depths 0..3, widened to two 8 x i32 vectors and multiplied by
// the quad's bc values.  i32 partial products are widened to i64 every W
// quads (W sized so W * 255 * max|bc| stays under 2^30 — and |bc| itself
// must leave mullo headroom: |bc| < 2^22 keeps even a W = 1 partial inside
// i32, else delegate).
void encode_cc_i8_avx2(const std::uint8_t* packed, index_t mlen,
                       index_t klen, index_t mr, const std::int32_t* bc,
                       std::int64_t* cc) {
  constexpr index_t kRows = 4;
  const std::int64_t bmax = max_abs_i32(bc, klen);
  if (mr != kRows || bmax >= (1 << 22)) {
    portable().encode_cc(packed, mlen, klen, mr, bc, cc);
    return;
  }
  if (bmax == 0) return;  // every product is zero
  const index_t W =
      std::max<index_t>(1, (index_t(1) << 30) / (255 * bmax));
  const index_t kq = i8_kq(klen);
  const index_t kq_full = klen / kI8KQuad;
  // The depth padding of a ragged last quad multiplies zero bytes; a zeroed
  // copy of its bc values keeps the load inside bc.
  alignas(16) std::int32_t tail[kI8KQuad] = {0, 0, 0, 0};
  for (index_t kk = kq_full * kI8KQuad; kk < klen; ++kk)
    tail[kk - kq_full * kI8KQuad] = bc[kk];
  const index_t tile_bytes = kq * kI8KQuad * kRows;
  for (index_t it = 0; it < mlen; it += kRows) {
    const std::uint8_t* tile = packed + (it / kRows) * tile_bytes;
    __m256i r01[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
    __m256i r23[2] = {_mm256_setzero_si256(), _mm256_setzero_si256()};
    index_t q = 0;
    while (q < kq) {
      const index_t end = std::min(kq, q + W);
      __m256i acc01 = _mm256_setzero_si256();  // rows 0, 1 x depths 0..3
      __m256i acc23 = _mm256_setzero_si256();  // rows 2, 3
      for (; q < end; ++q) {
        const std::int32_t* bq = q < kq_full ? bc + q * kI8KQuad : tail;
        const __m256i b4 = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(bq)));
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(tile + q * (kRows * kI8KQuad)));
        acc01 = _mm256_add_epi32(
            acc01, _mm256_mullo_epi32(_mm256_cvtepu8_epi32(v), b4));
        acc23 = _mm256_add_epi32(
            acc23, _mm256_mullo_epi32(
                       _mm256_cvtepu8_epi32(_mm_srli_si128(v, 8)), b4));
      }
      r01[0] = _mm256_add_epi64(
          r01[0], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc01)));
      r01[1] = _mm256_add_epi64(
          r01[1], _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc01, 1)));
      r23[0] = _mm256_add_epi64(
          r23[0], _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc23)));
      r23[1] = _mm256_add_epi64(
          r23[1], _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc23, 1)));
    }
    const std::int64_t rows[kRows] = {hsum_epi64(r01[0]), hsum_epi64(r01[1]),
                                      hsum_epi64(r23[0]), hsum_epi64(r23[1])};
    const index_t live = std::min(kRows, mlen - it);
    for (index_t i = 0; i < live; ++i) cc[it + i] += rows[i];
  }
}

// pack_b fused with the predicted-Cr update: one vector dot of ar against
// each contiguous (no-trans) column of op(B), 8 depths per step, i32
// partials widened every W groups (|s8| <= 128, so W * 128 * max|ar| must
// stay under 2^30; |ar| < 2^22 keeps mullo headroom, else delegate).
void pack_b_ft_i8_avx2(const OperandView<std::int8_t>& b, index_t k0,
                       index_t j0, index_t klen, index_t nlen, index_t nr,
                       std::int8_t* dst, std::int32_t* bcol,
                       const std::int32_t* ar, std::int64_t* cr) {
  const std::int64_t amax = max_abs_i32(ar, klen);
  if (b.trans || amax >= (1 << 22)) {
    portable().pack_b_ft(b, k0, j0, klen, nlen, nr, dst, bcol, ar, cr);
    return;
  }
  portable().pack_b(b, k0, j0, klen, nlen, nr, dst, bcol);
  if (amax == 0) return;
  const index_t W =
      std::max<index_t>(1, (index_t(1) << 30) / (128 * amax));
  const index_t k_full = klen - klen % 8;
  for (index_t j = 0; j < nlen; ++j) {
    const std::int8_t* col = b.data + k0 + (j0 + j) * b.ld;
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    index_t kk = 0;
    while (kk < k_full) {
      const index_t end = std::min(k_full, kk + W * 8);
      __m256i acc32 = _mm256_setzero_si256();
      for (; kk < end; kk += 8) {
        const __m128i v8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(col + kk));
        const __m256i prod = _mm256_mullo_epi32(
            _mm256_cvtepi8_epi32(v8),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ar + kk)));
        acc32 = _mm256_add_epi32(acc32, prod);
      }
      acc_lo = _mm256_add_epi64(
          acc_lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc32)));
      acc_hi = _mm256_add_epi64(
          acc_hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc32, 1)));
    }
    std::int64_t rsum = hsum_epi64(_mm256_add_epi64(acc_lo, acc_hi));
    for (; kk < klen; ++kk) {
      rsum += std::int64_t(ar[kk]) * std::int64_t(col[kk]);
    }
    cr[j0 + j] += rsum;
  }
}

// Biased column sums of op(A) via VPSADBW: 32 bytes per step, each SAD
// against zero yields four exact u16 partial sums in i64 lanes — no
// overflow at any depth.
void encode_ar_i8_avx2(const OperandView<std::int8_t>& a, index_t i0,
                       index_t ilen, index_t k0, index_t klen,
                       std::int32_t* ar) {
  if (a.trans) {
    portable().encode_ar(a, i0, ilen, k0, klen, ar);
    return;
  }
  const __m256i bias = _mm256_set1_epi8(char(0x80));
  const __m256i zero = _mm256_setzero_si256();
  const index_t i_full = ilen - ilen % 32;
  for (index_t kk = 0; kk < klen; ++kk) {
    const std::int8_t* col = a.data + i0 + (k0 + kk) * a.ld;
    __m256i acc = _mm256_setzero_si256();
    for (index_t i = 0; i < i_full; i += 32) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i)),
          bias);
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
    }
    std::int64_t sum = hsum_epi64(acc);
    for (index_t i = i_full; i < ilen; ++i) {
      sum += std::int64_t(bias_i8(col[i]));
    }
    ar[kk] += std::int32_t(sum);
  }
}

// Panel checksum Bc from the packed panel, NR = 16 tiles: one quad of a
// tile is 64 contiguous bytes (16 columns x 4 depths); biased u16 lane
// sums keep each depth's bytes in lane (index mod 4), folded and un-biased
// once per quad.  The depth padding of a ragged last quad is zero bytes,
// so it un-biases to zero and only its live depths are stored.  Non-16 NR
// shapes fall back to the portable per-depth loop.
void reduce_bc_i8_avx2(const std::int8_t* b_packed, index_t klen,
                       index_t nlen, index_t nr, std::int32_t* bc) {
  if (nr != 16) {
    portable().reduce_bc(b_packed, klen, nlen, nr, bc);
    return;
  }
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kI8KQuad * nr;
  const index_t ntiles = (nlen + nr - 1) / nr;
  const __m256i bias = _mm256_set1_epi8(char(0x80));
  const __m256i zero = _mm256_setzero_si256();
  for (index_t q = 0; q < kq; ++q) {
    // u16 lane budget: each accumulator lane absorbs 2 bytes per tile
    // (one per 128-bit half), so flush to i32 every 64 tiles.
    std::int64_t sums[kI8KQuad] = {0, 0, 0, 0};
    for (index_t tg = 0; tg < ntiles; tg += 64) {
      const index_t tend = std::min(ntiles, tg + 64);
      __m256i acc_lo = _mm256_setzero_si256();
      __m256i acc_hi = _mm256_setzero_si256();
      for (index_t tile = tg; tile < tend; ++tile) {
        const std::int8_t* quad =
            b_packed + tile * tile_bytes + q * (nr * kI8KQuad);
        for (int half = 0; half < 2; ++half) {
          const __m256i v = _mm256_xor_si256(
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(quad + half * 32)),
              bias);
          acc_lo = _mm256_add_epi16(acc_lo, _mm256_unpacklo_epi8(v, zero));
          acc_hi = _mm256_add_epi16(acc_hi, _mm256_unpackhi_epi8(v, zero));
        }
      }
      alignas(32) std::uint16_t lanes[32];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc_lo);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 16), acc_hi);
      for (int lane = 0; lane < 32; ++lane) {
        sums[lane % kI8KQuad] += lanes[lane];
      }
    }
    // Un-bias: padding bytes are zero (net zero after correction), so the
    // correction counts every packed position: nr per tile per depth.
    const std::int64_t corr = 128 * std::int64_t(ntiles) * nr;
    const index_t live = std::min(kI8KQuad, klen - q * kI8KQuad);
    for (index_t t = 0; t < live; ++t) {
      bc[q * kI8KQuad + t] = std::int32_t(sums[t] - corr);
    }
  }
}

}  // namespace

PackSet<std::int8_t, std::int32_t> avx2_pack_i8() {
  PackSet<std::int8_t, std::int32_t> p = scalar_pack_i8();
  p.encode_cc = &encode_cc_i8_avx2;
  p.pack_b_ft = &pack_b_ft_i8_avx2;
  p.encode_ar = &encode_ar_i8_avx2;
  p.reduce_bc = &reduce_bc_i8_avx2;
  p.isa = Isa::kAvx2;
  return p;
}

}  // namespace ftgemm
