// The SIMD packing & checksum engine, one implementation for every float
// precision.
//
// Included ONLY by the ISA-specific translation units (pack_avx2.cpp,
// pack_avx512.cpp), each compiled with its own -m flags.  Everything here
// lives in an anonymous namespace ON PURPOSE: every TU must carry its own
// codegen for these routines (the same source compiled under -mavx512*
// may contain AVX-512 encodings), so nothing in this header may have
// external linkage — a COMDAT-merged copy could silently hand AVX-512 code
// to the AVX2 dispatch path and fault on narrower machines.  For the same
// reason the SIMD TUs never instantiate the scalar pack templates
// themselves; ragged edges reach the portable code through the
// get_pack_set(Isa::kScalar) function pointers (compiled flag-free in
// pack_scalar.cpp).
//
// Every stage is one body over two parameters:
//   - TR, the compute traits (T = the panel/checksum type, Vec, W,
//     zero/set1/loadu/storeu, maskload/maskstore — first n lanes, masked-out
//     lanes read as zero — add/mul/fmadd/max/abs, hsum/hmax);
//   - LD, the storage loader: LD::S is the operand element type, and every
//     load returns elements already in compute vectors — loadu/maskload a
//     TR::Vec, tile_a/tile_b one row of the TileA/TileB register tile
//     below.  The fp64/fp32 sets use SameLoad<TR> (plain loads); the
//     bf16/fp16 sets use a widening loader (bf16: cvtepu16 + 16-bit shift
//     into the f32 layout; fp16: VCVTPH2PS), both exact.
// Everything after the load — alpha multiply, checksum FMA lanes,
// accumulator shapes, tile/gate geometry — depends on TR alone, so a bf16
// set packs the same bits as the fp32 set run on the widened operand, and
// the fp32 replay/reduce/scale members serve the narrow sets unchanged.
//
// Layout of the engine:
//   - NoTrans A and Trans B stream with full-width unit-stride vectors
//     (256-bit in pack_avx2.cpp, 512-bit in pack_avx512.cpp), with software
//     prefetch of the upcoming columns of the next panel.
//   - Trans A and NoTrans B go through register-tile transposes (TileA:
//     4x4 f64 / 8x8 f32; TileB: 4x4) — 256/128-bit ops shared by both TUs;
//     transposes are shuffle-port bound, so wider vectors buy little there.
//   - The fused checksum updates (Cc += alpha*A·Bc, Cr += Ar·B~, Bc = B~·e)
//     run as multi-accumulator FMA lanes carried across the k-loop and
//     reduced once per panel; amax tracking folds into the same sweeps as
//     abs-masked vector max.
//
// Contract: packed panels are BIT-IDENTICAL to the scalar templates in
// kernels/packing.hpp (same per-element arithmetic: one widen, one multiply
// by alpha).  Checksum sums are reassociated into vector lanes, so they
// differ from the scalar order by rounding only — within the ToleranceModel
// bound (see docs/DESIGN.md, "SIMD packing & checksum engine"; asserted over
// a shape/trans sweep in tests/test_packing.cpp, and against the same ISA's
// fp32 set for bf16/fp16 in tests/test_precision.cpp).
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

#include "kernels/packing.hpp"

namespace ftgemm {
namespace {

/// Most vectors a single MR/NR stripe may span; wider tiles fall back to
/// the scalar path (no shipped kernel tile comes close).
constexpr index_t kMaxGroups = 8;

/// Prefetch distance (in panel columns/rows) for the streaming paths.
constexpr index_t kPfDist = 8;

inline void prefetch_t0(const void* p) {
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
}

/// Scalar fallback set, reached through function pointers so this TU never
/// instantiates the portable templates under SIMD flags.
template <typename S, typename C>
const PackSet<S, C>& scalar_pack() {
  static const PackSet<S, C> set = get_pack_set<S, C>(Isa::kScalar);
  return set;
}

// ---------------------------------------------------------------------------
// Register tiles of the transposing stages (256/128-bit, shared by both TUs).
// ---------------------------------------------------------------------------

/// In-place 4x4 f64 transpose: r[k] becomes lane-vector k of the tile.
inline void transpose4x4_pd(__m256d r[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// In-place 8x8 f32 transpose.
inline void transpose8x8_ps(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// One tile vector type: N lanes of T, an N x N in-place transpose.
struct TileD4 {
  using T = double;
  using Vec = __m256d;
  static constexpr int N = 4;
  static Vec zero() { return _mm256_setzero_pd(); }
  static Vec set1(T x) { return _mm256_set1_pd(x); }
  static Vec loadu(const T* p) { return _mm256_loadu_pd(p); }
  static void storeu(T* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
  static void transpose(Vec r[N]) { transpose4x4_pd(r); }
};

struct TileS8 {
  using T = float;
  using Vec = __m256;
  static constexpr int N = 8;
  static Vec zero() { return _mm256_setzero_ps(); }
  static Vec set1(T x) { return _mm256_set1_ps(x); }
  static Vec loadu(const T* p) { return _mm256_loadu_ps(p); }
  static void storeu(T* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
  static void transpose(Vec r[N]) { transpose8x8_ps(r); }
};

struct TileS4 {
  using T = float;
  using Vec = __m128;
  static constexpr int N = 4;
  static Vec zero() { return _mm_setzero_ps(); }
  static Vec set1(T x) { return _mm_set1_ps(x); }
  static Vec loadu(const T* p) { return _mm_loadu_ps(p); }
  static void storeu(T* p, Vec v) { _mm_storeu_ps(p, v); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm_fmadd_ps(a, b, c); }
  static void transpose(Vec r[N]) { _MM_TRANSPOSE4_PS(r[0], r[1], r[2], r[3]); }
};

/// Trans pack_a tile (4x4 f64 / 8x8 f32) and NoTrans pack_b tile (4x4:
/// 4x4 SSE for f32, so NR = 6/8 tiles still fill whole blocks), by compute
/// type.
template <typename C>
using TileA = std::conditional_t<sizeof(C) == 8, TileD4, TileS8>;
template <typename C>
using TileB = std::conditional_t<sizeof(C) == 8, TileD4, TileS4>;

/// The loader of the fp64/fp32 sets: storage is the compute type.
template <class TR>
struct SameLoad {
  using S = typename TR::T;
  static typename TR::Vec loadu(const S* p) { return TR::loadu(p); }
  static typename TR::Vec maskload(const S* p, index_t n) {
    return TR::maskload(p, n);
  }
  static typename TileA<S>::Vec tile_a(const S* p) {
    return TileA<S>::loadu(p);
  }
  static typename TileB<S>::Vec tile_b(const S* p) {
    return TileB<S>::loadu(p);
  }
};

// ---------------------------------------------------------------------------
// Trans-specialized pack_a panel (register-tile transpose, full panel:
// rows == mr).  `base` addresses effective element (row0, k0); storage rows
// are contiguous along kk with stride `ld` between rows.  With FT, cc
// (length mr, panel-local) accumulates alpha*A·bc.
// ---------------------------------------------------------------------------

// The k-blocks are OUTER and the row-blocks inner so every MR-tall packed
// column is written completely while its cache lines are L1-hot (row-block
// outer would revisit each line a full panel-sweep later, paying the RFO
// twice).  The per-row-block Cc accumulators persist across the k loop.

template <class TR, class LD, bool FT>
void pack_a_panel_trans(const typename LD::S* base, index_t ld, index_t klen,
                        index_t mr, typename TR::T alpha,
                        typename TR::T* __restrict__ dst,
                        const typename TR::T* __restrict__ bc,
                        typename TR::T* __restrict__ cc) {
  using C = typename TR::T;
  using TA = TileA<C>;
  constexpr index_t N = TA::N;
  const typename TA::Vec av = TA::set1(alpha);
  const index_t groups = mr / N;
  typename TA::Vec acc[kMaxGroups];
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g) acc[g] = TA::zero();
  }
  index_t kk = 0;
  for (; kk + N <= klen; kk += N) {
    for (index_t g = 0; g < groups; ++g) {
      const typename LD::S* row = base + N * g * ld + kk;
      typename TA::Vec t[N];
      for (int q = 0; q < N; ++q) t[q] = LD::tile_a(row + q * ld);
      TA::transpose(t);
      for (int q = 0; q < N; ++q) {
        const typename TA::Vec v = TA::mul(av, t[q]);
        TA::storeu(dst + (kk + q) * mr + N * g, v);
        if constexpr (FT)
          acc[g] = TA::fmadd(v, TA::set1(bc[kk + q]), acc[g]);
      }
    }
  }
  for (; kk < klen; ++kk) {
    C* col = dst + kk * mr;
    if constexpr (FT) {
      const C bcv = bc[kk];
      for (index_t ii = 0; ii < mr; ++ii) {
        const C v = alpha * C(base[ii * ld + kk]);
        col[ii] = v;
        cc[ii] += v * bcv;
      }
    } else {
      for (index_t ii = 0; ii < mr; ++ii)
        col[ii] = alpha * C(base[ii * ld + kk]);
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g)
      TA::storeu(cc + N * g, TA::add(TA::loadu(cc + N * g), acc[g]));
  }
}

// ---------------------------------------------------------------------------
// NoTrans pack_b panel (register-tile transpose; the effective column is
// unit-stride along k, the packed row wants NR consecutive columns).
// `base` addresses effective element (k0, col0); storage columns are
// contiguous along kk with stride `ld` between columns.  Full panel:
// cols == nr.
// ---------------------------------------------------------------------------

// Like the Trans pack_a path: k-blocks OUTER, column-blocks inner, so every
// NR-wide packed row is completed while L1-hot.  With FT the predicted-Cr
// FMA (cr[jj] += sum_kk ar[kk] * B~(kk, jj)) fuses directly into the pack
// loop — the SIMD engine does not re-sweep the packed panel in a second
// stage (the scalar oracle does; the sums are reassociated either way, and
// tests hold both within the tolerance contract).  The source columns are
// prefetched once per 64 bytes of compute-type depth.

template <class TR, class LD, bool FT>
void pack_b_panel_notrans(const typename LD::S* base, index_t ld,
                          index_t klen, index_t nr,
                          typename TR::T* __restrict__ dst,
                          const typename TR::T* __restrict__ ar,
                          typename TR::T* __restrict__ cr) {
  using C = typename TR::T;
  using TB = TileB<C>;
  const index_t jblocks = nr / 4;
  const index_t jtail = jblocks * 4;
  typename TB::Vec acc[kMaxGroups];
  if constexpr (FT) {
    for (index_t g = 0; g < jblocks; ++g) acc[g] = TB::zero();
  }
  index_t kk = 0;
  for (; kk + 4 <= klen; kk += 4) {
    for (index_t g = 0; g < jblocks; ++g) {
      const typename LD::S* col = base + 4 * g * ld + kk;
      if (kk % index_t(64 / sizeof(C)) == 0) {
        prefetch_t0(col + 4 * kPfDist);
        prefetch_t0(col + ld + 4 * kPfDist);
        prefetch_t0(col + 2 * ld + 4 * kPfDist);
        prefetch_t0(col + 3 * ld + 4 * kPfDist);
      }
      typename TB::Vec t[4];
      for (int q = 0; q < 4; ++q) t[q] = LD::tile_b(col + q * ld);
      TB::transpose(t);
      for (int q = 0; q < 4; ++q) {
        TB::storeu(dst + (kk + q) * nr + 4 * g, t[q]);
        if constexpr (FT)
          acc[g] = TB::fmadd(t[q], TB::set1(ar[kk + q]), acc[g]);
      }
    }
    for (index_t jj = jtail; jj < nr; ++jj) {  // narrow tail columns
      const typename LD::S* cj = base + jj * ld;
      for (int q = 0; q < 4; ++q) {
        const C v = C(cj[kk + q]);
        dst[(kk + q) * nr + jj] = v;
        if constexpr (FT) cr[jj] += ar[kk + q] * v;
      }
    }
  }
  for (; kk < klen; ++kk) {
    C* row = dst + kk * nr;
    if constexpr (FT) {
      const C arv = ar[kk];
      for (index_t jj = 0; jj < nr; ++jj) {
        const C v = C(base[jj * ld + kk]);
        row[jj] = v;
        cr[jj] += arv * v;
      }
    } else {
      for (index_t jj = 0; jj < nr; ++jj) row[jj] = C(base[jj * ld + kk]);
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < jblocks; ++g) {
      alignas(32) C lanes[4];
      TB::storeu(lanes, acc[g]);
      for (int q = 0; q < 4; ++q) cr[4 * g + q] += lanes[q];
    }
  }
}

// ---------------------------------------------------------------------------
// Cc replay from an already-packed panel (resident-operand cache hits).
// Each routine repeats EXACTLY the accumulator structure of its pack_a
// counterpart — same fmadd operand order, same aligned-prefix / scalar-tail
// split, same deferred vector-accumulator add — with the packed value
// standing in for the just-scaled element, so the accumulated Cc is
// bit-identical to a cold pack_a_ft over the same slab.  Replays read
// compute-type panels only, so the narrow sets share them.
// ---------------------------------------------------------------------------

/// Replay of pack_a_panel_trans<FT=true>.  Full tile: rows == mr.
template <typename C>
void encode_cc_panel_trans(const C* __restrict__ packed, index_t klen,
                           index_t mr, const C* __restrict__ bc,
                           C* __restrict__ cc) {
  using TA = TileA<C>;
  constexpr index_t N = TA::N;
  const index_t groups = mr / N;
  typename TA::Vec acc[kMaxGroups];
  for (index_t g = 0; g < groups; ++g) acc[g] = TA::zero();
  index_t kk = 0;
  for (; kk + N <= klen; kk += N) {
    for (index_t g = 0; g < groups; ++g) {
      for (int q = 0; q < N; ++q) {
        const typename TA::Vec v = TA::loadu(packed + (kk + q) * mr + N * g);
        acc[g] = TA::fmadd(v, TA::set1(bc[kk + q]), acc[g]);
      }
    }
  }
  for (; kk < klen; ++kk) {
    const C* col = packed + kk * mr;
    const C bcv = bc[kk];
    for (index_t ii = 0; ii < mr; ++ii) cc[ii] += col[ii] * bcv;
  }
  for (index_t g = 0; g < groups; ++g)
    TA::storeu(cc + N * g, TA::add(TA::loadu(cc + N * g), acc[g]));
}

/// Replay of pack_a_panel_notrans<TR, LD, FT=true>.  Full tile: rows == mr.
template <class TR>
void encode_cc_panel_notrans(const typename TR::T* __restrict__ packed,
                             index_t klen, index_t mr,
                             const typename TR::T* __restrict__ bc,
                             typename TR::T* __restrict__ cc) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t groups = mr / W;
  Vec acc[kMaxGroups];
  for (index_t g = 0; g < groups; ++g) acc[g] = TR::zero();
  for (index_t kk = 0; kk < klen; ++kk) {
    const typename TR::T* __restrict__ col = packed + kk * mr;
    const Vec bcv = TR::set1(bc[kk]);
    for (index_t g = 0; g < groups; ++g) {
      acc[g] = TR::fmadd(TR::loadu(col + g * W), bcv, acc[g]);
    }
  }
  for (index_t g = 0; g < groups; ++g)
    TR::storeu(cc + g * W, TR::add(TR::loadu(cc + g * W), acc[g]));
}

// ---------------------------------------------------------------------------
// Full-width streaming paths.
// ---------------------------------------------------------------------------

/// NoTrans pack_a panel: unit-stride copy-scale of mr-row columns, with the
/// fused Cc FMA carried in one accumulator per vector group (mr/W chains).
/// Full panel: rows == mr, mr % W == 0, mr/W <= kMaxGroups.
template <class TR, class LD, bool FT>
void pack_a_panel_notrans(const typename LD::S* base, index_t ld,
                          index_t klen, index_t mr, typename TR::T alpha,
                          typename TR::T* __restrict__ dst,
                          const typename TR::T* __restrict__ bc,
                          typename TR::T* __restrict__ cc) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t groups = mr / W;
  const Vec alphav = TR::set1(alpha);
  Vec acc[kMaxGroups];
  for (index_t g = 0; g < groups; ++g) acc[g] = TR::zero();
  for (index_t kk = 0; kk < klen; ++kk) {
    const typename LD::S* __restrict__ src = base + kk * ld;
    typename TR::T* __restrict__ col = dst + kk * mr;
    const typename LD::S* pf = src + kPfDist * ld;
    if constexpr (FT) {
      const Vec bcv = TR::set1(bc[kk]);
      for (index_t g = 0; g < groups; ++g) {
        if ((index_t(sizeof(typename LD::S)) * g * W) % 64 == 0)
          prefetch_t0(pf + g * W);
        const Vec v = TR::mul(alphav, LD::loadu(src + g * W));
        TR::storeu(col + g * W, v);
        acc[g] = TR::fmadd(v, bcv, acc[g]);
      }
    } else {
      for (index_t g = 0; g < groups; ++g) {
        if ((index_t(sizeof(typename LD::S)) * g * W) % 64 == 0)
          prefetch_t0(pf + g * W);
        TR::storeu(col + g * W, TR::mul(alphav, LD::loadu(src + g * W)));
      }
    }
  }
  if constexpr (FT) {
    for (index_t g = 0; g < groups; ++g)
      TR::storeu(cc + g * W, TR::add(TR::loadu(cc + g * W), acc[g]));
  }
}

/// Trans pack_b panel: the effective row is contiguous — full-width copy
/// streams with a masked tail group, and (with FT) the predicted-Cr FMA
/// fused into the same pass, one accumulator per vector group carried
/// across k.  Full panel: cols == nr.
template <class TR, class LD, bool FT>
void pack_b_panel_transcopy(const typename LD::S* base, index_t ld,
                            index_t klen, index_t nr,
                            typename TR::T* __restrict__ dst,
                            const typename TR::T* __restrict__ ar,
                            typename TR::T* __restrict__ cr) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t full = nr - nr % W;
  const index_t rem = nr - full;
  const index_t ng = full / W + (rem ? 1 : 0);
  Vec acc[kMaxGroups + 1];
  if constexpr (FT) {
    for (index_t g = 0; g < ng; ++g) acc[g] = TR::zero();
  }
  for (index_t kk = 0; kk < klen; ++kk) {
    const typename LD::S* __restrict__ src = base + kk * ld;
    typename TR::T* __restrict__ out = dst + kk * nr;
    prefetch_t0(src + kPfDist * ld);
    if constexpr (FT) {
      const Vec arv = TR::set1(ar[kk]);
      index_t jj = 0;
      for (; jj < full; jj += W) {
        const Vec v = LD::loadu(src + jj);
        TR::storeu(out + jj, v);
        acc[jj / W] = TR::fmadd(arv, v, acc[jj / W]);
      }
      if (rem) {
        const Vec v = LD::maskload(src + jj, rem);
        TR::maskstore(out + jj, rem, v);
        acc[full / W] = TR::fmadd(arv, v, acc[full / W]);
      }
    } else {
      index_t jj = 0;
      for (; jj < full; jj += W) TR::storeu(out + jj, LD::loadu(src + jj));
      if (rem) TR::maskstore(out + jj, rem, LD::maskload(src + jj, rem));
    }
  }
  if constexpr (FT) {
    alignas(64) typename TR::T lanes[(kMaxGroups + 1) * W];
    for (index_t g = 0; g < ng; ++g) TR::storeu(lanes + g * W, acc[g]);
    for (index_t jj = 0; jj < nr; ++jj) cr[jj] += lanes[jj];
  }
}

/// Vectors per reduce_bc_simd register block; wider NR tiles fall back to
/// the scalar path.
constexpr index_t kBcBlockVecs = 4;

/// Bc[kk] = sum_j panel(kk, j) over all sub-panels + fused amax of |B~|.
/// A register block holds as many whole packed rows as fit kBcBlockVecs
/// vectors; the sub-panels are summed into it element-wise and each block
/// is row-reduced once, so a chunk of q sub-panels costs q vector adds per
/// block instead of one horizontal sum per packed row of every sub-panel.
template <class TR>
double reduce_bc_simd(const typename TR::T* __restrict__ b_packed,
                      index_t klen, index_t nlen, index_t nr,
                      typename TR::T* __restrict__ bc, double amax_in) {
  using T = typename TR::T;
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t panels = (nlen + nr - 1) / nr;
  const index_t tile = nr * klen;
  const index_t block_rows = kBcBlockVecs * W / nr;
  Vec amaxv = TR::zero();
  alignas(64) T lanes[kBcBlockVecs * W];
  for (index_t k0 = 0; k0 < klen; k0 += block_rows) {
    const index_t rows = std::min(block_rows, klen - k0);
    const index_t full = rows * nr / W;
    const index_t rem = rows * nr - full * W;
    Vec acc[kBcBlockVecs];
    for (index_t v = 0; v < kBcBlockVecs; ++v) acc[v] = TR::zero();
    Vec tail = TR::zero();
    const T* __restrict__ src = b_packed + k0 * nr;
    for (index_t q = 0; q < panels; ++q, src += tile) {
      for (index_t v = 0; v < kBcBlockVecs; ++v) {
        if (v < full) {
          const Vec x = TR::loadu(src + v * W);
          acc[v] = TR::add(acc[v], x);
          amaxv = TR::max(amaxv, TR::abs(x));
        }
      }
      if (rem) {
        const Vec x = TR::maskload(src + full * W, rem);
        tail = TR::add(tail, x);
        amaxv = TR::max(amaxv, TR::abs(x));
      }
    }
    for (index_t v = 0; v < full; ++v) TR::storeu(lanes + v * W, acc[v]);
    if (rem) TR::storeu(lanes + full * W, tail);
    for (index_t r = 0; r < rows; ++r) {
      T sum = T(0);
      for (index_t jj = 0; jj < nr; ++jj) sum += lanes[r * nr + jj];
      bc[k0 + r] = sum;
    }
  }
  return std::max(amax_in, double(TR::hmax(amaxv)));
}

/// Fused C-scaling + Cc/Cr encode + pre-scale amax (see scale_encode_c in
/// abft/checksum.hpp for the semantics being mirrored).
template <class TR>
double scale_encode_c_simd(typename TR::T* c, index_t ldc, index_t i0,
                           index_t ilen, index_t n, typename TR::T beta,
                           typename TR::T* __restrict__ cc,
                           typename TR::T* __restrict__ cr_part) {
  using T = typename TR::T;
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t full = ilen - ilen % W;
  const index_t rem = ilen - full;
  const Vec betav = TR::set1(beta);
  Vec amaxv = TR::zero();
  for (index_t j = 0; j < n; ++j) {
    T* __restrict__ col = c + i0 + j * ldc;
    if (beta == T(0)) {
      // Assign zero rather than multiply: C may hold uninitialized data and
      // 0 * NaN would propagate.  Checksums of a zero slice stay zero.
      const Vec z = TR::zero();
      index_t i = 0;
      for (; i < full; i += W) TR::storeu(col + i, z);
      if (rem) TR::maskstore(col + i, rem, z);
      continue;
    }
    T* __restrict__ ccr = cc + i0;
    Vec s0 = TR::zero(), s1 = TR::zero();
    index_t i = 0;
    if (beta == T(1)) {
      for (; i + 2 * W <= ilen; i += 2 * W) {
        const Vec v0 = TR::loadu(col + i);
        const Vec v1 = TR::loadu(col + i + W);
        amaxv = TR::max(amaxv, TR::abs(v0));
        amaxv = TR::max(amaxv, TR::abs(v1));
        TR::storeu(ccr + i, TR::add(TR::loadu(ccr + i), v0));
        TR::storeu(ccr + i + W, TR::add(TR::loadu(ccr + i + W), v1));
        s0 = TR::add(s0, v0);
        s1 = TR::add(s1, v1);
      }
      for (; i < full; i += W) {
        const Vec v = TR::loadu(col + i);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::storeu(ccr + i, TR::add(TR::loadu(ccr + i), v));
        s0 = TR::add(s0, v);
      }
      if (rem) {
        const Vec v = TR::maskload(col + i, rem);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::maskstore(ccr + i, rem,
                      TR::add(TR::maskload(ccr + i, rem), v));
        s1 = TR::add(s1, v);
      }
    } else {
      for (; i + 2 * W <= ilen; i += 2 * W) {
        const Vec u0 = TR::loadu(col + i);
        const Vec u1 = TR::loadu(col + i + W);
        amaxv = TR::max(amaxv, TR::abs(u0));  // amax is of the PRE-scale C
        amaxv = TR::max(amaxv, TR::abs(u1));
        const Vec v0 = TR::mul(betav, u0);
        const Vec v1 = TR::mul(betav, u1);
        TR::storeu(col + i, v0);
        TR::storeu(col + i + W, v1);
        TR::storeu(ccr + i, TR::add(TR::loadu(ccr + i), v0));
        TR::storeu(ccr + i + W, TR::add(TR::loadu(ccr + i + W), v1));
        s0 = TR::add(s0, v0);
        s1 = TR::add(s1, v1);
      }
      for (; i < full; i += W) {
        const Vec u = TR::loadu(col + i);
        amaxv = TR::max(amaxv, TR::abs(u));
        const Vec v = TR::mul(betav, u);
        TR::storeu(col + i, v);
        TR::storeu(ccr + i, TR::add(TR::loadu(ccr + i), v));
        s0 = TR::add(s0, v);
      }
      if (rem) {
        const Vec u = TR::maskload(col + i, rem);
        amaxv = TR::max(amaxv, TR::abs(u));
        const Vec v = TR::mul(betav, u);
        TR::maskstore(col + i, rem, v);
        TR::maskstore(ccr + i, rem,
                      TR::add(TR::maskload(ccr + i, rem), v));
        s1 = TR::add(s1, v);
      }
    }
    cr_part[j] += TR::hsum(TR::add(s0, s1));
  }
  return double(TR::hmax(amaxv));
}

/// Ar partial encode + amax (mirrors encode_ar_partial in abft/checksum.hpp).
template <class TR, class LD>
double encode_ar_simd(const OperandView<typename LD::S>& a, index_t i0,
                      index_t ilen, index_t k, typename TR::T alpha,
                      typename TR::T* __restrict__ ar_part) {
  using S = typename LD::S;
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  Vec amaxv = TR::zero();
  if (!a.trans) {
    // Column p of A is contiguous: full-width lane sums down it.
    const index_t full = ilen - ilen % W;
    const index_t rem = ilen - full;
    for (index_t p = 0; p < k; ++p) {
      const S* __restrict__ col = a.data + i0 + p * a.ld;
      prefetch_t0(col + a.ld);
      Vec s0 = TR::zero(), s1 = TR::zero();
      index_t i = 0;
      for (; i + 2 * W <= ilen; i += 2 * W) {
        const Vec v0 = LD::loadu(col + i);
        const Vec v1 = LD::loadu(col + i + W);
        amaxv = TR::max(amaxv, TR::abs(v0));
        amaxv = TR::max(amaxv, TR::abs(v1));
        s0 = TR::add(s0, v0);
        s1 = TR::add(s1, v1);
      }
      for (; i < full; i += W) {
        const Vec v = LD::loadu(col + i);
        amaxv = TR::max(amaxv, TR::abs(v));
        s0 = TR::add(s0, v);
      }
      if (rem) {
        const Vec v = LD::maskload(col + i, rem);
        amaxv = TR::max(amaxv, TR::abs(v));
        s1 = TR::add(s1, v);
      }
      ar_part[p] += alpha * TR::hsum(TR::add(s0, s1));
    }
  } else {
    // A^T: row i of the storage is contiguous along p — full-width FMA into
    // ar_part (contiguous read-modify-write).
    const index_t full = k - k % W;
    const index_t rem = k - full;
    const Vec alphav = TR::set1(alpha);
    for (index_t i = 0; i < ilen; ++i) {
      const S* __restrict__ row = a.data + (i0 + i) * a.ld;
      prefetch_t0(row + a.ld);
      index_t p = 0;
      for (; p < full; p += W) {
        const Vec v = LD::loadu(row + p);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::storeu(ar_part + p,
                   TR::fmadd(alphav, v, TR::loadu(ar_part + p)));
      }
      if (rem) {
        const Vec v = LD::maskload(row + p, rem);
        amaxv = TR::max(amaxv, TR::abs(v));
        TR::maskstore(ar_part + p, rem,
                      TR::fmadd(alphav, v, TR::maskload(ar_part + p, rem)));
      }
    }
  }
  return double(TR::hmax(amaxv));
}

/// Widen + alpha-scale a raw storage panel into the compute panel (resident
/// cache hit on narrow storage; the uniform sets never call it).  Full
/// tiles have no padding rows, so they widen as one flat stream — each
/// element sees the identical single widen + single multiply the cold pack
/// applied, hence bit-identity.  The ragged tail tile (with its explicit
/// zero padding) goes through the scalar template.
template <class TR, class LD>
void widen_a_simd(const typename LD::S* raw, index_t mlen, index_t klen,
                  index_t mr, typename TR::T alpha, typename TR::T* dst) {
  using Vec = typename TR::Vec;
  constexpr index_t W = TR::W;
  const index_t tiles = mlen / mr;
  const index_t n = tiles * mr * klen;
  const Vec alphav = TR::set1(alpha);
  const index_t full = n - n % W;
  index_t i = 0;
  for (; i < full; i += W)
    TR::storeu(dst + i, TR::mul(alphav, LD::loadu(raw + i)));
  if (n - full)
    TR::maskstore(dst + i, n - full,
                  TR::mul(alphav, LD::maskload(raw + i, n - full)));
  if (mlen % mr) {
    scalar_pack<typename LD::S, typename TR::T>().widen_a(
        raw + n, mlen - tiles * mr, klen, mr, alpha, dst + n);
  }
}

// ---------------------------------------------------------------------------
// Top-level dispatch entries: full panels go to the SIMD paths above, the
// ragged tail panel (and any off-spec tile geometry) to the scalar set.
// Signatures match the PackSet function-pointer types exactly.
// ---------------------------------------------------------------------------

/// Tile-geometry gate of the A side, shared by pack_a_generic and
/// encode_cc_disp so every tile's Cc contribution is replayed by the twin
/// of the packer that produced it.  It depends on the compute type only.
template <class TR>
bool a_simd_ok(bool trans, index_t mr) {
  const index_t w = trans ? index_t(TileA<typename TR::T>::N) : TR::W;
  return mr % w == 0 && mr / w <= kMaxGroups;
}

template <class TR, class LD, bool FT>
void pack_a_generic(const OperandView<typename LD::S>& a, index_t m0,
                    index_t k0, index_t mlen, index_t klen, index_t mr,
                    typename TR::T alpha, typename TR::T* dst,
                    const typename TR::T* bc, typename TR::T* cc) {
  using S = typename LD::S;
  index_t ip = 0;
  if (a_simd_ok<TR>(a.trans, mr)) {
    for (; ip + mr <= mlen; ip += mr) {
      const S* base = a.ptr(m0 + ip, k0);
      if (a.trans) {
        pack_a_panel_trans<TR, LD, FT>(base, a.ld, klen, mr, alpha, dst, bc,
                                       FT ? cc + ip : nullptr);
      } else {
        pack_a_panel_notrans<TR, LD, FT>(base, a.ld, klen, mr, alpha, dst,
                                         bc, FT ? cc + ip : nullptr);
      }
      dst += mr * klen;
    }
  }
  if (ip < mlen) {  // ragged tail panel (or whole call): scalar oracle path
    const auto& scalar = scalar_pack<S, typename TR::T>();
    if constexpr (FT) {
      scalar.pack_a_ft(a, m0 + ip, k0, mlen - ip, klen, mr, alpha, dst, bc,
                       cc + ip);
    } else {
      scalar.pack_a(a, m0 + ip, k0, mlen - ip, klen, mr, alpha, dst);
    }
  }
}

template <class TR, class LD>
void pack_a_disp(const OperandView<typename LD::S>& a, index_t m0, index_t k0,
                 index_t mlen, index_t klen, index_t mr, typename TR::T alpha,
                 typename TR::T* dst) {
  pack_a_generic<TR, LD, false>(a, m0, k0, mlen, klen, mr, alpha, dst,
                                nullptr, nullptr);
}

template <class TR, class LD>
void pack_a_ft_disp(const OperandView<typename LD::S>& a, index_t m0,
                    index_t k0, index_t mlen, index_t klen, index_t mr,
                    typename TR::T alpha, typename TR::T* dst,
                    const typename TR::T* bc, typename TR::T* cc) {
  pack_a_generic<TR, LD, true>(a, m0, k0, mlen, klen, mr, alpha, dst, bc,
                               cc);
}

template <class TR, class LD, bool FT>
void pack_b_generic(const OperandView<typename LD::S>& b, index_t k0,
                    index_t j0, index_t klen, index_t nlen, index_t nr,
                    typename TR::T* dst, const typename TR::T* ar,
                    typename TR::T* cr) {
  using S = typename LD::S;
  const bool simd_ok = nr <= kMaxGroups * TR::W && nr / 4 <= kMaxGroups;
  index_t jp = 0;
  if (simd_ok) {
    for (; jp + nr <= nlen; jp += nr) {
      const S* base = b.ptr(k0, j0 + jp);
      if (b.trans) {
        pack_b_panel_transcopy<TR, LD, FT>(base, b.ld, klen, nr, dst, ar,
                                           FT ? cr + jp : nullptr);
      } else {
        pack_b_panel_notrans<TR, LD, FT>(base, b.ld, klen, nr, dst, ar,
                                         FT ? cr + jp : nullptr);
      }
      dst += nr * klen;
    }
  }
  if (jp < nlen) {  // ragged tail panel (cols < nr): scalar oracle path
    const auto& scalar = scalar_pack<S, typename TR::T>();
    if constexpr (FT) {
      scalar.pack_b_ft(b, k0, j0 + jp, klen, nlen - jp, nr, dst, ar, cr + jp);
    } else {
      scalar.pack_b(b, k0, j0 + jp, klen, nlen - jp, nr, dst);
    }
  }
}

template <class TR, class LD>
void pack_b_disp(const OperandView<typename LD::S>& b, index_t k0, index_t j0,
                 index_t klen, index_t nlen, index_t nr,
                 typename TR::T* dst) {
  pack_b_generic<TR, LD, false>(b, k0, j0, klen, nlen, nr, dst, nullptr,
                                nullptr);
}

template <class TR, class LD>
void pack_b_ft_disp(const OperandView<typename LD::S>& b, index_t k0,
                    index_t j0, index_t klen, index_t nlen, index_t nr,
                    typename TR::T* dst, const typename TR::T* ar,
                    typename TR::T* cr) {
  pack_b_generic<TR, LD, true>(b, k0, j0, klen, nlen, nr, dst, ar, cr);
}

/// Dispatch for the Cc replay: the SAME full-tile/ragged-tail split and
/// tile-geometry gate as pack_a_generic.
template <class TR>
void encode_cc_disp(const typename TR::T* packed, bool trans, index_t mlen,
                    index_t klen, index_t mr, const typename TR::T* bc,
                    typename TR::T* cc) {
  using T = typename TR::T;
  index_t ip = 0;
  if (a_simd_ok<TR>(trans, mr)) {
    for (; ip + mr <= mlen; ip += mr) {
      if (trans) {
        encode_cc_panel_trans<T>(packed, klen, mr, bc, cc + ip);
      } else {
        encode_cc_panel_notrans<TR>(packed, klen, mr, bc, cc + ip);
      }
      packed += mr * klen;
    }
  }
  if (ip < mlen) {  // ragged tail tile (or whole call): scalar oracle path
    scalar_pack<T, T>().encode_cc(packed, trans, mlen - ip, klen, mr, bc,
                                  cc + ip);
  }
}

template <class TR>
double reduce_bc_disp(const typename TR::T* b_packed, index_t klen,
                      index_t nlen, index_t nr, typename TR::T* bc,
                      double amax_in) {
  using T = typename TR::T;
  if (nr > kBcBlockVecs * TR::W) {
    return scalar_pack<T, T>().reduce_bc(b_packed, klen, nlen, nr, bc,
                                         amax_in);
  }
  return reduce_bc_simd<TR>(b_packed, klen, nlen, nr, bc, amax_in);
}

/// Assemble the PackSet for one (compute traits, storage loader) pair.  The
/// panel-side members (reduce_bc, scale_encode_c, encode_cc) depend on TR
/// alone, so a narrow set shares them with the fp32 set of its TU; the
/// encode sweeps need no dispatch wrapper (no tile-geometry gate).
template <class TR, class LD = SameLoad<TR>>
PackSet<typename LD::S, typename TR::T> make_simd_pack(Isa isa) {
  using S = typename LD::S;
  using C = typename TR::T;
  PackSet<S, C> p;
  p.pack_a = &pack_a_disp<TR, LD>;
  p.pack_a_ft = &pack_a_ft_disp<TR, LD>;
  p.pack_b = &pack_b_disp<TR, LD>;
  p.pack_b_ft = &pack_b_ft_disp<TR, LD>;
  p.reduce_bc = &reduce_bc_disp<TR>;
  p.scale_encode_c = &scale_encode_c_simd<TR>;
  p.encode_ar = &encode_ar_simd<TR, LD>;
  p.encode_cc = &encode_cc_disp<TR>;
  p.pack_a_raw = scalar_pack<S, C>().pack_a_raw;
  p.widen_a = &widen_a_simd<TR, LD>;
  p.isa = isa;
  return p;
}

}  // namespace
}  // namespace ftgemm
