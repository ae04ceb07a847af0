// AVX2/FMA packing & checksum engine (256-bit streams).
//
// See pack_simd_common.hpp for the one implementation and the bit-identity
// / summation-order contract; this file supplies its 256-bit compute traits
// and the bf16/fp16 widening loaders, and builds all four float sets with
// make_simd_pack.  This translation unit is compiled with -mavx2 -mfma
// -mf16c regardless of the build host; runtime dispatch (get_pack_set via
// select_isa) guarantees these entry points are only called on capable
// CPUs.
#include <immintrin.h>

#include "kernels/pack_simd_common.hpp"

namespace ftgemm {

namespace {

// Lane-count masks for the ragged tails: the first n lanes are active.
alignas(32) constexpr long long kMaskTableD[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
alignas(32) constexpr int kMaskTableS[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                             0,  0,  0,  0,  0,  0,  0,  0};

struct TraitsD256 {
  using T = double;
  using Vec = __m256d;
  static constexpr index_t W = 4;
  static Vec zero() { return _mm256_setzero_pd(); }
  static Vec set1(T x) { return _mm256_set1_pd(x); }
  static Vec loadu(const T* p) { return _mm256_loadu_pd(p); }
  static void storeu(T* p, Vec v) { _mm256_storeu_pd(p, v); }
  static __m256i mask(index_t n) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kMaskTableD + 4 - n));
  }
  static Vec maskload(const T* p, index_t n) {
    return _mm256_maskload_pd(p, mask(n));
  }
  static void maskstore(T* p, index_t n, Vec v) {
    _mm256_maskstore_pd(p, mask(n), v);
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_pd(a, b, c); }
  static Vec max(Vec a, Vec b) { return _mm256_max_pd(a, b); }
  static Vec abs(Vec v) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
  }
  static T hsum(Vec v) {
    __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                           _mm256_extractf128_pd(v, 1));
    s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
    return _mm_cvtsd_f64(s);
  }
  static T hmax(Vec v) {
    __m128d s = _mm_max_pd(_mm256_castpd256_pd128(v),
                           _mm256_extractf128_pd(v, 1));
    s = _mm_max_sd(s, _mm_unpackhi_pd(s, s));
    return _mm_cvtsd_f64(s);
  }
};

struct TraitsF256 {
  using T = float;
  using Vec = __m256;
  static constexpr index_t W = 8;
  static Vec zero() { return _mm256_setzero_ps(); }
  static Vec set1(T x) { return _mm256_set1_ps(x); }
  static Vec loadu(const T* p) { return _mm256_loadu_ps(p); }
  static void storeu(T* p, Vec v) { _mm256_storeu_ps(p, v); }
  static __m256i mask(index_t n) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kMaskTableS + 8 - n));
  }
  static Vec maskload(const T* p, index_t n) {
    return _mm256_maskload_ps(p, mask(n));
  }
  static void maskstore(T* p, index_t n, Vec v) {
    _mm256_maskstore_ps(p, mask(n), v);
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
  static Vec max(Vec a, Vec b) { return _mm256_max_ps(a, b); }
  static Vec abs(Vec v) {
    return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
  }
  static T hsum(Vec v) {
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
  }
  static T hmax(Vec v) {
    __m128 s = _mm_max_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    s = _mm_max_ps(s, _mm_movehl_ps(s, s));
    s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
  }
};

// Widening loaders of the bf16/fp16 sets (storage -> fp32 vectors; the
// loader interface is described in pack_simd_common.hpp).  Masked loads
// stage through a zeroed stack buffer — AVX2 has no 16-bit masked load, and
// the tails are rare (one ragged group per panel row at most).

struct LoadBf16x8 {
  using S = bf16_t;
  static __m256 widen(__m128i h) {
    // bf16 is the high half of the f32 layout: zero-extend to 32 bits and
    // shift into place.  Exact for every bit pattern, NaNs included.
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
  }
  static __m256 loadu(const S* p) {
    return widen(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static __m256 tile_a(const S* p) { return loadu(p); }
  static __m128 tile_b(const S* p) {
    const __m128i h = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm_castsi128_ps(_mm_slli_epi32(_mm_cvtepu16_epi32(h), 16));
  }
  static __m256 maskload(const S* p, index_t n) {
    alignas(16) std::uint16_t buf[8] = {};
    for (index_t i = 0; i < n; ++i) buf[i] = p[i].bits;
    return widen(_mm_load_si128(reinterpret_cast<const __m128i*>(buf)));
  }
};

struct LoadF16x8 {
  using S = fp16_t;
  static __m256 loadu(const S* p) {
    // VCVTPH2PS: exact widen incl. subnormals/inf, SNaN quieting matches
    // the scalar fp16_t conversion (asserted in test_precision.cpp).
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static __m256 tile_a(const S* p) { return loadu(p); }
  static __m128 tile_b(const S* p) {
    return _mm_cvtph_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static __m256 maskload(const S* p, index_t n) {
    alignas(16) std::uint16_t buf[8] = {};
    for (index_t i = 0; i < n; ++i) buf[i] = p[i].bits;
    return _mm256_cvtph_ps(
        _mm_load_si128(reinterpret_cast<const __m128i*>(buf)));
  }
};

}  // namespace

PackSet<double> avx2_pack_f64() { return make_simd_pack<TraitsD256>(Isa::kAvx2); }
PackSet<float> avx2_pack_f32() { return make_simd_pack<TraitsF256>(Isa::kAvx2); }
PackSet<bf16_t, float> avx2_pack_bf16() {
  return make_simd_pack<TraitsF256, LoadBf16x8>(Isa::kAvx2);
}
PackSet<fp16_t, float> avx2_pack_f16() {
  return make_simd_pack<TraitsF256, LoadF16x8>(Isa::kAvx2);
}

}  // namespace ftgemm
