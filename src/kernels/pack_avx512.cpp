// AVX-512 packing & checksum engine (512-bit streams, opmask tails).
//
// See pack_simd_common.hpp for the one implementation and the bit-identity
// / summation-order contract; this file supplies its 512-bit compute traits
// and the bf16/fp16 widening loaders, and builds all four float sets with
// make_simd_pack.  The streaming stages run full zmm vectors; the
// register-tile transposes use the shared 256/128-bit tiles (transposes are
// shuffle-port bound, so wider vectors buy little there, and those ops are
// legal under AVX-512VL).
//
// This translation unit is compiled with the AVX-512 flag set regardless of
// the build host; runtime dispatch (get_pack_set via select_isa) guarantees
// these entry points are only called on capable CPUs.
#include <immintrin.h>

#include "kernels/pack_simd_common.hpp"

namespace ftgemm {

namespace {

struct TraitsD512 {
  using T = double;
  using Vec = __m512d;
  static constexpr index_t W = 8;
  static Vec zero() { return _mm512_setzero_pd(); }
  static Vec set1(T x) { return _mm512_set1_pd(x); }
  static Vec loadu(const T* p) { return _mm512_loadu_pd(p); }
  static void storeu(T* p, Vec v) { _mm512_storeu_pd(p, v); }
  static __mmask8 mask(index_t n) {
    return static_cast<__mmask8>((1u << n) - 1u);
  }
  static Vec maskload(const T* p, index_t n) {
    return _mm512_maskz_loadu_pd(mask(n), p);
  }
  static void maskstore(T* p, index_t n, Vec v) {
    _mm512_mask_storeu_pd(p, mask(n), v);
  }
  static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_pd(a, b, c); }
  static Vec max(Vec a, Vec b) { return _mm512_max_pd(a, b); }
  static Vec abs(Vec v) { return _mm512_abs_pd(v); }
  static T hsum(Vec v) { return _mm512_reduce_add_pd(v); }
  static T hmax(Vec v) { return _mm512_reduce_max_pd(v); }
};

struct TraitsF512 {
  using T = float;
  using Vec = __m512;
  static constexpr index_t W = 16;
  static Vec zero() { return _mm512_setzero_ps(); }
  static Vec set1(T x) { return _mm512_set1_ps(x); }
  static Vec loadu(const T* p) { return _mm512_loadu_ps(p); }
  static void storeu(T* p, Vec v) { _mm512_storeu_ps(p, v); }
  static __mmask16 mask(index_t n) {
    return static_cast<__mmask16>((1u << n) - 1u);
  }
  static Vec maskload(const T* p, index_t n) {
    return _mm512_maskz_loadu_ps(mask(n), p);
  }
  static void maskstore(T* p, index_t n, Vec v) {
    _mm512_mask_storeu_ps(p, mask(n), v);
  }
  static Vec add(Vec a, Vec b) { return _mm512_add_ps(a, b); }
  static Vec mul(Vec a, Vec b) { return _mm512_mul_ps(a, b); }
  static Vec fmadd(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
  static Vec max(Vec a, Vec b) { return _mm512_max_ps(a, b); }
  static Vec abs(Vec v) { return _mm512_abs_ps(v); }
  static T hsum(Vec v) { return _mm512_reduce_add_ps(v); }
  static T hmax(Vec v) { return _mm512_reduce_max_ps(v); }
};

// Widening loaders of the bf16/fp16 sets (storage -> fp32 vectors).  16-bit
// opmask loads (AVX-512BW+VL, both in this TU's flag set) make the ragged
// tails branch-free; the 256/128-bit tile_a/tile_b forms feed the shared
// register-tile transposes.

struct LoadBf16x16 {
  using S = bf16_t;
  static __m512 widen(__m256i h) {
    return _mm512_castsi512_ps(
        _mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16));
  }
  static __m512 loadu(const S* p) {
    return widen(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static __m512 maskload(const S* p, index_t n) {
    const __mmask16 m = static_cast<__mmask16>((1u << n) - 1u);
    return widen(_mm256_maskz_loadu_epi16(m, p));
  }
  static __m256 tile_a(const S* p) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
  }
  static __m128 tile_b(const S* p) {
    const __m128i h = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm_castsi128_ps(_mm_slli_epi32(_mm_cvtepu16_epi32(h), 16));
  }
};

struct LoadF16x16 {
  using S = fp16_t;
  static __m512 loadu(const S* p) {
    return _mm512_cvtph_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static __m512 maskload(const S* p, index_t n) {
    const __mmask16 m = static_cast<__mmask16>((1u << n) - 1u);
    // Masked-out lanes are zero fp16 bits, which widen to +0.0f.
    return _mm512_cvtph_ps(_mm256_maskz_loadu_epi16(m, p));
  }
  static __m256 tile_a(const S* p) {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static __m128 tile_b(const S* p) {
    return _mm_cvtph_ps(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
};

}  // namespace

PackSet<double> avx512_pack_f64() {
  return make_simd_pack<TraitsD512>(Isa::kAvx512);
}
PackSet<float> avx512_pack_f32() {
  return make_simd_pack<TraitsF512>(Isa::kAvx512);
}
PackSet<bf16_t, float> avx512_pack_bf16() {
  return make_simd_pack<TraitsF512, LoadBf16x16>(Isa::kAvx512);
}
PackSet<fp16_t, float> avx512_pack_f16() {
  return make_simd_pack<TraitsF512, LoadF16x16>(Isa::kAvx512);
}

}  // namespace ftgemm
