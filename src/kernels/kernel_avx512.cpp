// AVX-512 micro-kernels (f64 16x8, f32 32x8).
//
// The register tile is held in 16 zmm accumulators; each k step issues two
// packed loads of A and eight broadcast-FMAs.  The FT variants implement the
// paper's register-level checksum fusion: after the k-loop the final C tile
// values pass through the registers exactly once, and both reference
// checksums are accumulated from them before the store — no extra pass over
// C memory is ever made for verification.
//
// This translation unit is compiled with -mavx512f/dq/bw/vl regardless of
// the build host; runtime dispatch (select_isa) guarantees these functions
// are only called on capable CPUs.
#include <immintrin.h>

#include "kernels/microkernel.hpp"

namespace ftgemm {

namespace {

// ---------------------------------------------------------------------------
// f64: MR = 16 (kWv = 2 zmm per column), NR = 8 — 16 accumulators + 2 A
// vectors + 1 broadcast fit the 32 zmm registers with headroom.
// ---------------------------------------------------------------------------

constexpr int kWv = 2;
constexpr index_t kMrF64 = 8 * kWv;
constexpr index_t kNrF64 = 8;

void dkernel_16x8_base(index_t kc, const double* a, const double* b,
                       double* c, index_t ldc) {
  __m512d acc[kWv][kNrF64];
#pragma GCC unroll 8
  for (int j = 0; j < kNrF64; ++j)
    for (int w = 0; w < kWv; ++w) acc[w][j] = _mm512_setzero_pd();
  for (index_t p = 0; p < kc; ++p) {
    __m512d av[kWv];
    for (int w = 0; w < kWv; ++w) av[w] = _mm512_load_pd(a + 8 * w);
    a += 8 * kWv;
#pragma GCC unroll 8
    for (int j = 0; j < kNrF64; ++j) {
      const __m512d bv = _mm512_set1_pd(b[j]);
      for (int w = 0; w < kWv; ++w)
        acc[w][j] = _mm512_fmadd_pd(av[w], bv, acc[w][j]);
    }
    b += kNrF64;
  }
#pragma GCC unroll 8
  for (int j = 0; j < kNrF64; ++j) {
    double* cj = c + j * ldc;
    for (int w = 0; w < kWv; ++w) {
      _mm512_storeu_pd(cj + 8 * w, _mm512_add_pd(_mm512_loadu_pd(cj + 8 * w),
                                                 acc[w][j]));
    }
  }
}

void dkernel_16x8_ft(index_t kc, const double* a, const double* b, double* c,
                     index_t ldc, double* cr_ref, double* cc_ref) {
  __m512d acc[kWv][kNrF64];
#pragma GCC unroll 8
  for (int j = 0; j < kNrF64; ++j)
    for (int w = 0; w < kWv; ++w) acc[w][j] = _mm512_setzero_pd();
  for (index_t p = 0; p < kc; ++p) {
    __m512d av[kWv];
    for (int w = 0; w < kWv; ++w) av[w] = _mm512_load_pd(a + 8 * w);
    a += 8 * kWv;
#pragma GCC unroll 8
    for (int j = 0; j < kNrF64; ++j) {
      const __m512d bv = _mm512_set1_pd(b[j]);
      for (int w = 0; w < kWv; ++w)
        acc[w][j] = _mm512_fmadd_pd(av[w], bv, acc[w][j]);
    }
    b += kNrF64;
  }
  __m512d rowsum[kWv];
  for (int w = 0; w < kWv; ++w) rowsum[w] = _mm512_setzero_pd();
#pragma GCC unroll 8
  for (int j = 0; j < kNrF64; ++j) {
    double* cj = c + j * ldc;
    __m512d colsum = _mm512_setzero_pd();
    for (int w = 0; w < kWv; ++w) {
      const __m512d cv =
          _mm512_add_pd(_mm512_loadu_pd(cj + 8 * w), acc[w][j]);
      _mm512_storeu_pd(cj + 8 * w, cv);
      rowsum[w] = _mm512_add_pd(rowsum[w], cv);
      colsum = _mm512_add_pd(colsum, cv);
    }
    double* crj = cr_ref + j * 8;  // 8 lane partials per column (cr_lanes)
    _mm512_storeu_pd(crj, _mm512_add_pd(_mm512_loadu_pd(crj), colsum));
  }
  for (int w = 0; w < kWv; ++w) {
    _mm512_storeu_pd(cc_ref + 8 * w,
                     _mm512_add_pd(_mm512_loadu_pd(cc_ref + 8 * w),
                                   rowsum[w]));
  }
}

// ---------------------------------------------------------------------------
// f32: MR = 32 (two zmm), NR = 8.
// ---------------------------------------------------------------------------

constexpr index_t kMrF32 = 32;
constexpr index_t kNrF32 = 8;

void skernel_32x8_base(index_t kc, const float* a, const float* b, float* c,
                       index_t ldc) {
  __m512 acc0[kNrF32];
  __m512 acc1[kNrF32];
#pragma GCC unroll 8
  for (int j = 0; j < kNrF32; ++j) {
    acc0[j] = _mm512_setzero_ps();
    acc1[j] = _mm512_setzero_ps();
  }
  for (index_t p = 0; p < kc; ++p) {
    const __m512 a0 = _mm512_load_ps(a);
    const __m512 a1 = _mm512_load_ps(a + 16);
    a += kMrF32;
#pragma GCC unroll 8
    for (int j = 0; j < kNrF32; ++j) {
      const __m512 bv = _mm512_set1_ps(b[j]);
      acc0[j] = _mm512_fmadd_ps(a0, bv, acc0[j]);
      acc1[j] = _mm512_fmadd_ps(a1, bv, acc1[j]);
    }
    b += kNrF32;
  }
#pragma GCC unroll 8
  for (int j = 0; j < kNrF32; ++j) {
    float* cj = c + j * ldc;
    _mm512_storeu_ps(cj, _mm512_add_ps(_mm512_loadu_ps(cj), acc0[j]));
    _mm512_storeu_ps(cj + 16,
                     _mm512_add_ps(_mm512_loadu_ps(cj + 16), acc1[j]));
  }
}

void skernel_32x8_ft(index_t kc, const float* a, const float* b, float* c,
                     index_t ldc, float* cr_ref, float* cc_ref) {
  __m512 acc0[kNrF32];
  __m512 acc1[kNrF32];
#pragma GCC unroll 8
  for (int j = 0; j < kNrF32; ++j) {
    acc0[j] = _mm512_setzero_ps();
    acc1[j] = _mm512_setzero_ps();
  }
  for (index_t p = 0; p < kc; ++p) {
    const __m512 a0 = _mm512_load_ps(a);
    const __m512 a1 = _mm512_load_ps(a + 16);
    a += kMrF32;
#pragma GCC unroll 8
    for (int j = 0; j < kNrF32; ++j) {
      const __m512 bv = _mm512_set1_ps(b[j]);
      acc0[j] = _mm512_fmadd_ps(a0, bv, acc0[j]);
      acc1[j] = _mm512_fmadd_ps(a1, bv, acc1[j]);
    }
    b += kNrF32;
  }
  __m512 rowsum0 = _mm512_setzero_ps();
  __m512 rowsum1 = _mm512_setzero_ps();
#pragma GCC unroll 8
  for (int j = 0; j < kNrF32; ++j) {
    float* cj = c + j * ldc;
    const __m512 c0 = _mm512_add_ps(_mm512_loadu_ps(cj), acc0[j]);
    const __m512 c1 = _mm512_add_ps(_mm512_loadu_ps(cj + 16), acc1[j]);
    _mm512_storeu_ps(cj, c0);
    _mm512_storeu_ps(cj + 16, c1);
    rowsum0 = _mm512_add_ps(rowsum0, c0);
    rowsum1 = _mm512_add_ps(rowsum1, c1);
    float* crj = cr_ref + j * 16;  // 16 lane partials per column (cr_lanes)
    _mm512_storeu_ps(
        crj, _mm512_add_ps(_mm512_loadu_ps(crj), _mm512_add_ps(c0, c1)));
  }
  _mm512_storeu_ps(cc_ref, _mm512_add_ps(_mm512_loadu_ps(cc_ref), rowsum0));
  _mm512_storeu_ps(cc_ref + 16,
                   _mm512_add_ps(_mm512_loadu_ps(cc_ref + 16), rowsum1));
}

}  // namespace

KernelSet<double> avx512_kernels_f64() {
  return {&dkernel_16x8_base, &dkernel_16x8_ft, kMrF64, kNrF64, 8, Isa::kAvx512, {}};
}

KernelSet<float> avx512_kernels_f32() {
  return {&skernel_32x8_base, &skernel_32x8_ft, kMrF32, kNrF32, 16, Isa::kAvx512, {}};
}

}  // namespace ftgemm
