// Portable scalar micro-kernels (4x4 register tile).
//
// These are the correctness anchor: every SIMD kernel is tested against
// them, and they are the fallback on machines without AVX2.  The tile is
// kept in a local array that the compiler fully registerizes at -O3.
#include <type_traits>

#include "kernels/microkernel.hpp"

namespace ftgemm {

namespace {

constexpr index_t kMr = 4;
constexpr index_t kNr = 4;

template <typename T>
void kernel_base(index_t kc, const T* a, const T* b, T* c, index_t ldc) {
  T acc[kMr * kNr] = {};
  for (index_t p = 0; p < kc; ++p) {
    const T* ap = a + p * kMr;
    const T* bp = b + p * kNr;
    for (index_t j = 0; j < kNr; ++j) {
      const T bv = bp[j];
      for (index_t i = 0; i < kMr; ++i) acc[i + j * kMr] += ap[i] * bv;
    }
  }
  for (index_t j = 0; j < kNr; ++j)
    for (index_t i = 0; i < kMr; ++i) c[i + j * ldc] += acc[i + j * kMr];
}

template <typename T>
void kernel_ft(index_t kc, const T* a, const T* b, T* c, index_t ldc,
               T* cr_ref, T* cc_ref) {
  T acc[kMr * kNr] = {};
  for (index_t p = 0; p < kc; ++p) {
    const T* ap = a + p * kMr;
    const T* bp = b + p * kNr;
    for (index_t j = 0; j < kNr; ++j) {
      const T bv = bp[j];
      for (index_t i = 0; i < kMr; ++i) acc[i + j * kMr] += ap[i] * bv;
    }
  }
  T rowsum[kMr] = {};
  for (index_t j = 0; j < kNr; ++j) {
    T colsum = T(0);
    for (index_t i = 0; i < kMr; ++i) {
      const T final_value = c[i + j * ldc] + acc[i + j * kMr];
      c[i + j * ldc] = final_value;
      colsum += final_value;
      rowsum[i] += final_value;
    }
    cr_ref[j] += colsum;  // cr_lanes == 1: direct scalar accumulation
  }
  for (index_t i = 0; i < kMr; ++i) cc_ref[i] += rowsum[i];
}

}  // namespace

KernelSet<double> scalar_kernels_f64() {
  return {&kernel_base<double>, &kernel_ft<double>, kMr, kNr, 1, Isa::kScalar, {}};
}

KernelSet<float> scalar_kernels_f32() {
  return {&kernel_base<float>, &kernel_ft<float>, kMr, kNr, 1, Isa::kScalar, {}};
}

template <typename S, typename C>
KernelSet<S, C> get_kernel_set(Isa isa) {
  if constexpr (!std::is_same_v<S, C>) {
    // Mixed precision: the micro-kernels ARE the ComputeT kernels (narrow
    // storage never reaches a multiplier — register tiles, mr/nr, and the
    // FT epilogue lanes are identical to the ComputeT path), with the
    // widening pack engine swapped in.
    const KernelSet<C> base = get_kernel_set<C>(isa);
    KernelSet<S, C> ks;
    ks.base = base.base;
    ks.ft = base.ft;
    ks.mr = base.mr;
    ks.nr = base.nr;
    ks.cr_lanes = base.cr_lanes;
    ks.isa = base.isa;
    ks.pack = get_pack_set<S, C>(ks.isa);
    return ks;
  } else {
    KernelSet<S, C> ks;
    if constexpr (sizeof(C) == 8) {
      switch (isa) {
        case Isa::kAvx512: ks = avx512_kernels_f64(); break;
        case Isa::kAvx2: ks = avx2_kernels_f64(); break;
        case Isa::kScalar: ks = scalar_kernels_f64(); break;
      }
    } else {
      switch (isa) {
        case Isa::kAvx512: ks = avx512_kernels_f32(); break;
        case Isa::kAvx2: ks = avx2_kernels_f32(); break;
        case Isa::kScalar: ks = scalar_kernels_f32(); break;
      }
    }
    // The packing & checksum engine rides along with the micro-kernels so
    // executors reach the whole ISA surface through one dispatch point.
    ks.pack = get_pack_set<S, C>(ks.isa);
    return ks;
  }
}

template KernelSet<double> get_kernel_set<double, double>(Isa);
template KernelSet<float> get_kernel_set<float, float>(Isa);
template KernelSet<bf16_t, float> get_kernel_set<bf16_t, float>(Isa);
template KernelSet<fp16_t, float> get_kernel_set<fp16_t, float>(Isa);

}  // namespace ftgemm
