// Micro-kernel interface and dispatch.
//
// A micro-kernel performs the register-resident rank-KC update of one
// MR x NR tile of C:
//
//     C_tile += Apanel(MR x kc) * Bpanel(kc x NR)
//
// where Apanel/Bpanel are packed contiguously (see packing.hpp).  Two
// variants exist per (ISA, element type):
//
//  - base:  the plain update (used by the "Ori" GEMM and for edge tiles),
//  - ft:    the fused-ABFT update (§2.2): after the k-loop the *final* C
//           values are still in registers, so the kernel additionally
//           accumulates the reference checksums
//              cr_ref[j] += sum_i C_tile(i, j)   (column sums)
//              cc_ref[i] += sum_j C_tile(i, j)   (row sums)
//           at register level, exactly the "reuse the computed C elements at
//           register level" optimization the paper fuses into the assembly.
//
// To keep the FT epilogue free of horizontal-reduction latency chains, the
// SIMD kernels accumulate the column sums as *vector-wide lane partials*:
// cr_ref is laid out with `cr_lanes` slots per column, the kernel performs a
// single vector add per column, and the lanes are summed once per panel at
// verification time (O(N) instead of O(N * K/KC * M/MR) horizontal sums).
#pragma once

#include <cstdint>

#include "arch/isa.hpp"
#include "kernels/half_types.hpp"

namespace ftgemm {

using index_t = std::int64_t;

/// Upper bounds over all kernel sets (register-tile shapes), shared by the
/// macro-kernel scratch tile and the packing engine's lane-accumulator
/// blocks.
inline constexpr index_t kMaxMr = 32;
inline constexpr index_t kMaxNr = 8;

/// Read-only view of a matrix operand with an optional transpose, so the
/// packing/encode code is the single place where Trans is resolved.  The
/// stride accessors resolve the transpose *once*; inner loops index
/// `data[i * row_stride() + j * col_stride()]` and stay branch-free.
template <typename T>
struct OperandView {
  const T* data;
  index_t ld;
  bool trans;

  /// Element (i, j) of the *effective* (post-transpose) operand.
  [[nodiscard]] T at(index_t i, index_t j) const {
    return trans ? data[j + i * ld] : data[i + j * ld];
  }
  /// Storage distance between effective rows i and i+1 (fixed j).
  [[nodiscard]] index_t row_stride() const { return trans ? ld : 1; }
  /// Storage distance between effective columns j and j+1 (fixed i).
  [[nodiscard]] index_t col_stride() const { return trans ? 1 : ld; }
  /// Address of effective element (i, j).
  [[nodiscard]] const T* ptr(index_t i, index_t j) const {
    return data + i * row_stride() + j * col_stride();
  }
};

template <typename T>
using MicroKernelBase = void (*)(index_t kc, const T* a, const T* b, T* c,
                                 index_t ldc);

template <typename T>
using MicroKernelFt = void (*)(index_t kc, const T* a, const T* b, T* c,
                               index_t ldc, T* cr_ref, T* cc_ref);

// ---------------------------------------------------------------------------
// Packing & checksum-encode engine (the O(n^2)-per-panel layer).
//
// Each function pointer mirrors one of the scalar templates in
// kernels/packing.hpp / abft/checksum.hpp (which remain the portable
// fallback and the test oracle).  SIMD implementations reorder the checksum
// summations into vector lanes; packed panels are bit-identical to the
// scalar path, checksum sums agree within the ToleranceModel bound (see
// docs/DESIGN.md, "SIMD packing & checksum engine").
//
// The engine is generalized over (StorageT, ComputeT): operands are *read*
// in StorageT, while packed panels, scalars, and every checksum are carried
// in ComputeT.  For the classic paths the two coincide (the one-parameter
// spellings below mean <T, T> and preserve every existing call site); the
// mixed paths (bf16/fp16 storage, fp32 compute) widen each element exactly
// once, inside the pack load, fused with the same checksum FMA lanes — no
// separate conversion pass ever materializes a widened copy of the operand
// (DESIGN.md §10).
// ---------------------------------------------------------------------------

template <typename StorageT, typename ComputeT = StorageT>
using PackAFn = void (*)(const OperandView<StorageT>& a, index_t m0,
                         index_t k0, index_t mlen, index_t klen, index_t mr,
                         ComputeT alpha, ComputeT* dst);

template <typename StorageT, typename ComputeT = StorageT>
using PackAFtFn = void (*)(const OperandView<StorageT>& a, index_t m0,
                           index_t k0, index_t mlen, index_t klen, index_t mr,
                           ComputeT alpha, ComputeT* dst, const ComputeT* bc,
                           ComputeT* cc);

template <typename StorageT, typename ComputeT = StorageT>
using PackBFn = void (*)(const OperandView<StorageT>& b, index_t k0,
                         index_t j0, index_t klen, index_t nlen, index_t nr,
                         ComputeT* dst);

template <typename StorageT, typename ComputeT = StorageT>
using PackBFtFn = void (*)(const OperandView<StorageT>& b, index_t k0,
                           index_t j0, index_t klen, index_t nlen, index_t nr,
                           ComputeT* dst, const ComputeT* ar, ComputeT* cr);

/// Panel checksum of a packed B~ chunk: bc[kk] = sum over its nlen columns
/// for every depth kk < klen (assigned, so nlen = 0 writes zeros), with the
/// running amax of |B~| folded in; returns max(amax_in, that amax).
template <typename T>
using ReduceBcFn = double (*)(const T* b_packed, index_t klen, index_t nlen,
                              index_t nr, T* bc, double amax_in);

template <typename T>
using ScaleEncodeCFn = double (*)(T* c, index_t ldc, index_t i0, index_t ilen,
                                  index_t n, T beta, T* cc, T* cr_part);

template <typename StorageT, typename ComputeT = StorageT>
using EncodeArFn = double (*)(const OperandView<StorageT>& a, index_t i0,
                              index_t ilen, index_t k, ComputeT alpha,
                              ComputeT* ar_part);

/// Replay of pack_a_ft's fused Cc update from an already-packed panel:
///   cc[ii] += sum_kk packed(ii, kk) * bc[kk]
/// with the SAME accumulation structure (per-ISA, per-trans) pack_a_ft would
/// have used while packing — so a cache-hit on a resident pre-packed A panel
/// reproduces the cold path's Cc bit-for-bit.  `trans` is the original
/// operand's transpose flag (the packed bytes are layout-free, but the
/// Trans/NoTrans packers carry different accumulator shapes).  Operates on
/// the ComputeT panel, so mixed paths replay over the widened panel.
template <typename T>
using EncodeCcFn = void (*)(const T* packed, bool trans, index_t mlen,
                            index_t klen, index_t mr, const T* bc, T* cc);

/// Alpha-free permutation pack of an A block into MR-tile panel layout,
/// kept in StorageT (no widening, no scaling).  The resident-operand cache
/// stores narrow weights this way — half the byte footprint of a widened
/// panel — and widens on hit via WidenAFn.
template <typename StorageT>
using PackARawFn = void (*)(const OperandView<StorageT>& a, index_t m0,
                            index_t k0, index_t mlen, index_t klen, index_t mr,
                            StorageT* dst);

/// Widen + alpha-scale a raw StorageT panel (from PackARawFn) into the
/// ComputeT panel the kernels consume.  Element values are bit-identical to
/// what PackAFn would have produced from the unpacked operand (same widen,
/// same single multiply); padding rows are written as ComputeT(0) exactly
/// like the cold pack.
template <typename StorageT, typename ComputeT>
using WidenAFn = void (*)(const StorageT* raw, index_t mlen, index_t klen,
                          index_t mr, ComputeT alpha, ComputeT* dst);

/// The ISA-dispatched pack/reduce/encode family.  Obtained via
/// get_pack_set(); a KernelSet returned by get_kernel_set() carries the
/// matching PackSet, so executors reach both through one dispatch point.
template <typename StorageT, typename ComputeT = StorageT>
struct PackSet {
  PackAFn<StorageT, ComputeT> pack_a = nullptr;
  PackAFtFn<StorageT, ComputeT> pack_a_ft = nullptr;
  PackBFn<StorageT, ComputeT> pack_b = nullptr;
  PackBFtFn<StorageT, ComputeT> pack_b_ft = nullptr;
  ReduceBcFn<ComputeT> reduce_bc = nullptr;
  ScaleEncodeCFn<ComputeT> scale_encode_c = nullptr;
  EncodeArFn<StorageT, ComputeT> encode_ar = nullptr;
  EncodeCcFn<ComputeT> encode_cc = nullptr;
  /// Raw-storage panel pack + widen-on-hit pair for the resident-operand
  /// cache (see operand_cache.hpp).
  PackARawFn<StorageT> pack_a_raw = nullptr;
  WidenAFn<StorageT, ComputeT> widen_a = nullptr;
  Isa isa = Isa::kScalar;
};

/// The kernels plus their register tile shape.  Micro-kernels always run in
/// ComputeT (narrow storage never reaches a multiplier); only the pack
/// engine sees StorageT.
template <typename StorageT, typename ComputeT = StorageT>
struct KernelSet {
  /// Packed depth granularity (panels are padded to a multiple of it) and
  /// the macro kernel's edge-tile scratch bound.
  static constexpr index_t kDepthQuad = 1;
  static constexpr index_t kMaxTile = kMaxMr * kMaxNr;

  MicroKernelBase<ComputeT> base = nullptr;
  MicroKernelFt<ComputeT> ft = nullptr;
  index_t mr = 0;
  index_t nr = 0;
  /// Lane partials per cr_ref column (SIMD width of the FT epilogue).
  index_t cr_lanes = 1;
  Isa isa = Isa::kScalar;
  /// Pack/reduce/encode routines matching `isa` (see get_pack_set).
  PackSet<StorageT, ComputeT> pack;
};

/// Dispatch: returns the kernel set for the requested ISA (which callers
/// obtain from select_isa(), already clamped to hardware capability).  The
/// returned set's `pack` member is filled with get_pack_set(isa).  Mixed
/// instantiations reuse the ComputeT micro-kernels (same register tiles,
/// same mr/nr/cr_lanes) and swap in the widening pack engine.
template <typename StorageT, typename ComputeT = StorageT>
KernelSet<StorageT, ComputeT> get_kernel_set(Isa isa);

/// Dispatch for the packing & checksum engine alone (tests and the packing
/// bench compare ISAs side by side without dragging in micro-kernels).
template <typename StorageT, typename ComputeT = StorageT>
PackSet<StorageT, ComputeT> get_pack_set(Isa isa);

// Per-ISA pack/encode accessors implemented in the ISA-specific translation
// units (pack_scalar.cpp / pack_avx2.cpp / pack_avx512.cpp).
PackSet<double> scalar_pack_f64();
PackSet<float> scalar_pack_f32();
PackSet<double> avx2_pack_f64();
PackSet<float> avx2_pack_f32();
PackSet<double> avx512_pack_f64();
PackSet<float> avx512_pack_f32();

// Mixed-precision (narrow storage, fp32 compute) pack engines.  The scalar
// sets live in the flag-free TU and are the portable fallback; the SIMD
// sets are the fp32 engine of their TU behind a widening load (bf16:
// integer shift; fp16: VCVTPH2PS), so their encode_cc/reduce_bc/
// scale_encode_c members ARE the fp32 implementations.
PackSet<bf16_t, float> scalar_pack_bf16();
PackSet<fp16_t, float> scalar_pack_f16();
PackSet<bf16_t, float> avx2_pack_bf16();
PackSet<fp16_t, float> avx2_pack_f16();
PackSet<bf16_t, float> avx512_pack_bf16();
PackSet<fp16_t, float> avx512_pack_f16();

// Per-ISA accessors implemented in the ISA-specific translation units.
KernelSet<double> avx512_kernels_f64();
KernelSet<float> avx512_kernels_f32();
KernelSet<double> avx2_kernels_f64();
KernelSet<float> avx2_kernels_f32();
KernelSet<double> scalar_kernels_f64();
KernelSet<float> scalar_kernels_f32();

}  // namespace ftgemm

// The int8 quantized path fully specializes KernelSet/PackSet (8-bit packed
// panels break the "panels are ComputeT" signatures above).  Included here —
// and only here — so the specializations are visible wherever the primary
// templates are, keeping any <int8_t, int32_t> use ODR-consistent.
#include "kernels/kernel_int8.hpp"  // IWYU pragma: keep
