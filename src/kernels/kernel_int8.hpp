// int8 kernel layer: the first non-float compute path through the stack.
//
// Included from the bottom of kernels/microkernel.hpp (never directly), so
// the KernelSet/PackSet specializations below are visible wherever the
// primary templates are — an implicit instantiation of the primary template
// at <int8_t, int32_t> anywhere would be an ODR trap.
//
// The int8 path breaks the (StorageT, ComputeT) convention of the float
// layer in one fundamental way: packed panels stay 8-bit (that IS the
// bandwidth win), so the generic "panels are ComputeT" pack/kernel
// signatures cannot be reused.  KernelSet<int8_t, int32_t> and
// PackSet<int8_t, int32_t> are therefore full specializations with their
// own member signatures.  The executor is shared: core/driver.hpp runs the
// int8 path through ExactDomain (core/checksum_domain.hpp), and the one
// macro kernel (kernels/macro_kernel.hpp) reads the packed depth quad from
// KernelSet::kDepthQuad.
//
// Operand convention (see kernels/int8_types.hpp): A is packed *biased*
// (u8 = s8 + 128) because the AVX-512 VNNI dot instruction `vpdpbusd`
// multiplies unsigned-by-signed; B is packed as plain s8.  All ISAs share
// one packed layout — depth grouped in quads of 4 (the VNNI dot width):
//
//   A~ tile (MR rows):  [kq][MR][4] u8   (row i's quad at kq*MR*4 + i*4)
//   B~ tile (NR cols):  [kq][NR][4] s8   (col j's quad at kq*NR*4 + j*4)
//
// zero-padded in every direction (a zero B pad makes the corresponding A
// pad bytes irrelevant: every padded product is 0).  Shared layout means
// the packers are ISA-independent and FTGEMM_FORCE_ISA switches kernels
// without changing a single packed byte.
//
// The AVX2 kernel emulates the integer dot with zero/sign-extension to i16
// and `pmaddwd` — NOT `pmaddubsw`, whose i16 pair-sum saturates (2 * 255 *
// 128 > 32767) and would silently break the exactness contract.
//
// Checksums: reference row/column sums of the biased product are
// accumulated in int64 by the FT kernels; predicted sums come from int32
// operand checksums (Ar/Bc).  Integer sums are exact and order-independent,
// so — unlike the float kernels — the FT epilogue may reduce the finished
// register tile directly (no lane-partial mirroring needed; cr_lanes = 1).
// Cc is encoded from the packed A~ slab right after pack_a (cold calls and
// resident hits alike), Cr from op(B) inside pack_b_ft, so every panel keeps
// one prediction that does not read the packed bytes.
#pragma once

#include "kernels/int8_types.hpp"

namespace ftgemm {

/// Depth-quad grouping shared by every int8 ISA (the VNNI dot width).
inline constexpr index_t kI8KQuad = 4;

/// Quads covering a depth of klen (the packed depth is kq * 4).
[[nodiscard]] inline index_t i8_kq(index_t klen) {
  return (klen + kI8KQuad - 1) / kI8KQuad;
}

/// Bytes of one packed tile of `tile` rows (A~) or columns (B~) over depth
/// klen, padding included.
[[nodiscard]] inline index_t i8_tile_bytes(index_t klen, index_t tile) {
  return i8_kq(klen) * kI8KQuad * tile;
}

/// Register-tile bounds across the int8 kernel sets (macro-kernel edge
/// scratch; the int8 NR of 16 exceeds the float layer's kMaxNr, hence its
/// own constants).
inline constexpr index_t kI8MaxMr = 16;
inline constexpr index_t kI8MaxNr = 16;

/// Plain micro-kernel: C_tile(i32) += Au8_tile(MR x kc) * Bs8_tile(kc x NR),
/// biased-product domain, exact int32 accumulation (kc <= kI8MaxDepth).
using I8MicroKernel = void (*)(index_t kc, const std::uint8_t* a,
                               const std::int8_t* b, std::int32_t* c,
                               index_t ldc);

/// FT micro-kernel: base update plus exact int64 reference checksums of the
/// *updated* C values — cr_ref[j] += sum_i c(i,j), cc_ref[i] += sum_j
/// c(i,j) over the tile, post-update.  Every element of C is updated once
/// per rank-KC panel, so per-panel references total to exact row/column
/// sums of the current accumulator (the float kernels' convention).
using I8MicroKernelFt = void (*)(index_t kc, const std::uint8_t* a,
                                 const std::int8_t* b, std::int32_t* c,
                                 index_t ldc, std::int64_t* cr_ref,
                                 std::int64_t* cc_ref);

/// Pack/encode family of the int8 path (full specialization — see the file
/// header for why the generic members don't fit).  The reference members
/// are portable scalar implementations in the flag-free
/// kernel_int8_scalar.cpp; pack_int8_avx2.cpp and kernel_int8_avx512.cpp
/// swap in SIMD checksum passes over the same shared packed layout
/// (bit-identical output), and the layout itself makes every member correct
/// for every kernel ISA.
template <>
struct PackSet<std::int8_t, std::int32_t> {
  /// Pack op(A) rows [m0, m0+mlen) x depth [k0, k0+klen) into MR-tall
  /// biased-u8 quad tiles (zero-padded).  When `arow` is non-null,
  /// additionally accumulates the biased row sums arow[m0+i] += sum_kk
  /// u8(i, kk) — the epilogue's zero-point correction vector.  Callers must
  /// pass arow for exactly one pass over each (row, depth) region.
  void (*pack_a)(const OperandView<std::int8_t>& a, index_t m0, index_t k0,
                 index_t mlen, index_t klen, index_t mr, std::uint8_t* dst,
                 std::int32_t* arow) = nullptr;
  /// Pack op(B) depth [k0, k0+klen) x cols [j0, j0+nlen) into NR-wide s8
  /// quad tiles (zero-padded).  When `bcol` is non-null, accumulates the
  /// per-column depth sums bcol[j0+j] += sum_kk s8(kk, j) — the epilogue's
  /// other zero-point correction vector (each column is packed exactly once
  /// per panel, so accumulating across panels yields full-K sums).
  void (*pack_b)(const OperandView<std::int8_t>& b, index_t k0, index_t j0,
                 index_t klen, index_t nlen, index_t nr, std::int8_t* dst,
                 std::int32_t* bcol) = nullptr;
  /// pack_b fused with the predicted-Cr update cr[j0+j] += sum_kk
  /// ar[kk] * s8(kk, j) (int64; ar is panel-local, ar[0] = depth k0).
  void (*pack_b_ft)(const OperandView<std::int8_t>& b, index_t k0,
                    index_t j0, index_t klen, index_t nlen, index_t nr,
                    std::int8_t* dst, std::int32_t* bcol,
                    const std::int32_t* ar, std::int64_t* cr) = nullptr;
  /// Derive the panel checksum Bc from a packed panel: bc[kk] = sum over
  /// all nlen columns of s8(kk, j), for every depth kk < klen (assigning,
  /// not accumulating — mirrors the float reduce_bc contract).
  void (*reduce_bc)(const std::int8_t* b_packed, index_t klen, index_t nlen,
                    index_t nr, std::int32_t* bc) = nullptr;
  /// Biased column sums of op(A): ar[kk] += sum_i u8(i, kk) over rows
  /// [i0, i0+ilen), depths [k0, k0+klen) — the predicted-Cr operand
  /// checksum (ar[0] = depth k0; caller zeroes its slice first).
  void (*encode_ar)(const OperandView<std::int8_t>& a, index_t i0,
                    index_t ilen, index_t k0, index_t klen,
                    std::int32_t* ar) = nullptr;
  /// Predicted-Cc update from a packed A~ slab (just packed, or resident):
  /// cc[i] += sum_kk u8(i, kk) * bc[kk] (int64; bc is panel-local).
  /// Padding bytes are zero, so sweeping the padded tile is exact.
  void (*encode_cc)(const std::uint8_t* packed, index_t mlen, index_t klen,
                    index_t mr, const std::int32_t* bc,
                    std::int64_t* cc) = nullptr;
  Isa isa = Isa::kScalar;
};

/// Kernel set of the int8 path (full specialization; biased u8 x s8 -> i32
/// micro-kernels, int64 FT references, cr_lanes fixed at 1).
template <>
struct KernelSet<std::int8_t, std::int32_t> {
  static constexpr index_t kDepthQuad = kI8KQuad;
  static constexpr index_t kMaxTile = kI8MaxMr * kI8MaxNr;

  I8MicroKernel base = nullptr;
  I8MicroKernelFt ft = nullptr;
  index_t mr = 0;
  index_t nr = 0;
  index_t cr_lanes = 1;  ///< always 1: integer sums need no lane mirroring
  Isa isa = Isa::kScalar;
  PackSet<std::int8_t, std::int32_t> pack;
};

// Per-ISA accessors (kernel_int8_scalar.cpp / kernel_int8_avx2.cpp /
// kernel_int8_avx512.cpp).  avx512_kernels_i8() requires the AVX-512 VNNI
// feature at *runtime* (cpu_features().avx512vnni) — get_kernel_set clamps
// to the AVX2 emulation on AVX-512 machines without it, so Isa::kAvx512
// plans stay valid everywhere.
KernelSet<std::int8_t, std::int32_t> scalar_kernels_i8();
KernelSet<std::int8_t, std::int32_t> avx2_kernels_i8();
KernelSet<std::int8_t, std::int32_t> avx512_kernels_i8();
PackSet<std::int8_t, std::int32_t> scalar_pack_i8();
/// scalar_pack_i8 with the FT checksum passes (encode_cc / pack_b_ft /
/// encode_ar / reduce_bc) replaced by AVX2 sweeps — identical packed bytes
/// and bit-identical checksums (exact integer sums are order-independent);
/// see pack_int8_avx2.cpp.  Only reachable through the AVX2/AVX-512 kernel
/// sets, so the AVX2 encodings are gated by the same runtime dispatch.
PackSet<std::int8_t, std::int32_t> avx2_pack_i8();

template <>
KernelSet<std::int8_t, std::int32_t> get_kernel_set<std::int8_t,
                                                    std::int32_t>(Isa isa);
template <>
PackSet<std::int8_t, std::int32_t> get_pack_set<std::int8_t, std::int32_t>(
    Isa isa);

}  // namespace ftgemm
