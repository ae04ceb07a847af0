// int8-quantized (FT-)GEMM public API: the first non-float compute path
// through the stack.
//
//   C = alpha * real(A) * real(B) + beta * C,   C and alpha/beta fp32,
//   real(X) = scale_x * (Xq - zero_x)           (per-tensor QuantParams),
//
// computed entirely in integers — s8 operands packed as biased u8 x s8,
// int32 accumulation (AVX-512 VNNI `vpdpbusd` where the CPU has it, an
// exact AVX2 `pmaddwd` emulation or scalar otherwise), int64/int32
// checksums — and dequantized once at the C write-back.  The fused ABFT
// scheme of the float paths applies verbatim, but with a stronger contract:
// every checksummed quantity is an integer, so verification compares at
// tolerance ZERO — a clean run can never false-positive, and any single
// in-panel strike perturbs a row/column sum by its exact integer delta and
// is caught and corrected exactly (docs/DESIGN.md §11).
//
// Argument rules beyond valid_gemm_args: k must not exceed kI8MaxDepth
// (65793 — the depth at which an int32 accumulator could wrap; see
// kernels/int8_types.hpp).  Deeper calls are rejected with invalid_args
// set, C untouched — exactness is a contract, not a fast path.
//
// QuantParams travel with the call, not the plan: like alpha/beta they are
// operand values no plan fingerprint covers, and the integer core never
// sees them (the epilogue undoes zero points via two O(m)+O(n) side
// vectors, so zero-point handling costs nothing per k).
//
// Options::resident_a works on this path too, at its best ratio: resident
// panels hold 8-bit bytes (4x smaller than fp32 residency) and their
// integrity row sums double as the epilogue's arow vector.  The resident
// payload is alpha/QuantParams-independent — one encoding serves every
// (alpha, qp) combination of the same operand.
#pragma once

#include "core/gemm.hpp"
#include "core/gemm_batched.hpp"
#include "core/operand_cache.hpp"
#include "kernels/int8_types.hpp"

namespace ftgemm {

/// C = alpha*sa*sb * sum_k (op(Aq)-za)(op(Bq)-zb) + beta*C, no fault
/// tolerance ("Ori" of the int8 path).
void gemm_i8(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
             index_t k, float alpha, const std::int8_t* a, index_t lda,
             const std::int8_t* b, index_t ldb, float beta, float* c,
             index_t ldc, const QuantParams& qp = {},
             const Options& opts = {});

/// Fault-tolerant gemm_i8: fused integer ABFT with exact (tolerance-zero)
/// per-panel verification and exact correction.
FtReport ft_gemm_i8(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                    index_t k, float alpha, const std::int8_t* a, index_t lda,
                    const std::int8_t* b, index_t ldb, float beta, float* c,
                    index_t ldc, const QuantParams& qp = {},
                    const Options& opts = {});

// ---------------------------------------------------------------------------
// Batched forms (core/gemm_batched.hpp semantics; one QuantParams for the
// whole batch — serving batches share one quantization per layer).
// ---------------------------------------------------------------------------

BatchReport gemm_i8_batched(Layout layout, Trans ta, Trans tb, index_t m,
                            index_t n, index_t k, float alpha,
                            const std::int8_t* const* a, index_t lda,
                            const std::int8_t* const* b, index_t ldb,
                            float beta, float* const* c, index_t ldc,
                            index_t batch, const QuantParams& qp = {},
                            const BatchOptions& opts = {});

BatchReport ft_gemm_i8_batched(Layout layout, Trans ta, Trans tb, index_t m,
                               index_t n, index_t k, float alpha,
                               const std::int8_t* const* a, index_t lda,
                               const std::int8_t* const* b, index_t ldb,
                               float beta, float* const* c, index_t ldc,
                               index_t batch, const QuantParams& qp = {},
                               const BatchOptions& opts = {});

BatchReport gemm_i8_strided_batched(Layout layout, Trans ta, Trans tb,
                                    index_t m, index_t n, index_t k,
                                    float alpha, const std::int8_t* a,
                                    index_t lda, index_t stride_a,
                                    const std::int8_t* b, index_t ldb,
                                    index_t stride_b, float beta, float* c,
                                    index_t ldc, index_t stride_c,
                                    index_t batch, const QuantParams& qp = {},
                                    const BatchOptions& opts = {});

BatchReport ft_gemm_i8_strided_batched(
    Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
    float alpha, const std::int8_t* a, index_t lda, index_t stride_a,
    const std::int8_t* b, index_t ldb, index_t stride_b, float beta, float* c,
    index_t ldc, index_t stride_c, index_t batch, const QuantParams& qp = {},
    const BatchOptions& opts = {});

/// Pre-pack + pre-encode an int8 weight matrix into the process-wide
/// resident-operand cache (see make_resident_a; the int8 payload is
/// alpha/QuantParams-independent, so no scale argument exists here).
/// Invalid handle for degenerate problems or k > kI8MaxDepth.
ResidentOperand make_resident_a_i8(Trans ta, Trans tb, index_t m, index_t n,
                                   index_t k, const std::int8_t* a,
                                   index_t lda, const Options& opts = {},
                                   bool ft = true);

/// Engine of the int8 path: the one GemmEngine template (core/gemm.hpp)
/// at <int8_t, int32_t> — fp32 scales and C, and every call takes its
/// QuantParams as the trailing argument.
using GemmEngineI8 = GemmEngine<std::int8_t, std::int32_t>;

}  // namespace ftgemm
