// FT-GEMM public API.
//
// Two families of entry points per precision:
//
//   dgemm / sgemm        — the high-performance baseline ("FT-GEMM: Ori" in
//                          the paper's figures): packing, cache blocking,
//                          SIMD micro-kernels, thread teams.
//   ft_dgemm / ft_sgemm  — the same computation protected by the fused
//                          online-ABFT scheme; returns an FtReport with
//                          detection/correction statistics.
//
// Semantics follow BLAS xGEMM:  C = alpha * op(A) * op(B) + beta * C
// with op in {identity, transpose}, arbitrary leading dimensions, and both
// row-major and column-major layouts.
//
// The *_reliable variants run the FT kernel and transparently re-execute on
// the (rare) panels the repair flags — giving an unconditional
// correct-result guarantee under any error pattern the checksums can
// detect.  At beta != 0 they snapshot C first and restore it before each
// re-execution; at beta = 0 the call never reads C, so they re-execute
// over it as it stands.
//
// GemmEngine<T> offers the same operations with workspace *and plan* reuse
// across calls (steady-state allocation-free, re-planning-free via the
// PlanCache in its context — see core/plan.hpp), which is what the
// benchmark harness and single-threaded long-running applications should
// use.  The free functions get the same treatment from a process-wide
// leased context pool (core/context.hpp): any number of application threads
// may call them concurrently — each call leases a private workspace and all
// callers share one plan cache, so repeated calls of a recurring shape are
// cache hits no matter which thread issues them.
#pragma once

#include "core/context.hpp"
#include "core/options.hpp"

namespace ftgemm {

// ---------------------------------------------------------------------------
// Free functions (leased process-wide workspace; safe to call from any
// number of application threads concurrently).
// ---------------------------------------------------------------------------

/// C = alpha*op(A)*op(B) + beta*C, double precision, no fault tolerance.
void dgemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
           double alpha, const double* a, index_t lda, const double* b,
           index_t ldb, double beta, double* c, index_t ldc,
           const Options& opts = {});

/// Single-precision variant of dgemm.
void sgemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b,
           index_t ldb, float beta, float* c, index_t ldc,
           const Options& opts = {});

/// Fault-tolerant dgemm: fused ABFT encoding, per-panel verification and
/// on-the-fly correction (§2.2/§2.3).
FtReport ft_dgemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, double alpha, const double* a, index_t lda,
                  const double* b, index_t ldb, double beta, double* c,
                  index_t ldc, const Options& opts = {});

/// Fault-tolerant sgemm.
FtReport ft_sgemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, float alpha, const float* a, index_t lda,
                  const float* b, index_t ldb, float beta, float* c,
                  index_t ldc, const Options& opts = {});

/// ft_dgemm with an unconditional result guarantee: if a panel reports an
/// uncorrectable mismatch, the call is re-executed (up to max_retries
/// times), with C first restored from a snapshot taken on entry when
/// beta != 0 (at beta = 0 C is never read, and no snapshot is taken).  The
/// returned report aggregates all attempts; report.retries counts
/// re-executions.
FtReport ft_dgemm_reliable(Layout layout, Trans ta, Trans tb, index_t m,
                           index_t n, index_t k, double alpha, const double* a,
                           index_t lda, const double* b, index_t ldb,
                           double beta, double* c, index_t ldc,
                           const Options& opts = {}, int max_retries = 2);

/// Single-precision *_reliable variant.
FtReport ft_sgemm_reliable(Layout layout, Trans ta, Trans tb, index_t m,
                           index_t n, index_t k, float alpha, const float* a,
                           index_t lda, const float* b, index_t ldb,
                           float beta, float* c, index_t ldc,
                           const Options& opts = {}, int max_retries = 2);

// ---------------------------------------------------------------------------
// Mixed precision: narrow storage, fp32 accumulation.
// ---------------------------------------------------------------------------
//
// A and B are stored bf16/fp16; every multiplier input is widened to fp32 on
// pack (one conversion per element, fused into the packing pass), the
// register tiles, C, and *all checksums* are fp32, so the fp32 tolerance
// derivation applies unchanged (docs/DESIGN.md §10).  alpha/beta and C are
// fp32.

/// C = alpha*op(A)*op(B) + beta*C with bf16-stored operands, fp32 compute.
void gemm_bf16(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
               index_t k, float alpha, const bf16_t* a, index_t lda,
               const bf16_t* b, index_t ldb, float beta, float* c,
               index_t ldc, const Options& opts = {});

/// Fault-tolerant gemm_bf16 (checksums computed and carried in fp32).
FtReport ft_gemm_bf16(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                      index_t k, float alpha, const bf16_t* a, index_t lda,
                      const bf16_t* b, index_t ldb, float beta, float* c,
                      index_t ldc, const Options& opts = {});

/// ft_gemm_bf16 with the retry guarantee of ft_dgemm_reliable.
FtReport ft_gemm_bf16_reliable(Layout layout, Trans ta, Trans tb, index_t m,
                               index_t n, index_t k, float alpha,
                               const bf16_t* a, index_t lda, const bf16_t* b,
                               index_t ldb, float beta, float* c, index_t ldc,
                               const Options& opts = {}, int max_retries = 2);

/// fp16-storage variants of the bf16 entry points above.
void gemm_f16(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
              index_t k, float alpha, const fp16_t* a, index_t lda,
              const fp16_t* b, index_t ldb, float beta, float* c, index_t ldc,
              const Options& opts = {});

FtReport ft_gemm_f16(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                     index_t k, float alpha, const fp16_t* a, index_t lda,
                     const fp16_t* b, index_t ldb, float beta, float* c,
                     index_t ldc, const Options& opts = {});

FtReport ft_gemm_f16_reliable(Layout layout, Trans ta, Trans tb, index_t m,
                              index_t n, index_t k, float alpha,
                              const fp16_t* a, index_t lda, const fp16_t* b,
                              index_t ldb, float beta, float* c, index_t ldc,
                              const Options& opts = {}, int max_retries = 2);

/// Drop the process-wide cached plans AND resident operand payloads (all
/// precisions, mixed included).  FTGEMM_* environment knobs (ISA, blocking,
/// fast-path bound, operand-cache caps) are read when a plan / payload is
/// *built*, so a warm cache will not observe later changes to them — call
/// this after mutating the environment mid-process.  Calls already holding
/// a resident payload stay valid (shared ownership); engines' private plan
/// caches are unaffected (they die with the engine; use a fresh engine
/// instead).
void clear_process_caches();

// ---------------------------------------------------------------------------
// Engine with workspace reuse.
// ---------------------------------------------------------------------------

/// Reusable GEMM engine: owns the packing buffers, checksum vectors, and
/// plan cache, so repeated calls of similar size perform no allocation and
/// no re-planning.  (StorageT, ComputeT) generalized like the rest of the
/// stack: GemmEngine<float> is plain fp32, GemmEngine<bf16_t, float> is
/// bf16 storage with fp32 accumulation, and GemmEngine<int8_t, int32_t>
/// (GemmEngineI8, core/gemm_i8.hpp) is the quantized path.  Scalars and C
/// take the checksum domain's Scalar type (ComputeT on the float paths,
/// fp32 on the int8 path, whose C is fed by the dequantize epilogue), and
/// the trailing per-call quantization is empty on the float paths and the
/// call's QuantParams on the int8 path.
template <typename StorageT, typename ComputeT = StorageT>
class GemmEngine {
 public:
  using Scalar = detail::ScalarOf<StorageT, ComputeT>;
  using Quant = detail::QuantOf<StorageT, ComputeT>;

  explicit GemmEngine(Options opts = {}) : opts_(opts) {}

  /// Plain high-performance GEMM ("Ori").
  void gemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
            index_t k, Scalar alpha, const StorageT* a, index_t lda,
            const StorageT* b, index_t ldb, Scalar beta, Scalar* c,
            index_t ldc, const Quant& qp = {});

  /// Fault-tolerant GEMM.
  FtReport ft_gemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                   index_t k, Scalar alpha, const StorageT* a, index_t lda,
                   const StorageT* b, index_t ldb, Scalar beta, Scalar* c,
                   index_t ldc, const Quant& qp = {});

  [[nodiscard]] Options& options() { return opts_; }
  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  Options opts_;
  GemmContext<StorageT, ComputeT> ctx_;
};

extern template class GemmEngine<double>;
extern template class GemmEngine<float>;
extern template class GemmEngine<bf16_t, float>;
extern template class GemmEngine<fp16_t, float>;
extern template class GemmEngine<std::int8_t, std::int32_t>;

}  // namespace ftgemm
