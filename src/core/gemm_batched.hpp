// Batched (FT-)GEMM: many independent problems of one shape per call.
//
// ML-inference-style serving rarely issues one huge GEMM; it issues dozens
// of small/medium ones per request (one per layer, per attention head, per
// expert...).  Looping over ft_gemm serially leaves cores idle on small
// problems and pays one team fork/join per problem.  The batched entry
// points amortize both:
//
//   gemm_batched / ft_gemm_batched              — array-of-pointers operands
//   gemm_strided_batched / ft_gemm_strided_batched — one base pointer per
//       operand plus a constant element stride between consecutive problems
//       (stride 0 broadcasts an operand, e.g. shared layer weights).
//
// All four are templates over (StorageT, ComputeT) like the rest of the
// stack, instantiated for float, double, and the narrow-storage mixed pairs
// (bf16/fp16 operands, fp32 C and accumulation).  FT variants aggregate one
// FtReport per problem into a BatchReport with batch-level fault
// statistics.
//
// Scheduling (see docs/DESIGN.md): the dispatcher picks between
//   - inter-batch parallelism: one team member per problem, on the calling
//     thread's parked workers (runtime/team.hpp), each running the serial
//     driver on a private GemmContext leased from the process-wide
//     ContextCache — wins when problems are small (per-problem threading
//     would be all barrier, no work);
//   - intra-batch parallelism: problems run one after another, each using
//     the full multi-threaded driver — wins when a single problem is big
//     enough to feed every core.
// BatchOptions::schedule forces either; kAuto applies the decision rule.
//
// Fault injection: BatchOptions::base.injector targets the single problem
// selected by BatchOptions::inject_problem (an injection campaign picks a
// random member per run, see run_batched_injection_campaign).  Setting
// inject_problem < 0 attaches the injector to *every* problem.
// FaultInjector's begin_call/plan_block protocol is per-call stateful, so
// two injected problems must never interleave: under kAuto a shared
// injector (or correction log) steers the scheduler to intra-batch, and
// under a forced kInter the dispatcher serializes the injected members'
// execution through an internal gate — the campaign regime is well-defined
// under either schedule.
#pragma once

#include <type_traits>
#include <vector>

#include "core/gemm.hpp"
#include "core/options.hpp"

namespace ftgemm {

/// Scheduling policy for one batched call.
enum class BatchSchedule {
  kAuto,   ///< decision rule on problem size and batch count
  kInter,  ///< force one-thread-per-problem
  kIntra,  ///< force serial-over-problems, parallel-within-problem
};

/// Options for the batched entry points.
struct BatchOptions {
  /// Per-problem options.  `threads` caps the worker count of the whole
  /// batch (0 defers to FTGEMM_THREADS, then hardware concurrency — see
  /// runtime/topology.hpp); `injector` / `correction_log` attach to the
  /// problem selected by `inject_problem`.
  Options base;
  /// Scheduling policy (see header comment).
  BatchSchedule schedule = BatchSchedule::kAuto;
  /// Batch member the injector and correction log attach to.  Negative =
  /// every member; both sinks are per-call stateful and must not be shared
  /// across concurrent problems, so kAuto then schedules intra-batch, and a
  /// forced kInter serializes the injected members' execution.
  index_t inject_problem = 0;
};

/// Aggregated outcome of one batched FT call.
struct BatchReport {
  index_t problems = 0;                ///< batch size actually executed
  std::int64_t errors_detected = 0;    ///< sum over problems
  std::int64_t errors_corrected = 0;   ///< sum over problems
  std::int64_t uncorrectable_panels = 0;  ///< sum over problems
  index_t faulty_problems = 0;   ///< members with >= 1 detection
  index_t dirty_problems = 0;    ///< members whose report was not clean
  bool inter_batch = false;      ///< scheduler decision taken for this call
  /// With Options::resident_a: members whose A came from the resident
  /// operand cache (a stride-0 broadcast A is one entry serving the whole
  /// batch) and integrity heals performed on hits.
  index_t resident_hits = 0;
  std::int64_t resident_heals = 0;
  /// Resident-panel bits corrected in place by the SEC-DED syndrome sweep
  /// (FTGEMM_OPERAND_ECC), summed over members — see FtReport.
  std::int64_t resident_ecc_corrected = 0;
  /// Rejected before execution (negative dimension/batch or undersized
  /// leading dimension, see valid_gemm_args): no member ran, C untouched.
  bool invalid_args = false;
  double elapsed_seconds = 0.0;  ///< wall time of the whole batch
  /// One report per batch member, index-aligned with the operands (empty
  /// for the non-FT entry points).
  std::vector<FtReport> per_problem;

  /// True when every member's result is trustworthy.
  [[nodiscard]] bool clean() const { return dirty_problems == 0; }
};

// ---------------------------------------------------------------------------
// Array-of-pointers form: operand i of problem p is a[p], b[p], c[p].
// ---------------------------------------------------------------------------

// The compute type C is deliberately non-deduced (identity_t, C++17's
// spelling of std::type_identity_t): it is always the explicit template
// argument or its default `= S`.  This keeps classic call sites like
// `ft_gemm_strided_batched<double>(..., nullptr, ...)` well-formed (a
// deduced `C*` would choke on nullptr) and forces mixed-precision callers
// to spell `<bf16_t, float>` rather than relying on scalar-argument
// deduction.
template <typename T>
struct batched_identity {
  using type = T;
};
template <typename T>
using identity_t = typename batched_identity<T>::type;

/// batch independent C[p] = alpha*op(A[p])*op(B[p]) + beta*C[p], no FT.
template <typename S, typename C = S>
BatchReport gemm_batched(Layout layout, Trans ta, Trans tb, index_t m,
                         index_t n, index_t k, identity_t<C> alpha,
                         const S* const* a, index_t lda, const S* const* b,
                         index_t ldb, identity_t<C> beta,
                         identity_t<C>* const* c, index_t ldc,
                         index_t batch, const BatchOptions& opts = {});

/// Fault-tolerant batched GEMM; one FtReport per problem in the result.
template <typename S, typename C = S>
BatchReport ft_gemm_batched(Layout layout, Trans ta, Trans tb, index_t m,
                            index_t n, index_t k,
                            identity_t<C> alpha, const S* const* a,
                            index_t lda, const S* const* b, index_t ldb,
                            identity_t<C> beta,
                            identity_t<C>* const* c, index_t ldc,
                            index_t batch, const BatchOptions& opts = {});

// ---------------------------------------------------------------------------
// Strided form: operand i of problem p starts at base + p * stride.
// A stride of 0 shares one matrix across the whole batch (legal for the
// read-only A and B operands; C strides must be non-overlapping).
// ---------------------------------------------------------------------------

template <typename S, typename C = S>
BatchReport gemm_strided_batched(Layout layout, Trans ta, Trans tb, index_t m,
                                 index_t n, index_t k,
                                 identity_t<C> alpha, const S* a,
                                 index_t lda, index_t stride_a, const S* b,
                                 index_t ldb, index_t stride_b,
                                 identity_t<C> beta,
                                 identity_t<C>* c, index_t ldc,
                                 index_t stride_c, index_t batch,
                                 const BatchOptions& opts = {});

template <typename S, typename C = S>
BatchReport ft_gemm_strided_batched(Layout layout, Trans ta, Trans tb,
                                    index_t m, index_t n, index_t k,
                                    identity_t<C> alpha, const S* a,
                                    index_t lda, index_t stride_a, const S* b,
                                    index_t ldb, index_t stride_b,
                                    identity_t<C> beta,
                                    identity_t<C>* c, index_t ldc,
                                    index_t stride_c, index_t batch,
                                    const BatchOptions& opts = {});

extern template BatchReport gemm_batched<float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const float* const*, index_t, const float* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
extern template BatchReport gemm_batched<double>(
    Layout, Trans, Trans, index_t, index_t, index_t, double,
    const double* const*, index_t, const double* const*, index_t, double,
    double* const*, index_t, index_t, const BatchOptions&);
extern template BatchReport ft_gemm_batched<float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const float* const*, index_t, const float* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
extern template BatchReport ft_gemm_batched<double>(
    Layout, Trans, Trans, index_t, index_t, index_t, double,
    const double* const*, index_t, const double* const*, index_t, double,
    double* const*, index_t, index_t, const BatchOptions&);
extern template BatchReport gemm_strided_batched<float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const float*,
    index_t, index_t, const float*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
extern template BatchReport gemm_strided_batched<double>(
    Layout, Trans, Trans, index_t, index_t, index_t, double, const double*,
    index_t, index_t, const double*, index_t, index_t, double, double*,
    index_t, index_t, index_t, const BatchOptions&);
extern template BatchReport ft_gemm_strided_batched<float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const float*,
    index_t, index_t, const float*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
extern template BatchReport ft_gemm_strided_batched<double>(
    Layout, Trans, Trans, index_t, index_t, index_t, double, const double*,
    index_t, index_t, const double*, index_t, index_t, double, double*,
    index_t, index_t, index_t, const BatchOptions&);

// Mixed precision (narrow storage, fp32 C and accumulation).
extern template BatchReport gemm_batched<bf16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const bf16_t* const*, index_t, const bf16_t* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
extern template BatchReport ft_gemm_batched<bf16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const bf16_t* const*, index_t, const bf16_t* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
extern template BatchReport gemm_strided_batched<bf16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const bf16_t*,
    index_t, index_t, const bf16_t*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
extern template BatchReport ft_gemm_strided_batched<bf16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const bf16_t*,
    index_t, index_t, const bf16_t*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
extern template BatchReport gemm_batched<fp16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const fp16_t* const*, index_t, const fp16_t* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
extern template BatchReport ft_gemm_batched<fp16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const fp16_t* const*, index_t, const fp16_t* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
extern template BatchReport gemm_strided_batched<fp16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const fp16_t*,
    index_t, index_t, const fp16_t*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
extern template BatchReport ft_gemm_strided_batched<fp16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const fp16_t*,
    index_t, index_t, const fp16_t*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);

}  // namespace ftgemm
