// Public option and report types for the GEMM entry points.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/isa.hpp"
#include "inject/injector.hpp"

namespace ftgemm {

using index_t = std::int64_t;

/// One correction the verifier applied to C, with its provenance.
struct CorrectionRecord {
  int panel = 0;        ///< rank-KC panel whose verification caught it
  index_t i = 0;        ///< global row of the corrected element
  index_t j = 0;        ///< global column
  double delta = 0.0;   ///< perturbation removed from C(i, j)
};

/// Storage order of the caller's matrices (BLAS convention).
enum class Layout { kColMajor, kRowMajor };

/// Operand transposition.
enum class Trans { kNoTrans, kTrans };

/// Tuning & instrumentation knobs shared by Ori and FT entry points.
struct Options {
  /// Worker threads; 0 defers to FTGEMM_THREADS, then hardware concurrency
  /// (see runtime/topology.hpp for the full resolution order).
  int threads = 0;
  /// Kernel ISA override (defaults to the best the CPU supports).
  std::optional<Isa> isa;
  /// Verification threshold safety factor; 0 means the library default
  /// (512, overridable with FTGEMM_TOL_FACTOR).  FT entry points only.
  double tolerance_factor = 0.0;
  /// Let the planner take the single-macro-tile direct path for problems
  /// that fit one MC x NC x KC tile (pins the call to one thread, skips the
  /// cooperative-packing machinery; results are bit-identical).  Disable to
  /// force the general blocked path, e.g. for A/B comparison.
  bool small_fast_path = true;
  /// Optional fault injector (§3.2).  Non-owning; may be null.
  FaultInjector* injector = nullptr;
  /// Optional sink for per-correction provenance (appended to; non-owning).
  /// Accessed only from the verification critical section, so a single log
  /// may be shared across calls but not across concurrent GEMMs.
  std::vector<CorrectionRecord>* correction_log = nullptr;
  /// Serve A from the process-wide resident-operand cache
  /// (core/operand_cache.hpp): pack + checksum-encode A once, reuse the
  /// resident panels on every later call with the same operand and shape.
  /// Strictly opt-in — the caller promises A is stable between calls
  /// (weights); results are bit-identical to the cold path.
  bool resident_a = false;
  /// Re-verify the resident panels' integrity sums on every cache hit
  /// (CHECK_BEFORE) and heal a mismatch by re-encoding from the source.
  /// Only meaningful with resident_a.
  bool resident_verify = true;
  /// Optional memory-fault injector corrupting the resident panels on cache
  /// hits, before re-verification (tests).  Non-owning; may be null.
  MemoryFaultInjector* memory_injector = nullptr;
};

/// Outcome of one fault-tolerant GEMM call.
struct FtReport {
  int panels = 0;                    ///< rank-KC verification intervals run
  std::int64_t errors_detected = 0;  ///< checksum mismatches attributed
  std::int64_t errors_corrected = 0; ///< elements repaired in C
  int uncorrectable_panels = 0;      ///< panels with unresolvable mismatches
  int retries = 0;                   ///< re-executions (ft_*_reliable only)
  double elapsed_seconds = 0.0;      ///< wall time of the whole call
  /// The call was rejected before touching any operand: a negative
  /// dimension or an undersized leading dimension (see valid_gemm_args).
  /// C is untouched; no panels ran.  clean() stays true — nothing was
  /// computed, so nothing can be silently wrong.
  bool invalid_args = false;
  /// With Options::resident_a: A was served from the resident-operand cache
  /// (false on the encoding miss and when resident_a was off).
  bool resident_hit = false;
  /// Resident-panel integrity mismatches healed by re-encoding this call.
  int resident_heals = 0;
  /// Resident-panel bits corrected in place by the SEC-DED syndrome sweep
  /// (FTGEMM_OPERAND_ECC) — corrections that did NOT need a re-encode heal.
  int resident_ecc_corrected = 0;

  /// True when the result is trustworthy (all mismatches corrected).
  [[nodiscard]] bool clean() const { return uncorrectable_panels == 0; }
};

/// BLAS-style argument validation, shared by every entry point (free
/// functions, engine, batched, serving).  Arguments are *column-major*
/// post-layout-normalization values.  Rules (xGEMM, relaxed exactly where
/// the degenerate paths make an operand unreadable):
///   - m, n, k must be non-negative;
///   - ldc >= max(1, m) whenever the call could write C (m > 0 and n > 0);
///   - lda/ldb are validated only when A/B can be read (k > 0 and the
///     problem is non-empty): lda >= max(1, rows of op(A)), ldb >= max(1,
///     rows of op(B)).  BLAS also requires this for k == 0, but the
///     documented degenerate contract (nullptr operands legal when k == 0)
///     predates this check and is kept.
/// Violations make the entry points a silent no-op (C untouched) with
/// FtReport::invalid_args / BatchReport::invalid_args set — the library
/// never xerbla-aborts a serving process.
[[nodiscard]] inline bool valid_gemm_args(Trans ta, Trans tb, index_t m,
                                          index_t n, index_t k, index_t lda,
                                          index_t ldb, index_t ldc) {
  if (m < 0 || n < 0 || k < 0) return false;
  if (m > 0 && n > 0) {
    if (ldc < m) return false;
    if (k > 0) {
      const index_t a_rows = ta == Trans::kNoTrans ? m : k;
      const index_t b_rows = tb == Trans::kNoTrans ? k : n;
      if (lda < a_rows || ldb < b_rows) return false;
    }
  }
  return true;
}

}  // namespace ftgemm
