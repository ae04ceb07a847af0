#include "core/gemm.hpp"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "core/gemm_i8.hpp"
#include "core/plan.hpp"

namespace ftgemm {

namespace {

using detail::Domain;
using detail::normalize_layout;
using detail::QuantOf;
using detail::ScalarOf;
using detail::valid_args;

/// Resolve Options::resident_a against the process-wide operand cache
/// (shared by free functions, engines and the serving layer: the payload
/// key covers everything the packed layout depends on, so one resident
/// encoding serves every submitter of the operand).  Post-normalization
/// column-major arguments; returns an empty acquisition when the call
/// cannot consume a payload (degenerate problem, resident_a off).  The
/// payload is keyed under the domain's resident alpha.
template <typename S, typename C>
ResidentAcquisition<S, C> acquire_resident(const Options& opts, Trans ta,
                                           index_t m, index_t n, index_t k,
                                           ScalarOf<S, C> alpha, const S* a,
                                           index_t lda,
                                           const GemmPlan<S, C>& plan) {
  ResidentAcquisition<S, C> acq;
  if (!opts.resident_a || m <= 0 || n <= 0 || k <= 0 ||
      alpha == ScalarOf<S, C>(0) || a == nullptr) {
    return acq;
  }
  acq = process_context_cache<S, C>().operands().acquire(
      a, lda, ta == Trans::kTrans, Domain<S, C>::resident_alpha(alpha), plan,
      opts.memory_injector, opts.resident_verify);
  return acq;
}

/// Dispatch one call: normalize the layout (and the domain's per-call
/// quantization with it), validate, plan, resolve the resident operand, and
/// hand the frozen plan to the pure executor.
///
/// Free functions (`engine` null) plan via the process-wide shared
/// PlanCache and lease a private workspace for the duration of the call:
/// any number of application threads may be in here concurrently — leases
/// never share workspaces, and a recurring shape is planned once
/// process-wide, not once per calling thread.  Engines plan and run on their
/// private single-owner context but share the process-wide operand cache:
/// the payload key covers everything the resident encoding depends on, so
/// an engine hit is exactly as safe as a free-function hit.
template <typename S, bool FT, typename C = S>
FtReport dispatch(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, ScalarOf<S, C> alpha, const S* a, index_t lda,
                  const S* b, index_t ldb, ScalarOf<S, C> beta,
                  ScalarOf<S, C>* c, index_t ldc, const Options& opts,
                  GemmContext<S, C>* engine = nullptr,
                  const QuantOf<S, C>& quant = {}) {
  const QuantOf<S, C> q = Domain<S, C>::normalize_quant(layout, quant);
  normalize_layout(layout, ta, tb, m, n, a, lda, b, ldb);
  if (!valid_args<S, C>(ta, tb, m, n, k, lda, ldb, ldc)) {
    FtReport rejected;
    rejected.invalid_args = true;
    return rejected;
  }
  ContextCache<S, C>& cache = process_context_cache<S, C>();
  const std::shared_ptr<const GemmPlan<S, C>> plan =
      engine != nullptr
          ? engine->plans().get_or_build(ta, tb, m, n, k, opts, FT)
          : cache.plan(ta, tb, m, n, k, opts, FT);
  const ResidentAcquisition<S, C> acq =
      acquire_resident(opts, ta, m, n, k, alpha, a, lda, *plan);
  typename ContextCache<S, C>::Lease lease;
  if (engine == nullptr) lease = cache.lease();
  FtReport rep = detail::execute<S, FT, C>(
      *plan, alpha, a, lda, b, ldb, beta, c, ldc, opts.injector,
      opts.correction_log, engine != nullptr ? *engine : *lease,
      acq.payload.get(), opts.memory_injector, q);
  rep.resident_hit = acq.hit;
  rep.resident_heals = acq.heals;
  rep.resident_ecc_corrected = acq.ecc_corrected;
  return rep;
}

template <typename S, typename C = S>
FtReport reliable_impl(Layout layout, Trans ta, Trans tb, index_t m,
                       index_t n, index_t k, C alpha, const S* a, index_t lda,
                       const S* b, index_t ldb, C beta, C* c, index_t ldc,
                       const Options& opts, int max_retries) {
  // Reject invalid arguments before the snapshot below sizes itself from
  // them (a negative dimension would turn the reserve into a huge
  // allocation; dispatch would reject the call anyway).
  {
    Trans nta = ta, ntb = tb;
    index_t nm = m, nn = n, nlda = lda, nldb = ldb;
    const S* na = a;
    const S* nb = b;
    normalize_layout(layout, nta, ntb, nm, nn, na, nlda, nb, nldb);
    if (!valid_gemm_args(nta, ntb, nm, nn, k, nlda, nldb, ldc)) {
      FtReport rejected;
      rejected.invalid_args = true;
      return rejected;
    }
  }
  // Snapshot C so an uncorrectable panel can be rolled back.  The copy
  // respects the caller's layout: for row-major, "columns" below are the
  // caller's rows, but the (ldc, minor=n/m) traversal is the same.
  const index_t minor = layout == Layout::kColMajor ? m : n;
  const index_t major = layout == Layout::kColMajor ? n : m;
  std::vector<C> snapshot;
  snapshot.reserve(static_cast<std::size_t>(minor * major));
  for (index_t j = 0; j < major; ++j)
    snapshot.insert(snapshot.end(), c + j * ldc, c + j * ldc + minor);

  FtReport total;
  for (int attempt = 0;; ++attempt) {
    const FtReport rep = dispatch<S, true, C>(layout, ta, tb, m, n, k,
                                              alpha, a, lda, b, ldb, beta, c,
                                              ldc, opts);
    total.panels = rep.panels;
    total.errors_detected += rep.errors_detected;
    total.errors_corrected += rep.errors_corrected;
    total.elapsed_seconds += rep.elapsed_seconds;
    if (rep.clean() || attempt == max_retries) {
      total.uncorrectable_panels = rep.uncorrectable_panels;
      total.retries = attempt;
      return total;
    }
    // Roll back and retry.
    for (index_t j = 0; j < major; ++j) {
      const C* src = snapshot.data() + j * minor;
      std::copy(src, src + minor, c + j * ldc);
    }
  }
}

}  // namespace

void clear_process_caches() {
  process_context_cache<double>().clear_plans();
  process_context_cache<float>().clear_plans();
  process_context_cache<bf16_t, float>().clear_plans();
  process_context_cache<fp16_t, float>().clear_plans();
  process_context_cache<std::int8_t, std::int32_t>().clear_plans();
  process_context_cache<double>().clear_operands();
  process_context_cache<float>().clear_operands();
  process_context_cache<bf16_t, float>().clear_operands();
  process_context_cache<fp16_t, float>().clear_operands();
  process_context_cache<std::int8_t, std::int32_t>().clear_operands();
}

void clear_thread_plan_cache() { clear_process_caches(); }

void dgemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
           double alpha, const double* a, index_t lda, const double* b,
           index_t ldb, double beta, double* c, index_t ldc,
           const Options& opts) {
  dispatch<double, false>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb,
                          beta, c, ldc, opts);
}

void sgemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
           float alpha, const float* a, index_t lda, const float* b,
           index_t ldb, float beta, float* c, index_t ldc,
           const Options& opts) {
  dispatch<float, false>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta,
                         c, ldc, opts);
}

FtReport ft_dgemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, double alpha, const double* a, index_t lda,
                  const double* b, index_t ldb, double beta, double* c,
                  index_t ldc, const Options& opts) {
  return dispatch<double, true>(layout, ta, tb, m, n, k, alpha, a, lda, b,
                                ldb, beta, c, ldc, opts);
}

FtReport ft_sgemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, float alpha, const float* a, index_t lda,
                  const float* b, index_t ldb, float beta, float* c,
                  index_t ldc, const Options& opts) {
  return dispatch<float, true>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb,
                               beta, c, ldc, opts);
}

FtReport ft_dgemm_reliable(Layout layout, Trans ta, Trans tb, index_t m,
                           index_t n, index_t k, double alpha, const double* a,
                           index_t lda, const double* b, index_t ldb,
                           double beta, double* c, index_t ldc,
                           const Options& opts, int max_retries) {
  return reliable_impl<double>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb,
                               beta, c, ldc, opts, max_retries);
}

FtReport ft_sgemm_reliable(Layout layout, Trans ta, Trans tb, index_t m,
                           index_t n, index_t k, float alpha, const float* a,
                           index_t lda, const float* b, index_t ldb,
                           float beta, float* c, index_t ldc,
                           const Options& opts, int max_retries) {
  return reliable_impl<float>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb,
                              beta, c, ldc, opts, max_retries);
}

void gemm_bf16(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
               index_t k, float alpha, const bf16_t* a, index_t lda,
               const bf16_t* b, index_t ldb, float beta, float* c,
               index_t ldc, const Options& opts) {
  dispatch<bf16_t, false, float>(layout, ta, tb, m, n, k, alpha, a, lda, b,
                                 ldb, beta, c, ldc, opts);
}

FtReport ft_gemm_bf16(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                      index_t k, float alpha, const bf16_t* a, index_t lda,
                      const bf16_t* b, index_t ldb, float beta, float* c,
                      index_t ldc, const Options& opts) {
  return dispatch<bf16_t, true, float>(layout, ta, tb, m, n, k, alpha, a,
                                       lda, b, ldb, beta, c, ldc, opts);
}

FtReport ft_gemm_bf16_reliable(Layout layout, Trans ta, Trans tb, index_t m,
                               index_t n, index_t k, float alpha,
                               const bf16_t* a, index_t lda, const bf16_t* b,
                               index_t ldb, float beta, float* c, index_t ldc,
                               const Options& opts, int max_retries) {
  return reliable_impl<bf16_t, float>(layout, ta, tb, m, n, k, alpha, a, lda,
                                      b, ldb, beta, c, ldc, opts, max_retries);
}

void gemm_f16(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
              index_t k, float alpha, const fp16_t* a, index_t lda,
              const fp16_t* b, index_t ldb, float beta, float* c, index_t ldc,
              const Options& opts) {
  dispatch<fp16_t, false, float>(layout, ta, tb, m, n, k, alpha, a, lda, b,
                                 ldb, beta, c, ldc, opts);
}

FtReport ft_gemm_f16(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                     index_t k, float alpha, const fp16_t* a, index_t lda,
                     const fp16_t* b, index_t ldb, float beta, float* c,
                     index_t ldc, const Options& opts) {
  return dispatch<fp16_t, true, float>(layout, ta, tb, m, n, k, alpha, a,
                                       lda, b, ldb, beta, c, ldc, opts);
}

FtReport ft_gemm_f16_reliable(Layout layout, Trans ta, Trans tb, index_t m,
                              index_t n, index_t k, float alpha,
                              const fp16_t* a, index_t lda, const fp16_t* b,
                              index_t ldb, float beta, float* c, index_t ldc,
                              const Options& opts, int max_retries) {
  return reliable_impl<fp16_t, float>(layout, ta, tb, m, n, k, alpha, a, lda,
                                      b, ldb, beta, c, ldc, opts, max_retries);
}

template <typename S, typename C>
void GemmEngine<S, C>::gemm(Layout layout, Trans ta, Trans tb, index_t m,
                            index_t n, index_t k, C alpha, const S* a,
                            index_t lda, const S* b, index_t ldb, C beta,
                            C* c, index_t ldc) {
  dispatch<S, false, C>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta,
                        c, ldc, opts_, &ctx_);
}

template <typename S, typename C>
FtReport GemmEngine<S, C>::ft_gemm(Layout layout, Trans ta, Trans tb,
                                   index_t m, index_t n, index_t k, C alpha,
                                   const S* a, index_t lda, const S* b,
                                   index_t ldb, C beta, C* c, index_t ldc) {
  return dispatch<S, true, C>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb,
                              beta, c, ldc, opts_, &ctx_);
}

template class GemmEngine<double>;
template class GemmEngine<float>;
template class GemmEngine<bf16_t, float>;
template class GemmEngine<fp16_t, float>;

// int8 entry points: the same pipeline under ExactDomain, which supplies
// the QuantParams row-major swap, the kI8MaxDepth gate and the resident key
// with alpha pinned to 1.

void gemm_i8(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
             index_t k, float alpha, const std::int8_t* a, index_t lda,
             const std::int8_t* b, index_t ldb, float beta, float* c,
             index_t ldc, const QuantParams& qp, const Options& opts) {
  dispatch<std::int8_t, false, std::int32_t>(layout, ta, tb, m, n, k, alpha,
                                             a, lda, b, ldb, beta, c, ldc,
                                             opts, nullptr, qp);
}

FtReport ft_gemm_i8(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                    index_t k, float alpha, const std::int8_t* a, index_t lda,
                    const std::int8_t* b, index_t ldb, float beta, float* c,
                    index_t ldc, const QuantParams& qp, const Options& opts) {
  return dispatch<std::int8_t, true, std::int32_t>(
      layout, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, opts,
      nullptr, qp);
}

ResidentOperand make_resident_a_i8(Trans ta, Trans tb, index_t m, index_t n,
                                   index_t k, const std::int8_t* a,
                                   index_t lda, const Options& opts, bool ft) {
  using D = Domain<std::int8_t, std::int32_t>;
  if (!D::depth_ok(k)) return {};
  return make_resident_a<std::int8_t, std::int32_t>(
      ta, tb, m, n, k, D::resident_alpha(1.0f), a, lda, opts, ft);
}

void GemmEngine<std::int8_t, std::int32_t>::gemm(
    Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
    float alpha, const std::int8_t* a, index_t lda, const std::int8_t* b,
    index_t ldb, float beta, float* c, index_t ldc, const QuantParams& qp) {
  dispatch<std::int8_t, false, std::int32_t>(layout, ta, tb, m, n, k, alpha,
                                             a, lda, b, ldb, beta, c, ldc,
                                             opts_, &ctx_, qp);
}

FtReport GemmEngine<std::int8_t, std::int32_t>::ft_gemm(
    Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
    float alpha, const std::int8_t* a, index_t lda, const std::int8_t* b,
    index_t ldb, float beta, float* c, index_t ldc, const QuantParams& qp) {
  return dispatch<std::int8_t, true, std::int32_t>(
      layout, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, opts_,
      &ctx_, qp);
}

}  // namespace ftgemm
