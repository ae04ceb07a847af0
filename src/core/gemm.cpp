#include "core/gemm.hpp"

#include <cstdint>
#include <vector>

#include "core/dispatch.hpp"
#include "core/gemm_i8.hpp"

namespace ftgemm {

namespace {

using detail::dispatch;
using detail::normalize_layout;

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
  // Snapshot C so an uncorrectable panel can be rolled back.  At beta = 0
  // the call never reads C (the encode pass writes zeros), so a retry needs
  // nothing restored and no snapshot is taken.  The copy respects the
  // caller's layout: for row-major, "columns" below are the caller's rows,
  // but the (ldc, minor=n/m) traversal is the same.
  const index_t minor = layout == Layout::kColMajor ? m : n;
  const index_t major = layout == Layout::kColMajor ? n : m;
  const bool restore = beta != C(0);
  std::vector<C> snapshot;
  if (restore) {
    snapshot.reserve(static_cast<std::size_t>(minor * major));
    for (index_t j = 0; j < major; ++j)
      snapshot.insert(snapshot.end(), c + j * ldc, c + j * ldc + minor);
  }

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
    if (restore) {
      for (index_t j = 0; j < major; ++j) {
        const C* src = snapshot.data() + j * minor;
        std::copy(src, src + minor, c + j * ldc);
      }
    }
  }
}

}  // namespace

void clear_process_caches() {
  detail::for_each_precision([](auto e) {
    using E = decltype(e);
    auto& cache =
        process_context_cache<typename E::Storage, typename E::Compute>();
    cache.clear_plans();
    cache.clear_operands();
  });
}

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
                            index_t n, index_t k, Scalar alpha, const S* a,
                            index_t lda, const S* b, index_t ldb, Scalar beta,
                            Scalar* c, index_t ldc, const Quant& qp) {
  dispatch<S, false, C>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta,
                        c, ldc, opts_, &ctx_, qp);
}

template <typename S, typename C>
FtReport GemmEngine<S, C>::ft_gemm(Layout layout, Trans ta, Trans tb,
                                   index_t m, index_t n, index_t k,
                                   Scalar alpha, const S* a, index_t lda,
                                   const S* b, index_t ldb, Scalar beta,
                                   Scalar* c, index_t ldc, const Quant& qp) {
  return dispatch<S, true, C>(layout, ta, tb, m, n, k, alpha, a, lda, b, ldb,
                              beta, c, ldc, opts_, &ctx_, qp);
}

template class GemmEngine<double>;
template class GemmEngine<float>;
template class GemmEngine<bf16_t, float>;
template class GemmEngine<fp16_t, float>;
template class GemmEngine<std::int8_t, std::int32_t>;

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
  using D = detail::Domain<std::int8_t, std::int32_t>;
  if (!D::depth_ok(k)) return {};
  return make_resident_a<std::int8_t, std::int32_t>(
      ta, tb, m, n, k, D::resident_alpha(1.0f), a, lda, opts, ft);
}

}  // namespace ftgemm
