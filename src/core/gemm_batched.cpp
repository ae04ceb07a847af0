#include "core/gemm_batched.hpp"

#include "core/dispatch.hpp"
#include "core/gemm_i8.hpp"

namespace ftgemm {

using detail::run_batched;
using detail::run_strided_batched;

template <typename S, typename C>
BatchReport gemm_batched(Layout layout, Trans ta, Trans tb, index_t m,
                         index_t n, index_t k, identity_t<C> alpha,
                         const S* const* a, index_t lda, const S* const* b,
                         index_t ldb, identity_t<C> beta,
                         identity_t<C>* const* c, index_t ldc,
                         index_t batch, const BatchOptions& opts) {
  return run_batched<S, false, C>(layout, ta, tb, m, n, k, alpha, a, lda, b,
                                  ldb, beta, c, ldc, batch, opts);
}

template <typename S, typename C>
BatchReport ft_gemm_batched(Layout layout, Trans ta, Trans tb, index_t m,
                            index_t n, index_t k,
                            identity_t<C> alpha, const S* const* a,
                            index_t lda, const S* const* b, index_t ldb,
                            identity_t<C> beta,
                            identity_t<C>* const* c, index_t ldc,
                            index_t batch, const BatchOptions& opts) {
  return run_batched<S, true, C>(layout, ta, tb, m, n, k, alpha, a, lda, b,
                                 ldb, beta, c, ldc, batch, opts);
}

template <typename S, typename C>
BatchReport gemm_strided_batched(Layout layout, Trans ta, Trans tb, index_t m,
                                 index_t n, index_t k,
                                 identity_t<C> alpha, const S* a,
                                 index_t lda, index_t stride_a, const S* b,
                                 index_t ldb, index_t stride_b,
                                 identity_t<C> beta,
                                 identity_t<C>* c, index_t ldc,
                                 index_t stride_c, index_t batch,
                                 const BatchOptions& opts) {
  return run_strided_batched<S, false, C>(layout, ta, tb, m, n, k, alpha, a,
                                          lda, stride_a, b, ldb, stride_b,
                                          beta, c, ldc, stride_c, batch, opts);
}

template <typename S, typename C>
BatchReport ft_gemm_strided_batched(Layout layout, Trans ta, Trans tb,
                                    index_t m, index_t n, index_t k,
                                    identity_t<C> alpha, const S* a,
                                    index_t lda, index_t stride_a, const S* b,
                                    index_t ldb, index_t stride_b,
                                    identity_t<C> beta,
                                    identity_t<C>* c, index_t ldc,
                                    index_t stride_c, index_t batch,
                                    const BatchOptions& opts) {
  return run_strided_batched<S, true, C>(layout, ta, tb, m, n, k, alpha, a,
                                         lda, stride_a, b, ldb, stride_b,
                                         beta, c, ldc, stride_c, batch, opts);
}

template BatchReport gemm_batched<float>(Layout, Trans, Trans, index_t,
                                         index_t, index_t, float,
                                         const float* const*, index_t,
                                         const float* const*, index_t, float,
                                         float* const*, index_t, index_t,
                                         const BatchOptions&);
template BatchReport gemm_batched<double>(Layout, Trans, Trans, index_t,
                                          index_t, index_t, double,
                                          const double* const*, index_t,
                                          const double* const*, index_t,
                                          double, double* const*, index_t,
                                          index_t, const BatchOptions&);
template BatchReport ft_gemm_batched<float>(Layout, Trans, Trans, index_t,
                                            index_t, index_t, float,
                                            const float* const*, index_t,
                                            const float* const*, index_t,
                                            float, float* const*, index_t,
                                            index_t, const BatchOptions&);
template BatchReport ft_gemm_batched<double>(Layout, Trans, Trans, index_t,
                                             index_t, index_t, double,
                                             const double* const*, index_t,
                                             const double* const*, index_t,
                                             double, double* const*, index_t,
                                             index_t, const BatchOptions&);
template BatchReport gemm_strided_batched<float>(Layout, Trans, Trans,
                                                 index_t, index_t, index_t,
                                                 float, const float*, index_t,
                                                 index_t, const float*,
                                                 index_t, index_t, float,
                                                 float*, index_t, index_t,
                                                 index_t, const BatchOptions&);
template BatchReport gemm_strided_batched<double>(
    Layout, Trans, Trans, index_t, index_t, index_t, double, const double*,
    index_t, index_t, const double*, index_t, index_t, double, double*,
    index_t, index_t, index_t, const BatchOptions&);
template BatchReport ft_gemm_strided_batched<float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const float*,
    index_t, index_t, const float*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
template BatchReport ft_gemm_strided_batched<double>(
    Layout, Trans, Trans, index_t, index_t, index_t, double, const double*,
    index_t, index_t, const double*, index_t, index_t, double, double*,
    index_t, index_t, index_t, const BatchOptions&);

template BatchReport gemm_batched<bf16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const bf16_t* const*, index_t, const bf16_t* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
template BatchReport ft_gemm_batched<bf16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const bf16_t* const*, index_t, const bf16_t* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
template BatchReport gemm_strided_batched<bf16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const bf16_t*,
    index_t, index_t, const bf16_t*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
template BatchReport ft_gemm_strided_batched<bf16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const bf16_t*,
    index_t, index_t, const bf16_t*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
template BatchReport gemm_batched<fp16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const fp16_t* const*, index_t, const fp16_t* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
template BatchReport ft_gemm_batched<fp16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float,
    const fp16_t* const*, index_t, const fp16_t* const*, index_t, float,
    float* const*, index_t, index_t, const BatchOptions&);
template BatchReport gemm_strided_batched<fp16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const fp16_t*,
    index_t, index_t, const fp16_t*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);
template BatchReport ft_gemm_strided_batched<fp16_t, float>(
    Layout, Trans, Trans, index_t, index_t, index_t, float, const fp16_t*,
    index_t, index_t, const fp16_t*, index_t, index_t, float, float*, index_t,
    index_t, index_t, const BatchOptions&);

// int8 forms: one QuantParams for the whole batch (see core/gemm_i8.hpp).

BatchReport gemm_i8_batched(Layout layout, Trans ta, Trans tb, index_t m,
                            index_t n, index_t k, float alpha,
                            const std::int8_t* const* a, index_t lda,
                            const std::int8_t* const* b, index_t ldb,
                            float beta, float* const* c, index_t ldc,
                            index_t batch, const QuantParams& qp,
                            const BatchOptions& opts) {
  return run_batched<std::int8_t, false, std::int32_t>(
      layout, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, batch,
      opts, qp);
}

BatchReport ft_gemm_i8_batched(Layout layout, Trans ta, Trans tb, index_t m,
                               index_t n, index_t k, float alpha,
                               const std::int8_t* const* a, index_t lda,
                               const std::int8_t* const* b, index_t ldb,
                               float beta, float* const* c, index_t ldc,
                               index_t batch, const QuantParams& qp,
                               const BatchOptions& opts) {
  return run_batched<std::int8_t, true, std::int32_t>(
      layout, ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, batch,
      opts, qp);
}

BatchReport gemm_i8_strided_batched(Layout layout, Trans ta, Trans tb,
                                    index_t m, index_t n, index_t k,
                                    float alpha, const std::int8_t* a,
                                    index_t lda, index_t stride_a,
                                    const std::int8_t* b, index_t ldb,
                                    index_t stride_b, float beta, float* c,
                                    index_t ldc, index_t stride_c,
                                    index_t batch, const QuantParams& qp,
                                    const BatchOptions& opts) {
  return run_strided_batched<std::int8_t, false, std::int32_t>(
      layout, ta, tb, m, n, k, alpha, a, lda, stride_a, b, ldb, stride_b,
      beta, c, ldc, stride_c, batch, opts, qp);
}

BatchReport ft_gemm_i8_strided_batched(
    Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
    float alpha, const std::int8_t* a, index_t lda, index_t stride_a,
    const std::int8_t* b, index_t ldb, index_t stride_b, float beta, float* c,
    index_t ldc, index_t stride_c, index_t batch, const QuantParams& qp,
    const BatchOptions& opts) {
  return run_strided_batched<std::int8_t, true, std::int32_t>(
      layout, ta, tb, m, n, k, alpha, a, lda, stride_a, b, ldb, stride_b,
      beta, c, ldc, stride_c, batch, opts, qp);
}

}  // namespace ftgemm
