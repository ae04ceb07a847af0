// Shared helpers for the FT-GEMM test suite: the one reference GEMM
// (naive_ref_gemm / reference_result), the one matrix comparison
// (expect_matrix_near), the shared rounding budget (gemm_tolerance), and
// the deterministic-by-default seed policy (test_seed) — consolidated here
// so no test file re-implements its own oracle or tolerance.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include "baseline/naive_gemm.hpp"
#include "core/gemm.hpp"
#include "kernels/int8_types.hpp"
#include "util/env.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace ftgemm::testing {

/// Base seed for every randomized sweep: FTGEMM_TEST_SEED (env) when set,
/// the suite's fixed default otherwise — so runs are deterministic by
/// default and any CI failure reproduces with one env var.  Failure
/// messages must carry the seed (see seed_note).
inline std::uint64_t test_seed(std::uint64_t fallback) {
  return std::uint64_t(env_long("FTGEMM_TEST_SEED", long(fallback)));
}

/// Attach to failing expectations so the reproduction command is in the
/// log: `EXPECT_...(...) << seed_note(seed);`
inline std::string seed_note(std::uint64_t seed) {
  return "  [reproduce with FTGEMM_TEST_SEED=" + std::to_string(seed) + "]";
}

/// A GEMM problem shape with operand transposes and scalars.
struct GemmCase {
  index_t m, n, k;
  Trans ta = Trans::kNoTrans;
  Trans tb = Trans::kNoTrans;
  double alpha = 1.0;
  double beta = 0.0;

  [[nodiscard]] std::string name() const {
    std::string s = std::to_string(m) + "x" + std::to_string(n) + "x" +
                    std::to_string(k);
    s += ta == Trans::kTrans ? "_Ta" : "_Na";
    s += tb == Trans::kTrans ? "_Tb" : "_Nb";
    auto scal = [](double v) {
      std::string t = std::to_string(v);
      for (char& ch : t) {
        if (ch == '.') ch = 'p';
        if (ch == '-') ch = 'm';
      }
      return t;
    };
    s += "_a" + scal(alpha) + "_b" + scal(beta);
    return s;
  }
};

inline std::ostream& operator<<(std::ostream& os, const GemmCase& c) {
  return os << const_cast<GemmCase&>(c).name();
}

/// Effective dimensions of the stored operand matrices for a case.
inline std::pair<index_t, index_t> a_dims(const GemmCase& c) {
  return c.ta == Trans::kTrans ? std::pair{c.k, c.m} : std::pair{c.m, c.k};
}
inline std::pair<index_t, index_t> b_dims(const GemmCase& c) {
  return c.tb == Trans::kTrans ? std::pair{c.n, c.k} : std::pair{c.k, c.n};
}

/// Build random operands for a case; all deterministic under `seed`.
template <typename T>
struct Problem {
  Matrix<T> a, b, c;

  explicit Problem(const GemmCase& cs, std::uint64_t seed = 7,
                   index_t ld_slack = 0) {
    const auto [am, an] = a_dims(cs);
    const auto [bm, bn] = b_dims(cs);
    a = Matrix<T>(am, an, am + ld_slack);
    b = Matrix<T>(bm, bn, bm + ld_slack);
    c = Matrix<T>(cs.m, cs.n, cs.m + ld_slack);
    a.fill_random(seed);
    b.fill_random(seed + 1);
    c.fill_random(seed + 2);
  }
};

/// The one reference GEMM of the suite: C = alpha*op(A)*op(B) + beta*C via
/// the naive column-major oracle, both precisions (the per-file
/// naive_dgemm/naive_sgemm wrappers collapsed here).
template <typename T>
void naive_ref_gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                    T alpha, const T* a, index_t lda, const T* b, index_t ldb,
                    T beta, T* c, index_t ldc) {
  if constexpr (sizeof(T) == 8) {
    baseline::naive_dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                          ldc);
  } else {
    baseline::naive_sgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                          ldc);
  }
}

/// Reference result of a case via naive_ref_gemm (column-major).
template <typename T>
Matrix<T> reference_result(const GemmCase& cs, const Problem<T>& p) {
  Matrix<T> ref = p.c.clone();
  naive_ref_gemm<T>(cs.ta, cs.tb, cs.m, cs.n, cs.k, T(cs.alpha), p.a.data(),
                    p.a.ld(), p.b.data(), p.b.ld(), T(cs.beta), ref.data(),
                    ref.ld());
  return ref;
}

// ---------------------------------------------------------------------------
// int8 quantized-path helpers (core/gemm_i8.hpp), shared by test_int8.cpp
// and the fuzz sweeps.
// ---------------------------------------------------------------------------

/// Uniform random s8 matrix over the full [-128, 127] lane range.  The
/// generic Matrix::fill_random draws uniform *doubles* in [-1, 1) — cast to
/// int8 that is almost surely 0 or -1 — so the int8 suites draw raw lanes.
inline Matrix<std::int8_t> random_i8_matrix(index_t rows, index_t cols,
                                            std::uint64_t seed,
                                            index_t ld = 0) {
  Matrix<std::int8_t> m(rows, cols, ld);
  Xoshiro256 rng(seed);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      m(i, j) = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
    }
  }
  return m;
}

/// The int8 oracle: widened-int64 exact inner sum plus a mirror of the
/// dequantize epilogue's double arithmetic (ExactDomain::store in
/// core/checksum_domain.hpp).  The
/// int8 suites compare against it at tolerance ZERO, so the association
/// order of the scale product must match the library's exactly: a
/// row-major call is normalized to the transposed column-major problem
/// with swapped QuantParams, making its product (alpha*sb)*sa — one ULP
/// away from (alpha*sa)*sb in general — hence the `row` branch below.
/// The integer sum itself needs no such care: it is exact either way.
inline void naive_ref_gemm_i8(Layout layout, Trans ta, Trans tb, index_t m,
                              index_t n, index_t k, float alpha,
                              const std::int8_t* a, index_t lda,
                              const std::int8_t* b, index_t ldb, float beta,
                              float* c, index_t ldc,
                              const QuantParams& qp = {}) {
  const bool row = layout == Layout::kRowMajor;
  auto a_at = [&](index_t i, index_t kk) {
    const index_t r = ta == Trans::kNoTrans ? i : kk;
    const index_t s = ta == Trans::kNoTrans ? kk : i;
    return std::int64_t(row ? a[r * lda + s] : a[s * lda + r]);
  };
  auto b_at = [&](index_t kk, index_t j) {
    const index_t r = tb == Trans::kNoTrans ? kk : j;
    const index_t s = tb == Trans::kNoTrans ? j : kk;
    return std::int64_t(row ? b[r * ldb + s] : b[s * ldb + r]);
  };
  auto c_at = [&](index_t i, index_t j) -> float& {
    return row ? c[i * ldc + j] : c[j * ldc + i];
  };
  if (k == 0 || alpha == 0.0f) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        float& cr = c_at(i, j);
        cr = beta == 0.0f ? 0.0f : float(double(beta) * double(cr));
      }
    }
    return;
  }
  const double sab = row
      ? double(alpha) * double(qp.scale_b) * double(qp.scale_a)
      : double(alpha) * double(qp.scale_a) * double(qp.scale_b);
  const std::int64_t za = qp.zero_a, zb = qp.zero_b;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      std::int64_t s = 0;
      for (index_t kk = 0; kk < k; ++kk) {
        s += (a_at(i, kk) - za) * (b_at(kk, j) - zb);
      }
      float& cr = c_at(i, j);
      const double v = sab * double(s);
      cr = beta == 0.0f ? float(v) : float(v + double(beta) * double(cr));
    }
  }
}

/// Random per-tensor QuantParams spanning exact and inexact scales and the
/// full zero-point range.
inline QuantParams random_quant_params(Xoshiro256& rng) {
  static constexpr float kScales[] = {1.0f, 0.5f, 0.125f, 0.02f, 3.0f};
  QuantParams qp;
  qp.scale_a = kScales[rng.bounded(5)];
  qp.scale_b = kScales[rng.bounded(5)];
  qp.zero_a = std::int32_t(rng.bounded(256)) - 128;
  qp.zero_b = std::int32_t(rng.bounded(256)) - 128;
  return qp;
}

/// Rounding-error budget for an m*n*k GEMM comparison against a different
/// summation order.
template <typename T>
double gemm_tolerance(index_t k) {
  const double eps = std::numeric_limits<T>::epsilon();
  return 64.0 * eps * std::sqrt(double(std::max<index_t>(k, 1)));
}

/// Euclidean norm of column 0 of `v`.
inline double norm2(const Matrix<double>& v) {
  double sum = 0.0;
  for (index_t i = 0; i < v.rows(); ++i) sum += v(i, 0) * v(i, 0);
  return std::sqrt(sum);
}

/// The one matrix comparison of the suite.  tol > 0 compares the
/// denominator-guarded relative difference (max_rel_diff) against tol;
/// tol == 0 demands bit-identity (max_abs_diff exactly zero — the FT-vs-Ori
/// and thread-count contracts).  On failure, names the worst element.
template <typename T>
void expect_matrix_near(const Matrix<T>& got, const Matrix<T>& want,
                        double tol, const std::string& label = "") {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  double worst = 0.0;
  index_t wi = 0, wj = 0;
  for (index_t j = 0; j < got.cols(); ++j) {
    for (index_t i = 0; i < got.rows(); ++i) {
      const double x = double(got(i, j)), y = double(want(i, j));
      // A NaN pair is "equal" only when both sides are NaN (bit-identity
      // of a NaN-producing case); any other NaN involvement is an
      // unconditional mismatch — |NaN - y| must not vanish into the max.
      if (std::isnan(x) || std::isnan(y)) {
        if (std::isnan(x) && std::isnan(y)) continue;
        worst = std::numeric_limits<double>::infinity();
        wi = i;
        wj = j;
        continue;
      }
      const double denom =
          tol == 0.0 ? 1.0 : std::max({std::abs(x), std::abs(y), 1.0});
      const double diff = std::abs(x - y) / denom;
      if (diff > worst) {
        worst = diff;
        wi = i;
        wj = j;
      }
    }
  }
  EXPECT_LE(worst, tol) << label << (label.empty() ? "" : ": ")
                        << "worst element (" << wi << ", " << wj << "): got "
                        << double(got(wi, wj)) << ", want "
                        << double(want(wi, wj))
                        << (tol == 0.0 ? " (bit-identity required)" : "");
}

}  // namespace ftgemm::testing
