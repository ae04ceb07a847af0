// int8-quantized FT-GEMM vs plain fp32 (docs/DESIGN.md §11).
//
// s8 operands are 4x smaller than fp32, so on a bytes-per-GFLOP basis the
// quantized path amplifies effective memory bandwidth by
//
//     eff_bw = (i8 GFLOPS / fp32 GFLOPS) * (fp32 bytes / i8 bytes)
//            = 4 * i8_GF / f32_GF
//
// (GFLOPS counts the same 2*m*n*k multiply-adds on both paths; the int8
// "FLOPs" are integer MACs — vpdpbusd on VNNI hardware.)
//
// Acceptance (ISSUE 9): eff_bw >= 3x at 1024^3 serial, fused integer-ABFT
// overhead <= 6%, and zero verification false positives across the sweep
// at tolerance 0 — the `falsepos` column is the running errors_detected
// total of every timed FT repetition and must read 0 on every row.
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/gemm_i8.hpp"
#include "util/rng.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

namespace {

/// Square workload with full-range s8 operands and fp32 C.  The generic
/// Matrix::fill_random draws doubles in [-1, 1) — useless lanes for int8 —
/// so the operands are drawn directly.
struct I8Workload {
  index_t n;
  Matrix<std::int8_t> a, b;
  Matrix<float> c;

  explicit I8Workload(index_t size, std::uint64_t seed = 42)
      : n(size), a(size, size), b(size, size), c(size, size) {
    Xoshiro256 rng(seed);
    for (index_t j = 0; j < size; ++j) {
      for (index_t i = 0; i < size; ++i) {
        a(i, j) = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
        b(i, j) = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
      }
    }
    c.fill(0.0f);
  }
};

}  // namespace

int main() {
  const int reps = bench_reps();

  print_header(
      "int8 storage + integer checksums vs fp32: serial square GEMM "
      "(median GFLOPS)",
      "DESIGN.md section 11 (int8 quantization; bytes-per-GFLOP basis)", 1,
      {"f32_GF", "i8_GF", "i8ft_GF", "eff_bw", "ft_ovh_%", "falsepos"});

  GemmEngine<float> f32_engine;
  f32_engine.options().threads = 1;
  GemmEngineI8 i8_engine;
  i8_engine.options().threads = 1;
  const QuantParams qp{0.05f, 0.05f, 3, -5};

  std::int64_t false_positives = 0;
  for (const index_t n : square_sizes(256)) {
    SquareWorkload<float> wf(n);
    I8Workload wi(n);

    const double f32_gf = median_gflops(n, n, n, reps, [&] {
      f32_engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                      n, n, 1.0f, wf.a.data(), n, wf.b.data(), n, 0.0f,
                      wf.c.data(), n);
    });
    const double i8_gf = median_gflops(n, n, n, reps, [&] {
      i8_engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                     n, n, 1.0f, wi.a.data(), n, wi.b.data(), n, 0.0f,
                     wi.c.data(), n, qp);
    });
    const double i8_ft_gf = median_gflops(n, n, n, reps, [&] {
      const FtReport rep = i8_engine.ft_gemm(
          Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0f,
          wi.a.data(), n, wi.b.data(), n, 0.0f, wi.c.data(), n, qp);
      false_positives += rep.errors_detected;
    });

    const double eff_bw = f32_gf > 0 ? 4.0 * i8_gf / f32_gf : 0.0;
    const double ft_ovh =
        i8_gf > 0 ? 100.0 * (i8_gf - i8_ft_gf) / i8_gf : 0.0;
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f%14.2f%14lld\n",
                static_cast<long long>(n), f32_gf, i8_gf, i8_ft_gf, eff_bw,
                ft_ovh, static_cast<long long>(false_positives));
    std::fflush(stdout);
  }
  return 0;
}
