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
// Every rep times one fp32 call, then gemm_i8 and ft_gemm_i8 back to back,
// alternating which of the two runs first, so machine drift lands on both
// int8 series alike.  `ft_ovh_%` is the median of the per-rep FT/Ori time
// ratio, minus 1.  The FT call must leave C bit-identical to the Ori call
// and report clean: integer checksums are compared at tolerance 0, so a
// detection on clean operands is a false positive.  `falsepos` counts the
// detections over every timed FT rep; any detection, unclean report or C
// mismatch makes the harness exit 1.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/gemm_i8.hpp"
#include "util/rng.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

namespace {

/// Square workload with full-range s8 operands and one fp32 C per int8
/// series.  The generic Matrix::fill_random draws doubles in [-1, 1) —
/// useless lanes for int8 — so the operands are drawn directly.
struct I8Workload {
  index_t n;
  Matrix<std::int8_t> a, b;
  Matrix<float> c_ori, c_ft;

  explicit I8Workload(index_t size, std::uint64_t seed = 42)
      : n(size), a(size, size), b(size, size), c_ori(size, size),
        c_ft(size, size) {
    Xoshiro256 rng(seed);
    for (index_t j = 0; j < size; ++j) {
      for (index_t i = 0; i < size; ++i) {
        a(i, j) = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
        b(i, j) = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
      }
    }
    c_ori.fill(0.0f);
    c_ft.fill(0.0f);
  }
};

}  // namespace

int main() {
  const int reps = bench_reps();

  print_header(
      "int8 storage + integer checksums vs fp32: serial square GEMM "
      "(median GFLOPS; Ori and FT interleaved per rep)",
      "DESIGN.md section 11 (int8 quantization; bytes-per-GFLOP basis)", 1,
      {"f32_GF", "i8_GF", "i8ft_GF", "eff_bw", "ft_ovh_%", "falsepos"});

  GemmEngine<float> f32_engine;
  f32_engine.options().threads = 1;
  GemmEngineI8 i8_engine;
  i8_engine.options().threads = 1;
  const QuantParams qp{0.05f, 0.05f, 3, -5};

  bool ok = true;
  std::int64_t false_positives = 0;
  for (const index_t n : square_sizes(256)) {
    SquareWorkload<float> wf(n);
    I8Workload wi(n);
    const auto f32_call = [&] {
      f32_engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                      n, n, 1.0f, wf.a.data(), n, wf.b.data(), n, 0.0f,
                      wf.c.data(), n);
    };
    const auto ori_call = [&] {
      i8_engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                     n, n, 1.0f, wi.a.data(), n, wi.b.data(), n, 0.0f,
                     wi.c_ori.data(), n, qp);
    };
    const auto ft_call = [&] {
      const FtReport rep = i8_engine.ft_gemm(
          Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0f,
          wi.a.data(), n, wi.b.data(), n, 0.0f, wi.c_ft.data(), n, qp);
      false_positives += rep.errors_detected;
      if (!rep.clean()) ok = false;
    };
    const auto timed = [](const auto& call) {
      const WallTimer t;
      call();
      return t.seconds();
    };

    // Warm-up (first touch of workspaces and plans), untimed.
    f32_call();
    ori_call();
    ft_call();
    std::vector<double> f32_s, ori_s, ft_s, ratio;
    for (int r = 0; r < reps; ++r) {
      f32_s.push_back(timed(f32_call));
      double t_ori = 0.0, t_ft = 0.0;
      if (r % 2 == 0) {
        t_ori = timed(ori_call);
        t_ft = timed(ft_call);
      } else {
        t_ft = timed(ft_call);
        t_ori = timed(ori_call);
      }
      ori_s.push_back(t_ori);
      ft_s.push_back(t_ft);
      ratio.push_back(t_ft / t_ori);
      if (std::memcmp(wi.c_ori.data(), wi.c_ft.data(),
                      sizeof(float) * std::size_t(n) * std::size_t(n)) != 0) {
        ok = false;
      }
    }

    const auto gflops = [n](const std::vector<double>& secs) {
      const double t = compute_stats(secs).median;
      return gemm_gflops(double(n), double(n), double(n), t);
    };
    const double f32_gf = gflops(f32_s);
    const double i8_gf = gflops(ori_s);
    const double i8_ft_gf = gflops(ft_s);
    const double eff_bw = f32_gf > 0 ? 4.0 * i8_gf / f32_gf : 0.0;
    const double ft_ovh = 100.0 * (compute_stats(ratio).median - 1.0);
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f%14.2f%14lld\n",
                static_cast<long long>(n), f32_gf, i8_gf, i8_ft_gf, eff_bw,
                ft_ovh, static_cast<long long>(false_positives));
    std::fflush(stdout);
  }
  if (!ok || false_positives != 0) {
    std::fprintf(stderr,
                 "bench_int8: FT C differs from Ori C or an FT report is "
                 "not clean\n");
    return 1;
  }
  return 0;
}
