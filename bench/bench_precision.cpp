// Mixed precision: bf16/fp16 storage with fp32 accumulation vs plain fp32
// (docs/DESIGN.md §10).
//
// Narrow storage halves the bytes per operand element, so at
// bandwidth-bound sizes the same GFLOPS costs half the memory traffic.
// The headline metric is the *effective bandwidth amplification* on a
// bytes-per-GFLOP basis:
//
//     eff_bw = (bf16 GFLOPS / fp32 GFLOPS) * (fp32 bytes / bf16 bytes)
//            = 2 * bf16_GF / f32_GF
//
// Acceptance (ISSUE 8): eff_bw >= 1.5x at 1024^3 with fused-FT overhead
// on the bf16 path <= 6%, and convert-on-pack throughput >= 1.8x fp32 on
// the same bytes basis (the pack comments above the table).
//
// The pack comparison runs the fused FT packers (pack_a_ft) on one
// L2-resident macro-tile: the fp32 packer moves 4 bytes per element, the
// widening bf16/fp16 packers 2, so equal element rates mean 2x the panel
// elements per operand byte.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

namespace {

/// Median million-elements-per-second over reps of fn() packing `elems`.
template <typename Fn>
double median_melems(double elems, int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(std::size_t(reps));
  fn();  // warm-up
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    const double s = t.seconds();
    samples.push_back(s > 0 ? elems / s / 1e6 : 0.0);
  }
  return compute_stats(samples).median;
}

/// Element rate of the fused FT A-packer for one (StorageT -> fp32) pair
/// on an mc x kc tile (<float, float> is the classic fp32 packer).
template <typename S>
double pack_a_ft_melems(Isa isa, index_t mc, index_t kc, int reps) {
  const KernelSet<S, float> ks = get_kernel_set<S, float>(isa);
  Matrix<S> a(mc, kc);
  a.fill_random(7);
  const OperandView<S> view{a.data(), a.ld(), false};
  const index_t panels = (mc + ks.mr - 1) / ks.mr;
  std::vector<float> dst(std::size_t(panels * ks.mr * kc));
  std::vector<float> bc(std::size_t(kc), 0.5f);
  std::vector<float> cc(static_cast<std::size_t>(mc));
  return median_melems(double(mc) * double(kc), reps, [&] {
    std::fill(cc.begin(), cc.end(), 0.0f);
    ks.pack.pack_a_ft(view, 0, 0, mc, kc, ks.mr, 1.25f, dst.data(),
                      bc.data(), cc.data());
  });
}

/// Square workload with narrow operands and fp32 C.
template <typename S>
struct MixedWorkload {
  index_t n;
  Matrix<S> a, b;
  Matrix<float> c;

  explicit MixedWorkload(index_t size, std::uint64_t seed = 42)
      : n(size), a(size, size), b(size, size), c(size, size) {
    a.fill_random(seed);
    b.fill_random(seed + 1);
    c.fill(0.0f);
  }
};

}  // namespace

int main() {
  const int reps = bench_reps();
  const Isa isa = select_isa();

  // Pack-engine comparison on one L2-resident macro-tile (bytes basis).
  {
    const index_t edge = env_long("FTGEMM_BENCH_SIZE", 192);
    const double f32 = pack_a_ft_melems<float>(isa, edge, edge, reps);
    const double bf16 = pack_a_ft_melems<bf16_t>(isa, edge, edge, reps);
    const double f16 = pack_a_ft_melems<fp16_t>(isa, edge, edge, reps);
    std::printf("# pack_a_ft %lldx%lld Melem/s: f32=%.0f bf16=%.0f f16=%.0f"
                " bytes_basis_bf16=%.2fx bytes_basis_f16=%.2fx\n",
                static_cast<long long>(edge), static_cast<long long>(edge),
                f32, bf16, f16, f32 > 0 ? 2.0 * bf16 / f32 : 0.0,
                f32 > 0 ? 2.0 * f16 / f32 : 0.0);
  }

  print_header(
      "bf16/fp16 storage vs fp32: serial square GEMM (median GFLOPS)",
      "DESIGN.md section 10 (mixed precision; bytes-per-GFLOP basis)", 1,
      {"f32_GF", "bf16_GF", "bf16ft_GF", "f16ft_GF", "eff_bw", "ft_ovh_%"});

  GemmEngine<float> f32_engine;
  f32_engine.options().threads = 1;
  GemmEngine<bf16_t, float> bf16_engine;
  bf16_engine.options().threads = 1;
  GemmEngine<fp16_t, float> f16_engine;
  f16_engine.options().threads = 1;

  for (const index_t n : square_sizes(256)) {
    SquareWorkload<float> wf(n);
    MixedWorkload<bf16_t> wb(n);
    MixedWorkload<fp16_t> wh(n);

    const double f32_gf = median_gflops(n, n, n, reps, [&] {
      f32_engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                      n, n, 1.0f, wf.a.data(), n, wf.b.data(), n, 0.0f,
                      wf.c.data(), n);
    });
    const double bf16_gf = median_gflops(n, n, n, reps, [&] {
      bf16_engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
                       n, n, n, 1.0f, wb.a.data(), n, wb.b.data(), n, 0.0f,
                       wb.c.data(), n);
    });
    const double bf16_ft_gf = median_gflops(n, n, n, reps, [&] {
      bf16_engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans,
                          Trans::kNoTrans, n, n, n, 1.0f, wb.a.data(), n,
                          wb.b.data(), n, 0.0f, wb.c.data(), n);
    });
    const double f16_ft_gf = median_gflops(n, n, n, reps, [&] {
      f16_engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
                         n, n, n, 1.0f, wh.a.data(), n, wh.b.data(), n, 0.0f,
                         wh.c.data(), n);
    });

    const double eff_bw = f32_gf > 0 ? 2.0 * bf16_gf / f32_gf : 0.0;
    const double ft_ovh =
        bf16_gf > 0 ? 100.0 * (bf16_gf - bf16_ft_gf) / bf16_gf : 0.0;
    std::printf("%-8lld%14.2f%14.2f%14.2f%14.2f%14.2f%14.2f\n",
                static_cast<long long>(n), f32_gf, bf16_gf, bf16_ft_gf,
                f16_ft_gf, eff_bw, ft_ovh);
    std::fflush(stdout);
  }
  return 0;
}
