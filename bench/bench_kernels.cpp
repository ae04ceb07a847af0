// Micro-benchmarks (google-benchmark): micro-kernel throughput, base vs FT,
// and the packing routines with/without checksum fusion.
//
// These quantify the two ingredients of the paper's fusion argument:
//  (1) the FT kernel epilogue adds only register arithmetic — its GFLOPS
//      should track the base kernel within a few percent;
//  (2) the fused packing variants touch the same memory as the plain ones —
//      their bandwidth should be nearly identical, whereas classic ABFT
//      pays whole extra passes (see bench_overhead).
#include <benchmark/benchmark.h>

#include <vector>

#include "arch/cpu_features.hpp"
#include "kernels/macro_kernel.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/packing.hpp"
#include "util/aligned_buffer.hpp"
#include "util/matrix.hpp"

namespace ftgemm {
namespace {

template <typename T>
KernelSet<T> best_kernels() {
  return get_kernel_set<T>(select_isa());
}

template <typename T>
void BM_microkernel_base(benchmark::State& state) {
  const KernelSet<T> ks = best_kernels<T>();
  const index_t kc = state.range(0);
  AlignedBuffer<T> a(std::size_t(ks.mr * kc));
  AlignedBuffer<T> b(std::size_t(ks.nr * kc));
  AlignedBuffer<T> c(std::size_t(ks.mr * ks.nr));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = T(0.001) * T(i % 97);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = T(0.002) * T(i % 89);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = T(0);

  for (auto _ : state) {
    ks.base(kc, a.data(), b.data(), c.data(), ks.mr);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * double(ks.mr) * double(ks.nr) * double(kc) *
          double(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

template <typename T>
void BM_microkernel_ft(benchmark::State& state) {
  const KernelSet<T> ks = best_kernels<T>();
  const index_t kc = state.range(0);
  AlignedBuffer<T> a(std::size_t(ks.mr * kc));
  AlignedBuffer<T> b(std::size_t(ks.nr * kc));
  AlignedBuffer<T> c(std::size_t(ks.mr * ks.nr));
  AlignedBuffer<T> cr(std::size_t(ks.nr * ks.cr_lanes));
  AlignedBuffer<T> cc(std::size_t(ks.mr));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = T(0.001) * T(i % 97);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = T(0.002) * T(i % 89);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = T(0);
  for (std::size_t i = 0; i < cr.size(); ++i) cr[i] = T(0);
  for (std::size_t i = 0; i < cc.size(); ++i) cc[i] = T(0);

  for (auto _ : state) {
    ks.ft(kc, a.data(), b.data(), c.data(), ks.mr, cr.data(), cc.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * double(ks.mr) * double(ks.nr) * double(kc) *
          double(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

BENCHMARK_TEMPLATE(BM_microkernel_base, double)->Arg(64)->Arg(256)->Arg(384);
BENCHMARK_TEMPLATE(BM_microkernel_ft, double)->Arg(64)->Arg(256)->Arg(384);
BENCHMARK_TEMPLATE(BM_microkernel_base, float)->Arg(256);
BENCHMARK_TEMPLATE(BM_microkernel_ft, float)->Arg(256);

// ---------------------------------------------------------------------------
// Packing: plain vs checksum-fused, bytes/second.
// ---------------------------------------------------------------------------

void BM_pack_a_plain(benchmark::State& state) {
  const index_t m = 512, kc = 256, mr = 16;
  Matrix<double> src(m, kc);
  src.fill_random(1);
  const OperandView<double> view{src.data(), src.ld(), false};
  AlignedBuffer<double> dst(std::size_t(m * kc));
  for (auto _ : state) {
    pack_a(view, 0, 0, m, kc, mr, 1.0, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * m * kc * 8);
}

void BM_pack_a_ft(benchmark::State& state) {
  const index_t m = 512, kc = 256, mr = 16;
  Matrix<double> src(m, kc);
  src.fill_random(1);
  const OperandView<double> view{src.data(), src.ld(), false};
  AlignedBuffer<double> dst(std::size_t(m * kc));
  std::vector<double> bc(std::size_t(kc), 0.5);
  std::vector<double> cc(std::size_t(m), 0.0);
  for (auto _ : state) {
    pack_a_ft(view, 0, 0, m, kc, mr, 1.0, dst.data(), bc.data(), cc.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * m * kc * 8);
}

void BM_pack_b_plain(benchmark::State& state) {
  const index_t kc = 256, n = 1024, nr = 8;
  Matrix<double> src(kc, n);
  src.fill_random(2);
  const OperandView<double> view{src.data(), src.ld(), false};
  AlignedBuffer<double> dst(std::size_t(kc * n));
  for (auto _ : state) {
    pack_b(view, 0, 0, kc, n, nr, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * kc * n * 8);
}

void BM_pack_b_ft(benchmark::State& state) {
  const index_t kc = 256, n = 1024, nr = 8;
  Matrix<double> src(kc, n);
  src.fill_random(2);
  const OperandView<double> view{src.data(), src.ld(), false};
  AlignedBuffer<double> dst(std::size_t(kc * n));
  std::vector<double> ar(std::size_t(kc), 0.25);
  std::vector<double> cr(std::size_t(n), 0.0);
  for (auto _ : state) {
    pack_b_ft(view, 0, 0, kc, n, nr, dst.data(), ar.data(), cr.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * kc * n * 8);
}

void BM_reduce_bc(benchmark::State& state) {
  const index_t kc = 256, n = 1024, nr = 8;
  Matrix<double> src(kc, n);
  src.fill_random(3);
  const OperandView<double> view{src.data(), src.ld(), false};
  AlignedBuffer<double> packed(std::size_t(kc * n));
  pack_b(view, 0, 0, kc, n, nr, packed.data());
  std::vector<double> bc(static_cast<std::size_t>(kc));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reduce_bc_from_panel(packed.data(), kc, n, nr, bc.data(), 0.0));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * kc * n * 8);
}

BENCHMARK(BM_pack_a_plain);
BENCHMARK(BM_pack_a_ft);
BENCHMARK(BM_pack_b_plain);
BENCHMARK(BM_pack_b_ft);
BENCHMARK(BM_reduce_bc);

}  // namespace
}  // namespace ftgemm
