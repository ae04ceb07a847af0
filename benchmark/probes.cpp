// Per-layer probes (see probes.hpp).  Every timing is a median over
// repeated calls on warm data; rates count source plus packed bytes for the
// pack engine and 2*m*n*k for kernels.
#include "probes.hpp"

#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <vector>

#include "abft/verifier.hpp"
#include "arch/cpu_features.hpp"
#include "core/gemm.hpp"
#include "core/gemm_i8.hpp"
#include "core/operand_cache.hpp"
#include "core/plan.hpp"
#include "inject/injectors.hpp"
#include "runtime/team.hpp"
#include "runtime/topology.hpp"
#include "util/aligned_buffer.hpp"
#include "util/matrix.hpp"

namespace suite {
namespace {

using namespace ftgemm;
constexpr Trans kN = Trans::kNoTrans;
constexpr Layout kCol = Layout::kColMajor;

// Storing each probe's result keeps the timed work from being optimized
// away; run_peak runs on several threads at once, hence the atomic.
std::atomic<double> g_sink{0};
void keep(double v) { g_sink.store(v, std::memory_order_relaxed); }

// Each mix runs twelve independent accumulator chains, enough to cover the
// latency of the multiply-add on two ports.
__attribute__((target("avx512f"))) double chains_f64_avx512(long iters) {
  __m512d acc[12];
  for (int r = 0; r < 12; ++r) acc[r] = _mm512_set1_pd(1.0 + 1e-3 * r);
  const __m512d a = _mm512_set1_pd(0.9999999), b = _mm512_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int r = 0; r < 12; ++r) acc[r] = _mm512_fmadd_pd(acc[r], a, b);
  __m512d s = acc[0];
  for (int r = 1; r < 12; ++r) s = _mm512_add_pd(s, acc[r]);
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, s);
  return lanes[0];
}

__attribute__((target("avx512f"))) double chains_f32_avx512(long iters) {
  __m512 acc[12];
  for (int r = 0; r < 12; ++r) acc[r] = _mm512_set1_ps(1.0f + 1e-3f * float(r));
  const __m512 a = _mm512_set1_ps(0.99999f), b = _mm512_set1_ps(1e-5f);
  for (long i = 0; i < iters; ++i)
    for (int r = 0; r < 12; ++r) acc[r] = _mm512_fmadd_ps(acc[r], a, b);
  __m512 s = acc[0];
  for (int r = 1; r < 12; ++r) s = _mm512_add_ps(s, acc[r]);
  alignas(64) float lanes[16];
  _mm512_store_ps(lanes, s);
  return lanes[0];
}

__attribute__((target("avx512f,avx512vnni"))) double chains_i8_vnni(long iters) {
  __m512i acc[12];
  for (int r = 0; r < 12; ++r) acc[r] = _mm512_set1_epi32(r);
  const __m512i a = _mm512_set1_epi8(3), b = _mm512_set1_epi8(-2);
  for (long i = 0; i < iters; ++i)
    for (int r = 0; r < 12; ++r) acc[r] = _mm512_dpbusd_epi32(acc[r], a, b);
  __m512i s = acc[0];
  for (int r = 1; r < 12; ++r) s = _mm512_add_epi32(s, acc[r]);
  alignas(64) int lanes[16];
  _mm512_store_si512(lanes, s);
  return lanes[0];
}

__attribute__((target("avx2,fma"))) double chains_f64_avx2(long iters) {
  __m256d acc[12];
  for (int r = 0; r < 12; ++r) acc[r] = _mm256_set1_pd(1.0 + 1e-3 * r);
  const __m256d a = _mm256_set1_pd(0.9999999), b = _mm256_set1_pd(1e-7);
  for (long i = 0; i < iters; ++i)
    for (int r = 0; r < 12; ++r) acc[r] = _mm256_fmadd_pd(acc[r], a, b);
  __m256d s = acc[0];
  for (int r = 1; r < 12; ++r) s = _mm256_add_pd(s, acc[r]);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, s);
  return lanes[0];
}

__attribute__((target("avx2,fma"))) double chains_f32_avx2(long iters) {
  __m256 acc[12];
  for (int r = 0; r < 12; ++r) acc[r] = _mm256_set1_ps(1.0f + 1e-3f * float(r));
  const __m256 a = _mm256_set1_ps(0.99999f), b = _mm256_set1_ps(1e-5f);
  for (long i = 0; i < iters; ++i)
    for (int r = 0; r < 12; ++r) acc[r] = _mm256_fmadd_ps(acc[r], a, b);
  __m256 s = acc[0];
  for (int r = 1; r < 12; ++r) s = _mm256_add_ps(s, acc[r]);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, s);
  return lanes[0];
}

// Without VNNI the int8 kernels widen to int16 and multiply-add in pairs.
__attribute__((target("avx2"))) double chains_i8_avx2(long iters) {
  __m256i acc[12];
  for (int r = 0; r < 12; ++r) acc[r] = _mm256_set1_epi32(r);
  const __m256i b = _mm256_set1_epi16(-2);
  for (long i = 0; i < iters; ++i)
    for (int r = 0; r < 12; ++r)
      acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(acc[r], b));
  __m256i s = acc[0];
  for (int r = 1; r < 12; ++r) s = _mm256_add_epi32(s, acc[r]);
  alignas(32) int lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), s);
  return lanes[0];
}

void fill_random(double* p, std::size_t count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < count; ++i) p[i] = rng.uniform(-1, 1);
}

index_t round_up(index_t v, index_t to) { return (v + to - 1) / to * to; }

Options threads_opts(int threads) {
  Options o;
  o.threads = threads;
  return o;
}

}  // namespace

double run_peak(PeakKind kind, long iters) {
  const CpuFeatures& f = cpu_features();
  const bool wide = f.has_avx512_kernel_support();
  double lanes = 0;
  switch (kind) {
    case PeakKind::kF64:
      keep(wide ? chains_f64_avx512(iters) : chains_f64_avx2(iters));
      lanes = wide ? 8 : 4;
      break;
    case PeakKind::kF32:
      keep(wide ? chains_f32_avx512(iters) : chains_f32_avx2(iters));
      lanes = wide ? 16 : 8;
      break;
    case PeakKind::kI8:
      if (wide && f.avx512vnni) {
        keep(chains_i8_vnni(iters));
        lanes = 64;  // 16 lanes x 4 byte products
      } else {
        keep(chains_i8_avx2(iters));
        lanes = 16;  // 8 lanes x 2 int16 products
      }
      break;
  }
  return 2.0 * 12.0 * lanes * double(iters);
}

void probe_kernels(const ProbeConfig& cfg, Report& out) {
  const index_t n = cfg.n;
  const Options opts = threads_opts(cfg.threads);
  const GemmPlan<double> plan = build_plan<double>(kN, kN, n, n, n, opts, true);
  const KernelSet<double>& ks = plan.kernels;
  const index_t mr = ks.mr, nr = ks.nr;
  const index_t kc = std::min(plan.blocking.kc, n);
  const index_t mlen = std::min(plan.blocking.mc, n);
  const index_t nlen = std::min(plan.blocking.nc, n);
  const index_t mpad = round_up(mlen, mr), npad = round_up(nlen, nr);

  const long iters = 200'000;
  const double peak =
      run_peak(PeakKind::kF64, iters) /
      median_seconds([&] { run_peak(PeakKind::kF64, iters); }, 9, 0.05) / 1e9;
  out.add("kernels.peak_gflops", peak, "GFLOP/s");

  // Micro-kernel sweep over an L2-resident MC x KC A block and one KC x NR
  // B panel: the macro kernel's innermost loop.
  {
    AlignedBuffer<double> a(std::size_t(mpad * kc)), b(std::size_t(kc * nr));
    AlignedBuffer<double> c(std::size_t(mpad * nr));
    AlignedBuffer<double> cr(std::size_t(nr * ks.cr_lanes)), cc(static_cast<std::size_t>(mpad));
    fill_random(a.data(), a.size(), cfg.seed);
    fill_random(b.data(), b.size(), cfg.seed + 1);
    std::fill(c.data(), c.data() + c.size(), 0.0);
    std::fill(cr.data(), cr.data() + cr.size(), 0.0);
    std::fill(cc.data(), cc.data() + cc.size(), 0.0);
    const int sweeps = 64;
    const double flops = 2.0 * double(mpad * nr * kc) * sweeps;
    const double base = median_seconds(
        [&] {
          for (int s = 0; s < sweeps; ++s)
            for (index_t it = 0; it < mpad; it += mr)
              ks.base(kc, a.data() + it * kc, b.data(), c.data() + it, mpad);
        },
        9, 0.05);
    const double ft = median_seconds(
        [&] {
          for (int s = 0; s < sweeps; ++s)
            for (index_t it = 0; it < mpad; it += mr)
              ks.ft(kc, a.data() + it * kc, b.data(), c.data() + it, mpad,
                    cr.data(), cc.data() + it);
        },
        9, 0.05);
    out.add("kernels.ukernel_base_gflops", flops / base / 1e9, "GFLOP/s");
    out.add("kernels.ukernel_ft_gflops", flops / ft / 1e9, "GFLOP/s");
    out.add("kernels.ukernel_ft_pct_peak", 100.0 * flops / ft / 1e9 / peak,
            "%");
  }

  // int8 FT micro-kernel on the int8 plan's own tile and depth.
  {
    const GemmPlan<std::int8_t, std::int32_t> p8 =
        build_plan<std::int8_t, std::int32_t>(kN, kN, n, n, n, opts, true);
    const auto& k8 = p8.kernels;
    const index_t kc8 = std::min(p8.blocking.kc, n);
    const index_t mpad8 = round_up(std::min(p8.blocking.mc, n), k8.mr);
    const index_t tile_a = i8_tile_bytes(kc8, k8.mr);
    AlignedBuffer<std::uint8_t> a(std::size_t(mpad8 / k8.mr * tile_a));
    AlignedBuffer<std::int8_t> b(std::size_t(i8_tile_bytes(kc8, k8.nr)));
    AlignedBuffer<std::int32_t> c(std::size_t(mpad8 * k8.nr));
    AlignedBuffer<std::int64_t> cr(std::size_t(k8.nr)), cc(static_cast<std::size_t>(mpad8));
    Xoshiro256 rng(cfg.seed + 2);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::uint8_t(rng.bounded(256));
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
    std::fill(cr.data(), cr.data() + cr.size(), 0);
    std::fill(cc.data(), cc.data() + cc.size(), 0);
    const int sweeps = 64;
    const double ops = 2.0 * double(mpad8 * k8.nr * kc8) * sweeps;
    const double t = median_seconds(
        [&] {
          std::fill(c.data(), c.data() + c.size(), 0);
          for (int s = 0; s < sweeps; ++s)
            for (index_t it = 0; it < mpad8; it += k8.mr)
              k8.ft(kc8, a.data() + (it / k8.mr) * tile_a, b.data(),
                    c.data() + it, mpad8, cr.data(), cc.data() + it);
        },
        9, 0.05);
    out.add("kernels.i8_ukernel_ft_gops", ops / t / 1e9, "GOP/s");
  }

  // Pack engine on the plan's MC x KC (A) and KC x NC (B) blocks.
  {
    Matrix<double> a(n, n), b(n, n);
    a.fill_random(cfg.seed + 3);
    b.fill_random(cfg.seed + 4);
    const OperandView<double> va{a.data(), n, false}, vb{b.data(), n, false};
    AlignedBuffer<double> da(std::size_t(mpad * kc)), db(std::size_t(kc * npad));
    std::vector<double> bc(std::size_t(kc), 0.5), cc(std::size_t(mlen), 0.0);
    std::vector<double> ar(std::size_t(kc), 0.5), cr(std::size_t(nlen), 0.0);
    const PackSet<double>& ps = ks.pack;
    const double a_bytes = 8.0 * double(mlen * kc + mpad * kc);
    const double b_bytes = 8.0 * double(kc * nlen + kc * npad);
    const auto gbs = [](double bytes, double secs) { return bytes / secs / 1e9; };
    out.add("kernels.pack_a_gbs",
            gbs(a_bytes, median_seconds([&] {
                  ps.pack_a(va, 0, 0, mlen, kc, mr, 1.0, da.data());
                }, 9, 0.05)),
            "GB/s");
    out.add("kernels.pack_a_ft_gbs",
            gbs(a_bytes, median_seconds([&] {
                  ps.pack_a_ft(va, 0, 0, mlen, kc, mr, 1.0, da.data(),
                               bc.data(), cc.data());
                }, 9, 0.05)),
            "GB/s");
    out.add("kernels.pack_b_gbs",
            gbs(b_bytes, median_seconds([&] {
                  ps.pack_b(vb, 0, 0, kc, nlen, nr, db.data());
                }, 9, 0.05)),
            "GB/s");
    out.add("kernels.pack_b_ft_gbs",
            gbs(b_bytes, median_seconds([&] {
                  ps.pack_b_ft(vb, 0, 0, kc, nlen, nr, db.data(), ar.data(),
                               cr.data());
                }, 9, 0.05)),
            "GB/s");
  }
  {
    const GemmPlan<bf16_t, float> pb =
        build_plan<bf16_t, float>(kN, kN, n, n, n, opts, true);
    const index_t kcb = std::min(pb.blocking.kc, n);
    const index_t mlb = std::min(pb.blocking.mc, n);
    const index_t mpb = round_up(mlb, pb.kernels.mr);
    Matrix<bf16_t> a(n, n);
    a.fill_random(cfg.seed + 5);
    const OperandView<bf16_t> va{a.data(), n, false};
    AlignedBuffer<float> dst(std::size_t(mpb * kcb));
    std::vector<float> bc(std::size_t(kcb), 0.5f), cc(std::size_t(mlb), 0.0f);
    const double bytes = 2.0 * double(mlb * kcb) + 4.0 * double(mpb * kcb);
    const double t = median_seconds(
        [&] {
          pb.kernels.pack.pack_a_ft(va, 0, 0, mlb, kcb, pb.kernels.mr, 1.0f,
                                    dst.data(), bc.data(), cc.data());
        },
        9, 0.05);
    out.add("kernels.bf16_pack_a_ft_gbs", bytes / t / 1e9, "GB/s");
  }

  // Computed from the plan, not measured: A is re-packed once per NC column
  // block, B once per call.
  const double flops = 2.0 * double(n) * double(n) * double(n);
  const double col_blocks = double((n + plan.blocking.nc - 1) / plan.blocking.nc);
  const double pack_bytes = 8.0 * double(n) * double(n) * (col_blocks + 1.0);
  out.add("kernels.flops_per_call", flops, "FLOP");
  out.add("kernels.pack_bytes_per_call", pack_bytes, "B");
  out.add("kernels.flops_per_pack_byte", flops / pack_bytes, "FLOP/B");
}

void probe_abft(const ProbeConfig& cfg, Report& out) {
  {
    const std::int64_t len = 4096;
    std::vector<double> pred(static_cast<std::size_t>(len)), ref;
    fill_random(pred.data(), pred.size(), cfg.seed);
    ref = pred;
    std::vector<Mismatch> found;
    const int reps = 64;
    const double t = median_seconds(
        [&] {
          for (int r = 0; r < reps; ++r)
            find_mismatches(pred.data(), ref.data(), len, 1e-6, 0, found);
        },
        9, 0.02);
    out.add("abft.scan_ns_per_elem", t / double(reps * len) * 1e9, "ns");
  }
  {
    // The CountInjector(20, magnitude 2.0) pattern: 20 errors at uniform
    // positions of an n x n panel, folded into row and column mismatches.
    Xoshiro256 rng(cfg.seed ^ 0xABF7);
    std::map<std::int64_t, double> rows, cols;
    for (int e = 0; e < 20; ++e) {
      const auto i = std::int64_t(rng.bounded(std::uint64_t(cfg.n)));
      const auto j = std::int64_t(rng.bounded(std::uint64_t(cfg.n)));
      const double d = 2.0 * (rng.uniform() < 0.5 ? -1 : 1) * (0.5 + rng.uniform());
      rows[i] += d;
      cols[j] += d;
    }
    std::vector<Mismatch> r, c;
    for (const auto& [idx, d] : rows) r.push_back({idx, d});
    for (const auto& [idx, d] : cols) c.push_back({idx, d});
    const double t = median_seconds(
        [&] { keep(double(solve_error_assignment(r, c, 1e-9).errors.size())); },
        50, 0.02);
    out.add("abft.solve_us", t * 1e6, "us");
  }
}

double probe_corrected_per_injected(const ProbeConfig& cfg) {
  const index_t n = cfg.n;
  Matrix<double> a(n, n), b(n, n), c(n, n);
  a.fill_random(cfg.seed + 6);
  b.fill_random(cfg.seed + 7);
  CountInjector inj(20, cfg.seed ^ 0x1A7, 2.0);
  Options o = threads_opts(cfg.threads);
  o.injector = &inj;
  std::int64_t corrected = 0;
  for (int r = 0; r < 3; ++r) {
    corrected += ft_dgemm(kCol, kN, kN, n, n, n, 1.0, a.data(), n, b.data(), n,
                          0.0, c.data(), n, o)
                     .errors_corrected;
  }
  const std::size_t injected = inj.injected_count();
  return injected > 0 ? double(corrected) / double(injected) : 0.0;
}

void probe_core(const ProbeConfig& cfg, Report& out) {
  const index_t n = cfg.n;
  const Options opts = threads_opts(cfg.threads);
  {
    const PlanKey key = make_plan_key(kN, kN, n, n, n, opts, true);
    const int batch = 16;
    const double build = median_seconds(
        [&] {
          for (int r = 0; r < batch; ++r)
            keep(double(build_plan<double>(key).num_panels));
        },
        20, 0.02);
    out.add("core.plan_build_us", build / batch * 1e6, "us");
    PlanCache<double> cache;
    const int hits = 4096;
    const double hit = median_seconds(
        [&] {
          for (int r = 0; r < hits; ++r)
            keep(double(cache.get_or_build(kN, kN, n, n, n, opts, true)->threads));
        },
        9, 0.02);
    out.add("core.plan_hit_ns", hit / hits * 1e9, "ns");
  }
  {
    const index_t s = 64;
    Matrix<double> a(s, s), b(s, s), c(s, s);
    a.fill_random(cfg.seed + 8);
    b.fill_random(cfg.seed + 9);
    const double t = median_seconds(
        [&] {
          ft_dgemm(kCol, kN, kN, s, s, s, 1.0, a.data(), s, b.data(), s, 0.0,
                   c.data(), s);
        },
        500, 0.05);
    out.add("core.small_ft_us", t * 1e6, "us");
  }

  // Resident weights at the serving shape: encode (plan + pack + checksums
  // from empty caches), a verified hit, and the same call without
  // residency.
  const index_t s = 128;
  Options res;
  res.resident_a = true;
  {
    Matrix<bf16_t> w(s, s), b(s, s);
    Matrix<float> c(s, s);
    w.fill_random(cfg.seed + 10);
    b.fill_random(cfg.seed + 11);
    ResidentOperand handle;
    const double enc = median_seconds(
        [&] {
          clear_process_caches();
          handle = make_resident_a<bf16_t, float>(kN, kN, s, s, s, 1.0f,
                                                  w.data(), s);
        },
        9, 0.0);
    const auto call = [&](const Options& o) {
      ft_gemm_bf16(kCol, kN, kN, s, s, s, 1.0f, w.data(), s, b.data(), s, 0.0f,
                   c.data(), s, o);
    };
    out.add("core.resident_encode_us", enc * 1e6, "us");
    out.add("core.resident_hit_ft_us",
            median_seconds([&] { call(res); }, 200, 0.02) * 1e6, "us");
    out.add("core.cold_ft_us",
            median_seconds([&] { call(Options{}); }, 200, 0.02) * 1e6, "us");
  }
  {
    Matrix<std::int8_t> w(s, s), b(s, s);
    Matrix<float> c(s, s);
    Xoshiro256 rng(cfg.seed + 12);
    for (index_t j = 0; j < s; ++j)
      for (index_t i = 0; i < s; ++i) {
        w(i, j) = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
        b(i, j) = std::int8_t(std::int32_t(rng.bounded(256)) - 128);
      }
    ResidentOperand handle;
    const double enc = median_seconds(
        [&] {
          clear_process_caches();
          handle = make_resident_a_i8(kN, kN, s, s, s, w.data(), s);
        },
        9, 0.0);
    const auto call = [&](const Options& o) {
      ft_gemm_i8(kCol, kN, kN, s, s, s, 1.0f, w.data(), s, b.data(), s, 0.0f,
                 c.data(), s, QuantParams{}, o);
    };
    out.add("core.i8_resident_encode_us", enc * 1e6, "us");
    out.add("core.i8_resident_hit_ft_us",
            median_seconds([&] { call(res); }, 200, 0.02) * 1e6, "us");
    out.add("core.i8_cold_ft_us",
            median_seconds([&] { call(Options{}); }, 200, 0.02) * 1e6, "us");
  }
}

void probe_runtime(const ProbeConfig& cfg, Report& out) {
  const RuntimeBackend backend = runtime::resolve_backend(RuntimeBackend::kAuto);
  const int nt = cfg.nproc;
  {
    auto empty = [](runtime::TeamMember&) {};
    const int batch = 16;
    const double t = median_seconds(
        [&] {
          for (int r = 0; r < batch; ++r) runtime::run_team(backend, nt, empty);
        },
        50, 0.05);
    out.add("runtime.dispatch_us", t / batch * 1e6, "us");
  }
  {
    const int barriers = 1000;
    auto body = [&](runtime::TeamMember& m) {
      for (int r = 0; r < barriers; ++r) m.barrier();
    };
    const double t = median_seconds([&] { runtime::run_team(backend, nt, body); },
                                    9, 0.05);
    out.add("runtime.barrier_us", t / barriers * 1e6, "us");
  }
  {
    const index_t n = cfg.n;
    Matrix<double> a(n, n), b(n, n), c(n, n);
    a.fill_random(cfg.seed + 13);
    b.fill_random(cfg.seed + 14);
    const auto ft = [&](int threads) {
      return median_seconds(
          [&] {
            ft_dgemm(kCol, kN, kN, n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                     c.data(), n, threads_opts(threads));
          },
          3, 0.2);
    };
    const double t1 = ft(1), tn = ft(nt);
    out.add("runtime.scaling_eff", t1 / (double(nt) * tn), "ratio");
  }
}

}  // namespace suite
