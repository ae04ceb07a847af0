// Resident-operand cache (core/operand_cache.hpp): the fault-injection &
// differential suite behind the serving-weights tentpole.
//
//   1. Cold-vs-hit bit-identity: for shapes x transposes x fp32/fp64 x
//      every executable ISA x FT/Ori, the C delivered from a resident
//      cache hit is bit-identical to the cold (per-call pack+encode) path —
//      on both the fast path and the general blocked path at 2 threads.
//   2. LRU eviction and capacity/byte accounting on a standalone cache.
//   3. Concurrent hit/miss traffic from 6 submitter threads, and 8 threads
//      released together on one cold weight (one encode, seven waiting
//      hits).
//   4. Negative keying cases: stale pointer, mutated (sampled) content,
//      different alpha — all must miss, never alias; plus the documented
//      fingerprint-collision contract for mutations the sampled grid
//      cannot see.
//   5. Memory-fault campaign: PanelBitFlipInjector corrupts the resident
//      panels on hits; the CHECK_BEFORE re-verification detects, heals by
//      re-encoding from the source, and the delivered C matches
//      naive_ref_gemm / the cold path bit-for-bit.  Without verification,
//      the corruption is still not silent (compute-domain ABFT flags it).
//      A sweep over every bit of sampled fp64/fp32/bf16 panel elements
//      finds no flip the integrity sums miss.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <type_traits>
#include <vector>

#include "arch/cpu_features.hpp"
#include "arch/isa.hpp"
#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/gemm_batched.hpp"
#include "core/operand_cache.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::expect_matrix_near;
using testing::GemmCase;
using testing::naive_ref_gemm;
using testing::Problem;
using testing::reference_result;
using testing::seed_note;
using testing::test_seed;

std::vector<Isa> executable_isas() {
  std::vector<Isa> v{Isa::kScalar};
  if (cpu_features().has_avx2_kernel_support()) v.push_back(Isa::kAvx2);
  if (cpu_features().has_avx512_kernel_support()) v.push_back(Isa::kAvx512);
  return v;
}

template <typename T>
FtReport run_gemm(bool ft, const GemmCase& cs, const Problem<T>& p,
                  Matrix<T>& c, const Options& opts) {
  if (ft) {
    if constexpr (sizeof(T) == 8) {
      return ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                      T(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                      T(cs.beta), c.data(), c.ld(), opts);
    } else {
      return ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                      T(cs.alpha), p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                      T(cs.beta), c.data(), c.ld(), opts);
    }
  }
  if constexpr (sizeof(T) == 8) {
    dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, T(cs.alpha),
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), T(cs.beta), c.data(),
          c.ld(), opts);
  } else {
    sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, T(cs.alpha),
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), T(cs.beta), c.data(),
          c.ld(), opts);
  }
  return {};
}

// ---------------------------------------------------------------------------
// 1. Cold vs miss vs hit: bit-identity across the full matrix of paths.
// ---------------------------------------------------------------------------

template <typename T>
void cold_vs_hit_sweep(bool general_path) {
  const std::uint64_t seed = test_seed(1311);
  std::vector<GemmCase> cases;
  for (Trans ta : {Trans::kNoTrans, Trans::kTrans}) {
    for (Trans tb : {Trans::kNoTrans, Trans::kTrans}) {
      cases.push_back({24, 16, 20, ta, tb, 1.25, 0.5});
    }
  }
  cases.push_back({97, 63, 40, Trans::kNoTrans, Trans::kNoTrans, -0.75, 1.0});
  cases.push_back({80, 48, 330, Trans::kTrans, Trans::kNoTrans, 1.0, 0.0});

  // All problems live simultaneously with per-case seeds: distinct operand
  // addresses AND contents, so a freed-and-reused allocation can never
  // alias an earlier case's cache entry (the A-side key ignores tb).
  std::vector<Problem<T>> problems;
  problems.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    problems.emplace_back(cases[i], seed + i, /*ld_slack=*/3);
  }

  for (const Isa isa : executable_isas()) {
    for (const bool ft : {true, false}) {
      for (std::size_t ci = 0; ci < cases.size(); ++ci) {
        const GemmCase& cs = cases[ci];
        Options opts;
        opts.isa = isa;
        if (general_path) {
          opts.small_fast_path = false;
          opts.threads = 2;
        } else {
          opts.threads = 1;
        }
        const Problem<T>& p = problems[ci];
        const std::string label = std::string(ft ? "ft_" : "ori_") +
                                  std::string(isa_name(isa)) +
                                  (general_path ? "_general_" : "_fast_") +
                                  cs.name();

        Matrix<T> c_cold = p.c.clone();
        run_gemm<T>(ft, cs, p, c_cold, opts);

        opts.resident_a = true;
        Matrix<T> c_miss = p.c.clone();
        const FtReport r_miss = run_gemm<T>(ft, cs, p, c_miss, opts);
        expect_matrix_near(c_miss, c_cold, 0.0, label + " (miss)");

        Matrix<T> c_hit = p.c.clone();
        const FtReport r_hit = run_gemm<T>(ft, cs, p, c_hit, opts);
        expect_matrix_near(c_hit, c_cold, 0.0, label + " (hit)");
        if (ft) {  // Ori entry points return no report to inspect.
          EXPECT_FALSE(r_miss.resident_hit) << label << seed_note(seed);
          EXPECT_TRUE(r_hit.resident_hit) << label << seed_note(seed);
          EXPECT_EQ(r_hit.resident_heals, 0) << label << seed_note(seed);
        }
      }
    }
  }
}

TEST(OperandCacheBitIdentity, FastPathF64) {
  clear_process_caches();
  cold_vs_hit_sweep<double>(/*general_path=*/false);
}

TEST(OperandCacheBitIdentity, FastPathF32) {
  clear_process_caches();
  cold_vs_hit_sweep<float>(/*general_path=*/false);
}

TEST(OperandCacheBitIdentity, GeneralPathF64) {
  clear_process_caches();
  cold_vs_hit_sweep<double>(/*general_path=*/true);
}

TEST(OperandCacheBitIdentity, GeneralPathF32) {
  clear_process_caches();
  cold_vs_hit_sweep<float>(/*general_path=*/true);
}

// FT and Ori requests over the same resident weight share one payload (the
// packed bytes carry no FT state), and results stay correct either way.
TEST(OperandCacheBitIdentity, FtAndOriShareOnePayload) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(1312);
  const GemmCase cs{64, 40, 52, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  const Problem<double> p(cs, seed);
  Options opts;
  opts.threads = 1;
  opts.resident_a = true;

  OperandCache<double>& cache = process_context_cache<double>().operands();
  const OperandCacheStats before = cache.stats();

  Matrix<double> c_ft = p.c.clone();
  const FtReport r1 = run_gemm<double>(true, cs, p, c_ft, opts);
  EXPECT_FALSE(r1.resident_hit);
  Matrix<double> c_ori = p.c.clone();
  run_gemm<double>(false, cs, p, c_ori, opts);

  const OperandCacheStats after = cache.stats();
  EXPECT_EQ(after.misses - before.misses, 1u) << seed_note(seed);
  EXPECT_EQ(after.hits - before.hits, 1u) << seed_note(seed);
  expect_matrix_near(c_ori, c_ft, 0.0, "ft vs ori over one resident payload");
}

// ---------------------------------------------------------------------------
// 2. LRU eviction & capacity accounting (standalone cache instance).
// ---------------------------------------------------------------------------

TEST(OperandCacheLru, EntryCapEvictsLeastRecentlyUsed) {
  const std::uint64_t seed = test_seed(1313);
  const GemmCase cs{32, 24, 28, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  Options opts;
  opts.threads = 1;
  const std::shared_ptr<const GemmPlan<double>> plan =
      process_context_cache<double>().plan(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                           opts, true);

  Matrix<double> a1(cs.m, cs.k), a2(cs.m, cs.k), a3(cs.m, cs.k);
  a1.fill_random(seed);
  a2.fill_random(seed + 1);
  a3.fill_random(seed + 2);

  OperandCache<double> cache(/*capacity=*/2, /*byte_capacity=*/1u << 30);
  const auto acquire = [&](const Matrix<double>& a) {
    return cache.acquire(a.data(), a.ld(), false, 1.0, *plan, nullptr, true);
  };

  EXPECT_FALSE(acquire(a1).hit);
  EXPECT_FALSE(acquire(a2).hit);
  EXPECT_TRUE(acquire(a1).hit);  // a1 now most recent
  EXPECT_FALSE(acquire(a3).hit);  // evicts a2 (LRU)
  EXPECT_TRUE(acquire(a1).hit);
  EXPECT_TRUE(acquire(a3).hit);
  EXPECT_FALSE(acquire(a2).hit) << "evicted entry must re-encode";

  const OperandCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 2u);  // a2 once, then a1 or a3 on a2's return
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.hits, 3u);
  // Byte accounting: exactly two resident payloads of this shape.
  const ResidentAcquisition<double> acq = acquire(a2);
  EXPECT_TRUE(acq.hit);
  EXPECT_EQ(cache.stats().bytes, 2 * acq.payload->bytes());
}

TEST(OperandCacheLru, ByteCapKeepsMostRecentEntry) {
  const std::uint64_t seed = test_seed(1314);
  const GemmCase cs{48, 32, 40, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  Options opts;
  opts.threads = 1;
  const std::shared_ptr<const GemmPlan<double>> plan =
      process_context_cache<double>().plan(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                           opts, true);
  Matrix<double> a1(cs.m, cs.k), a2(cs.m, cs.k);
  a1.fill_random(seed);
  a2.fill_random(seed + 1);

  // Byte capacity below a single payload: the cache must still serve (and
  // keep) the most recent entry, evicting everything older.
  OperandCache<double> cache(/*capacity=*/8, /*byte_capacity=*/1);
  EXPECT_FALSE(
      cache.acquire(a1.data(), a1.ld(), false, 1.0, *plan, nullptr, true)
          .hit);
  EXPECT_FALSE(
      cache.acquire(a2.data(), a2.ld(), false, 1.0, *plan, nullptr, true)
          .hit);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(
      cache.acquire(a2.data(), a2.ld(), false, 1.0, *plan, nullptr, true)
          .hit)
      << "most recent entry stays resident";

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// ---------------------------------------------------------------------------
// 3. Concurrent hit/miss traffic: 6 submitter threads, one shared weight
//    plus a private weight each — every result bit-identical to its cold
//    reference, no lost updates in the counters.
// ---------------------------------------------------------------------------

TEST(OperandCacheConcurrent, SixSubmitterThreads) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(1315);
  constexpr int kThreads = 6;
  constexpr int kIters = 8;
  const GemmCase cs{48, 32, 36, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};

  // One shared weight hit by every thread + one private weight per thread.
  const Problem<double> shared(cs, seed);
  std::vector<Problem<double>> priv;
  priv.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) priv.emplace_back(cs, seed + 10 + t);

  Options cold;
  cold.threads = 1;
  const Matrix<double> shared_ref = [&] {
    Matrix<double> c = shared.c.clone();
    run_gemm<double>(true, cs, shared, c, cold);
    return c;
  }();
  std::vector<Matrix<double>> priv_ref;
  priv_ref.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Matrix<double> c = priv[std::size_t(t)].c.clone();
    run_gemm<double>(true, cs, priv[std::size_t(t)], c, cold);
    priv_ref.push_back(std::move(c));
  }

  OperandCache<double>& cache = process_context_cache<double>().operands();
  const OperandCacheStats before = cache.stats();

  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Options opts;
      opts.threads = 1;
      opts.resident_a = true;
      for (int it = 0; it < kIters; ++it) {
        const bool use_shared = (it + t) % 2 == 0;
        const Problem<double>& p =
            use_shared ? shared : priv[std::size_t(t)];
        const Matrix<double>& want =
            use_shared ? shared_ref : priv_ref[std::size_t(t)];
        Matrix<double> c = p.c.clone();
        run_gemm<double>(true, cs, p, c, opts);
        if (max_abs_diff(c, want) != 0.0) ++failures[std::size_t(t)];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[std::size_t(t)], 0)
        << "thread " << t << " saw a non-bit-identical resident result"
        << seed_note(seed);
  }

  const OperandCacheStats after = cache.stats();
  const std::uint64_t calls = std::uint64_t(kThreads) * kIters;
  EXPECT_EQ(after.hits + after.misses - before.hits - before.misses, calls);
  // 7 distinct operands, each encoded exactly once: concurrent first
  // touches of the shared weight wait for one encode and count as hits.
  EXPECT_EQ(after.misses - before.misses, 7u);
  EXPECT_EQ(after.hits - before.hits, calls - 7u);
  EXPECT_EQ(after.heals - before.heals, 0u);
}

// Concurrent cold calls on one weight encode it once: the first miss
// publishes its slot before encoding, and every other thread counts a hit
// and waits on the slot for that encode instead of encoding the weight
// again.
TEST(OperandCacheConcurrent, ColdKeyEncodesOnceAcrossThreads) {
  const std::uint64_t seed = test_seed(1318);
  constexpr int kThreads = 8;
  const GemmCase cs{256, 64, 256, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  const Problem<double> p(cs, seed);
  Options opts;
  opts.threads = 1;
  const GemmPlan<double> plan =
      build_plan<double>(cs.ta, cs.tb, cs.m, cs.n, cs.k, opts, true);
  OperandCache<double> cache(/*capacity=*/4, /*byte_capacity=*/1u << 30);

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<const void*> payloads(kThreads, nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const ResidentAcquisition<double> acq = cache.acquire(
          p.a.data(), p.a.ld(), false, 1.0, plan, nullptr, true);
      payloads[std::size_t(t)] = acq.payload.get();
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (std::thread& w : workers) w.join();

  const OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u) << seed_note(seed);
  EXPECT_EQ(stats.hits, std::uint64_t(kThreads - 1)) << seed_note(seed);
  EXPECT_EQ(stats.heals, 0u) << seed_note(seed);
  ASSERT_NE(payloads.front(), nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(payloads[std::size_t(t)], payloads.front())
        << "thread " << t << seed_note(seed);
  }
}

// ---------------------------------------------------------------------------
// 4. Negative keying cases.
// ---------------------------------------------------------------------------

TEST(OperandCacheKeying, StalePointerAndContentAndAlphaMiss) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(1316);
  const GemmCase cs{32, 24, 28, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  Options opts;
  opts.threads = 1;
  opts.resident_a = true;

  Problem<double> p(cs, seed);
  Matrix<double> c = p.c.clone();
  EXPECT_FALSE(run_gemm<double>(true, cs, p, c, opts).resident_hit);
  EXPECT_TRUE(run_gemm<double>(true, cs, p, c, opts).resident_hit);

  // Same content, different buffer (a reloaded weight): the pointer differs
  // so the entry must not alias — a fresh encode, then its own hits.
  Problem<double> p2(cs, seed);
  ASSERT_EQ(max_abs_diff(p.a, p2.a), 0.0);
  c = p2.c.clone();
  EXPECT_FALSE(run_gemm<double>(true, cs, p2, c, opts).resident_hit);
  EXPECT_TRUE(run_gemm<double>(true, cs, p2, c, opts).resident_hit);

  // Mutating a fingerprint-sampled element (corner (0, 0) is always on the
  // sampled grid) must miss and re-encode — and the result must reflect the
  // NEW operand, not the stale panels.
  p.a(0, 0) += 1.0;
  Matrix<double> c_cold = p.c.clone();
  {
    Options cold = opts;
    cold.resident_a = false;
    run_gemm<double>(true, cs, p, c_cold, cold);
  }
  c = p.c.clone();
  EXPECT_FALSE(run_gemm<double>(true, cs, p, c, opts).resident_hit)
      << "sampled-content mutation must change the fingerprint"
      << seed_note(seed);
  expect_matrix_near(c, c_cold, 0.0, "post-mutation resident result");

  // Different alpha bakes different panels: distinct entry, correct result.
  GemmCase cs_alpha = cs;
  cs_alpha.alpha = 2.0;
  c = p.c.clone();
  EXPECT_FALSE(run_gemm<double>(true, cs_alpha, p, c, opts).resident_hit);
  expect_matrix_near(c, reference_result(cs_alpha, p),
                     testing::gemm_tolerance<double>(cs.k), "alpha=2 entry");
}

// The documented fingerprint-collision contract: a mutation the sampled
// grid cannot see leaves the key unchanged, so the hit serves the *stale*
// (still internally consistent) panels — the reason resident_a is strictly
// opt-in for operands the caller promises are stable.  The hit-path
// re-verification is about memory faults in the cached bytes, not source
// drift, so it must NOT heal here.
TEST(OperandCacheKeying, UnsampledMutationServesStalePayloadByContract) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(1317);
  const GemmCase cs{16, 12, 16, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  Options opts;
  opts.threads = 1;
  opts.resident_a = true;

  Problem<double> p(cs, seed);
  Matrix<double> c_orig = p.c.clone();
  EXPECT_FALSE(run_gemm<double>(true, cs, p, c_orig, opts).resident_hit);

  // The 8x8 grid over a 16x16 operand samples rows/cols {0,2,4,6,8,10,12,15}
  // (floor((dim-1)*s/7)); element (1, 1) is off-grid.
  p.a(1, 1) += 64.0;
  Matrix<double> c_stale = p.c.clone();
  const FtReport rep = run_gemm<double>(true, cs, p, c_stale, opts);
  EXPECT_TRUE(rep.resident_hit) << seed_note(seed);
  EXPECT_EQ(rep.resident_heals, 0) << seed_note(seed);
  expect_matrix_near(c_stale, c_orig, 0.0,
                     "stale payload served on fingerprint collision");
}

// ---------------------------------------------------------------------------
// 5. Memory-fault campaign: inject panel bit flips on hits, assert
//    detection + self-healing + a correct final result.
// ---------------------------------------------------------------------------

template <typename T>
void heal_campaign(const GemmCase& cs, const Options& base, int flip_bit) {
  const std::uint64_t seed = test_seed(1318);
  const Problem<T> p(cs, seed);
  Options opts = base;
  opts.resident_a = true;

  Matrix<T> c_cold = p.c.clone();
  {
    Options cold = base;
    run_gemm<T>(true, cs, p, c_cold, cold);
  }
  expect_matrix_near(c_cold, reference_result(cs, p),
                     testing::gemm_tolerance<T>(cs.k), "cold sanity");

  Matrix<T> c = p.c.clone();
  EXPECT_FALSE(run_gemm<T>(true, cs, p, c, opts).resident_hit);

  // Corrupt the resident panels on every hit: a high exponent bit, so a
  // silently consumed flip could not hide inside checksum rounding.
  PanelBitFlipInjector injector(/*flips=*/1, seed, flip_bit);
  opts.memory_injector = &injector;
  for (int round = 0; round < 3; ++round) {
    c = p.c.clone();
    const FtReport rep = run_gemm<T>(true, cs, p, c, opts);
    EXPECT_TRUE(rep.resident_hit) << seed_note(seed);
    EXPECT_EQ(rep.resident_heals, 1)
        << "round " << round << ": flip must be detected and healed"
        << seed_note(seed);
    EXPECT_EQ(rep.errors_detected, 0)
        << "healed before compute: no downstream ABFT noise"
        << seed_note(seed);
    expect_matrix_near(c, c_cold, 0.0, "healed hit, round " +
                                           std::to_string(round));
  }
  EXPECT_EQ(injector.applied_count(), 3u);

  // The healed payload is what stays resident: a clean hit afterwards.
  opts.memory_injector = nullptr;
  c = p.c.clone();
  const FtReport rep = run_gemm<T>(true, cs, p, c, opts);
  EXPECT_TRUE(rep.resident_hit);
  EXPECT_EQ(rep.resident_heals, 0);
  expect_matrix_near(c, c_cold, 0.0, "post-heal clean hit");
}

TEST(OperandCacheFaults, PanelFlipHealedF64FastPath) {
  clear_process_caches();
  Options base;
  base.threads = 1;
  heal_campaign<double>({48, 32, 40}, base, /*flip_bit=*/62);
}

TEST(OperandCacheFaults, PanelFlipHealedF64GeneralPath) {
  clear_process_caches();
  Options base;
  base.threads = 2;
  base.small_fast_path = false;
  heal_campaign<double>({96, 56, 330, Trans::kTrans, Trans::kNoTrans}, base,
                        /*flip_bit=*/62);
}

TEST(OperandCacheFaults, PanelFlipHealedF32) {
  clear_process_caches();
  Options base;
  base.threads = 1;
  heal_campaign<float>({48, 32, 40}, base, /*flip_bit=*/30);
}

// With hit-verification off, a corrupted resident panel flows into the
// compute — but not silently: the clean operand checksum Ar (carried beside
// the panels) makes the fused compute-domain verification flag the panel.
TEST(OperandCacheFaults, VerifyOffIsNotSilent) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(1319);
  const GemmCase cs{48, 32, 40, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  const Problem<double> p(cs, seed);
  Options opts;
  opts.threads = 1;
  opts.resident_a = true;
  opts.resident_verify = false;

  Matrix<double> c = p.c.clone();
  EXPECT_FALSE(run_gemm<double>(true, cs, p, c, opts).resident_hit);

  PanelBitFlipInjector injector(/*flips=*/1, seed, /*bit=*/62);
  opts.memory_injector = &injector;
  c = p.c.clone();
  const FtReport rep = run_gemm<double>(true, cs, p, c, opts);
  EXPECT_TRUE(rep.resident_hit);
  EXPECT_EQ(rep.resident_heals, 0) << "verification was off";
  EXPECT_GT(injector.applied_count(), 0u);
  EXPECT_TRUE(rep.errors_detected > 0 || !rep.clean())
      << "a consumed panel corruption must be flagged by compute-domain "
         "ABFT, never silent"
      << seed_note(seed);
}

/// Flips bit `bit` of packed element `elem` of the resident panels on each
/// hit (nothing past the payload's end) and records the payload size.
class OneBitFlip final : public MemoryFaultInjector {
 public:
  OneBitFlip(std::size_t elem, int bit) : elem_(elem), bit_(bit) {}

  void plan_flips(const MemoryStrikeContext& ctx,
                  std::vector<PanelFlip>& out) override {
    if (ctx.surface != MemorySurface::kResidentPanel) return;
    elems_ = ctx.elems;
    if (elem_ < ctx.elems) out.push_back({elem_, bit_});
  }

  [[nodiscard]] std::size_t elems() const { return elems_; }

 private:
  std::size_t elem_;
  int bit_;
  std::size_t elems_ = 0;
};

/// C element type of the FT entry point for storage type S.
template <typename S>
using SweepC = std::conditional_t<std::is_same_v<S, bf16_t>, float, S>;

template <typename S>
FtReport resident_ft(const Matrix<S>& a, const Matrix<S>& b,
                     Matrix<SweepC<S>>& c, const Options& opts) {
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  const auto nt = Trans::kNoTrans;
  if constexpr (std::is_same_v<S, double>) {
    return ft_dgemm(Layout::kColMajor, nt, nt, m, n, k, 1.0, a.data(),
                    a.ld(), b.data(), b.ld(), 0.0, c.data(), c.ld(), opts);
  } else if constexpr (std::is_same_v<S, float>) {
    return ft_sgemm(Layout::kColMajor, nt, nt, m, n, k, 1.0f, a.data(),
                    a.ld(), b.data(), b.ld(), 0.0f, c.data(), c.ld(), opts);
  } else {
    return ft_gemm_bf16(Layout::kColMajor, nt, nt, m, n, k, 1.0f, a.data(),
                        a.ld(), b.data(), b.ld(), 0.0f, c.data(), c.ld(),
                        opts);
  }
}

/// Strike every bit of every 37th packed element of a resident 48^3 A on a
/// hit, one flip per call.  Operands are nonzero (1..9, as in the
/// fault campaign), so every flip of a live element changes C.  No call may
/// come back clean over a C that differs from the fault-free one, and every
/// flip must be caught by the integrity re-verify: low mantissa bits are
/// what a floating-point integrity sum rounds away.
template <typename S>
void resident_bit_sweep(std::uint64_t seed) {
  using C = SweepC<S>;
  constexpr index_t kN = 48;
  auto& operands = process_context_cache<S, C>().operands();
  operands.clear();
  Matrix<S> a(kN, kN), b(kN, kN);
  a.fill_random(seed, S(1.0f), S(9.0f));
  b.fill_random(seed + 1, S(1.0f), S(9.0f));
  Options opts;
  opts.threads = 1;
  opts.resident_a = true;
  Matrix<C> want(kN, kN);
  want.fill(C(0));
  resident_ft<S>(a, b, want, opts);  // miss: encodes the payload

  OneBitFlip probe(std::numeric_limits<std::size_t>::max(), 0);
  opts.memory_injector = &probe;
  Matrix<C> c = want.clone();
  ASSERT_TRUE(resident_ft<S>(a, b, c, opts).resident_hit) << seed_note(seed);
  ASSERT_GT(probe.elems(), 0u);

  int strikes = 0, healed = 0, silent = 0;
  const std::size_t bytes = std::size_t(want.ld() * want.cols()) * sizeof(C);
  for (std::size_t e = 0; e < probe.elems(); e += 37) {
    for (int bit = 0; bit < int(8 * sizeof(S)); ++bit) {
      OneBitFlip flip(e, bit);
      opts.memory_injector = &flip;
      c.fill(C(0));
      const FtReport rep = resident_ft<S>(a, b, c, opts);
      ++strikes;
      healed += rep.resident_heals;
      const bool wrong = std::memcmp(c.data(), want.data(), bytes) != 0;
      if (rep.clean() && wrong) {
        ++silent;
        ADD_FAILURE() << "silent flip: element " << e << " bit " << bit
                      << seed_note(seed);
      }
      if (rep.resident_heals == 0) {
        // The flip is still resident: start the next strike from a fresh
        // encode.
        operands.clear();
        opts.memory_injector = nullptr;
        resident_ft<S>(a, b, c, opts);
      }
    }
  }
  EXPECT_EQ(silent, 0) << seed_note(seed);
  EXPECT_EQ(healed, strikes) << "flips the integrity sums missed"
                             << seed_note(seed);
  operands.clear();
}

TEST(OperandCacheFaults, EveryBitOfSampledResidentF64ElementsIsCaught) {
  resident_bit_sweep<double>(test_seed(1320));
}

TEST(OperandCacheFaults, EveryBitOfSampledResidentF32ElementsIsCaught) {
  resident_bit_sweep<float>(test_seed(1321));
}

TEST(OperandCacheFaults, EveryBitOfSampledResidentBf16ElementsIsCaught) {
  resident_bit_sweep<bf16_t>(test_seed(1322));
}

// ---------------------------------------------------------------------------
// Public handle & batched broadcast.
// ---------------------------------------------------------------------------

TEST(ResidentOperandHandle, PinWarmsAndHolds) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(1320);
  const GemmCase cs{40, 28, 32, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  const Problem<double> p(cs, seed);
  Options opts;
  opts.threads = 1;

  ResidentOperand pin = make_resident_a<double>(
      cs.ta, cs.tb, cs.m, cs.n, cs.k, 1.0, p.a.data(), p.a.ld(), opts);
  ASSERT_TRUE(pin.valid());
  EXPECT_FALSE(pin.hit()) << "first acquire encodes";
  EXPECT_GT(pin.bytes(), 0u);

  // The pre-warmed entry serves the very first GEMM call as a hit.
  opts.resident_a = true;
  Matrix<double> c = p.c.clone();
  EXPECT_TRUE(run_gemm<double>(true, cs, p, c, opts).resident_hit);
  expect_matrix_near(c, reference_result(cs, p),
                     testing::gemm_tolerance<double>(cs.k), "pre-warmed hit");

  ResidentOperand again = make_resident_a<double>(
      cs.ta, cs.tb, cs.m, cs.n, cs.k, 1.0, p.a.data(), p.a.ld(), opts);
  EXPECT_TRUE(again.hit());
  pin.release();
  EXPECT_FALSE(pin.valid());

  // Degenerate problems yield an invalid handle, not a cache entry.
  EXPECT_FALSE(make_resident_a<double>(cs.ta, cs.tb, 0, cs.n, cs.k, 1.0,
                                       p.a.data(), p.a.ld(), opts)
                   .valid());
  EXPECT_FALSE(make_resident_a<double>(cs.ta, cs.tb, cs.m, cs.n, cs.k, 0.0,
                                       p.a.data(), p.a.ld(), opts)
                   .valid());
}

TEST(ResidentOperandHandle, StrideZeroBatchBroadcastHitsOneEntry) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(1321);
  const index_t m = 40, n = 24, k = 32, batch = 5;
  Matrix<double> a(m, k);
  a.fill_random(seed);
  Matrix<double> b(k, n * batch);
  b.fill_random(seed + 1);
  Matrix<double> c(m, n * batch), c_cold(m, n * batch);
  c.fill(0.0);
  c_cold.fill(0.0);

  BatchOptions bopts;
  bopts.base.threads = 2;
  ft_gemm_strided_batched<double>(Layout::kColMajor, Trans::kNoTrans,
                                  Trans::kNoTrans, m, n, k, 1.0, a.data(),
                                  a.ld(), 0, b.data(), b.ld(), k * n, 0.0,
                                  c_cold.data(), c_cold.ld(), m * n, batch,
                                  bopts);

  bopts.base.resident_a = true;
  const BatchReport rep = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0,
      a.data(), a.ld(), 0, b.data(), b.ld(), k * n, 0.0, c.data(), c.ld(),
      m * n, batch, bopts);
  // Stride-0 broadcast A: one member encodes (or a few race to), the rest
  // hit the same entry — and every member is bit-identical to the cold run.
  EXPECT_GE(rep.resident_hits, 1) << seed_note(seed);
  EXPECT_EQ(rep.resident_heals, 0);
  expect_matrix_near(c, c_cold, 0.0, "resident broadcast batch");

  const BatchReport rep2 = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0,
      a.data(), a.ld(), 0, b.data(), b.ld(), k * n, 0.0, c.data(), c.ld(),
      m * n, batch, bopts);
  EXPECT_EQ(rep2.resident_hits, batch) << "fully warm batch" << seed_note(seed);
}

}  // namespace
}  // namespace ftgemm
