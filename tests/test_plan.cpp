// The plan layer (core/plan.hpp): plan determinism, PlanCache hit/miss
// accounting and LRU eviction, shape-aware blocking, and — the property the
// whole fast path rests on — bit-identical results between the
// single-macro-tile direct path and the general blocked path, Ori and FT,
// across a sweep of small shapes.
#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "core/context.hpp"
#include "core/gemm_i8.hpp"
#include "core/plan.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::GemmCase;
using testing::Problem;
using testing::gemm_tolerance;
using testing::reference_result;

TEST(PlanKey, EqualityAndHashCoverEveryField) {
  Options opts;
  opts.threads = 2;
  const PlanKey base =
      make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48, 64, opts, true);
  EXPECT_EQ(base, make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48, 64,
                                opts, true));
  EXPECT_EQ(PlanKeyHash{}(base),
            PlanKeyHash{}(make_plan_key(Trans::kNoTrans, Trans::kTrans, 32,
                                        48, 64, opts, true)));

  // Each varied input must produce a distinct key.
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 33, 48,
                                     64, opts, true));
  EXPECT_FALSE(base == make_plan_key(Trans::kTrans, Trans::kTrans, 32, 48,
                                     64, opts, true));
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kNoTrans, 32,
                                     48, 64, opts, true));
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, opts, false));
  Options other = opts;
  other.threads = 3;
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, other, true));
  other = opts;
  other.tolerance_factor = 99.0;
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, other, true));
  other = opts;
  other.small_fast_path = false;
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, other, true));
  other = opts;
  other.isa = Isa::kScalar;
  EXPECT_FALSE(base == make_plan_key(Trans::kNoTrans, Trans::kTrans, 32, 48,
                                     64, other, true));
}

TEST(GemmPlan, SameInputsSamePlan) {
  Options opts;
  opts.threads = 2;
  for (const bool ft : {false, true}) {
    const GemmPlan<double> p1 = build_plan<double>(
        Trans::kNoTrans, Trans::kNoTrans, 96, 80, 300, opts, ft);
    const GemmPlan<double> p2 = build_plan<double>(
        Trans::kNoTrans, Trans::kNoTrans, 96, 80, 300, opts, ft);
    EXPECT_EQ(p1.key, p2.key);
    EXPECT_EQ(p1.isa, p2.isa);
    EXPECT_EQ(p1.blocking.mc, p2.blocking.mc);
    EXPECT_EQ(p1.blocking.nc, p2.blocking.nc);
    EXPECT_EQ(p1.blocking.kc, p2.blocking.kc);
    EXPECT_EQ(p1.blocking.mr, p2.blocking.mr);
    EXPECT_EQ(p1.blocking.nr, p2.blocking.nr);
    EXPECT_EQ(p1.threads, p2.threads);
    EXPECT_EQ(p1.num_panels, p2.num_panels);
    EXPECT_EQ(p1.fast_path, p2.fast_path);
    EXPECT_EQ(p1.tol_factor, p2.tol_factor);
    EXPECT_EQ(p1.workspace_bytes, p2.workspace_bytes);
  }
}

TEST(GemmPlan, ResolvesEveryDecision) {
  Options opts;
  opts.threads = 3;
  opts.isa = Isa::kScalar;
  const GemmPlan<double> plan = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 512, 512, 900, opts, true);
  EXPECT_EQ(plan.isa, Isa::kScalar);
  EXPECT_EQ(plan.kernels.isa, Isa::kScalar);
  EXPECT_EQ(plan.threads, 3);
  EXPECT_GT(plan.tol_factor, 0.0);
  EXPECT_GT(plan.workspace_bytes, 0u);
  EXPECT_EQ(plan.num_panels,
            (900 + plan.blocking.kc - 1) / plan.blocking.kc);
  EXPECT_FALSE(plan.k_zero);

  const GemmPlan<double> ori = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 512, 512, 900, opts, false);
  EXPECT_EQ(ori.tol_factor, 0.0) << "Ori plans carry no tolerance";
}

TEST(GemmPlan, FastPathOnlyForSingleMacroTileShapes) {
  Options opts;
  opts.threads = 4;
  // Comfortably inside one macro-tile: fast path, topology pinned to 1.
  const GemmPlan<double> small = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 64, 48, 100, opts, true);
  ASSERT_TRUE(small.fast_path);
  EXPECT_EQ(small.threads, 1);
  EXPECT_EQ(small.num_panels, 1);

  // The shape-aware clamp only ever shrinks blocks toward the problem,
  // never past the cache-derived base — so exceeding a *base* block size in
  // any dimension rules the fast path out.
  const BlockingPlan base = make_plan(small.isa, 8);

  // Depth beyond the base KC: multiple verification panels, general path.
  const GemmPlan<double> deep = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 64, 48, base.kc + 8, opts, true);
  EXPECT_FALSE(deep.fast_path);
  EXPECT_EQ(deep.threads, 4);
  EXPECT_GT(deep.num_panels, 1);

  // Wider than the base NC cannot be a single tile.
  const GemmPlan<double> wide = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 64, base.nc + base.nr, 100, opts,
      true);
  EXPECT_FALSE(wide.fast_path);

  // Fitting one macro-tile is necessary but not sufficient: NC can span
  // thousands of columns, so a full-tile-sized problem can carry far more
  // work than one thread should own — the flop bound keeps it on the
  // threaded general path.
  const double tile_flops =
      2.0 * double(base.mc) * double(base.nc) * double(base.kc);
  if (tile_flops > kFastPathFlopCutoff) {
    const GemmPlan<double> heavy = build_plan<double>(
        Trans::kNoTrans, Trans::kNoTrans, base.mc, base.nc, base.kc, opts,
        true);
    EXPECT_FALSE(heavy.fast_path);
    EXPECT_EQ(heavy.threads, 4) << "a heavy single-tile shape keeps the "
                                   "caller's thread request";
  }

  // Degenerate and empty shapes never take it.
  EXPECT_FALSE(build_plan<double>(Trans::kNoTrans, Trans::kNoTrans, 64, 48,
                                  0, opts, true)
                   .fast_path);
  EXPECT_FALSE(build_plan<double>(Trans::kNoTrans, Trans::kNoTrans, 0, 48,
                                  100, opts, true)
                   .fast_path);

  // The opt-out knob forces the general path.
  Options no_fast = opts;
  no_fast.small_fast_path = false;
  const GemmPlan<double> general = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 64, 48, 100, no_fast, true);
  EXPECT_FALSE(general.fast_path);
  EXPECT_EQ(general.threads, 4);
}

TEST(BlockingShapeAware, ClampsToProblemAndChangesNoLoopCounts) {
  const Isa isa = select_isa();
  const BlockingPlan base = make_plan(isa, 8);
  const BlockingPlan clamped = make_plan(isa, 8, 40, 24, 60);
  // Clamped blocks cover the problem in exactly one step per dimension,
  // like the base plan would.
  EXPECT_GE(clamped.mc, 40);
  EXPECT_GE(clamped.nc, 24);
  EXPECT_GE(clamped.kc, 60);
  EXPECT_LE(clamped.mc, base.mc);
  EXPECT_LE(clamped.nc, base.nc);
  EXPECT_LE(clamped.kc, base.kc);
  EXPECT_EQ(clamped.mc % clamped.mr, 0);
  EXPECT_EQ(clamped.nc % clamped.nr, 0);

  // A big problem is not clamped at all.
  const BlockingPlan big = make_plan(isa, 8, 100000, 100000, 100000);
  EXPECT_EQ(big.mc, base.mc);
  EXPECT_EQ(big.nc, base.nc);
  EXPECT_EQ(big.kc, base.kc);

  // Degenerate k keeps a positive verification interval.
  EXPECT_GE(make_plan(isa, 8, 8, 8, 0).kc, 1);
}

TEST(PlanCacheTest, HitMissAccountingAndReuse) {
  PlanCache<double> cache;
  Options opts;
  opts.threads = 1;
  const auto p1 = cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64,
                                     64, 64, opts, true);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto p2 = cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64,
                                     64, 64, opts, true);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(p1.get(), p2.get()) << "a hit returns the same immutable plan";

  // Different fingerprint dimensions each miss once.
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 65, opts,
                     true);
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 64, opts,
                     false);
  cache.get_or_build(Trans::kTrans, Trans::kNoTrans, 64, 64, 64, opts, true);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.size(), 4u);

  // All four recur as hits.
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 65, opts,
                     true);
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 64, opts,
                     false);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 4u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 64, 64, 64, opts,
                     true);
  EXPECT_EQ(cache.misses(), 5u) << "clear() drops plans, not counters";
}

TEST(PlanCacheTest, LruEvictsLeastRecentlyUsed) {
  PlanCache<float> cache(2);
  Options opts;
  opts.threads = 1;
  const auto shape = [&](index_t k) {
    return cache.get_or_build(Trans::kNoTrans, Trans::kNoTrans, 16, 16, k,
                              opts, false);
  };
  shape(1);  // miss
  shape(2);  // miss
  shape(1);  // hit (1 becomes most recent)
  shape(3);  // miss, evicts 2
  EXPECT_EQ(cache.size(), 2u);
  shape(1);  // still cached
  EXPECT_EQ(cache.hits(), 2u);
  shape(2);  // evicted above -> miss again
  EXPECT_EQ(cache.misses(), 4u);
}

// ---------------------------------------------------------------------------
// Fast-path vs general-path equivalence: the acceptance bar is bit-identical
// C for both Ori and FT, plus identical FT cleanliness, across shapes with
// edge tiles, transposes, and non-trivial alpha/beta.
// ---------------------------------------------------------------------------

/// Every storage type the executor serves: uniform fp32/fp64, bf16 storage
/// with fp32 compute (FloatDomain), and int8 (ExactDomain).
template <typename T>
class PlanEquivalenceTyped : public ::testing::Test {};
using Precisions = ::testing::Types<float, double, bf16_t, std::int8_t>;
TYPED_TEST_SUITE(PlanEquivalenceTyped, Precisions);

/// The plan's compute type and the caller's C type for storage type S.
template <typename S>
using PlanComputeT = std::conditional_t<
    std::is_same_v<S, std::int8_t>, std::int32_t,
    std::conditional_t<std::is_same_v<S, bf16_t>, float, S>>;
template <typename S>
using OutT = std::conditional_t<std::is_same_v<S, double>, double, float>;

/// One (FT or Ori) call of storage type S through its public entry point.
template <typename S>
FtReport run_precision(bool ft, const GemmCase& cs, const Matrix<S>& a,
                       const Matrix<S>& b, Matrix<OutT<S>>& c,
                       const Options& opts) {
  using C = OutT<S>;
  const C alpha = C(cs.alpha), beta = C(cs.beta);
  const auto args = [&](auto&& fn, auto&&... extra) {
    return fn(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, alpha,
              a.data(), a.ld(), b.data(), b.ld(), beta, c.data(), c.ld(),
              extra..., opts);
  };
  if constexpr (std::is_same_v<S, double>) {
    if (ft) return args(ft_dgemm);
    args(dgemm);
  } else if constexpr (std::is_same_v<S, float>) {
    if (ft) return args(ft_sgemm);
    args(sgemm);
  } else if constexpr (std::is_same_v<S, bf16_t>) {
    if (ft) return args(ft_gemm_bf16);
    args(gemm_bf16);
  } else {
    const QuantParams qp{0.05f, 0.25f, 17, -9};
    if (ft) return args(ft_gemm_i8, qp);
    args(gemm_i8, qp);
  }
  return {};
}

template <typename S>
void expect_bit_identical(const GemmCase& cs) {
  using C = OutT<S>;
  // Seeds 101/102/103 are Problem(cs, 101)'s, so the uniform types draw the
  // operands the oracle check below rebuilds.
  const auto operand = [](std::pair<index_t, index_t> dims,
                          std::uint64_t seed) {
    if constexpr (std::is_same_v<S, std::int8_t>) {
      return testing::random_i8_matrix(dims.first, dims.second, seed);
    } else {
      Matrix<S> x(dims.first, dims.second);
      x.fill_random(seed);
      return x;
    }
  };
  const Matrix<S> a = operand(testing::a_dims(cs), 101);
  const Matrix<S> b = operand(testing::b_dims(cs), 102);
  Matrix<C> c0(cs.m, cs.n);
  c0.fill_random(103);

  Options fast_opts;     // default: planner may take the fast path
  Options general_opts;
  general_opts.small_fast_path = false;

  // Confirm the sweep actually exercises the branch under test.
  using P = PlanComputeT<S>;
  ASSERT_TRUE((build_plan<S, P>(cs.ta, cs.tb, cs.m, cs.n, cs.k, fast_opts,
                                true)
                   .fast_path))
      << cs;
  ASSERT_FALSE((build_plan<S, P>(cs.ta, cs.tb, cs.m, cs.n, cs.k,
                                 general_opts, true)
                    .fast_path))
      << cs;

  for (const bool ft : {true, false}) {
    Matrix<C> c_fast = c0.clone();
    Matrix<C> c_general = c0.clone();
    const FtReport rep_fast =
        run_precision<S>(ft, cs, a, b, c_fast, fast_opts);
    const FtReport rep_general =
        run_precision<S>(ft, cs, a, b, c_general, general_opts);
    EXPECT_TRUE(rep_fast.clean()) << cs;
    EXPECT_TRUE(rep_general.clean()) << cs;
    EXPECT_EQ(rep_fast.errors_detected, 0) << cs;
    EXPECT_EQ(rep_general.errors_detected, 0) << cs;
    EXPECT_EQ(rep_fast.panels, rep_general.panels) << cs;
    ASSERT_EQ(0, std::memcmp(c_fast.data(), c_general.data(),
                             sizeof(C) * std::size_t(c_fast.ld()) *
                                 std::size_t(cs.n)))
        << (ft ? "FT" : "Ori") << " fast path diverged from general path for "
        << cs;
  }

  // And the fast path agrees with the naive oracle (the uniform types; the
  // precision suites hold bf16 and int8 to their own oracles).
  if constexpr (std::is_same_v<S, C>) {
    Matrix<C> c_fast = c0.clone();
    run_precision<S>(true, cs, a, b, c_fast, fast_opts);
    const Matrix<S> ref = reference_result(cs, Problem<S>(cs, 101));
    EXPECT_LE(max_abs_diff(c_fast, ref), gemm_tolerance<S>(cs.k)) << cs;
  }
}

TYPED_TEST(PlanEquivalenceTyped, FastPathBitIdenticalToGeneralPath) {
  using T = TypeParam;
  std::vector<GemmCase> cases;
  // Small-shape sweep: register-tile multiples, edge tiles, tiny and
  // rectangular shapes, both transposes, assorted scalars.
  for (const index_t m : {1, 5, 16, 33}) {
    for (const index_t n : {1, 7, 24}) {
      for (const index_t k : {1, 13, 64}) {
        cases.push_back({m, n, k, Trans::kNoTrans, Trans::kNoTrans, 1.25,
                         -0.5});
      }
    }
  }
  cases.push_back({48, 48, 96, Trans::kTrans, Trans::kNoTrans, 2.0, 0.0});
  cases.push_back({48, 48, 96, Trans::kNoTrans, Trans::kTrans, -1.0, 1.0});
  cases.push_back({31, 29, 100, Trans::kTrans, Trans::kTrans, 0.75, 0.25});
  for (const GemmCase& cs : cases) expect_bit_identical<T>(cs);
}

TEST(PlanCacheTest, ClearProcessCachesRereadsEnvironment) {
  // The free functions' shared plan cache freezes env knobs at plan-build
  // time; clear_process_caches() is the documented way to re-read them.
  const index_t n = 32;
  Matrix<double> a(n, n), b(n, n), c(n, n);
  a.fill_random(1);
  b.fill_random(2);
  c.fill(0.0);
  const auto call = [&] {
    dgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
          a.data(), n, b.data(), n, 0.0, c.data(), n);
  };
  call();  // warm the shared cache for this shape

  // With the fast path switched off via env, a *stale* plan would still run
  // it; after the clear, the rebuilt plan must observe the override.
  ::setenv("FTGEMM_FAST_PATH_FLOPS", "1", 1);
  const GemmPlan<double> stale_view =
      build_plan<double>(Trans::kNoTrans, Trans::kNoTrans, n, n, n, {},
                         false);
  EXPECT_FALSE(stale_view.fast_path)
      << "a freshly built plan sees the env override";
  clear_process_caches();
  call();  // must not crash and must re-plan under the new env
  ::unsetenv("FTGEMM_FAST_PATH_FLOPS");
  clear_process_caches();
}

/// A random n x n operand of storage type S.
template <typename S>
Matrix<S> random_square(index_t n, std::uint64_t seed) {
  if constexpr (std::is_same_v<S, std::int8_t>) {
    return testing::random_i8_matrix(n, n, seed);
  } else {
    Matrix<S> x(n, n);
    x.fill_random(seed);
    return x;
  }
}

/// One clear covers both shared caches of storage type S: the plans and
/// the resident operand payloads encoded against them.
template <typename S>
void expect_clear_drops_plans_and_operands() {
  clear_process_caches();
  const GemmCase cs{48, 48, 48, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.0};
  const Matrix<S> a = random_square<S>(cs.m, 11);
  const Matrix<S> b = random_square<S>(cs.m, 12);
  Matrix<OutT<S>> c(cs.m, cs.n);
  c.fill(OutT<S>(0));
  Options opts;
  opts.resident_a = true;
  const auto call = [&] { return run_precision<S>(true, cs, a, b, c, opts); };
  auto& cache = process_context_cache<S, PlanComputeT<S>>();
  EXPECT_FALSE(call().resident_hit);
  EXPECT_TRUE(call().resident_hit);
  EXPECT_GE(cache.operands().stats().entries, 1u);

  clear_process_caches();
  EXPECT_EQ(cache.operands().stats().entries, 0u);
  const std::uint64_t misses_before = cache.plan_misses();
  EXPECT_FALSE(call().resident_hit) << "cleared entry must re-encode";
  EXPECT_GT(cache.plan_misses(), misses_before)
      << "cleared plan must rebuild too";
}

TEST(PlanCacheTest, ClearProcessCachesAlsoDropsResidentOperands) {
  expect_clear_drops_plans_and_operands<double>();
  expect_clear_drops_plans_and_operands<bf16_t>();
  expect_clear_drops_plans_and_operands<std::int8_t>();
}

TEST(PlanFastPath, InjectedFaultsStillDetectedAndCorrected) {
  // The fast path keeps the fused checksums: a burst aimed at a
  // single-macro-tile problem must be corrected exactly as on the general
  // path.
  const GemmCase cs{48, 40, 96, Trans::kNoTrans, Trans::kNoTrans, 1.0, 0.5};
  Problem<double> p(cs, 404);
  const Matrix<double> ref = reference_result(cs, p);

  Options opts;
  ASSERT_TRUE(
      build_plan<double>(cs.ta, cs.tb, cs.m, cs.n, cs.k, opts, true).fast_path);
  CountInjector injector(3, 2026, 8.0);
  opts.injector = &injector;
  std::vector<CorrectionRecord> log;
  opts.correction_log = &log;

  Matrix<double> c = p.c.clone();
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(injector.injected_count(), 3u);
  EXPECT_EQ(rep.errors_corrected, 3);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_LE(max_abs_diff(c, ref), gemm_tolerance<double>(cs.k));
}

}  // namespace
}  // namespace ftgemm
