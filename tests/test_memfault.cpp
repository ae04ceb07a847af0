// Memory-fault model unit tests (DESIGN.md §12): the memory-injector
// canonicalization contract (net-bit ground truth), the transient
// packed-panel strike surfaces on the exact int8 path, and the plan-cache
// self-check heal.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/gemm_i8.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::seed_note;
using testing::test_seed;

// ---------------------------------------------------------------------------
// Injector canonicalization contract (the ground-truth bugfixes)
// ---------------------------------------------------------------------------

TEST(MemInjectorContract, FlipValueBitXorsExactlyOneBit) {
  double d = 1.0;
  std::uint64_t before, after;
  std::memcpy(&before, &d, sizeof(d));
  flip_value_bit(d, 52);
  std::memcpy(&after, &d, sizeof(d));
  EXPECT_EQ(before ^ after, std::uint64_t(1) << 52);
  flip_value_bit(d, 52);
  EXPECT_EQ(d, 1.0);  // an XOR flip is its own inverse

  std::int8_t b = 5;
  flip_value_bit(b, 7);
  EXPECT_EQ(std::uint8_t(b), std::uint8_t(5u ^ 0x80u));
}

/// Regression: drawing far more flips than the surface holds distinct
/// (elem, bit) slots used to emit duplicate pairs whose XORs self-cancel,
/// so applied_count() overstated the net corruption.  The canonicalized
/// plan must equal the set of bits that actually change.
TEST(MemInjectorContract, DuplicateDrawsNeverSelfCancel) {
  const std::uint64_t seed = test_seed(404);
  PanelBitFlipInjector injector(/*flips=*/64, seed, /*bit=*/61);
  const MemoryStrikeContext ctx{MemorySurface::kResidentPanel, /*elems=*/4,
                                /*elem_bits=*/64};
  std::vector<PanelFlip> flips;
  injector.plan_flips(ctx, flips);

  // All 64 draws target bit 61 of one of 4 elements: at most 4 unique pairs
  // can survive, and with 64 draws all 4 almost surely do.
  ASSERT_FALSE(flips.empty()) << seed_note(seed);
  EXPECT_LE(flips.size(), 4u) << seed_note(seed);
  for (std::size_t i = 0; i < flips.size(); ++i) {
    EXPECT_LT(flips[i].elem, 4u) << seed_note(seed);
    EXPECT_EQ(flips[i].bit, 61) << seed_note(seed);
    if (i > 0) {
      EXPECT_TRUE(flips[i - 1].elem < flips[i].elem ||
                  (flips[i - 1].elem == flips[i].elem &&
                   flips[i - 1].bit < flips[i].bit))
          << "not sorted/unique" << seed_note(seed);
    }
  }

  // Ground truth check: applying the plan changes exactly plan-size bits.
  std::uint64_t buf[4] = {1, 2, 3, 4};
  const std::uint64_t orig[4] = {1, 2, 3, 4};
  for (const PanelFlip& f : flips) flip_value_bit(buf[f.elem], f.bit);
  int changed = 0;
  for (int e = 0; e < 4; ++e)
    changed += __builtin_popcountll(buf[e] ^ orig[e]);
  EXPECT_EQ(std::size_t(changed), flips.size()) << seed_note(seed);
}

/// Regression: the historical default of bit 52 (fp64 exponent LSB) was
/// never validated against the element width, so an 8-bit surface was asked
/// to flip bit 52 of a byte.  The contract clamps into [0, elem_bits).
TEST(MemInjectorContract, RequestedBitIsClampedToElementWidth) {
  const std::uint64_t seed = test_seed(405);
  PanelBitFlipInjector injector(/*flips=*/8, seed, /*bit=*/52);
  const MemoryStrikeContext ctx{MemorySurface::kResidentPanel, /*elems=*/16,
                                /*elem_bits=*/8};
  std::vector<PanelFlip> flips;
  injector.plan_flips(ctx, flips);
  ASSERT_FALSE(flips.empty()) << seed_note(seed);
  for (const PanelFlip& f : flips) {
    EXPECT_LT(f.elem, 16u) << seed_note(seed);
    EXPECT_GE(f.bit, 0) << seed_note(seed);
    EXPECT_LT(f.bit, 8) << seed_note(seed);
  }
}

TEST(MemInjectorContract, BurstRunsAreContiguousAcrossElementBoundaries) {
  const std::uint64_t seed = test_seed(406);
  PanelBitFlipInjector injector(/*flips=*/1, seed, /*bit=*/0, /*every=*/1,
                                /*burst=*/16);
  const MemoryStrikeContext ctx{MemorySurface::kResidentPanel, /*elems=*/8,
                                /*elem_bits=*/8};
  std::vector<PanelFlip> flips;
  injector.plan_flips(ctx, flips);
  ASSERT_EQ(flips.size(), 16u) << seed_note(seed);
  // Canonicalized output is sorted, so global bit indices are consecutive —
  // a 16-bit run over 8-bit elements necessarily spans >= 2 elements.
  for (std::size_t i = 1; i < flips.size(); ++i) {
    const std::size_t prev = flips[i - 1].elem * 8 + std::size_t(flips[i - 1].bit);
    const std::size_t cur = flips[i].elem * 8 + std::size_t(flips[i].bit);
    EXPECT_EQ(cur, prev + 1) << seed_note(seed);
  }
  EXPECT_GT(flips.back().elem, flips.front().elem) << seed_note(seed);
}

TEST(MemInjectorContract, SurfaceInjectorIsOneShotAndSurfaceFiltered) {
  const std::uint64_t seed = test_seed(407);
  SurfaceBitFlipInjector injector(MemorySurface::kPanelB, /*faults=*/2,
                                  /*burst=*/3, seed);
  const MemoryStrikeContext wrong{MemorySurface::kPanelA, 256, 8};
  const MemoryStrikeContext right{MemorySurface::kPanelB, 256, 8};
  std::vector<PanelFlip> flips;

  // Non-matching surfaces neither fire nor count as opportunities.
  injector.arm();
  injector.plan_flips(wrong, flips);
  EXPECT_TRUE(flips.empty());
  EXPECT_EQ(injector.opportunities(), 0u);

  // First matching opportunity fires the armed strike...
  injector.plan_flips(right, flips);
  EXPECT_FALSE(flips.empty()) << seed_note(seed);
  EXPECT_LE(flips.size(), 6u) << seed_note(seed);  // 2 runs x 3 bits, deduped
  EXPECT_EQ(injector.opportunities(), 1u);

  // ...and the next one is disarmed (but still counted).
  flips.clear();
  injector.plan_flips(right, flips);
  EXPECT_TRUE(flips.empty());
  EXPECT_EQ(injector.opportunities(), 2u);
}

// ---------------------------------------------------------------------------
// Plan-cache strike surface
// ---------------------------------------------------------------------------

TEST(PlanSurface, CachedPlanStrikeIsHealedAndResultUnchanged) {
  const std::uint64_t seed = test_seed(2029);
  const testing::GemmCase cs{96, 64, 160};
  const testing::Problem<double> p(cs, seed);
  clear_process_caches();
  auto& cache = process_context_cache<double>();
  Options opts;
  opts.threads = 2;
  const auto run = [&](Matrix<double>& c) {
    return ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                    cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                    cs.beta, c.data(), c.ld(), opts);
  };
  Matrix<double> c_cold = p.c.clone();
  (void)run(c_cold);  // plan-cache miss: builds + stamps self_check

  SurfaceBitFlipInjector injector(MemorySurface::kPlan, /*faults=*/1,
                                  /*burst=*/1, seed);
  opts.memory_injector = &injector;
  const std::uint64_t heals_before = cache.plan_heals();
  for (int round = 0; round < 4; ++round) {
    injector.arm();
    Matrix<double> c = p.c.clone();
    const FtReport rep = run(c);
    EXPECT_TRUE(rep.clean()) << "round " << round << seed_note(seed);
    testing::expect_matrix_near(c, c_cold, 0.0,
                                "plan round " + std::to_string(round));
  }
  // Every struck lookup self-check-mismatched and rebuilt from the key:
  // plan_self_check covers every byte of the struck BlockingPlan surface.
  EXPECT_EQ(cache.plan_heals() - heals_before, 4u) << seed_note(seed);
  EXPECT_EQ(injector.applied_count(), 4u) << seed_note(seed);
  EXPECT_GE(injector.opportunities(), 4u) << seed_note(seed);
  clear_process_caches();
}

// ---------------------------------------------------------------------------
// Transient packed panels (exact int8 path: every live-byte flip detected)
// ---------------------------------------------------------------------------

struct I8Case {
  index_t m, n, k;
  int threads;
};

void run_i8_transient_case(const I8Case& cs, MemorySurface surface,
                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::int8_t> a(std::size_t(cs.m * cs.k));
  std::vector<std::int8_t> b(std::size_t(cs.k * cs.n));
  // Nonzero positive operands: every packed byte feeds products with
  // nonzero multipliers, so any live-byte flip perturbs the exact checksums.
  for (auto& x : a) x = std::int8_t(1 + rng.bounded(7));
  for (auto& x : b) x = std::int8_t(1 + rng.bounded(7));
  std::vector<float> ref(std::size_t(cs.m * cs.n), 0.0f);
  std::vector<float> c(std::size_t(cs.m * cs.n), 0.0f);

  Options opts;
  opts.threads = cs.threads;
  const QuantParams qp;  // unit scales, zero offsets: exact dequantize
  const auto run = [&](std::vector<float>& out, const Options& o) {
    return ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
                      cs.m, cs.n, cs.k, 1.0f, a.data(), cs.m, b.data(), cs.k,
                      0.0f, out.data(), cs.m, qp, o);
  };
  (void)run(ref, opts);

  SurfaceBitFlipInjector injector(surface, /*faults=*/1, /*burst=*/1, seed);
  Options strike = opts;
  strike.memory_injector = &injector;
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    injector.arm();
    std::fill(c.begin(), c.end(), 0.0f);
    const FtReport rep = run(c, strike);
    // Single live-byte bit flip between pack and consume: the exact integer
    // panel checksums must attribute it — detected, and if the report is
    // clean the delivered result is the clean result, bit for bit.
    EXPECT_GT(rep.errors_detected, 0)
        << memory_surface_name(surface) << " round " << round
        << seed_note(seed);
    if (rep.clean()) {
      EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)),
                0)
          << memory_surface_name(surface) << " round " << round
          << seed_note(seed);
    }
  }
  EXPECT_EQ(injector.applied_count(), std::size_t(kRounds)) << seed_note(seed);
  EXPECT_GE(injector.opportunities(), std::size_t(kRounds)) << seed_note(seed);
}

TEST(TransientPanels, I8PanelBStrikesAlwaysDetectedGeneralPath) {
  run_i8_transient_case({128, 96, 384, 2}, MemorySurface::kPanelB,
                        test_seed(3001));
}

TEST(TransientPanels, I8PanelAStrikesAlwaysDetectedGeneralPath) {
  run_i8_transient_case({128, 96, 384, 2}, MemorySurface::kPanelA,
                        test_seed(3002));
}

TEST(TransientPanels, I8PanelBStrikesAlwaysDetectedFastPath) {
  run_i8_transient_case({64, 48, 64, 1}, MemorySurface::kPanelB,
                        test_seed(3003));
}

TEST(TransientPanels, I8PanelAStrikesAlwaysDetectedFastPath) {
  run_i8_transient_case({64, 48, 64, 1}, MemorySurface::kPanelA,
                        test_seed(3004));
}

}  // namespace
}  // namespace ftgemm
