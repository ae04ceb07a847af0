// Tests for the fault-injection campaign runner (the §3.2 methodology
// harness): one runner over entry point (sync, reliable, batched, service)
// x strike surface (compute, resident, panel_a, panel_b, plan).
// Deterministic by default: every campaign seed derives from
// FTGEMM_TEST_SEED (unset = the historical fixed defaults), and failures
// print the seed to replay with.  The binary stays under the `slow` ctest
// label.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/gemm.hpp"
#include "inject/campaign.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::seed_note;
using testing::test_seed;

TEST(Campaign, TwentyErrorRegimeIsReliable) {
  CampaignConfig config;
  config.size = 192;
  config.trials = 5;
  config.faults = 20;
  config.seed = test_seed(77);
  const CampaignResult r = run_campaign(config);
  EXPECT_EQ(r.injected, 100) << seed_note(config.seed);
  EXPECT_TRUE(r.reliable())
      << "no silently wrong results, ever" << seed_note(config.seed);
  EXPECT_GT(r.errors_corrected, 0) << seed_note(config.seed);
  EXPECT_GT(r.mean_gflops, 0.0);
}

TEST(Campaign, DeterministicUnderSeed) {
  CampaignConfig config;
  config.size = 96;
  config.trials = 3;
  config.faults = 5;
  config.seed = test_seed(99);
  const CampaignResult a = run_campaign(config);
  const CampaignResult b = run_campaign(config);
  EXPECT_EQ(a.injected, b.injected) << seed_note(config.seed);
  EXPECT_EQ(a.errors_detected, b.errors_detected) << seed_note(config.seed);
  EXPECT_EQ(a.errors_corrected, b.errors_corrected) << seed_note(config.seed);
  EXPECT_EQ(a.flagged, b.flagged) << seed_note(config.seed);
}

TEST(Campaign, ReliableModeRetriesDirtyRuns) {
  // High error density in a small matrix provokes occasional uncorrectable
  // panels; reliable mode must keep silent trials at zero AND scrub
  // uncorrectable runs via retry.
  CampaignConfig config;
  config.entry = CampaignEntry::kReliable;
  config.size = 96;
  config.trials = 8;
  config.faults = 30;
  config.magnitude = 4.0;
  config.seed = test_seed(1);
  const CampaignResult r = run_campaign(config);
  EXPECT_TRUE(r.reliable()) << seed_note(config.seed);
  // Every retry re-runs under a fresh 30-error schedule, so the injected
  // total is 240 plus 30 per retry.
  EXPECT_EQ(r.injected, 240 + 30 * r.retries) << seed_note(config.seed);
}

TEST(Campaign, ZeroErrorsMeansCleanBaseline) {
  CampaignConfig config;
  config.size = 64;
  config.trials = 2;
  config.faults = 0;
  config.seed = test_seed(config.seed);
  const CampaignResult r = run_campaign(config);
  EXPECT_EQ(r.injected, 0) << seed_note(config.seed);
  EXPECT_EQ(r.errors_detected, 0) << seed_note(config.seed);
  EXPECT_EQ(r.flagged, 0) << seed_note(config.seed);
  EXPECT_LT(r.max_rel_error, 1e-12) << seed_note(config.seed);
}

TEST(Campaign, ParallelThreadsSupported) {
  CampaignConfig config;
  config.size = 128;
  config.trials = 3;
  config.faults = 10;
  config.threads = 4;
  config.seed = test_seed(5);
  const CampaignResult r = run_campaign(config);
  EXPECT_TRUE(r.reliable()) << seed_note(config.seed);
  EXPECT_EQ(r.injected, 30) << seed_note(config.seed);
}

TEST(Campaign, RejectsReliableOnInt8Surfaces) {
  // The transient panels run on int8, which has no reliable entry point:
  // those two cells are refused, not quietly run on another entry point.
  for (const CampaignSurface surface :
       {CampaignSurface::kPanelA, CampaignSurface::kPanelB}) {
    CampaignConfig config;
    config.entry = CampaignEntry::kReliable;
    config.surface = surface;
    EXPECT_THROW((void)run_campaign(config), std::invalid_argument)
        << campaign_surface_name(surface);
  }
}

TEST(ServiceCampaign, TargetsInflightRequestsReliably) {
  // Faults striking requests in flight in the async serving layer: one
  // request per trial carries the injector (request-scoped Options), the
  // rest stay eligible for coalesced routing around it.  The reliability
  // claim is unchanged one layer up: every fault corrected or flagged,
  // never silent.
  CampaignConfig config;
  config.entry = CampaignEntry::kService;
  config.size = 96;
  config.units = 3;
  config.trials = 4;
  config.faults = 4;
  config.seed = test_seed(config.seed);
  const CampaignResult r = run_campaign(config);
  EXPECT_EQ(r.injected, 16) << seed_note(config.seed);
  EXPECT_GT(r.errors_detected, 0) << seed_note(config.seed);
  EXPECT_TRUE(r.reliable())
      << "a served request returned silently wrong data"
      << seed_note(config.seed);
}

TEST(ServiceCampaign, CleanTrafficStaysCleanAndCoalesces) {
  CampaignConfig config;
  config.entry = CampaignEntry::kService;
  config.size = 64;
  config.units = 10;
  config.trials = 1;
  config.faults = 0;  // no faults anywhere
  config.seed = test_seed(config.seed);
  const CampaignResult r = run_campaign(config);
  EXPECT_EQ(r.injected, 0) << seed_note(config.seed);
  EXPECT_EQ(r.errors_detected, 0) << seed_note(config.seed);
  EXPECT_EQ(r.flagged, 0) << seed_note(config.seed);
  EXPECT_TRUE(r.reliable()) << seed_note(config.seed);
  EXPECT_LT(r.max_rel_error, 1e-9) << seed_note(config.seed);
  EXPECT_GT(r.coalesced, 0)
      << "uninjected same-shape traffic should ride merged batches"
      << seed_note(config.seed);
}

std::string cell_note(const CampaignConfig& c) {
  return std::string("  [cell entry=") + campaign_entry_name(c.entry) +
         " surface=" + campaign_surface_name(c.surface) +
         " faults=" + std::to_string(c.faults) +
         " burst=" + std::to_string(c.burst) + "]";
}

// The whole grid: every valid entry x surface cell, one single-bit (or
// single-delta) fault on one targeted unit per trial, so no strike dedupes
// and the injector ground truth is exactly one fault per trial.  A fast-path
// shape keeps service traffic coalescible, so the cells also prove that a
// request carrying an injector of either kind leaves the merged batch and
// runs its own strike.
TEST(CampaignGrid, EveryEntrySurfaceCellIsNeverSilent) {
  const std::uint64_t seed = test_seed(0x9a1d);
  constexpr int kTrials = 3;
  int cells = 0;
  for (const CampaignEntry entry :
       {CampaignEntry::kSync, CampaignEntry::kReliable,
        CampaignEntry::kBatched, CampaignEntry::kService}) {
    for (const CampaignSurface surface :
         {CampaignSurface::kCompute, CampaignSurface::kResident,
          CampaignSurface::kPanelA, CampaignSurface::kPanelB,
          CampaignSurface::kPlan}) {
      const bool int8 = surface == CampaignSurface::kPanelA ||
                        surface == CampaignSurface::kPanelB;
      if (entry == CampaignEntry::kReliable && int8) continue;
      CampaignConfig cfg;
      cfg.entry = entry;
      cfg.surface = surface;
      cfg.size = 48;
      cfg.units = 3;
      cfg.trials = kTrials;
      cfg.faults = 1;
      cfg.burst = 1;
      cfg.threads = 1;
      cfg.seed = seed;
      const CampaignResult r = run_campaign(cfg);
      ++cells;
      EXPECT_EQ(r.silent, 0) << cell_note(cfg) << seed_note(seed);
      EXPECT_EQ(r.injected, kTrials) << cell_note(cfg) << seed_note(seed);
      EXPECT_EQ(r.detected + r.masked + r.silent, kTrials)
          << cell_note(cfg) << seed_note(seed);
      // Exact defenses (int8 panel checksums, the plan self-checksum, the
      // resident payload's integrity sums, whose heal every route reports)
      // and a delta far above tolerance: every trial detected.
      EXPECT_EQ(r.detected, kTrials) << cell_note(cfg) << seed_note(seed);
    }
  }
  EXPECT_EQ(cells, 18);
}

// Memory-domain campaign over the resident-operand cache: a serving loop
// whose cached packed panels are struck by bit flips on every third hit.
// The CHECK_BEFORE re-verification must detect each strike, heal it by
// re-encoding from the source weight, and every round's result must match
// the naive reference — never a silently wrong answer, exactly like the
// compute-domain campaigns above.
TEST(MemoryFaultCampaign, ResidentPanelFlipsAlwaysHealedNeverSilent) {
  clear_process_caches();
  const std::uint64_t seed = test_seed(2026);
  const testing::GemmCase cs{96, 64, 160};
  const testing::Problem<double> p(cs, seed);
  const Matrix<double> ref = testing::reference_result(cs, p);

  Options opts;
  opts.threads = 2;
  opts.resident_a = true;

  Matrix<double> c_cold = p.c.clone();
  {
    Options cold = opts;
    cold.resident_a = false;
    ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
             p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
             c_cold.data(), c_cold.ld(), cold);
  }

  // Warm the entry (the miss encodes; the injector only sees hits).
  Matrix<double> c = p.c.clone();
  FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                          cs.alpha, p.a.data(), p.a.ld(), p.b.data(),
                          p.b.ld(), cs.beta, c.data(), c.ld(), opts);
  ASSERT_FALSE(rep.resident_hit) << seed_note(seed);

  constexpr int kRounds = 30;
  constexpr int kFlipsPerStrike = 2;
  PanelBitFlipInjector injector(kFlipsPerStrike, seed, /*bit=*/61,
                                /*every=*/3);
  opts.memory_injector = &injector;
  std::int64_t heals = 0;
  for (int round = 0; round < kRounds; ++round) {
    c = p.c.clone();
    rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                   cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                   cs.beta, c.data(), c.ld(), opts);
    ASSERT_TRUE(rep.resident_hit) << "round " << round << seed_note(seed);
    EXPECT_TRUE(rep.clean()) << "round " << round << seed_note(seed);
    heals += rep.resident_heals;
    // Healed-or-clean, the delivered result is the cold result, bit for
    // bit — and therefore within the standard tolerance of the oracle.
    testing::expect_matrix_near(c, c_cold, 0.0,
                                "campaign round " + std::to_string(round));
  }
  testing::expect_matrix_near(c, ref, testing::gemm_tolerance<double>(cs.k),
                              "final round vs naive_ref_gemm");

  // Strikes land on hits 0, 3, ..., 27: ten corrupted rounds, each healed.
  EXPECT_EQ(heals, kRounds / 3) << seed_note(seed);
  EXPECT_EQ(injector.applied_count(),
            std::size_t(kRounds / 3) * kFlipsPerStrike)
      << seed_note(seed);
}

// The acceptance sweep (DESIGN.md §12): every surface x fault count x
// burstiness cell of the default grid, at a reduced trial count.  The hard
// claims: never silent at any fault density, and nothing masked — every
// memory defense is bit-exact (the resident integrity sums add raw bit
// patterns as wrapping integers, the plan self-checksum, the exact int8
// panel checksums), so every trial is detected and every single-bit cell
// detects 100%.  A detected resident strike is healed by exactly one
// re-encode.
TEST(MemoryFaultCampaign, SweepDetectsAllSingleBitStrikesAndIsNeverSilent) {
  const std::uint64_t seed = test_seed(0x5eed);
  constexpr int kTrials = 5;
  const std::vector<CampaignConfig> grid = memory_fault_grid(kTrials, seed);
  // 4 surfaces x faults {1,4} x burst {1,3}.
  ASSERT_EQ(grid.size(), 16u);

  for (const CampaignConfig& cfg : grid) {
    const CampaignResult r = run_campaign(cfg);
    EXPECT_GT(r.injected, 0) << cell_note(cfg) << seed_note(seed);
    // The invariant that defines the fault model: never silent, anywhere,
    // and every undetected trial is provably harmless.
    EXPECT_EQ(r.silent, 0) << cell_note(cfg) << seed_note(seed);
    EXPECT_EQ(r.detected + r.masked, std::int64_t(kTrials))
        << cell_note(cfg) << seed_note(seed);
    EXPECT_EQ(r.masked, 0) << cell_note(cfg) << seed_note(seed);
    if (cfg.faults == 1 && cfg.burst == 1) {
      EXPECT_EQ(r.injected, std::int64_t(kTrials))
          << cell_note(cfg) << seed_note(seed);
      // 100% detection of single-bit faults on every surface.
      EXPECT_EQ(r.detected, std::int64_t(kTrials))
          << cell_note(cfg) << seed_note(seed);
      if (cfg.surface == CampaignSurface::kResident) {
        // Every detected trial healed by re-encode, exactly once.
        EXPECT_EQ(r.heals, r.detected) << cell_note(cfg) << seed_note(seed);
      } else if (cfg.surface == CampaignSurface::kPlan) {
        EXPECT_EQ(r.plan_heals, std::int64_t(kTrials))
            << cell_note(cfg) << seed_note(seed);
      }
    }
  }
}

// Same config => bit-identical counters, run to run: strike placement does
// not depend on which thread runs which rank (B~ strikes run under
// tm.single, A~ strikes are pinned to member 0), so a campaign is a
// reproducible experiment.
TEST(MemoryFaultCampaign, DeterministicAcrossRuns) {
  CampaignConfig cfg;
  cfg.surface = CampaignSurface::kPanelB;
  cfg.faults = 2;
  cfg.burst = 3;
  cfg.trials = 4;
  cfg.seed = test_seed(0xca3);
  cfg.threads = 2;

  const CampaignResult a = run_campaign(cfg);
  const CampaignResult b = run_campaign(cfg);

  const auto expect_equal = [&](const CampaignResult& x,
                                const CampaignResult& y, const char* what) {
    EXPECT_EQ(x.injected, y.injected) << what << seed_note(cfg.seed);
    EXPECT_EQ(x.detected, y.detected) << what << seed_note(cfg.seed);
    EXPECT_EQ(x.errors_detected, y.errors_detected)
        << what << seed_note(cfg.seed);
    EXPECT_EQ(x.errors_corrected, y.errors_corrected)
        << what << seed_note(cfg.seed);
    EXPECT_EQ(x.flagged, y.flagged) << what << seed_note(cfg.seed);
    EXPECT_EQ(x.masked, y.masked) << what << seed_note(cfg.seed);
    EXPECT_EQ(x.silent, y.silent) << what << seed_note(cfg.seed);
  };
  expect_equal(a, b, "rerun");
  EXPECT_EQ(a.silent, 0) << seed_note(cfg.seed);
  EXPECT_GT(a.detected, 0) << seed_note(cfg.seed);
}

}  // namespace
}  // namespace ftgemm
