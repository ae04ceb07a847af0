// Tests for the injection-campaign drivers (the §3.2 methodology harness):
// single-call, batched, and the async-service campaign.  Deterministic by
// default: every campaign seed derives from FTGEMM_TEST_SEED (unset = the
// historical fixed defaults), and failures print the seed to replay with.
// The binary stays under the `slow` ctest label.
#include <gtest/gtest.h>

#include "core/gemm.hpp"
#include "inject/campaign.hpp"
#include "inject/injectors.hpp"
#include "inject/memory_campaign.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::seed_note;
using testing::test_seed;

TEST(Campaign, TwentyErrorRegimeIsReliable) {
  CampaignConfig config;
  config.size = 192;
  config.runs = 5;
  config.errors_per_run = 20;
  config.seed = test_seed(77);
  const CampaignResult r = run_injection_campaign(config);
  EXPECT_EQ(r.injected, 100u) << seed_note(config.seed);
  EXPECT_TRUE(r.reliable())
      << "no silently wrong results, ever" << seed_note(config.seed);
  EXPECT_GT(r.corrected, 0) << seed_note(config.seed);
  EXPECT_GT(r.mean_gflops, 0.0);
}

TEST(Campaign, DeterministicUnderSeed) {
  CampaignConfig config;
  config.size = 96;
  config.runs = 3;
  config.errors_per_run = 5;
  config.seed = test_seed(99);
  const CampaignResult a = run_injection_campaign(config);
  const CampaignResult b = run_injection_campaign(config);
  EXPECT_EQ(a.injected, b.injected) << seed_note(config.seed);
  EXPECT_EQ(a.detected, b.detected) << seed_note(config.seed);
  EXPECT_EQ(a.corrected, b.corrected) << seed_note(config.seed);
  EXPECT_EQ(a.uncorrectable_runs, b.uncorrectable_runs)
      << seed_note(config.seed);
}

TEST(Campaign, ReliableModeRetriesDirtyRuns) {
  // High error density in a small matrix provokes occasional uncorrectable
  // panels; reliable mode must keep wrong_result_runs at zero AND scrub
  // uncorrectable runs via retry.
  CampaignConfig config;
  config.size = 96;
  config.runs = 8;
  config.errors_per_run = 30;
  config.magnitude = 4.0;
  config.seed = test_seed(1);
  config.use_reliable = true;
  const CampaignResult r = run_injection_campaign(config);
  EXPECT_TRUE(r.reliable()) << seed_note(config.seed);
  // Every retry re-runs under a fresh 30-error schedule, so the injected
  // total is 240 plus 30 per retry.
  EXPECT_EQ(r.injected, 240u + 30u * std::size_t(r.retries))
      << seed_note(config.seed);
}

TEST(Campaign, ZeroErrorsMeansCleanBaseline) {
  CampaignConfig config;
  config.size = 64;
  config.runs = 2;
  config.errors_per_run = 0;
  config.seed = test_seed(config.seed);
  const CampaignResult r = run_injection_campaign(config);
  EXPECT_EQ(r.injected, 0u) << seed_note(config.seed);
  EXPECT_EQ(r.detected, 0) << seed_note(config.seed);
  EXPECT_EQ(r.uncorrectable_runs, 0) << seed_note(config.seed);
  EXPECT_LT(r.max_rel_error, 1e-12) << seed_note(config.seed);
}

TEST(Campaign, ParallelThreadsSupported) {
  CampaignConfig config;
  config.size = 128;
  config.runs = 3;
  config.errors_per_run = 10;
  config.threads = 4;
  config.seed = test_seed(5);
  const CampaignResult r = run_injection_campaign(config);
  EXPECT_TRUE(r.reliable()) << seed_note(config.seed);
  EXPECT_EQ(r.injected, 30u) << seed_note(config.seed);
}

TEST(ServiceCampaign, TargetsInflightRequestsReliably) {
  // Faults striking requests in flight in the async serving layer: every
  // third request carries its own injector (request-scoped Options), the
  // rest stay eligible for coalesced routing around them.  The reliability
  // claim is unchanged one layer up: every fault corrected or flagged,
  // never silent.
  ServiceCampaignConfig config;
  config.size = 96;
  config.requests = 12;
  config.inject_every = 3;
  config.errors_per_target = 4;
  config.seed = test_seed(config.seed);
  const ServiceCampaignResult r = run_service_injection_campaign(config);
  EXPECT_EQ(r.targeted_requests, 4) << seed_note(config.seed);
  EXPECT_GT(r.injected, 0u) << seed_note(config.seed);
  EXPECT_GT(r.detected, 0) << seed_note(config.seed);
  EXPECT_TRUE(r.reliable())
      << "a served request returned silently wrong data"
      << seed_note(config.seed);
}

TEST(ServiceCampaign, CleanTrafficStaysCleanAndCoalesces) {
  ServiceCampaignConfig config;
  config.size = 64;
  config.requests = 10;
  config.inject_every = 0;  // no faults anywhere
  config.seed = test_seed(config.seed);
  const ServiceCampaignResult r = run_service_injection_campaign(config);
  EXPECT_EQ(r.injected, 0u) << seed_note(config.seed);
  EXPECT_EQ(r.detected, 0) << seed_note(config.seed);
  EXPECT_EQ(r.dirty_requests, 0) << seed_note(config.seed);
  EXPECT_TRUE(r.reliable()) << seed_note(config.seed);
  EXPECT_LT(r.max_rel_error, 1e-9) << seed_note(config.seed);
  EXPECT_GT(r.coalesced_requests, 0)
      << "uninjected same-shape traffic should ride merged batches"
      << seed_note(config.seed);
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

std::string cell_note(const MemoryCampaignResult& r) {
  return std::string("  [cell surface=") +
         memory_surface_name(r.config.surface) +
         " faults=" + std::to_string(r.config.faults) +
         " burst=" + std::to_string(r.config.burst) +
         " ecc=" + (r.config.ecc ? "on" : "off") + "]";
}

// The acceptance sweep (DESIGN.md §12): every surface x fault count x
// burstiness cell of the default grid, at a reduced trial count.  The hard
// claims: every trial is detected or provably masked (result bit-identical
// to the clean reference) — never silent at any fault density; the
// bit-exact defenses (SEC-DED parity, plan self-checksum, exact int8 panel
// checksums) mask nothing, so their single-bit cells detect 100%; and the
// ECC cell corrects singles in place with ZERO re-encode heals, its
// corrected-bit count matching the injector ground truth exactly.  Only the
// fp resident surface without ECC may mask: an ulp-level mantissa flip can
// be rounded away by both the fp integrity sums and the product.
TEST(MemoryFaultCampaign, SweepDetectsAllSingleBitStrikesAndIsNeverSilent) {
  const std::uint64_t seed = test_seed(0x5eed);
  constexpr int kTrials = 5;
  const std::vector<MemoryCampaignResult> results =
      run_memory_campaign_sweep(default_memory_campaign_grid(kTrials, seed));
  // 4 surfaces x faults {1,4} x burst {1,3}, plus the 4 resident cells
  // duplicated with ECC on.
  ASSERT_EQ(results.size(), 20u);

  for (const MemoryCampaignResult& r : results) {
    EXPECT_EQ(r.trials, kTrials) << cell_note(r) << seed_note(seed);
    EXPECT_GT(r.injected_bits, 0) << cell_note(r) << seed_note(seed);
    // The invariant that defines the fault model: never silent, anywhere,
    // and every undetected trial is provably harmless.
    EXPECT_EQ(r.silent_trials, 0) << cell_note(r) << seed_note(seed);
    EXPECT_EQ(r.detected_trials + r.masked_trials, std::int64_t(r.trials))
        << cell_note(r) << seed_note(seed);
    const bool bit_exact_surface =
        r.config.ecc || r.config.surface != MemorySurface::kResidentPanel;
    if (bit_exact_surface) {
      EXPECT_EQ(r.masked_trials, 0) << cell_note(r) << seed_note(seed);
    }
    if (r.config.faults == 1 && r.config.burst == 1) {
      EXPECT_EQ(r.injected_bits, std::int64_t(kTrials))
          << cell_note(r) << seed_note(seed);
      if (bit_exact_surface) {
        // 100% detection of single-bit faults on every bit-exact surface.
        EXPECT_EQ(r.detected_trials, r.trials)
            << cell_note(r) << seed_note(seed);
        EXPECT_EQ(r.detection_rate(), 1.0) << cell_note(r) << seed_note(seed);
      }
      if (r.config.ecc) {
        // SEC-DED corrects every single strike in place: corrected bits
        // match the injector ground truth exactly, and the re-encode heal
        // path is never taken.
        EXPECT_EQ(r.ecc_corrected, r.injected_bits)
            << cell_note(r) << seed_note(seed);
        EXPECT_EQ(r.heals, 0) << cell_note(r) << seed_note(seed);
      } else if (r.config.surface == MemorySurface::kResidentPanel) {
        // Every detected trial healed by re-encode, exactly once.
        EXPECT_EQ(r.heals, r.detected_trials) << cell_note(r)
                                              << seed_note(seed);
      } else if (r.config.surface == MemorySurface::kPlan) {
        EXPECT_EQ(r.plan_heals, std::int64_t(kTrials))
            << cell_note(r) << seed_note(seed);
      }
    }
  }
}

// Same config => bit-identical counters, run to run and across thread-team
// backends: the cross-backend bit-identity contract extends to strike
// placement (B~ strikes run under tm.single, A~ strikes are pinned to
// member 0), so a campaign is a reproducible experiment everywhere.
TEST(MemoryFaultCampaign, DeterministicAcrossRunsAndBackends) {
  MemoryCampaignConfig cfg;
  cfg.surface = MemorySurface::kPanelB;
  cfg.faults = 2;
  cfg.burst = 3;
  cfg.trials = 4;
  cfg.seed = test_seed(0xca3);
  cfg.threads = 2;
  cfg.runtime = RuntimeBackend::kOpenMP;

  const MemoryCampaignResult a = run_memory_campaign(cfg);
  const MemoryCampaignResult b = run_memory_campaign(cfg);
  MemoryCampaignConfig pool_cfg = cfg;
  pool_cfg.runtime = RuntimeBackend::kPool;
  const MemoryCampaignResult c = run_memory_campaign(pool_cfg);

  const auto expect_equal = [&](const MemoryCampaignResult& x,
                                const MemoryCampaignResult& y,
                                const char* what) {
    EXPECT_EQ(x.injected_bits, y.injected_bits) << what << seed_note(cfg.seed);
    EXPECT_EQ(x.detected_trials, y.detected_trials)
        << what << seed_note(cfg.seed);
    EXPECT_EQ(x.abft_detected, y.abft_detected) << what << seed_note(cfg.seed);
    EXPECT_EQ(x.abft_corrected, y.abft_corrected)
        << what << seed_note(cfg.seed);
    EXPECT_EQ(x.flagged_trials, y.flagged_trials)
        << what << seed_note(cfg.seed);
    EXPECT_EQ(x.masked_trials, y.masked_trials) << what << seed_note(cfg.seed);
    EXPECT_EQ(x.silent_trials, y.silent_trials) << what << seed_note(cfg.seed);
  };
  expect_equal(a, b, "rerun, same backend");
  expect_equal(a, c, "openmp vs pool");
  EXPECT_EQ(a.silent_trials, 0) << seed_note(cfg.seed);
  EXPECT_GT(a.detected_trials, 0) << seed_note(cfg.seed);
}

}  // namespace
}  // namespace ftgemm
