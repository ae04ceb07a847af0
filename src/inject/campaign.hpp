// Injection campaign driver (§3.2 methodology).
//
// Orchestrates a series of protected GEMMs under a configurable fault
// regime, verifies every result against a fault-free reference, and
// aggregates the statistics the paper's reliability argument rests on:
// injected vs detected vs corrected counts, residual-error distribution,
// and throughput with and without faults.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gemm.hpp"
#include "core/gemm_batched.hpp"
#include "inject/injectors.hpp"
#include "util/matrix.hpp"

namespace ftgemm {

struct CampaignConfig {
  index_t size = 512;            ///< square problem size
  int runs = 10;                 ///< protected multiplications to execute
  int errors_per_run = 20;       ///< paper's Fig 2(c) regime
  double magnitude = 2.0;        ///< injected delta scale
  std::uint64_t seed = 1234;
  int threads = 1;
  bool use_reliable = false;     ///< route through ft_dgemm_reliable
};

struct CampaignResult {
  std::size_t injected = 0;
  std::int64_t detected = 0;
  std::int64_t corrected = 0;
  int uncorrectable_runs = 0;  ///< runs whose final report was not clean
  int wrong_result_runs = 0;   ///< runs whose C differed from the reference
  int retries = 0;             ///< re-executions (reliable mode)
  double max_rel_error = 0.0;  ///< worst per-run result error vs reference
  double mean_gflops = 0.0;

  /// The reliability claim: every fault either corrected or flagged, and
  /// no run produced a silently wrong result.
  [[nodiscard]] bool reliable() const { return wrong_result_runs == 0; }
};

/// Execute the campaign.  Deterministic under config.seed.
CampaignResult run_injection_campaign(const CampaignConfig& config);

// ---------------------------------------------------------------------------
// Batched campaign: the serving-traffic regime.
// ---------------------------------------------------------------------------

/// Configuration for a campaign over batched FT-GEMM calls.  Each run
/// executes one ft_gemm_strided_batched over `batch` independent problems
/// and aims the injector at a *randomly chosen* batch member, emulating a
/// soft error striking one of many concurrent small multiplications.
struct BatchedCampaignConfig {
  index_t size = 128;        ///< square per-problem size
  index_t batch = 16;        ///< problems per batched call
  int runs = 10;             ///< batched calls to execute
  int errors_per_run = 4;    ///< faults injected into the targeted problem
  double magnitude = 2.0;    ///< injected delta scale
  std::uint64_t seed = 1234;
  int threads = 0;           ///< batch-wide worker cap (0 = all cores)
  BatchSchedule schedule = BatchSchedule::kAuto;
};

struct BatchedCampaignResult {
  std::size_t injected = 0;       ///< ground-truth corruptions applied
  std::int64_t detected = 0;
  std::int64_t corrected = 0;
  index_t faulty_problems = 0;    ///< batch members reporting detections
  index_t dirty_problems = 0;     ///< batch members left uncorrected
  int wrong_result_runs = 0;      ///< runs with a silent wrong member
  std::vector<index_t> targets;   ///< problem index targeted in each run
  double max_rel_error = 0.0;     ///< worst member error vs reference
  double mean_gflops = 0.0;       ///< whole-batch throughput per run

  /// Every fault either corrected or flagged; no silent corruption.
  [[nodiscard]] bool reliable() const { return wrong_result_runs == 0; }
};

/// Execute the batched campaign.  Deterministic under config.seed (including
/// the per-run choice of targeted batch member).
BatchedCampaignResult run_batched_injection_campaign(
    const BatchedCampaignConfig& config);

// ---------------------------------------------------------------------------
// Service campaign: faults striking requests in flight in the async
// serving layer (serve/service.hpp).
// ---------------------------------------------------------------------------

/// Configuration for a campaign over a live GemmService.  `requests`
/// same-shape FT requests are submitted asynchronously; every
/// `inject_every`-th request carries its *own* CountInjector in its
/// request-scoped Options (the injector protocol is per-call stateful, so
/// targeted in-flight requests each get a private instance — the
/// request-scoped Options seam exists for exactly this).  Untargeted
/// requests are left eligible for coalesced-into-batched routing, so the
/// campaign exercises injected traffic flowing *around* merged batches.
struct ServiceCampaignConfig {
  index_t size = 96;         ///< square per-request problem size
  int requests = 12;         ///< requests submitted to the service
  int inject_every = 3;      ///< target every N-th request (0 = none)
  int errors_per_target = 4; ///< faults injected into each targeted request
  double magnitude = 2.0;    ///< injected delta scale
  std::uint64_t seed = 1234;
  int threads = 1;           ///< per-request worker cap
  std::size_t queue_capacity = 64;
};

struct ServiceCampaignResult {
  std::size_t injected = 0;        ///< ground-truth corruptions applied
  std::int64_t detected = 0;
  std::int64_t corrected = 0;
  int targeted_requests = 0;       ///< requests carrying an injector
  int coalesced_requests = 0;      ///< requests routed via merged batches
  int dirty_requests = 0;          ///< requests whose report was not clean
  int wrong_result_requests = 0;   ///< silent corruption (the failure mode)
  double max_rel_error = 0.0;      ///< worst request error vs reference

  /// Every fault either corrected or flagged; no silent corruption.
  [[nodiscard]] bool reliable() const { return wrong_result_requests == 0; }
};

/// Execute the service campaign.  Deterministic under config.seed: request
/// contents, injection schedules, and verification do not depend on the
/// dispatcher's interleaving (each request owns private operands and
/// injector).
ServiceCampaignResult run_service_injection_campaign(
    const ServiceCampaignConfig& config);

}  // namespace ftgemm
