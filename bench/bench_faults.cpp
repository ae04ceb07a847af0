// Memory-fault campaign sweep (DESIGN.md §12): detection / correction rates
// per strike surface as the fault count and burstiness grow.
//
// Every cell of `memory_fault_grid` runs through `run_campaign` on the sync
// entry point: surfaces {resident, panel_a, panel_b, plan} x faults {1, 4}
// x burst {1, 3}; a detected resident strike is healed by re-encoding from
// the source operand.  The table is counters, not wall time — the record
// is bit-reproducible under a fixed seed, and the claims it backs are the
// acceptance claims: every strike detected on every surface, and `masked`
// and `silent` columns that are all zeros.
//
// Environment knobs:
//   FTGEMM_BENCH_CALLS    trials per campaign cell (default 20)
//   FTGEMM_BENCH_THREADS  worker threads inside each GEMM (default 2)
#include "bench_common.hpp"
#include "inject/campaign.hpp"

int main() {
  using namespace ftgemm;
  using namespace ftgemm::bench;

  const int trials = int(env_long("FTGEMM_BENCH_CALLS", 20));
  const int threads = int(env_long("FTGEMM_BENCH_THREADS", 2));
  const std::uint64_t seed = 0x5eedu;

  std::printf("# memory-fault campaign: detection/correction vs faults x "
              "burst x surface\n");
  std::printf("# reproduces: DESIGN.md §12 memory-fault model claims\n");
  std::printf("# trials_per_cell=%d threads=%d seed=%llu\n", trials, threads,
              static_cast<unsigned long long>(seed));
  std::printf("# hardware_concurrency=%d\n", runtime::hardware_concurrency());
  std::printf("# git_sha=%s isa_features=%s\n", FTGEMM_GIT_SHA,
              cpu_feature_string().c_str());
  std::printf("%-10s%8s%8s%8s%10s%10s%8s%8s%10s%9s%8s%8s%10s\n",
              "surface", "faults", "burst", "trials", "inj_bits", "detected",
              "heals", "planfix", "abft_det", "abft_fix", "masked", "silent",
              "det_rate");

  for (CampaignConfig cfg : memory_fault_grid(trials, seed)) {
    cfg.threads = threads;
    const CampaignResult r = run_campaign(cfg);
    std::printf("%-10s%8d%8d%8d%10lld%10lld%8lld%8lld%10lld%9lld%8lld%8lld"
                "%10.3f\n",
                campaign_surface_name(cfg.surface), cfg.faults, cfg.burst,
                cfg.trials, static_cast<long long>(r.injected),
                static_cast<long long>(r.detected),
                static_cast<long long>(r.heals),
                static_cast<long long>(r.plan_heals),
                static_cast<long long>(r.errors_detected),
                static_cast<long long>(r.errors_corrected),
                static_cast<long long>(r.masked),
                static_cast<long long>(r.silent),
                cfg.trials > 0 ? double(r.detected) / double(cfg.trials)
                               : 0.0);
  }
  return 0;
}
