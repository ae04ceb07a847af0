// Example: systematic fault-injection campaign across error densities.
//
// Sweeps the number of injected errors per multiplication and reports, for
// each regime, the detection/correction bookkeeping and whether any run
// produced a silently wrong result — the reproduction of the paper's §3.2
// reliability argument as a one-command experiment.
//
//   build/examples/fault_campaign [size] [runs_per_regime]
#include <cstdio>
#include <cstdlib>

#include "inject/campaign.hpp"

using namespace ftgemm;

int main(int argc, char** argv) {
  const index_t size = argc > 1 ? std::atoll(argv[1]) : 384;
  const int runs = argc > 2 ? std::atoi(argv[2]) : 5;

  std::printf("fault campaign: %lld^3 DGEMM, %d runs per regime, "
              "ft_dgemm_reliable\n",
              (long long)size, runs);
  std::printf("%-10s%12s%12s%12s%10s%10s%12s%12s\n", "errs/run", "injected",
              "detected", "corrected", "retries", "silent", "max_rel_er",
              "GFLOPS");

  bool all_reliable = true;
  for (const int errors : {0, 1, 5, 20, 50, 100}) {
    CampaignConfig config;
    config.entry = CampaignEntry::kReliable;
    config.size = size;
    config.trials = runs;
    config.faults = errors;
    config.magnitude = 3.0;
    config.seed = 0xC0FFEE + std::uint64_t(errors);
    config.threads = 1;
    const CampaignResult r = run_campaign(config);
    all_reliable &= r.reliable();
    std::printf("%-10d%12lld%12lld%12lld%10lld%10lld%12.1e%12.1f\n", errors,
                (long long)r.injected, (long long)r.errors_detected,
                (long long)r.errors_corrected, (long long)r.retries,
                (long long)r.silent, r.max_rel_error, r.mean_gflops);
    std::fflush(stdout);
  }

  std::printf("\n%s\n", all_reliable
                            ? "RELIABLE: no regime produced a silently "
                              "wrong result"
                            : "FAILURE: silent corruption observed");
  return all_reliable ? 0 : 1;
}
