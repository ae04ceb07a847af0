#include "inject/campaign.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "baseline/naive_gemm.hpp"
#include "serve/service.hpp"
#include "util/timer.hpp"

namespace ftgemm {

CampaignResult run_injection_campaign(const CampaignConfig& config) {
  CampaignResult result;
  const index_t n = config.size;

  Matrix<double> a(n, n), b(n, n), c(n, n), ref(n, n);
  a.fill_random(config.seed);
  b.fill_random(config.seed + 1);
  ref.fill(0.0);

  Options clean_opts;
  clean_opts.threads = config.threads;
  GemmEngine<double> clean_engine(clean_opts);
  clean_engine.gemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
                    n, n, 1.0, a.data(), n, b.data(), n, 0.0, ref.data(), n);

  CountInjector injector(config.errors_per_run, config.seed + 7,
                         config.magnitude);
  Options opts;
  opts.threads = config.threads;
  opts.injector = &injector;
  GemmEngine<double> engine(opts);

  double gflops_sum = 0.0;
  for (int run = 0; run < config.runs; ++run) {
    c.fill(0.0);
    WallTimer t;
    FtReport rep;
    if (config.use_reliable) {
      rep = ft_dgemm_reliable(Layout::kColMajor, Trans::kNoTrans,
                              Trans::kNoTrans, n, n, n, 1.0, a.data(), n,
                              b.data(), n, 0.0, c.data(), n, opts);
    } else {
      rep = engine.ft_gemm(Layout::kColMajor, Trans::kNoTrans,
                           Trans::kNoTrans, n, n, n, 1.0, a.data(), n,
                           b.data(), n, 0.0, c.data(), n);
    }
    gflops_sum +=
        gemm_gflops(double(n), double(n), double(n), t.seconds());

    result.detected += rep.errors_detected;
    result.corrected += rep.errors_corrected;
    result.retries += rep.retries;
    if (!rep.clean()) ++result.uncorrectable_runs;

    const double err = max_rel_diff(c, ref);
    result.max_rel_error = std::max(result.max_rel_error, err);
    // A run is silently wrong only if the result is off AND the report
    // claimed it was clean — flagged-dirty runs are the documented
    // contract for pathological patterns (ft_dgemm_reliable retries them).
    if (err > 1e-9 && rep.clean()) ++result.wrong_result_runs;
  }
  result.injected = injector.injected_count();
  result.mean_gflops = gflops_sum / double(std::max(config.runs, 1));
  return result;
}

BatchedCampaignResult run_batched_injection_campaign(
    const BatchedCampaignConfig& config) {
  BatchedCampaignResult result;
  const index_t n = config.size;
  const index_t batch = config.batch;
  const index_t stride = n * n;

  // Strided batch storage: problem p lives at offset p * n^2.
  Matrix<double> a(n, n * batch), b(n, n * batch), c(n, n * batch);
  Matrix<double> ref(n, n * batch);
  a.fill_random(config.seed);
  b.fill_random(config.seed + 1);

  // Fault-free reference for every batch member.
  ref.fill(0.0);
  BatchOptions clean_opts;
  clean_opts.base.threads = config.threads;
  clean_opts.schedule = config.schedule;
  gemm_strided_batched<double>(Layout::kColMajor, Trans::kNoTrans,
                               Trans::kNoTrans, n, n, n, 1.0, a.data(), n,
                               stride, b.data(), n, stride, 0.0, ref.data(),
                               n, stride, batch, clean_opts);

  CountInjector injector(config.errors_per_run, config.seed + 7,
                         config.magnitude);
  Xoshiro256 target_rng(config.seed + 99);

  double gflops_sum = 0.0;
  for (int run = 0; run < config.runs; ++run) {
    c.fill(0.0);
    const index_t target =
        index_t(target_rng.bounded(std::uint64_t(std::max<index_t>(batch, 1))));
    result.targets.push_back(target);

    BatchOptions opts;
    opts.base.threads = config.threads;
    opts.base.injector = &injector;
    opts.schedule = config.schedule;
    opts.inject_problem = target;

    WallTimer t;
    const BatchReport rep = ft_gemm_strided_batched<double>(
        Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
        a.data(), n, stride, b.data(), n, stride, 0.0, c.data(), n, stride,
        batch, opts);
    gflops_sum += gemm_gflops(double(n) * double(batch), double(n), double(n),
                              t.seconds());

    result.detected += rep.errors_detected;
    result.corrected += rep.errors_corrected;
    result.faulty_problems += rep.faulty_problems;
    result.dirty_problems += rep.dirty_problems;

    // Verify every member against its reference; only members whose report
    // claimed clean may count as silently wrong (same contract as the
    // single-problem campaign).
    bool silent_wrong = false;
    for (index_t p = 0; p < batch; ++p) {
      double worst = 0.0;
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < n; ++i) {
          const double x = c(i, p * n + j), y = ref(i, p * n + j);
          const double denom = std::max({std::abs(x), std::abs(y), 1.0});
          worst = std::max(worst, std::abs(x - y) / denom);
        }
      }
      result.max_rel_error = std::max(result.max_rel_error, worst);
      if (worst > 1e-9 && rep.per_problem[std::size_t(p)].clean())
        silent_wrong = true;
    }
    if (silent_wrong) ++result.wrong_result_runs;
  }
  result.injected = injector.injected_count();
  result.mean_gflops = gflops_sum / double(std::max(config.runs, 1));
  return result;
}

ServiceCampaignResult run_service_injection_campaign(
    const ServiceCampaignConfig& config) {
  ServiceCampaignResult result;
  const index_t n = config.size;
  const int requests = std::max(config.requests, 0);

  // Private operands, reference, and (for targeted requests) injector per
  // request: in-flight requests execute concurrently, and the injector
  // protocol is per-call stateful.
  std::vector<Matrix<double>> a, b, c, ref;
  std::vector<std::unique_ptr<CountInjector>> injectors(
      static_cast<std::size_t>(requests));
  a.reserve(std::size_t(requests));
  b.reserve(std::size_t(requests));
  c.reserve(std::size_t(requests));
  ref.reserve(std::size_t(requests));
  for (int r = 0; r < requests; ++r) {
    const std::uint64_t seed = config.seed + std::uint64_t(r) * 5;
    a.emplace_back(n, n);
    b.emplace_back(n, n);
    c.emplace_back(n, n);
    ref.emplace_back(n, n);
    a.back().fill_random(seed);
    b.back().fill_random(seed + 1);
    c.back().fill(0.0);
    ref.back().fill(0.0);
    baseline::naive_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
                          a.back().data(), n, b.back().data(), n, 0.0,
                          ref.back().data(), n);
  }

  // Stage the whole burst while paused, then release it: the campaign's
  // routing mix (direct injected requests amid coalesced clean traffic)
  // becomes a property of the workload, not of submission timing.
  serve::ServiceConfig scfg;
  scfg.queue_capacity =
      std::max<std::size_t>(config.queue_capacity, std::size_t(requests));
  scfg.start_paused = true;
  serve::GemmService service(scfg);

  std::vector<serve::GemmFuture> futures;
  futures.reserve(std::size_t(requests));
  for (int r = 0; r < requests; ++r) {
    Options opts;
    opts.threads = config.threads;
    const bool targeted =
        config.inject_every > 0 && r % config.inject_every == 0;
    if (targeted) {
      injectors[std::size_t(r)] = std::make_unique<CountInjector>(
          config.errors_per_target, config.seed + 7 + std::uint64_t(r),
          config.magnitude);
      opts.injector = injectors[std::size_t(r)].get();
      ++result.targeted_requests;
    }
    futures.push_back(service.submit(serve::make_gemm_request<double>(
        /*ft=*/true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n,
        n, n, 1.0, a[std::size_t(r)].data(), n, b[std::size_t(r)].data(), n,
        0.0, c[std::size_t(r)].data(), n, opts)));
  }
  service.resume();

  for (int r = 0; r < requests; ++r) {
    const serve::GemmResult& res = futures[std::size_t(r)].wait();
    result.detected += res.report.errors_detected;
    result.corrected += res.report.errors_corrected;
    if (res.coalesced) ++result.coalesced_requests;
    if (!res.report.clean()) ++result.dirty_requests;
    const double err = max_rel_diff(c[std::size_t(r)], ref[std::size_t(r)]);
    result.max_rel_error = std::max(result.max_rel_error, err);
    // Same silent-corruption contract as the other campaigns: only a wrong
    // result under a clean report counts against reliability.
    if (err > 1e-9 && res.report.clean()) ++result.wrong_result_requests;
  }
  for (const auto& inj : injectors) {
    if (inj) result.injected += inj->injected_count();
  }
  return result;
}

}  // namespace ftgemm
