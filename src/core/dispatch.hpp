// The generic (FT-)GEMM entry points: single-problem dispatch and the
// batched scheduler, one template each for every precision.  The public
// functions of core/gemm.hpp, core/gemm_i8.hpp and core/gemm_batched.hpp
// are thin named wrappers around them, and the serving layer
// (serve/service.cpp) calls them directly for whichever precision a request
// carries, so every route runs the same code.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/checksum_domain.hpp"
#include "core/context.hpp"
#include "core/driver.hpp"
#include "core/gemm_batched.hpp"
#include "core/plan.hpp"
#include "runtime/team.hpp"
#include "runtime/topology.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace ftgemm::detail {

/// Resolve Options::resident_a against the process-wide operand cache
/// (shared by free functions, engines and the serving layer: the payload
/// key covers everything the packed layout depends on, so one resident
/// encoding serves every submitter of the operand).  Post-normalization
/// column-major arguments; returns an empty acquisition when the call
/// cannot consume a payload (degenerate problem, resident_a off).  The
/// payload is keyed under the domain's resident alpha.
template <typename S, typename C>
ResidentAcquisition<S, C> acquire_resident(const Options& opts, Trans ta,
                                           index_t m, index_t n, index_t k,
                                           ScalarOf<S, C> alpha, const S* a,
                                           index_t lda,
                                           const GemmPlan<S, C>& plan) {
  ResidentAcquisition<S, C> acq;
  if (!opts.resident_a || m <= 0 || n <= 0 || k <= 0 ||
      alpha == ScalarOf<S, C>(0) || a == nullptr) {
    return acq;
  }
  acq = process_context_cache<S, C>().operands().acquire(
      a, lda, ta == Trans::kTrans, Domain<S, C>::resident_alpha(alpha), plan,
      opts.memory_injector, opts.resident_verify);
  return acq;
}

/// Dispatch one call: normalize the layout (and the domain's per-call
/// quantization with it), validate, plan, resolve the resident operand, and
/// hand the frozen plan to the pure executor.
///
/// Free functions (`engine` null) plan via the process-wide shared
/// PlanCache and lease a private workspace for the duration of the call:
/// any number of application threads may be in here concurrently — leases
/// never share workspaces, and a recurring shape is planned once
/// process-wide, not once per calling thread.  Engines plan and run on their
/// private single-owner context but share the process-wide operand cache:
/// the payload key covers everything the resident encoding depends on, so
/// an engine hit is exactly as safe as a free-function hit.
template <typename S, bool FT, typename C = S>
FtReport dispatch(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, ScalarOf<S, C> alpha, const S* a, index_t lda,
                  const S* b, index_t ldb, ScalarOf<S, C> beta,
                  ScalarOf<S, C>* c, index_t ldc, const Options& opts,
                  GemmContext<S, C>* engine = nullptr,
                  const QuantOf<S, C>& quant = {}) {
  const QuantOf<S, C> q = Domain<S, C>::normalize_quant(layout, quant);
  normalize_layout(layout, ta, tb, m, n, a, lda, b, ldb);
  if (!valid_args<S, C>(ta, tb, m, n, k, lda, ldb, ldc)) {
    FtReport rejected;
    rejected.invalid_args = true;
    return rejected;
  }
  ContextCache<S, C>& cache = process_context_cache<S, C>();
  const GemmPlan<S, C> plan = private_plan(
      engine != nullptr
          ? *engine->plans().get_or_build(ta, tb, m, n, k, opts, FT)
          : *cache.plan(ta, tb, m, n, k, opts, FT));
  const ResidentAcquisition<S, C> acq =
      acquire_resident(opts, ta, m, n, k, alpha, a, lda, plan);
  typename ContextCache<S, C>::Lease lease;
  if (engine == nullptr) lease = cache.lease();
  FtReport rep = execute<S, FT, C>(
      plan, alpha, a, lda, b, ldb, beta, c, ldc, opts.injector,
      opts.correction_log, engine != nullptr ? *engine : *lease,
      acq.payload.get(), opts.memory_injector, q);
  rep.resident_hit = acq.hit;
  rep.resident_heals = acq.heals;
  rep.resident_ecc_corrected = acq.ecc_corrected;
  return rep;
}

/// Per-problem flop count at or below which kAuto picks inter-batch
/// parallelism: threading a problem this small is mostly barrier overhead
/// (the FT driver synchronizes several times per rank-KC panel), while one
/// worker per problem keeps every core on independent arithmetic.  The
/// default hands problems up to ~400^3 to the inter-batch path; override
/// with FTGEMM_BATCH_INTER_FLOPS for tuning or A/B experiments.
inline constexpr double kInterBatchFlopCutoff = 134.0e6;

inline bool pick_inter_batch(const BatchOptions& opts, index_t m, index_t n,
                             index_t k, index_t batch) {
  switch (opts.schedule) {
    case BatchSchedule::kInter: return true;
    case BatchSchedule::kIntra: return false;
    case BatchSchedule::kAuto: break;
  }
  if (batch < 2) return false;
  const double flops = 2.0 * double(m) * double(n) * double(std::max<index_t>(k, 1));
  return flops <= env_double("FTGEMM_BATCH_INTER_FLOPS", kInterBatchFlopCutoff);
}

template <typename S, bool FT, typename C = S>
BatchReport run_batched(Layout layout, Trans ta, Trans tb, index_t m,
                        index_t n, index_t k, ScalarOf<S, C> alpha,
                        const S* const* a, index_t lda, const S* const* b,
                        index_t ldb, ScalarOf<S, C> beta,
                        ScalarOf<S, C>* const* c, index_t ldc, index_t batch,
                        const BatchOptions& opts,
                        const QuantOf<S, C>& quant = {}) {
  BatchReport report;
  const WallTimer timer;
  if (batch < 0) {
    report.invalid_args = true;
    return report;
  }
  if (batch == 0) return report;

  const QuantOf<S, C> q = Domain<S, C>::normalize_quant(layout, quant);
  normalize_layout(layout, ta, tb, m, n, a, lda, b, ldb);
  if (!valid_args<S, C>(ta, tb, m, n, k, lda, ldb, ldc)) {
    report.invalid_args = true;
    return report;
  }
  report.problems = batch;

  const int nt = runtime::topology(opts.base.threads);

  // A shared injector must see its begin_call / plan_block protocol one
  // problem at a time, and a shared correction log may not be appended to
  // by concurrent GEMMs (Options contract); inject_problem < 0 shares both
  // across every member.  Under kAuto that vetoes the inter-batch choice
  // (members big enough to thread then run the full nt-thread driver;
  // members under the fast-path work bound run serial either way — at that
  // size threading is all barrier); a *forced* kInter is honored, with the
  // injected members' execution serialized through sink_gate below so the
  // protocol stays well-defined.
  const bool shared_sink =
      (opts.base.injector != nullptr || opts.base.correction_log != nullptr) &&
      opts.inject_problem < 0;
  const bool inter = pick_inter_batch(opts, m, n, k, batch) &&
                     (opts.schedule == BatchSchedule::kInter || !shared_sink);
  report.inter_batch = inter;
  const int workers = inter ? int(std::min<index_t>(nt, batch)) : 1;

  // One leased workspace per concurrent worker, drawn from the process-wide
  // pool — concurrent batched calls issued from different application
  // threads lease disjoint contexts, and the leases return on scope exit.
  ContextCache<S, C>& cache = process_context_cache<S, C>();
  std::vector<typename ContextCache<S, C>::Lease> leases;
  leases.reserve(std::size_t(workers));
  for (int i = 0; i < workers; ++i) leases.push_back(cache.lease());

  // Plan the batch's single shape once via the shared plan cache; every
  // member executes the same private copy (inter-batch workers run the
  // serial driver, so the plan is built for one thread per problem).
  Options plan_opts = opts.base;
  plan_opts.threads = inter ? 1 : nt;
  const GemmPlan<S, C> plan =
      private_plan(*cache.plan(ta, tb, m, n, k, plan_opts, FT));

  std::vector<FtReport> reports(static_cast<std::size_t>(batch));

  // Serializes injected members when a protocol-stateful injector (or a
  // shared correction log) is attached to more than one member on the
  // inter-batch path: each member's begin_call -> plan_block -> record
  // sequence runs under the gate, never interleaved with another member's.
  std::mutex sink_gate;
  const bool gate_sinks = inter && shared_sink;

  const auto run_one = [&](index_t p, GemmContext<S, C>& ctx) {
    FaultInjector* injector = opts.base.injector;
    std::vector<CorrectionRecord>* log = opts.base.correction_log;
    if (opts.inject_problem >= 0 && p != opts.inject_problem) {
      injector = nullptr;
      log = nullptr;
    }
    std::unique_lock<std::mutex> gate;
    if (gate_sinks && (injector != nullptr || log != nullptr))
      gate = std::unique_lock<std::mutex>(sink_gate);
    // Resident A (acquire is thread-safe; concurrent inter-batch workers
    // over a stride-0 broadcast A encode it once — the first miss fills,
    // the rest wait for it and hit).  The memory injector / verification
    // run per-member, like the compute-domain injector.
    ResidentAcquisition<S, C> acq;
    if (opts.base.resident_a && m > 0 && n > 0 && k > 0 &&
        alpha != ScalarOf<S, C>(0) && a[p] != nullptr) {
      acq = cache.operands().acquire(
          a[p], lda, ta == Trans::kTrans,
          Domain<S, C>::resident_alpha(alpha), plan,
          opts.base.memory_injector, opts.base.resident_verify);
    }
    FtReport rep = execute<S, FT, C>(plan, alpha, a[p], lda, b[p],
                                             ldb, beta, c[p], ldc, injector,
                                             log, ctx, acq.payload.get(),
                                             opts.base.memory_injector, q);
    rep.resident_hit = acq.hit;
    rep.resident_heals = acq.heals;
    rep.resident_ecc_corrected = acq.ecc_corrected;
    reports[std::size_t(p)] = rep;
  };

  // Inter-batch dispatch: one team of `workers` members, so batch members
  // run directly on the calling thread's parked workers.  Dynamic
  // scheduling via a shared claim counter; problem-to-worker assignment
  // does not affect results, only load balance.  workers == 1 (the intra
  // path, or a one-problem batch) runs inline on the calling thread and
  // each problem's plan opens its own nt-member team.
  std::atomic<index_t> next{0};
  const auto member_body = [&](runtime::TeamMember& tm) {
    GemmContext<S, C>& ctx = *leases[std::size_t(tm.tid())];
    for (index_t p = next.fetch_add(1, std::memory_order_relaxed); p < batch;
         p = next.fetch_add(1, std::memory_order_relaxed)) {
      run_one(p, ctx);
    }
  };
  runtime::run_team(workers, member_body);

  for (const FtReport& r : reports) {
    if (r.resident_hit) ++report.resident_hits;
    report.resident_heals += r.resident_heals;
    report.resident_ecc_corrected += r.resident_ecc_corrected;
  }
  if constexpr (FT) {
    for (const FtReport& r : reports) {
      report.errors_detected += r.errors_detected;
      report.errors_corrected += r.errors_corrected;
      report.uncorrectable_panels += r.uncorrectable_panels;
      if (r.errors_detected > 0) ++report.faulty_problems;
      if (!r.clean()) ++report.dirty_problems;
    }
    report.per_problem = std::move(reports);
  }
  report.elapsed_seconds = timer.seconds();
  return report;
}

template <typename S, bool FT, typename C = S>
BatchReport run_strided_batched(Layout layout, Trans ta, Trans tb, index_t m,
                                index_t n, index_t k, ScalarOf<S, C> alpha,
                                const S* a, index_t lda, index_t stride_a,
                                const S* b, index_t ldb, index_t stride_b,
                                ScalarOf<S, C> beta, ScalarOf<S, C>* c,
                                index_t ldc, index_t stride_c, index_t batch,
                                const BatchOptions& opts,
                                const QuantOf<S, C>& quant = {}) {
  if (batch < 0) {
    BatchReport report;
    report.invalid_args = true;
    return report;
  }
  if (batch == 0) return {};
  std::vector<const S*> ap(static_cast<std::size_t>(batch));
  std::vector<const S*> bp(static_cast<std::size_t>(batch));
  std::vector<ScalarOf<S, C>*> cp(static_cast<std::size_t>(batch));
  for (index_t p = 0; p < batch; ++p) {
    ap[std::size_t(p)] = a + p * stride_a;
    bp[std::size_t(p)] = b + p * stride_b;
    cp[std::size_t(p)] = c + p * stride_c;
  }
  return run_batched<S, FT, C>(layout, ta, tb, m, n, k, alpha, ap.data(), lda,
                               bp.data(), ldb, beta, cp.data(), ldc, batch,
                               opts, quant);
}

}  // namespace ftgemm::detail
