// Asynchronous serving demo: one GemmService front-end absorbing mixed
// traffic — high-priority protected requests, bulk low-priority work, a
// burst of same-shape small GEMMs that the dispatcher coalesces into one
// batched call, a strided-batched inference request, and a cancellation —
// with completion callbacks and the per-service counters.
//
// Self-checking: exits 0 iff every served result verifies against the
// naive oracle, the coalesced burst actually merged, priorities completed
// ahead of bulk work, and the service accounting balances.
//
//   ./serving [burst] [bulk]     (defaults: burst=12 bulk=6)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ftgemm.hpp"

using namespace ftgemm;

namespace {

struct Workload {
  Matrix<double> a, b, c, ref;
  Workload(index_t m, index_t n, index_t k, std::uint64_t seed)
      : a(m, k), b(k, n), c(m, n), ref(m, n) {
    a.fill_random(seed);
    b.fill_random(seed + 1);
    c.fill(0.0);
    ref.fill(0.0);
    baseline::naive_dgemm(Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0,
                          a.data(), a.ld(), b.data(), b.ld(), 0.0, ref.data(),
                          ref.ld());
  }
  [[nodiscard]] bool verify(double tol = 1e-9) const {
    return max_rel_diff(c, ref) <= tol;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const int burst = argc > 1 ? std::atoi(argv[1]) : 12;
  const int bulk = argc > 2 ? std::atoi(argv[2]) : 6;
  bool ok = true;
  const auto check = [&](bool cond, const char* what) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };

  std::printf("== FT-GEMM async serving demo ==\n");
  serve::ServiceConfig cfg;
  cfg.start_paused = true;  // stage the whole mix, then open the gate
  cfg.shards = 1;  // priority order is a per-shard guarantee
  serve::GemmService service(cfg);

  // 1. A high-priority protected request (the latency-critical tenant).
  Workload hot(96, 80, 260, 1);
  std::atomic<int> completion_rank{0};
  int hot_rank = -1;
  serve::GemmFuture hot_fut = service.submit(serve::make_gemm_request<double>(
      /*ft=*/true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 96,
      80, 260, 1.0, hot.a.data(), hot.a.ld(), hot.b.data(), hot.b.ld(), 0.0,
      hot.c.data(), hot.c.ld(), {}, serve::Priority::kHigh));
  hot_fut.then([&](const serve::GemmResult&) {
    hot_rank = completion_rank.fetch_add(1);
  });

  // 2. Bulk low-priority Ori work (the batch tenant).
  std::vector<Workload> bulk_work;
  std::vector<serve::GemmFuture> bulk_futs;
  int last_bulk_rank = -1;
  for (int i = 0; i < bulk; ++i) {
    bulk_work.emplace_back(128, 96, 180, std::uint64_t(100 + i));
    Workload& w = bulk_work.back();
    serve::GemmFuture f = service.submit(serve::make_gemm_request<double>(
        /*ft=*/false, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
        128, 96, 180, 1.0, w.a.data(), w.a.ld(), w.b.data(), w.b.ld(), 0.0,
        w.c.data(), w.c.ld(), {}, serve::Priority::kLow));
    f.then([&](const serve::GemmResult&) {
      last_bulk_rank = completion_rank.fetch_add(1);
    });
    bulk_futs.push_back(std::move(f));
  }

  // 3. A burst of same-shape small FT requests — the coalescing regime.
  std::vector<Workload> burst_work;
  std::vector<serve::GemmFuture> burst_futs;
  for (int i = 0; i < burst; ++i) {
    burst_work.emplace_back(48, 40, 64, std::uint64_t(200 + i));
    Workload& w = burst_work.back();
    burst_futs.push_back(service.submit(serve::make_gemm_request<double>(
        /*ft=*/true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 48,
        40, 64, 1.0, w.a.data(), w.a.ld(), w.b.data(), w.b.ld(), 0.0,
        w.c.data(), w.c.ld())));
  }

  // 4. A strided-batched FT request (one ML inference step: shared weights,
  //    stride-0 broadcast A).
  const index_t bn = 32, bbatch = 4;
  Workload inference(bn, bn * bbatch, bn, 300);
  serve::GemmFuture inf_fut =
      service.submit(serve::make_strided_batched_request<double>(
          /*ft=*/true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
          bn, bn, bn, 1.0, inference.a.data(), inference.a.ld(), 0,
          inference.b.data(), inference.b.ld(), bn * inference.b.ld(), 0.0,
          inference.c.data(), inference.c.ld(), bn * inference.c.ld(),
          bbatch));

  // 5. A request we change our mind about.
  Workload doomed(64, 64, 64, 400);
  serve::GemmFuture doomed_fut =
      service.submit(serve::make_gemm_request<double>(
          /*ft=*/true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
          64, 64, 64, 1.0, doomed.a.data(), doomed.a.ld(), doomed.b.data(),
          doomed.b.ld(), 0.0, doomed.c.data(), doomed.c.ld(), {},
          serve::Priority::kLow));
  const bool cancelled = doomed_fut.cancel();

  std::printf("staged: 1 high + %d bulk + %d burst + 1 batched + 1 "
              "cancelled (queue depth %zu)\n",
              bulk, burst, service.queue_depth());
  service.resume();
  service.shutdown(/*drain=*/true);

  // -- Verification ---------------------------------------------------------
  const serve::GemmResult& hot_res = hot_fut.wait();
  check(hot_res.status == serve::RequestStatus::kDone && hot_res.ok() &&
            hot.verify(),
        "high-priority FT request served and verified");
  check(hot_rank == 0, "high-priority request completed first");

  bool bulk_ok = true;
  for (int i = 0; i < bulk; ++i) {
    bulk_ok = bulk_ok &&
              bulk_futs[std::size_t(i)].wait().status ==
                  serve::RequestStatus::kDone &&
              bulk_work[std::size_t(i)].verify();
  }
  check(bulk_ok, "bulk Ori requests served and verified");
  check(last_bulk_rank == completion_rank.load() - 1,
        "low-priority bulk drained last");

  bool burst_ok = true, any_coalesced = false;
  for (int i = 0; i < burst; ++i) {
    const serve::GemmResult& r = burst_futs[std::size_t(i)].wait();
    burst_ok = burst_ok && r.status == serve::RequestStatus::kDone &&
               r.ok() && burst_work[std::size_t(i)].verify();
    any_coalesced = any_coalesced || r.coalesced;
  }
  check(burst_ok, "small-GEMM burst served and verified");
  check(any_coalesced, "burst rode coalesced-into-batched routing");

  const serve::GemmResult& inf_res = inf_fut.wait();
  check(inf_res.status == serve::RequestStatus::kDone &&
            inf_res.batch.problems == bbatch && inference.verify(),
        "strided-batched inference request served and verified");

  check(cancelled &&
            doomed_fut.wait().status == serve::RequestStatus::kCancelled,
        "cancelled request never executed");

  const serve::ServiceStats stats = service.stats();
  std::printf(
      "\nservice counters: submitted=%llu completed=%llu cancelled=%llu "
      "rejected=%llu\n  coalesced: %llu requests in %llu batched calls; "
      "direct=%llu batched=%llu\n  ft: detected=%lld corrected=%lld "
      "dirty=%llu | peak queue=%llu peak inflight=%llu\n",
      (unsigned long long)stats.submitted, (unsigned long long)stats.completed,
      (unsigned long long)stats.cancelled, (unsigned long long)stats.rejected,
      (unsigned long long)stats.coalesced_members,
      (unsigned long long)stats.coalesced_batches,
      (unsigned long long)stats.direct_calls,
      (unsigned long long)stats.batched_calls,
      (long long)stats.errors_detected, (long long)stats.errors_corrected,
      (unsigned long long)stats.dirty_results,
      (unsigned long long)stats.peak_queue_depth,
      (unsigned long long)stats.peak_inflight);
  check(stats.completed + stats.cancelled == stats.submitted,
        "accounting balances: every admitted request settled");

  std::printf("\n%s\n", ok ? "ALL SERVED REQUESTS VERIFIED"
                           : "SERVING DEMO FAILED");
  return ok ? 0 : 1;
}
