// GemmService differential suite: the async front-end must deliver
// *bit-identical* results to the synchronous entry points for every routing
// decision its dispatcher can make — direct dispatch, coalesced-into-
// batched, any priority, any team size, both precisions — plus the
// lifecycle surface: cancellation, pause/resume, queue-full backpressure,
// shutdown with in-flight requests, and an 8-client soak with lease/plan
// accounting (mirroring test_concurrent.cpp one layer up the stack).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/gemm.hpp"
#include "core/gemm_i8.hpp"
#include "inject/injectors.hpp"
#include "serve/service.hpp"
#include "test_common.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace ftgemm {
namespace {

using serve::GemmFuture;
using serve::GemmResult;
using serve::GemmService;
using serve::Priority;
using serve::RejectReason;
using serve::RequestStatus;
using serve::ServiceConfig;
using serve::make_gemm_request;
using serve::make_strided_batched_request;
using testing::GemmCase;
using testing::Problem;
using testing::expect_matrix_near;
using testing::gemm_tolerance;
using testing::reference_result;

/// Whether make_gemm_request<S> is viable with Sc scalars and an Sc* C.
template <typename S, typename Sc, typename = void>
struct BuildsRequest : std::false_type {};
template <typename S, typename Sc>
struct BuildsRequest<
    S, Sc,
    std::void_t<decltype(make_gemm_request<S>(
        true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 1, 1, 1,
        std::declval<Sc>(), std::declval<const S*>(), 1,
        std::declval<const S*>(), 1, std::declval<Sc>(), std::declval<Sc*>(),
        1))>> : std::true_type {};

// The request builders exist exactly for the listed precisions, each with
// its own scalar/C type.  An element type outside the list, or operands
// paired with a C the service would read at another width (int8 or bf16
// scalars and C, once tagged kF32 / kBf16 and read as 4-byte floats), must
// not compile.
static_assert(BuildsRequest<float, float>::value);
static_assert(BuildsRequest<double, double>::value);
static_assert(BuildsRequest<bf16_t, float>::value);
static_assert(BuildsRequest<fp16_t, float>::value);
static_assert(BuildsRequest<std::int8_t, float>::value);
static_assert(!BuildsRequest<std::int32_t, std::int32_t>::value);
static_assert(!BuildsRequest<std::int8_t, std::int8_t>::value);
static_assert(!BuildsRequest<bf16_t, bf16_t>::value);
static_assert(serve::kPrecisionOf<std::int8_t> == serve::Precision::kI8);
static_assert(serve::kPrecisionOf<fp16_t> == serve::Precision::kF16);

/// Synchronous oracle: the very entry point the service claims to match.
template <typename T>
FtReport run_sync(const GemmCase& cs, bool ft, const Problem<T>& p,
                  Matrix<T>& c, const Options& opts) {
  if (ft) {
    if constexpr (sizeof(T) == 8) {
      return ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                      cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                      cs.beta, c.data(), c.ld(), opts);
    } else {
      return ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                      T(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                      p.b.ld(), T(cs.beta), c.data(), c.ld(), opts);
    }
  }
  if constexpr (sizeof(T) == 8) {
    dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c.data(),
          c.ld(), opts);
  } else {
    sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, T(cs.alpha),
          p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), T(cs.beta), c.data(),
          c.ld(), opts);
  }
  return {};
}

template <typename T>
void differential_case(GemmService& service, const GemmCase& cs, bool ft,
                       const Options& opts, Priority priority,
                       std::uint64_t seed, int shard_hint = -1) {
  Problem<T> p(cs, seed);
  Matrix<T> c_sync = p.c.clone();
  const FtReport sync_rep = run_sync<T>(cs, ft, p, c_sync, opts);

  Matrix<T> c_async = p.c.clone();
  auto req = make_gemm_request<T>(
      ft, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, T(cs.alpha),
      p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), T(cs.beta), c_async.data(),
      c_async.ld(), opts, priority);
  req.shard_hint = shard_hint;
  GemmFuture fut = service.submit(req);
  const GemmResult& res = fut.wait();

  ASSERT_EQ(res.status, RequestStatus::kDone) << cs;
  EXPECT_TRUE(res.ok()) << cs;
  expect_matrix_near(c_async, c_sync, 0.0, "async vs sync " + cs.name());
  if (ft) {
    EXPECT_EQ(res.report.panels, sync_rep.panels) << cs;
    EXPECT_EQ(res.report.errors_detected, sync_rep.errors_detected) << cs;
    EXPECT_EQ(res.report.uncorrectable_panels, sync_rep.uncorrectable_panels)
        << cs;
  }
}

TEST(ServiceDifferential, BitIdenticalToSyncAcrossShapesThreadsPriorities) {
  GemmService service;
  const GemmCase shapes[] = {
      {48, 40, 64},                                        // fast path
      {96, 80, 260},                                       // multi-panel
      {65, 43, 87, Trans::kTrans, Trans::kNoTrans},        // Ta
      {64, 300, 320, Trans::kNoTrans, Trans::kTrans},      // Tb, wide
      {60, 60, 60, Trans::kNoTrans, Trans::kNoTrans, -1.5, 0.5},
  };
  const Priority priorities[] = {Priority::kLow, Priority::kNormal,
                                 Priority::kHigh};
  int i = 0;
  for (const GemmCase& cs : shapes) {
    for (const bool ft : {false, true}) {
      Options opts;
      opts.threads = 1 + i % 3;
      const Priority pri = priorities[i % 3];
      differential_case<double>(service, cs, ft, opts, pri,
                                std::uint64_t(100 + i));
      differential_case<float>(service, cs, ft, opts, pri,
                               std::uint64_t(200 + i));
      ++i;
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.cancelled + stats.rejected, 0u);
}

TEST(ServiceDifferential, CoalescedRoutingIsBitIdenticalToSync) {
  // Stage the queue while paused so the dispatcher's first sweep merges the
  // whole set: all requests share one fast-path fingerprint, so the service
  // must route them through a single batched inter-scheduler call — and
  // every member must still equal its own synchronous twin bit-for-bit.
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.max_coalesce = 16;
  cfg.shards = 1;  // one dispatcher: the whole set must merge into one call
  GemmService service(cfg);

  const GemmCase cs{48, 40, 64, Trans::kNoTrans, Trans::kTrans, 1.25, -0.5};
  Options opts;
  opts.threads = 3;  // fast path pins to 1 thread either route
  const int kRequests = 10;

  std::vector<Problem<double>> problems;
  std::vector<Matrix<double>> c_sync, c_async;
  problems.reserve(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    problems.emplace_back(cs, std::uint64_t(40 + r));
    c_sync.push_back(problems.back().c.clone());
    c_async.push_back(problems.back().c.clone());
  }
  std::vector<FtReport> sync_reps;
  for (int r = 0; r < kRequests; ++r) {
    sync_reps.push_back(
        run_sync<double>(cs, true, problems[std::size_t(r)],
                         c_sync[std::size_t(r)], opts));
  }

  std::vector<GemmFuture> futures;
  for (int r = 0; r < kRequests; ++r) {
    const Problem<double>& p = problems[std::size_t(r)];
    futures.push_back(service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
        c_async[std::size_t(r)].data(), c_async[std::size_t(r)].ld(), opts)));
  }
  EXPECT_EQ(service.queue_depth(), std::size_t(kRequests));
  service.resume();

  for (int r = 0; r < kRequests; ++r) {
    const GemmResult& res = futures[std::size_t(r)].wait();
    ASSERT_EQ(res.status, RequestStatus::kDone) << "request " << r;
    EXPECT_TRUE(res.coalesced) << "request " << r
                               << " should ride the merged batch";
    EXPECT_TRUE(res.ok()) << "request " << r;
    expect_matrix_near(c_async[std::size_t(r)], c_sync[std::size_t(r)], 0.0,
                       "coalesced member " + std::to_string(r));
    EXPECT_EQ(res.report.panels, sync_reps[std::size_t(r)].panels);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.coalesced_members, std::uint64_t(kRequests));
  EXPECT_EQ(stats.completed, std::uint64_t(kRequests));
}

TEST(ServiceDifferential, StridedBatchedRequestMatchesSyncBatched) {
  const index_t n = 32, batch = 5;
  const GemmCase whole{n, n * batch, n};
  Problem<double> p(whole, 77);
  Options base;
  base.threads = 2;

  Matrix<double> c_sync = p.c.clone();
  BatchOptions bopts;
  bopts.base = base;
  const BatchReport sync_rep = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
      p.a.data(), p.a.ld(), 0, p.b.data(), p.b.ld(), n * p.b.ld(), 0.0,
      c_sync.data(), c_sync.ld(), n * c_sync.ld(), batch, bopts);

  GemmService service;
  Matrix<double> c_async = p.c.clone();
  GemmFuture fut = service.submit(make_strided_batched_request<double>(
      true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n,
      1.0, p.a.data(), p.a.ld(), 0, p.b.data(), p.b.ld(), n * p.b.ld(), 0.0,
      c_async.data(), c_async.ld(), n * c_async.ld(), batch, base));
  const GemmResult& res = fut.wait();

  ASSERT_EQ(res.status, RequestStatus::kDone);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.batch.problems, batch);
  EXPECT_EQ(res.batch.dirty_problems, sync_rep.dirty_problems);
  expect_matrix_near(c_async, c_sync, 0.0, "strided-batched async vs sync");
  EXPECT_EQ(service.stats().batched_calls, 1u);
}

TEST(ServiceLifecycle, PriorityLanesDrainHighestFirst) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.coalesce = false;  // keep one completion per request, in lane order
  cfg.shards = 1;        // lane order is a per-shard guarantee
  GemmService service(cfg);

  const GemmCase cs{32, 32, 32};
  std::vector<Problem<double>> problems;
  std::vector<Matrix<double>> cs_out;
  std::mutex order_m;
  std::vector<int> order;
  std::vector<GemmFuture> futures;

  const Priority plan[] = {Priority::kLow,    Priority::kLow,
                           Priority::kNormal, Priority::kNormal,
                           Priority::kHigh,   Priority::kHigh};
  for (int r = 0; r < 6; ++r) {
    problems.emplace_back(cs, std::uint64_t(60 + r));
    cs_out.push_back(problems.back().c.clone());
  }
  for (int r = 0; r < 6; ++r) {
    const Problem<double>& p = problems[std::size_t(r)];
    GemmFuture fut = service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
        cs_out[std::size_t(r)].data(), cs_out[std::size_t(r)].ld(), {},
        plan[r]));
    fut.then([r, &order_m, &order](const GemmResult&) {
      std::lock_guard<std::mutex> lk(order_m);
      order.push_back(r);
    });
    futures.push_back(std::move(fut));
  }
  service.resume();
  service.shutdown(true);

  ASSERT_EQ(order.size(), 6u);
  // Highs (4, 5) first, lows (0, 1) last; FIFO within a lane.
  EXPECT_EQ(order[0], 4);
  EXPECT_EQ(order[1], 5);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 3);
  EXPECT_EQ(order[4], 0);
  EXPECT_EQ(order[5], 1);
}

TEST(ServiceLifecycle, HoldoverSurvivesHigherLaneMismatchSweep) {
  // Regression: a coalescing sweep parks its one popped-but-mismatched
  // entry in a holdover slot.  With a single per-shard slot, a later sweep
  // whose head came from a HIGHER lane could park its own mismatch on top
  // of a still-waiting lower-lane holdover — destroying that request
  // without ever settling it (the client's wait() hung forever and the
  // leaked queue reservation wedged shutdown(drain)).  The slots are per
  // lane now; this test stages the exact overwrite interleaving and
  // requires every future to settle.
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.shards = 1;
  cfg.inline_fast_lane = false;  // the high-lane pair below must queue
  GemmService service(cfg);

  // Four fast-path (coalescible) shapes with four distinct plan
  // fingerprints: every sweep that pops a second entry mismatches and
  // must park it.
  const GemmCase shapes[] = {
      {48, 40, 64},  // [0] low-lane head of sweep 1
      {40, 48, 64},  // [1] low-lane mismatch -> parked holdover
      {32, 48, 64},  // [2] high-lane head of sweep 2
      {64, 40, 32},  // [3] high-lane mismatch -> the overwriting park
  };
  const Priority lanes[] = {Priority::kLow, Priority::kLow, Priority::kHigh,
                            Priority::kHigh};
  std::vector<Problem<double>> problems;
  std::vector<Matrix<double>> c_sync, c_async;
  for (int r = 0; r < 4; ++r) {
    problems.emplace_back(shapes[r], std::uint64_t(500 + r));
    c_sync.push_back(problems.back().c.clone());
    c_async.push_back(problems.back().c.clone());
    run_sync<double>(shapes[r], true, problems.back(),
                     c_sync[std::size_t(r)], {});
  }
  auto submit = [&](int r) {
    const Problem<double>& p = problems[std::size_t(r)];
    const GemmCase& cs = shapes[r];
    return service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
        c_async[std::size_t(r)].data(), c_async[std::size_t(r)].ld(), {},
        lanes[r]));
  };

  std::vector<GemmFuture> futures;
  futures.push_back(submit(0));
  futures.push_back(submit(1));
  // Hold the dispatcher inside sweep 1's execution (after it parked
  // request 1 in the low lane's holdover slot) until the high-lane pair
  // is staged behind it.
  std::atomic<bool> sweep1_executing{false};
  std::atomic<bool> release{false};
  futures[0].then([&](const GemmResult&) {
    sweep1_executing.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  service.resume();
  while (!sweep1_executing.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  futures.push_back(submit(2));
  futures.push_back(submit(3));
  // The parked holdover plus the two high-lane arrivals.
  EXPECT_EQ(service.queue_depth(), 3u);
  release.store(true);

  // Sweep 2 pops request 2 as its head, mismatches on request 3, and must
  // park it WITHOUT clobbering the still-parked request 1.
  bool all_settled = true;
  for (int r = 0; r < 4; ++r) {
    const bool settled = futures[std::size_t(r)].wait_for(30.0);
    EXPECT_TRUE(settled) << "request " << r
                         << " was lost from a holdover slot";
    all_settled = all_settled && settled;
  }
  // A lost request leaks its queue reservation and drain would spin
  // forever; fall back to cancel-mode shutdown so a regression fails
  // instead of hanging.
  service.shutdown(all_settled);
  if (!all_settled) return;
  for (int r = 0; r < 4; ++r) {
    const GemmResult& res = futures[std::size_t(r)].wait();
    ASSERT_EQ(res.status, RequestStatus::kDone) << "request " << r;
    EXPECT_TRUE(res.ok()) << "request " << r;
    expect_matrix_near(c_async[std::size_t(r)], c_sync[std::size_t(r)], 0.0,
                       "holdover request " + std::to_string(r));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.inline_executed, 0u);
}

TEST(ServiceLifecycle, CancelQueuedRequestLeavesCUntouched) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  GemmService service(cfg);

  const GemmCase cs{40, 40, 40};
  Problem<double> p0(cs, 1), p1(cs, 2), p2(cs, 3);
  Matrix<double> c0 = p0.c.clone(), c2 = p2.c.clone();
  Matrix<double> c1(cs.m, cs.n);
  c1.fill(42.0);  // sentinel: a cancelled request must never write C
  const Matrix<double> c1_before = c1.clone();

  auto req = [&](const Problem<double>& p, Matrix<double>& c) {
    return make_gemm_request<double>(true, Layout::kColMajor, cs.ta, cs.tb,
                                     cs.m, cs.n, cs.k, cs.alpha, p.a.data(),
                                     p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
                                     c.data(), c.ld());
  };
  GemmFuture f0 = service.submit(req(p0, c0));
  GemmFuture f1 = service.submit(req(p1, c1));
  GemmFuture f2 = service.submit(req(p2, c2));

  EXPECT_TRUE(f1.cancel());
  EXPECT_FALSE(f1.cancel()) << "second cancel must report failure";
  EXPECT_EQ(f1.wait().status, RequestStatus::kCancelled);

  service.resume();
  EXPECT_EQ(f0.wait().status, RequestStatus::kDone);
  EXPECT_EQ(f2.wait().status, RequestStatus::kDone);
  EXPECT_FALSE(f0.cancel()) << "cancel after completion must fail";
  expect_matrix_near(c1, c1_before, 0.0, "cancelled C");

  service.shutdown(true);
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST(ServiceLifecycle, ShutdownDrainCompletesInflightAndQueued) {
  ServiceConfig cfg;
  GemmService service(cfg);

  const GemmCase cs{128, 96, 200};
  const int kRequests = 5;
  std::vector<Problem<double>> problems;
  std::vector<Matrix<double>> out;
  std::vector<GemmFuture> futures;
  for (int r = 0; r < kRequests; ++r) {
    problems.emplace_back(cs, std::uint64_t(80 + r));
    out.push_back(problems.back().c.clone());
  }
  for (int r = 0; r < kRequests; ++r) {
    const Problem<double>& p = problems[std::size_t(r)];
    futures.push_back(service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
        out[std::size_t(r)].data(), out[std::size_t(r)].ld())));
  }
  service.shutdown(true);  // must execute everything already admitted

  for (int r = 0; r < kRequests; ++r) {
    const GemmResult& res = futures[std::size_t(r)].wait();
    ASSERT_EQ(res.status, RequestStatus::kDone) << "request " << r;
    EXPECT_TRUE(res.ok());
    const Matrix<double> ref =
        reference_result(cs, problems[std::size_t(r)]);
    expect_matrix_near(out[std::size_t(r)], ref,
                       gemm_tolerance<double>(cs.k),
                       "drained request " + std::to_string(r));
  }
  EXPECT_EQ(service.inflight(), 0);
  EXPECT_EQ(service.queue_depth(), 0u);

  // Post-shutdown submissions are rejected, not queued.
  Problem<double> p(cs, 99);
  Matrix<double> c = p.c.clone();
  GemmFuture rejected = service.submit(make_gemm_request<double>(
      true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
      p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c.data(),
      c.ld()));
  EXPECT_EQ(rejected.wait().status, RequestStatus::kRejected);
}

TEST(ServiceLifecycle, ShutdownNoDrainCancelsQueued) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  GemmService service(cfg);

  const GemmCase cs{32, 32, 32};
  std::vector<Problem<double>> problems;
  std::vector<Matrix<double>> out;
  std::vector<GemmFuture> futures;
  for (int r = 0; r < 4; ++r) {
    problems.emplace_back(cs, std::uint64_t(10 + r));
    out.emplace_back(cs.m, cs.n);
    out.back().fill(7.0);
  }
  for (int r = 0; r < 4; ++r) {
    const Problem<double>& p = problems[std::size_t(r)];
    futures.push_back(service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
        out[std::size_t(r)].data(), out[std::size_t(r)].ld())));
  }
  service.shutdown(false);

  Matrix<double> sentinel(cs.m, cs.n);
  sentinel.fill(7.0);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(futures[std::size_t(r)].wait().status,
              RequestStatus::kCancelled)
        << "request " << r;
    expect_matrix_near(out[std::size_t(r)], sentinel, 0.0,
                       "cancelled C " + std::to_string(r));
  }
  EXPECT_EQ(service.stats().cancelled, 4u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(ServiceLifecycle, QueueFullBackpressure) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.queue_capacity = 2;  // per shard; one shard so both threads share it
  cfg.shards = 1;
  GemmService service(cfg);

  const GemmCase cs{32, 32, 32};
  std::vector<Problem<double>> problems;
  std::vector<Matrix<double>> out;
  for (int r = 0; r < 4; ++r) {
    problems.emplace_back(cs, std::uint64_t(20 + r));
    out.push_back(problems.back().c.clone());
  }
  auto req = [&](int r) {
    const Problem<double>& p = problems[std::size_t(r)];
    return make_gemm_request<double>(true, Layout::kColMajor, cs.ta, cs.tb,
                                     cs.m, cs.n, cs.k, cs.alpha, p.a.data(),
                                     p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
                                     out[std::size_t(r)].data(),
                                     out[std::size_t(r)].ld());
  };

  GemmFuture f0 = service.submit(req(0));
  GemmFuture f1 = service.submit(req(1));
  EXPECT_EQ(service.queue_depth(), 2u);

  // Non-blocking admission sheds load when the queue is full...
  GemmFuture shed = service.try_submit(req(2));
  EXPECT_EQ(shed.wait().status, RequestStatus::kRejected);
  EXPECT_GE(service.stats().rejected, 1u);

  // ...while blocking admission applies backpressure until space opens.
  std::atomic<bool> admitted{false};
  GemmFuture f3;
  std::thread submitter([&] {
    f3 = service.submit(req(3));
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load()) << "submit must block on a full queue";

  service.resume();
  submitter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(f0.wait().status, RequestStatus::kDone);
  EXPECT_EQ(f1.wait().status, RequestStatus::kDone);
  EXPECT_EQ(f3.wait().status, RequestStatus::kDone);
}

/// Holds a one-shard service's dispatcher deterministically (the technique
/// of HoldoverSurvivesHigherLaneMismatchSweep): a request staged while the
/// service is paused, whose continuation spins until release().  The
/// dispatcher runs the continuation as it settles the request, so from
/// hold() returning until release() it builds no other group.  Declare it
/// after the service: its destructor releases the dispatcher, so a failed
/// assertion cannot leave shutdown waiting on it.
class DispatcherBlocker {
 public:
  ~DispatcherBlocker() { release(); }

  /// `service` must be paused with an empty queue; resumes it.
  void hold(GemmService& service) {
    fut_ = service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs_.ta, cs_.tb, cs_.m, cs_.n, cs_.k,
        cs_.alpha, p_.a.data(), p_.a.ld(), p_.b.data(), p_.b.ld(), cs_.beta,
        c_.data(), c_.ld()));
    // The flags are shared with the continuation, which may still be
    // between two polls when this object goes away.
    fut_.then([flags = flags_](const GemmResult&) {
      flags->held.store(true);
      while (!flags->released.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    service.resume();
    while (!flags_->held.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void release() { flags_->released.store(true); }

  /// The holding request itself.
  [[nodiscard]] const GemmFuture& future() const { return fut_; }

 private:
  struct Flags {
    std::atomic<bool> held{false};
    std::atomic<bool> released{false};
  };
  const GemmCase cs_{32, 32, 32};
  Problem<double> p_{cs_, 11};
  Matrix<double> c_ = p_.c.clone();
  GemmFuture fut_;
  std::shared_ptr<Flags> flags_ = std::make_shared<Flags>();
};

/// try_submit's kRejected future must say *which* resource was exhausted —
/// the signal a load-shedding client keys its reaction on.
TEST(ServiceRejectReasons, TrySubmitReportsWhichResourceWasExhausted) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.queue_capacity = 1;
  cfg.start_paused = true;
  GemmService service(cfg);

  const GemmCase cs{32, 32, 32};
  Problem<double> p(cs, 5);
  Matrix<double> c = p.c.clone();
  const auto req = [&] {
    return make_gemm_request<double>(true, Layout::kColMajor, cs.ta, cs.tb,
                                     cs.m, cs.n, cs.k, cs.alpha, p.a.data(),
                                     p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
                                     c.data(), c.ld());
  };

  {  // invalid at the door
    auto bad = req();
    bad.m = -1;
    const GemmResult res = service.try_submit(bad).wait();
    EXPECT_EQ(res.status, RequestStatus::kRejected);
    EXPECT_EQ(res.reject, RejectReason::kInvalidRequest);
  }

  // Fill the paused shard to capacity: full *and* paused reports kPaused
  // (resume the service, don't back off).
  GemmFuture queued = service.try_submit(req());
  EXPECT_EQ(service.queue_depth(), 1u);
  {
    const GemmResult res = service.try_submit(req()).wait();
    EXPECT_EQ(res.status, RequestStatus::kRejected);
    EXPECT_EQ(res.reject, RejectReason::kPaused);
  }

  service.resume();
  EXPECT_EQ(queued.wait().status, RequestStatus::kDone);
  service.shutdown(true);
  {
    const GemmResult res = service.try_submit(req()).wait();
    EXPECT_EQ(res.status, RequestStatus::kRejected);
    EXPECT_EQ(res.reject, RejectReason::kShuttingDown);
  }

  // kQueueFull proper needs a running-but-saturated service: the blocker
  // holds the only dispatcher while the queue is full.
  ServiceConfig busy_cfg;
  busy_cfg.shards = 1;
  busy_cfg.queue_capacity = 1;
  busy_cfg.inline_fast_lane = false;
  busy_cfg.start_paused = true;
  GemmService busy(busy_cfg);
  DispatcherBlocker blocker;
  blocker.hold(busy);
  Matrix<double> qc = p.c.clone();
  auto qreq = req();
  qreq.c = qc.data();
  GemmFuture waiting = busy.submit(qreq);  // queues behind the blocker
  {
    const GemmResult res = busy.try_submit(req()).wait();
    EXPECT_EQ(res.status, RequestStatus::kRejected);
    EXPECT_EQ(res.reject, RejectReason::kQueueFull);
  }
  blocker.release();
  EXPECT_EQ(blocker.future().wait().status, RequestStatus::kDone);
  EXPECT_EQ(waiting.wait().status, RequestStatus::kDone);
}

/// Help-on-wait: a client waiting on a request still queued behind a busy
/// dispatcher runs it on its own thread instead of sleeping until the
/// dispatcher is free — through the same synchronous entry point, so the
/// bits cannot tell the route apart.
TEST(ServiceHelp, WaiterRunsItsOwnQueuedRequest) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.inline_fast_lane = false;  // the request below must queue
  cfg.start_paused = true;
  GemmService service(cfg);
  DispatcherBlocker blocker;
  blocker.hold(service);

  const GemmCase cs{48, 40, 64};
  Problem<double> p(cs, 31);
  Matrix<double> c_sync = p.c.clone();
  const FtReport sync_rep = run_sync<double>(cs, true, p, c_sync, {});
  Matrix<double> c_async = p.c.clone();
  GemmFuture fut = service.submit(make_gemm_request<double>(
      true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
      p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c_async.data(),
      c_async.ld()));
  EXPECT_EQ(service.queue_depth(), 1u);

  GemmResult res;
  std::atomic<bool> returned{false};
  std::thread client([&] {
    res = fut.wait();
    returned.store(true);
  });
  // Bounded: a wait() that sleeps behind the held dispatcher fails here
  // (and is then unblocked by the release) instead of hanging the suite.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(returned.load())
      << "wait() slept behind the held dispatcher instead of running its "
         "own queued request";
  const auto held = service.stats();
  blocker.release();
  client.join();

  ASSERT_EQ(res.status, RequestStatus::kDone);
  EXPECT_TRUE(res.ok());
  EXPECT_FALSE(res.inlined);
  EXPECT_FALSE(res.coalesced);
  expect_matrix_near(c_async, c_sync, 0.0, "helped request");
  EXPECT_EQ(res.report.panels, sync_rep.panels);
  EXPECT_EQ(res.report.errors_detected, sync_rep.errors_detected);
  // While the dispatcher was held, only the waiter can have run it.
  EXPECT_EQ(held.shard[0].executed, 1u);
  EXPECT_EQ(held.shard[0].helped, 1u);
  EXPECT_EQ(held.helped, 1u);

  service.shutdown(true);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.inline_executed, 0u);
  EXPECT_EQ(stats.shard[0].executed + stats.inline_executed, stats.completed);
  EXPECT_EQ(stats.helped, 1u);
}

/// The inline fast lane must be invisible except in latency: bit-identical
/// C, bit-identical FT reports, and its own accounting column.
TEST(ServiceInline, FastLaneIsBitIdenticalToQueuedExecution) {
  ServiceConfig on;
  on.shards = 2;
  GemmService s_inline(on);
  ServiceConfig off = on;
  off.inline_fast_lane = false;
  GemmService s_queued(off);

  const GemmCase cs{48, 40, 64};  // resolves to the fast path
  Options opts;
  opts.threads = 2;  // the planner pins fast-path plans to 1 regardless
  const int kRounds = 6;
  for (int r = 0; r < kRounds; ++r) {
    Problem<double> p(cs, std::uint64_t(900 + r));
    Matrix<double> c_sync = p.c.clone();
    const FtReport sync_rep = run_sync<double>(cs, true, p, c_sync, opts);
    Matrix<double> c_in = p.c.clone();
    Matrix<double> c_q = p.c.clone();
    const auto req = [&](Matrix<double>& c) {
      return make_gemm_request<double>(true, Layout::kColMajor, cs.ta, cs.tb,
                                       cs.m, cs.n, cs.k, cs.alpha, p.a.data(),
                                       p.a.ld(), p.b.data(), p.b.ld(),
                                       cs.beta, c.data(), c.ld(), opts);
    };
    const GemmResult ri = s_inline.submit(req(c_in)).wait();
    const GemmResult rq = s_queued.submit(req(c_q)).wait();
    ASSERT_EQ(ri.status, RequestStatus::kDone);
    ASSERT_EQ(rq.status, RequestStatus::kDone);
    EXPECT_TRUE(ri.inlined) << "idle service + fast-path plan must inline";
    EXPECT_FALSE(rq.inlined);
    expect_matrix_near(c_in, c_sync, 0.0,
                       "inline round " + std::to_string(r));
    expect_matrix_near(c_q, c_sync, 0.0,
                       "queued round " + std::to_string(r));
    EXPECT_EQ(ri.report.panels, sync_rep.panels);
    EXPECT_EQ(ri.report.errors_detected, sync_rep.errors_detected);
  }
  EXPECT_EQ(s_inline.stats().inline_executed, std::uint64_t(kRounds));
  EXPECT_EQ(s_inline.stats().completed, std::uint64_t(kRounds));
  EXPECT_EQ(s_queued.stats().inline_executed, 0u);
}

TEST(ServiceInline, ClosedWhilePausedSoStagedOrderHolds) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.start_paused = true;
  GemmService service(cfg);

  const GemmCase cs{48, 40, 64};
  Problem<double> p(cs, 77);
  Matrix<double> c = p.c.clone();
  GemmFuture fut = service.submit(make_gemm_request<double>(
      true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
      p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c.data(),
      c.ld()));
  EXPECT_FALSE(fut.settled()) << "paused service must queue, not inline";
  EXPECT_EQ(service.queue_depth(), 1u);
  service.resume();
  const GemmResult res = fut.wait();
  EXPECT_EQ(res.status, RequestStatus::kDone);
  EXPECT_FALSE(res.inlined);
  EXPECT_EQ(service.stats().inline_executed, 0u);
}

/// submit_all queues the window and returns at once; the waiting client
/// (or the dispatcher) then runs it, and each request settles as soon as
/// its own group finishes.  The dispatcher is held and the inline lane
/// would be open (inflight 1 < limit 2), so nothing but the window's own
/// waiter can run it.
TEST(ServiceSubmitAll, QueuesTheWindowAndSettlesEachGroupAsItFinishes) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.max_coalesce = 16;
  cfg.inline_inflight_limit = 2;
  cfg.start_paused = true;
  GemmService service(cfg);
  DispatcherBlocker blocker;
  blocker.hold(service);

  // (a) + (b): a same-fingerprint window comes back unsettled, and wait()
  // on its first member runs it as one helped, coalesced batch.
  const GemmCase cs{48, 40, 64, Trans::kNoTrans, Trans::kTrans, 1.25, -0.5};
  Options opts;
  opts.threads = 3;
  const int kRequests = 8;
  std::vector<Problem<double>> problems;
  std::vector<Matrix<double>> c_sync, c_async;
  for (int r = 0; r < kRequests; ++r) {
    problems.emplace_back(cs, std::uint64_t(700 + r));
    c_sync.push_back(problems.back().c.clone());
    c_async.push_back(problems.back().c.clone());
    run_sync<double>(cs, true, problems.back(), c_sync[std::size_t(r)], opts);
  }
  std::vector<serve::GemmRequest> reqs;
  for (int r = 0; r < kRequests; ++r) {
    const Problem<double>& p = problems[std::size_t(r)];
    reqs.push_back(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
        c_async[std::size_t(r)].data(), c_async[std::size_t(r)].ld(), opts));
  }
  std::vector<GemmFuture> futures = service.submit_all(reqs);
  ASSERT_EQ(futures.size(), std::size_t(kRequests));
  for (int r = 0; r < kRequests; ++r) {
    EXPECT_FALSE(futures[std::size_t(r)].settled())
        << "request " << r << " settled inside submit_all";
  }
  futures.front().wait();
  const auto helped = service.stats();
  for (int r = 0; r < kRequests; ++r) {
    const GemmResult res = futures[std::size_t(r)].wait();
    ASSERT_EQ(res.status, RequestStatus::kDone) << "request " << r;
    EXPECT_FALSE(res.inlined) << "request " << r;
    EXPECT_TRUE(res.coalesced) << "request " << r;
    expect_matrix_near(c_async[std::size_t(r)], c_sync[std::size_t(r)], 0.0,
                       "window member " + std::to_string(r));
  }
  EXPECT_EQ(helped.helped, std::uint64_t(kRequests));
  EXPECT_EQ(helped.coalesced_batches, 1u);
  EXPECT_EQ(helped.coalesced_members, std::uint64_t(kRequests));
  EXPECT_EQ(helped.inline_executed, 0u);

  // (c): a window of members that cannot coalesce (distinct shapes) runs
  // one group at a time, so member 0 settles, and fires its continuation,
  // while the last member is still queued behind the held dispatcher.
  const GemmCase shapes[] = {{48, 40, 64}, {40, 48, 56}, {32, 56, 48}};
  std::vector<Problem<double>> sp;
  std::vector<Matrix<double>> s_sync, s_async;
  std::vector<serve::GemmRequest> window;
  for (int r = 0; r < 3; ++r) {
    const GemmCase& sc = shapes[r];
    sp.emplace_back(sc, std::uint64_t(800 + r));
    s_sync.push_back(sp.back().c.clone());
    s_async.push_back(sp.back().c.clone());
  }
  for (int r = 0; r < 3; ++r) {
    const GemmCase& sc = shapes[r];
    const Problem<double>& p = sp[std::size_t(r)];
    run_sync<double>(sc, true, p, s_sync[std::size_t(r)], {});
    window.push_back(make_gemm_request<double>(
        true, Layout::kColMajor, sc.ta, sc.tb, sc.m, sc.n, sc.k, sc.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), sc.beta,
        s_async[std::size_t(r)].data(), s_async[std::size_t(r)].ld()));
  }
  std::vector<GemmFuture> staged = service.submit_all(window);
  std::atomic<int> last_status{-1};
  staged.front().then([&](const GemmResult&) {
    last_status.store(int(staged.back().status()));
  });
  staged.front().wait();
  EXPECT_EQ(last_status.load(), int(RequestStatus::kQueued))
      << "member 0 must settle while the last member is still queued";
  EXPECT_EQ(staged.back().status(), RequestStatus::kQueued);

  blocker.release();
  for (int r = 0; r < 3; ++r) {
    const GemmResult res = staged[std::size_t(r)].wait();
    ASSERT_EQ(res.status, RequestStatus::kDone) << "member " << r;
    EXPECT_FALSE(res.coalesced) << "member " << r;
    expect_matrix_near(s_async[std::size_t(r)], s_sync[std::size_t(r)], 0.0,
                       "distinct member " + std::to_string(r));
  }
  service.shutdown(true);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, std::uint64_t(1 + kRequests + 3));
  EXPECT_EQ(stats.inline_executed, 0u);
}

#if defined(__linux__)
/// The dispatcher runs in the batch class, so its wake cannot preempt a
/// client that is about to run its own window, and it stays the backstop
/// for callers that never wait: a window whose futures are only given
/// then() continuations still runs to the end, on the dispatcher.  The
/// class is the dispatcher's alone: a request a waiter runs settles on the
/// waiter's thread, in its own class.
TEST(ServiceDispatcher, BatchClassBackstopForCallersThatNeverWait) {
  // Everything the continuations touch outlives the service, so an early
  // failure cannot leave them writing to a dead frame during shutdown.
  std::atomic<int> settled{0};
  int policy[3] = {-1, -1, -1};
  RequestStatus status[3] = {};
  int waiter_policy = -1;
  // Distinct shapes: three groups, no coalescing.
  const GemmCase shapes[] = {{48, 40, 64}, {40, 48, 56}, {32, 56, 48}};
  std::vector<Problem<double>> problems;
  std::vector<Matrix<double>> c_sync, c_async;
  std::vector<serve::GemmRequest> window;
  for (int r = 0; r < 3; ++r) {
    problems.emplace_back(shapes[r], std::uint64_t(600 + r));
    c_sync.push_back(problems.back().c.clone());
    c_async.push_back(problems.back().c.clone());
  }
  for (int r = 0; r < 3; ++r) {
    const GemmCase& cs = shapes[r];
    const Problem<double>& p = problems[std::size_t(r)];
    run_sync<double>(cs, true, p, c_sync[std::size_t(r)], {});
    window.push_back(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
        c_async[std::size_t(r)].data(), c_async[std::size_t(r)].ld()));
  }
  Matrix<double> c_helped = problems[0].c.clone();

  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.inline_fast_lane = false;
  cfg.start_paused = true;  // the continuations attach before anything runs
  GemmService service(cfg);
  std::vector<GemmFuture> futures = service.submit_all(window);
  for (int r = 0; r < 3; ++r) {
    futures[std::size_t(r)].then([&, r](const GemmResult& res) {
      policy[r] = sched_getscheduler(0);
      status[r] = res.status;
      settled.fetch_add(1);
    });
  }
  service.resume();
  // Never wait() and never poll a future: only the dispatcher can run
  // the window.  Bounded, so a lost backstop fails instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (settled.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(settled.load(), 3) << "the dispatcher left the window queued";
  EXPECT_EQ(service.stats().helped, 0u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(status[r], RequestStatus::kDone) << "member " << r;
    EXPECT_EQ(policy[r], SCHED_BATCH)
        << "member " << r << " settled outside the batch-class dispatcher";
    expect_matrix_near(c_async[std::size_t(r)], c_sync[std::size_t(r)], 0.0,
                       "dispatcher-run member " + std::to_string(r));
  }

  // A waiter runs its own request while the dispatcher is held, and its
  // continuation fires on the waiter's thread.
  service.pause();
  DispatcherBlocker blocker;
  blocker.hold(service);
  const GemmCase& cs = shapes[0];
  const Problem<double>& p = problems[0];
  GemmFuture fut = service.submit(make_gemm_request<double>(
      true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
      p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c_helped.data(),
      c_helped.ld()));
  fut.then([&](const GemmResult&) { waiter_policy = sched_getscheduler(0); });
  const GemmResult res = fut.wait();
  blocker.release();
  EXPECT_EQ(res.status, RequestStatus::kDone);
  EXPECT_EQ(service.stats().helped, 1u);
  EXPECT_EQ(waiter_policy, SCHED_OTHER);
  expect_matrix_near(c_helped, c_sync[0], 0.0, "helped request");
  service.shutdown(true);
}
#endif

/// The sharding must be invisible in results: every shard count and every
/// shard_hint routing delivers the synchronous bits, including resident-A
/// cache traffic.
TEST(ShardedDifferential, BitIdenticalAcrossShardCountsAndHints) {
  for (const int shards : {1, 2, 4}) {
    clear_process_caches();
    ServiceConfig cfg;
    cfg.shards = shards;
    cfg.inline_fast_lane = false;  // force the ring/dispatcher path
    GemmService service(cfg);
    ASSERT_EQ(service.shards(), shards);

    const GemmCase shapes[] = {
        {48, 40, 64},                                    // fast path
        {96, 80, 260},                                   // multi-panel
        {65, 43, 87, Trans::kTrans, Trans::kNoTrans},    // Ta
        {60, 60, 60, Trans::kNoTrans, Trans::kNoTrans, -1.5, 0.5},
    };
    int i = 0;
    for (const GemmCase& cs : shapes) {
      for (const bool ft : {false, true}) {
        Options opts;
        opts.threads = 1 + i % 2;
        const Priority pri = Priority(i % 3);
        const int hint = i % shards;
        differential_case<double>(service, cs, ft, opts, pri,
                                  std::uint64_t(1000 + i), hint);
        differential_case<float>(service, cs, ft, opts, pri,
                                 std::uint64_t(2000 + i), hint);
        ++i;
      }
    }

    // Resident-A repeated-weight traffic spread across the shards: the
    // operand cache is process-wide, so hints must not affect hit behavior.
    const GemmCase wcs{64, 48, 96};
    Options ropts;
    ropts.threads = 1;
    ropts.resident_a = true;
    Matrix<double> w(wcs.m, wcs.k);
    w.fill_random(4242);
    const int kRounds = 4;
    for (int r = 0; r < kRounds; ++r) {
      Matrix<double> b(wcs.k, wcs.n);
      b.fill_random(std::uint64_t(4300 + r));
      Matrix<double> c_sync(wcs.m, wcs.n), c_async(wcs.m, wcs.n);
      c_sync.fill(0.0);
      c_async.fill(0.0);
      ft_dgemm(Layout::kColMajor, wcs.ta, wcs.tb, wcs.m, wcs.n, wcs.k, 1.0,
               w.data(), w.ld(), b.data(), b.ld(), 0.0, c_sync.data(),
               c_sync.ld(), ropts);
      auto req = make_gemm_request<double>(
          true, Layout::kColMajor, wcs.ta, wcs.tb, wcs.m, wcs.n, wcs.k, 1.0,
          w.data(), w.ld(), b.data(), b.ld(), 0.0, c_async.data(),
          c_async.ld(), ropts);
      req.shard_hint = r % shards;
      const GemmResult res = service.submit(req).wait();
      ASSERT_EQ(res.status, RequestStatus::kDone);
      EXPECT_TRUE(res.report.resident_hit || r == 0)
          << "round " << r << " at " << shards << " shards";
      expect_matrix_near(c_async, c_sync, 0.0,
                         "resident round " + std::to_string(r) + " at " +
                             std::to_string(shards) + " shards");
    }

    service.shutdown(true);
    const auto stats = service.stats();
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.rejected + stats.cancelled, 0u);
    EXPECT_EQ(stats.inline_executed, 0u);
  }
}

TEST(ServiceErrors, InvalidRequestsAreRejectedAtTheDoor) {
  GemmService service;
  Matrix<double> a(8, 8), b(8, 8), c(8, 8);
  a.fill_random(1);
  b.fill_random(2);
  c.fill(0.0);

  auto base = [&] {
    return make_gemm_request<double>(true, Layout::kColMajor,
                                     Trans::kNoTrans, Trans::kNoTrans, 8, 8,
                                     8, 1.0, a.data(), 8, b.data(), 8, 0.0,
                                     c.data(), 8);
  };

  {  // negative dimension
    auto r = base();
    r.m = -3;
    EXPECT_EQ(service.submit(r).wait().status, RequestStatus::kRejected);
  }
  {  // undersized lda with a readable A
    auto r = base();
    r.lda = 4;
    EXPECT_EQ(service.submit(r).wait().status, RequestStatus::kRejected);
  }
  {  // null C on a writing call
    auto r = base();
    r.c = nullptr;
    EXPECT_EQ(service.submit(r).wait().status, RequestStatus::kRejected);
  }
  {  // null A with alpha != 0 and k > 0
    auto r = base();
    r.a = nullptr;
    EXPECT_EQ(service.submit(r).wait().status, RequestStatus::kRejected);
  }
  {  // non-positive batch
    auto r = base();
    r.batch = 0;
    EXPECT_EQ(service.submit(r).wait().status, RequestStatus::kRejected);
  }
  EXPECT_EQ(service.stats().rejected, 5u);
  EXPECT_EQ(service.stats().submitted, 0u);

  // A valid request still flows after the rejections.
  EXPECT_EQ(service.submit(base()).wait().status, RequestStatus::kDone);
}

/// The serving pattern the resident-operand cache exists for: one weight
/// matrix per layer, fresh activations per request.  Repeated-A traffic
/// with Options::resident_a must hit the cache after the first encode, be
/// bit-identical to the per-call synchronous path, and show up in the
/// service's resident_{hits,misses,heals} counters — for both precisions.
TEST(ServiceResident, RepeatedWeightTrafficHitsCacheBitIdenticalToSync) {
  clear_process_caches();
  ServiceConfig cfg;
  GemmService service(cfg);

  const GemmCase cs{64, 48, 96};
  const int kRounds = 6;
  Options opts;
  opts.threads = 2;
  Options ropts = opts;
  ropts.resident_a = true;

  Matrix<double> wd(cs.m, cs.k);
  wd.fill_random(31);
  Matrix<float> wf(cs.m, cs.k);
  wf.fill_random(32);

  struct RoundD {
    Matrix<double> b, c_sync, c_async;
  };
  struct RoundF {
    Matrix<float> b, c_sync, c_async;
  };
  std::vector<RoundD> rd(kRounds);
  std::vector<RoundF> rf(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    rd[std::size_t(r)].b = Matrix<double>(cs.k, cs.n);
    rd[std::size_t(r)].b.fill_random(std::uint64_t(300 + r));
    rd[std::size_t(r)].c_sync = Matrix<double>(cs.m, cs.n);
    rd[std::size_t(r)].c_sync.fill(0.0);
    rd[std::size_t(r)].c_async = rd[std::size_t(r)].c_sync.clone();
    ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, 1.0,
             wd.data(), wd.ld(), rd[std::size_t(r)].b.data(),
             rd[std::size_t(r)].b.ld(), 0.0, rd[std::size_t(r)].c_sync.data(),
             rd[std::size_t(r)].c_sync.ld(), opts);
    rf[std::size_t(r)].b = Matrix<float>(cs.k, cs.n);
    rf[std::size_t(r)].b.fill_random(std::uint64_t(400 + r));
    rf[std::size_t(r)].c_sync = Matrix<float>(cs.m, cs.n);
    rf[std::size_t(r)].c_sync.fill(0.0f);
    rf[std::size_t(r)].c_async = rf[std::size_t(r)].c_sync.clone();
    ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, 1.0f,
             wf.data(), wf.ld(), rf[std::size_t(r)].b.data(),
             rf[std::size_t(r)].b.ld(), 0.0f,
             rf[std::size_t(r)].c_sync.data(),
             rf[std::size_t(r)].c_sync.ld(), opts);
  }

  const auto submit_d = [&](int r) {
    return service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, 1.0,
        wd.data(), wd.ld(), rd[std::size_t(r)].b.data(),
        rd[std::size_t(r)].b.ld(), 0.0, rd[std::size_t(r)].c_async.data(),
        rd[std::size_t(r)].c_async.ld(), ropts));
  };
  const auto submit_f = [&](int r) {
    return service.submit(make_gemm_request<float>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, 1.0f,
        wf.data(), wf.ld(), rf[std::size_t(r)].b.data(),
        rf[std::size_t(r)].b.ld(), 0.0f, rf[std::size_t(r)].c_async.data(),
        rf[std::size_t(r)].c_async.ld(), ropts));
  };

  // Round 0 warms each weight's entry (serialized so the miss count is
  // deterministic); the remaining rounds fly concurrently and must all hit.
  {
    const GemmResult& res = submit_d(0).wait();
    ASSERT_EQ(res.status, RequestStatus::kDone);
    EXPECT_FALSE(res.report.resident_hit);
  }
  {
    const GemmResult& res = submit_f(0).wait();
    ASSERT_EQ(res.status, RequestStatus::kDone);
    EXPECT_FALSE(res.report.resident_hit);
  }
  std::vector<GemmFuture> futures;
  for (int r = 1; r < kRounds; ++r) {
    futures.push_back(submit_d(r));
    futures.push_back(submit_f(r));
  }
  for (GemmFuture& fut : futures) {
    const GemmResult& res = fut.wait();
    ASSERT_EQ(res.status, RequestStatus::kDone);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.report.resident_hit) << "warm weight must hit";
    EXPECT_FALSE(res.coalesced) << "resident requests route direct";
  }
  for (int r = 0; r < kRounds; ++r) {
    expect_matrix_near(rd[std::size_t(r)].c_async, rd[std::size_t(r)].c_sync,
                       0.0, "resident f64 round " + std::to_string(r));
    expect_matrix_near(rf[std::size_t(r)].c_async, rf[std::size_t(r)].c_sync,
                       0.0, "resident f32 round " + std::to_string(r));
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.resident_misses, 2u);  // one encode per weight
  EXPECT_EQ(stats.resident_hits, std::uint64_t(2 * (kRounds - 1)));
  EXPECT_EQ(stats.resident_heals, 0);
}

/// Resident requests must opt out of coalescing without breaking it for
/// everyone else: a mixed queue staged while paused still merges the
/// non-resident members into one batched call, while the resident members
/// ride the direct route with per-request cache accounting intact.
TEST(ServiceResident, CoexistsWithCoalescedNonResidentTraffic) {
  clear_process_caches();
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.max_coalesce = 16;
  cfg.shards = 1;  // one dispatcher keeps the resident lane serialized
  GemmService service(cfg);

  const GemmCase cs{48, 40, 64, Trans::kNoTrans, Trans::kTrans, 1.25, -0.5};
  Options opts;
  opts.threads = 1;
  Options ropts = opts;
  ropts.resident_a = true;
  const int kCoal = 6, kResident = 4;

  // Coalescible crowd: distinct problems sharing the fast-path fingerprint.
  std::vector<Problem<double>> crowd;
  std::vector<Matrix<double>> crowd_sync, crowd_async;
  for (int r = 0; r < kCoal; ++r) {
    crowd.emplace_back(cs, std::uint64_t(500 + r));
    crowd_sync.push_back(crowd.back().c.clone());
    crowd_async.push_back(crowd.back().c.clone());
    run_sync<double>(cs, true, crowd.back(), crowd_sync[std::size_t(r)],
                     opts);
  }
  // Resident traffic: one weight, per-request activations.
  Problem<double> wp(cs, 777);
  std::vector<Matrix<double>> res_b, res_sync, res_async;
  for (int r = 0; r < kResident; ++r) {
    res_b.push_back(wp.b.clone());  // same dims, fresh per-request contents
    res_b.back().fill_random(std::uint64_t(600 + r));
    res_sync.emplace_back(wp.c.clone());
    res_async.emplace_back(wp.c.clone());
    ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
             wp.a.data(), wp.a.ld(), res_b[std::size_t(r)].data(),
             res_b[std::size_t(r)].ld(), cs.beta,
             res_sync[std::size_t(r)].data(), res_sync[std::size_t(r)].ld(),
             opts);
  }

  std::vector<GemmFuture> coal_futs, res_futs;
  for (int r = 0; r < kCoal; ++r) {
    const Problem<double>& p = crowd[std::size_t(r)];
    coal_futs.push_back(service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
        crowd_async[std::size_t(r)].data(), crowd_async[std::size_t(r)].ld(),
        opts)));
  }
  for (int r = 0; r < kResident; ++r) {
    res_futs.push_back(service.submit(make_gemm_request<double>(
        true, Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        wp.a.data(), wp.a.ld(), res_b[std::size_t(r)].data(),
        res_b[std::size_t(r)].ld(), cs.beta,
        res_async[std::size_t(r)].data(), res_async[std::size_t(r)].ld(),
        ropts)));
  }
  service.resume();

  for (int r = 0; r < kCoal; ++r) {
    const GemmResult& res = coal_futs[std::size_t(r)].wait();
    ASSERT_EQ(res.status, RequestStatus::kDone) << "coalesced " << r;
    EXPECT_TRUE(res.coalesced) << "non-resident member " << r;
    expect_matrix_near(crowd_async[std::size_t(r)],
                       crowd_sync[std::size_t(r)], 0.0,
                       "coalesced member " + std::to_string(r));
  }
  for (int r = 0; r < kResident; ++r) {
    const GemmResult& res = res_futs[std::size_t(r)].wait();
    ASSERT_EQ(res.status, RequestStatus::kDone) << "resident " << r;
    EXPECT_FALSE(res.coalesced) << "resident member " << r;
    expect_matrix_near(res_async[std::size_t(r)], res_sync[std::size_t(r)],
                       0.0, "resident member " + std::to_string(r));
  }

  const auto stats = service.stats();
  EXPECT_GE(stats.coalesced_batches, 1u);
  EXPECT_EQ(stats.coalesced_members, std::uint64_t(kCoal));
  // One weight on one shard: exactly one encode.
  EXPECT_EQ(stats.resident_misses, 1u);
  EXPECT_EQ(stats.resident_hits, std::uint64_t(kResident - 1));
  EXPECT_EQ(stats.resident_heals, 0);
}

// A request carrying a memory-fault injector runs its own strike.  A
// coalesced batch runs under its head request's Options, so a merged
// member's injector would never fire; like a request with an `injector`,
// it routes direct — bit-identical to the synchronous call under an
// identically seeded injector — while the clean requests staged ahead of
// it still coalesce.
TEST(ServiceInjection, MemoryInjectedRequestRoutesDirect) {
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.shards = 1;  // one dispatcher: the clean pair must merge
  GemmService service(cfg);

  constexpr index_t kM = 48, kN = 40, kK = 64;  // int8 fast path
  constexpr int kRequests = 3;  // two clean requests, then the injected one
  const std::uint64_t seed = testing::test_seed(42);
  Options opts;
  opts.threads = 1;
  Xoshiro256 rng(seed);
  std::vector<std::vector<std::int8_t>> a(kRequests), b(kRequests);
  std::vector<std::vector<float>> c(kRequests,
                                    std::vector<float>(kM * kN, 0.0f));
  for (int r = 0; r < kRequests; ++r) {
    // Nonzero operands: any live-byte flip perturbs the exact checksums.
    a[std::size_t(r)].resize(std::size_t(kM * kK));
    b[std::size_t(r)].resize(std::size_t(kK * kN));
    for (auto& x : a[std::size_t(r)]) x = std::int8_t(1 + rng.bounded(7));
    for (auto& x : b[std::size_t(r)]) x = std::int8_t(1 + rng.bounded(7));
  }

  SurfaceBitFlipInjector sync_injector(MemorySurface::kPanelB, 1, 1, seed);
  sync_injector.arm();
  Options sync_opts = opts;
  sync_opts.memory_injector = &sync_injector;
  std::vector<float> c_sync(std::size_t(kM * kN), 0.0f);
  const FtReport sync_rep = ft_gemm_i8(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, kM, kN, kK, 1.0f,
      a.back().data(), kM, b.back().data(), kK, 0.0f, c_sync.data(), kM, {},
      sync_opts);
  ASSERT_EQ(sync_injector.applied_count(), 1u) << testing::seed_note(seed);
  ASSERT_GT(sync_rep.errors_detected, 0) << testing::seed_note(seed);

  SurfaceBitFlipInjector injector(MemorySurface::kPanelB, 1, 1, seed);
  injector.arm();
  Options struck = opts;
  struck.memory_injector = &injector;
  std::vector<GemmFuture> futures;
  for (int r = 0; r < kRequests; ++r) {
    futures.push_back(service.submit(serve::make_gemm_request_i8(
        true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, kM, kN, kK,
        1.0f, a[std::size_t(r)].data(), kM, b[std::size_t(r)].data(), kK,
        0.0f, c[std::size_t(r)].data(), kM, {},
        r == kRequests - 1 ? struck : opts)));
  }
  service.resume();
  std::vector<GemmResult> results;
  for (const GemmFuture& f : futures) results.push_back(f.wait());

  for (int r = 0; r + 1 < kRequests; ++r) {
    const GemmResult& res = results[std::size_t(r)];
    ASSERT_EQ(res.status, RequestStatus::kDone) << "clean " << r;
    EXPECT_TRUE(res.coalesced) << "clean " << r;
    EXPECT_TRUE(res.ok()) << "clean " << r;
  }
  const GemmResult& res = results.back();
  ASSERT_EQ(res.status, RequestStatus::kDone);
  EXPECT_FALSE(res.coalesced);
  EXPECT_EQ(injector.opportunities(), 1u) << testing::seed_note(seed);
  EXPECT_EQ(injector.applied_count(), 1u) << testing::seed_note(seed);
  EXPECT_EQ(std::memcmp(c.back().data(), c_sync.data(),
                        c_sync.size() * sizeof(float)),
            0)
      << testing::seed_note(seed);
  EXPECT_EQ(res.report.panels, sync_rep.panels);
  EXPECT_EQ(res.report.errors_detected, sync_rep.errors_detected);
  EXPECT_EQ(res.report.errors_corrected, sync_rep.errors_corrected);
  EXPECT_EQ(res.report.uncorrectable_panels, sync_rep.uncorrectable_panels);
}

/// 8 concurrent clients hammering one service with mixed entry-point
/// shapes, every result verified — the serving regime end to end, with the
/// same accounting checks test_concurrent.cpp applies to the synchronous
/// layer: leases balance, plans are shared, nothing leaks.
void run_soak(const ServiceConfig& cfg) {
  GemmService service(cfg);

  const int kClients = 8;
  const int kIters = 5;
  std::atomic<int> failures{0};
  const auto note = [&](bool ok) {
    if (!ok) failures.fetch_add(1);
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int id = 0; id < kClients; ++id) {
    clients.emplace_back([&, id] {
      for (int it = 0; it < kIters; ++it) {
        const std::uint64_t seed = std::uint64_t(1000 * id + it);
        const Priority pri = Priority((id + it) % 3);
        Options opts;
        opts.threads = 1 + (id + it) % 2;
        switch ((id + it) % 4) {
          case 0: {  // small FT dgemm — the coalescible regime
            const GemmCase cs{48, 40, 64};
            Problem<double> p(cs, seed);
            const Matrix<double> ref = reference_result(cs, p);
            Matrix<double> c = p.c.clone();
            const GemmResult& res =
                service.submit(make_gemm_request<double>(
                                   true, Layout::kColMajor, cs.ta, cs.tb,
                                   cs.m, cs.n, cs.k, cs.alpha, p.a.data(),
                                   p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
                                   c.data(), c.ld(), opts, pri))
                    .wait();
            note(res.status == RequestStatus::kDone && res.ok());
            note(max_rel_diff(c, ref) <= gemm_tolerance<double>(cs.k));
            break;
          }
          case 1: {  // FT sgemm with transposes
            const GemmCase cs{56, 48, 72, Trans::kTrans, Trans::kNoTrans,
                              1.25, -0.5};
            Problem<float> p(cs, seed);
            const Matrix<float> ref = reference_result(cs, p);
            Matrix<float> c = p.c.clone();
            const GemmResult& res =
                service.submit(make_gemm_request<float>(
                                   true, Layout::kColMajor, cs.ta, cs.tb,
                                   cs.m, cs.n, cs.k, float(cs.alpha),
                                   p.a.data(), p.a.ld(), p.b.data(),
                                   p.b.ld(), float(cs.beta), c.data(),
                                   c.ld(), opts, pri))
                    .wait();
            note(res.status == RequestStatus::kDone && res.ok());
            note(max_rel_diff(c, ref) <= gemm_tolerance<float>(cs.k));
            break;
          }
          case 2: {  // Ori dgemm, multi-panel
            const GemmCase cs{96, 80, 180};
            Problem<double> p(cs, seed);
            const Matrix<double> ref = reference_result(cs, p);
            Matrix<double> c = p.c.clone();
            const GemmResult& res =
                service.submit(make_gemm_request<double>(
                                   false, Layout::kColMajor, cs.ta, cs.tb,
                                   cs.m, cs.n, cs.k, cs.alpha, p.a.data(),
                                   p.a.ld(), p.b.data(), p.b.ld(), cs.beta,
                                   c.data(), c.ld(), opts, pri))
                    .wait();
            note(res.status == RequestStatus::kDone);
            note(max_rel_diff(c, ref) <= gemm_tolerance<double>(cs.k));
            break;
          }
          default: {  // strided-batched FT
            const index_t nn = 32, batch = 4;
            const GemmCase whole{nn, nn * batch, nn};
            Problem<double> p(whole, seed);
            const Matrix<double> ref = reference_result(whole, p);
            Matrix<double> c = p.c.clone();
            const GemmResult& res =
                service
                    .submit(make_strided_batched_request<double>(
                        true, Layout::kColMajor, Trans::kNoTrans,
                        Trans::kNoTrans, nn, nn, nn, 1.0, p.a.data(),
                        p.a.ld(), 0, p.b.data(), p.b.ld(), nn * p.b.ld(),
                        0.0, c.data(), c.ld(), nn * c.ld(), batch, opts,
                        pri))
                    .wait();
            note(res.status == RequestStatus::kDone && res.ok());
            note(res.batch.problems == batch);
            note(max_rel_diff(c, ref) <= gemm_tolerance<double>(nn));
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0)
      << failures.load() << " verification failures across "
      << kClients * kIters << " served requests";

  service.shutdown(true);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, std::uint64_t(kClients * kIters));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected + stats.cancelled, 0u);
  // One group per dispatcher, plus at most one inline or helped group per
  // client thread (a client is either submitting or waiting).
  EXPECT_LE(stats.peak_inflight,
            std::uint64_t(service.shards()) + std::uint64_t(kClients));
  // Per-shard counters must account for every queued execution.
  std::uint64_t shard_submitted = 0, shard_executed = 0;
  for (const auto& ss : stats.shard) {
    shard_submitted += ss.submitted;
    shard_executed += ss.executed;
  }
  EXPECT_EQ(shard_submitted + stats.inline_executed, stats.submitted);
  EXPECT_EQ(shard_executed + stats.inline_executed, stats.completed);

  // Lease/plan accounting one layer down: every workspace lease returned,
  // and workspace growth stayed bounded by the service's concurrency (the
  // in-flight cap, one leased context per member of a running group, plus
  // the clients' own reference computations), not by request volume.
  EXPECT_EQ(process_context_cache<double>().outstanding(), 0);
  EXPECT_EQ(process_context_cache<float>().outstanding(), 0);
}

TEST(ServiceSoak, EightClientsMixedTrafficAllVerified) {
  ServiceConfig cfg;
  run_soak(cfg);
}

TEST(ServiceSoak, EightClientsFourShards) {
  ServiceConfig cfg;
  cfg.shards = 4;
  run_soak(cfg);
}

TEST(ServiceSoak, EightClientsFourShardsQueuedOnly) {
  // Same traffic with the inline fast lane closed: everything rides the
  // rings, then the dispatchers or a helping waiter.
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.inline_fast_lane = false;
  run_soak(cfg);
}

}  // namespace
}  // namespace ftgemm
