// The thread-team runtime layer (src/runtime/): topology resolution, backend
// selection, team-primitive semantics on both backends, and — the contract
// the whole refactor rests on — bit-identical (FT-)GEMM results between the
// persistent worker pool and the OpenMP region at equal thread counts.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "core/gemm_batched.hpp"
#include "core/plan.hpp"
#include "inject/injectors.hpp"
#include "runtime/team.hpp"
#include "runtime/topology.hpp"
#include "test_common.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ftgemm {
namespace {

using testing::GemmCase;
using testing::Problem;
using testing::gemm_tolerance;
using testing::reference_result;

// ---------------------------------------------------------------------------
// Topology policy.
// ---------------------------------------------------------------------------

TEST(Topology, PerCallOverrideWinsOverEverything) {
  ::setenv("FTGEMM_THREADS", "7", 1);
  EXPECT_EQ(runtime::topology(3), 3);
  ::unsetenv("FTGEMM_THREADS");
  EXPECT_EQ(runtime::topology(1), 1);
}

TEST(Topology, EnvThenHardwareConcurrency) {
  ::setenv("FTGEMM_THREADS", "5", 1);
  EXPECT_EQ(runtime::topology(0), 5);
  ::unsetenv("FTGEMM_THREADS");
  EXPECT_EQ(runtime::topology(0), runtime::hardware_concurrency());
  EXPECT_GE(runtime::hardware_concurrency(), 1);
}

TEST(Topology, BackendResolutionOrder) {
  // Explicit request wins regardless of environment.
  ::setenv("FTGEMM_RUNTIME", "pool", 1);
  EXPECT_EQ(runtime::resolve_backend(RuntimeBackend::kOpenMP),
            RuntimeBackend::kOpenMP);
  // kAuto defers to FTGEMM_RUNTIME...
  EXPECT_EQ(runtime::resolve_backend(RuntimeBackend::kAuto),
            RuntimeBackend::kPool);
  ::setenv("FTGEMM_RUNTIME", "omp", 1);
  EXPECT_EQ(runtime::resolve_backend(RuntimeBackend::kAuto),
            RuntimeBackend::kOpenMP);
  ::setenv("FTGEMM_RUNTIME", "openmp", 1);
  EXPECT_EQ(runtime::resolve_backend(RuntimeBackend::kAuto),
            RuntimeBackend::kOpenMP);
  // ...then the library default.
  ::unsetenv("FTGEMM_RUNTIME");
  EXPECT_EQ(runtime::resolve_backend(RuntimeBackend::kAuto),
            RuntimeBackend::kOpenMP);
}

TEST(Topology, PlannerFreezesResolvedBackendIntoThePlan) {
  Options opts;
  opts.threads = 2;
  ::setenv("FTGEMM_RUNTIME", "pool", 1);
  const GemmPlan<double> pooled = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 256, 256, 256, opts, false);
  EXPECT_EQ(pooled.runtime, RuntimeBackend::kPool);
  ::unsetenv("FTGEMM_RUNTIME");
  const GemmPlan<double> defaulted = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 256, 256, 256, opts, false);
  EXPECT_EQ(defaulted.runtime, RuntimeBackend::kOpenMP);

  opts.runtime = RuntimeBackend::kPool;
  const GemmPlan<double> forced = build_plan<double>(
      Trans::kNoTrans, Trans::kNoTrans, 256, 256, 256, opts, false);
  EXPECT_EQ(forced.runtime, RuntimeBackend::kPool);
  // The backend is part of the fingerprint: pool and OpenMP plans of one
  // shape never alias in a cache.
  EXPECT_FALSE(forced.key == defaulted.key);
}

// ---------------------------------------------------------------------------
// Team-primitive semantics, identical across backends.
// ---------------------------------------------------------------------------

class TeamSemantics : public ::testing::TestWithParam<RuntimeBackend> {};

TEST_P(TeamSemantics, EveryRankRunsOnceAndBarrierSynchronizes) {
  const RuntimeBackend backend = GetParam();
  const int nt = 4;
  std::vector<int> seen(std::size_t(nt), 0);
  std::atomic<int> errors{0};
  auto body = [&](runtime::TeamMember& tm) {
    if (tm.nt() != nt) errors.fetch_add(1);
    if (tm.tid() < 0 || tm.tid() >= nt) {
      errors.fetch_add(1);
      return;
    }
    seen[std::size_t(tm.tid())] += 1;
    tm.barrier();
    // All pre-barrier writes are visible to every member.
    for (int t = 0; t < nt; ++t) {
      if (seen[std::size_t(t)] != 1) errors.fetch_add(1);
    }
  };
  runtime::run_team(backend, nt, body);
  EXPECT_EQ(errors.load(), 0);
  for (int t = 0; t < nt; ++t) EXPECT_EQ(seen[std::size_t(t)], 1);
}

TEST_P(TeamSemantics, BarrierPhasesNeverTear) {
  const RuntimeBackend backend = GetParam();
  const int nt = 3;
  const int phases = 64;
  std::vector<int> slot(std::size_t(nt), -1);
  std::atomic<int> errors{0};
  auto body = [&](runtime::TeamMember& tm) {
    for (int phase = 0; phase < phases; ++phase) {
      slot[std::size_t(tm.tid())] = phase;
      tm.barrier();
      for (int t = 0; t < nt; ++t) {
        if (slot[std::size_t(t)] != phase) errors.fetch_add(1);
      }
      tm.barrier();  // writes of the next phase must not race the reads
    }
  };
  runtime::run_team(backend, nt, body);
  EXPECT_EQ(errors.load(), 0);
}

TEST_P(TeamSemantics, SingleRunsExactlyOnceOnRankZeroThenBarriers) {
  const RuntimeBackend backend = GetParam();
  const int nt = 4;
  std::atomic<int> executions{0};
  std::atomic<int> errors{0};
  int executor = -1;
  int payload = 0;
  auto body = [&](runtime::TeamMember& tm) {
    tm.single([&] {
      executions.fetch_add(1);
      executor = tm.tid();
      payload = 42;
    });
    // The trailing barrier makes the single's writes visible everywhere.
    if (payload != 42) errors.fetch_add(1);
  };
  runtime::run_team(backend, nt, body);
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(executor, 0) << "single is pinned to rank 0 for determinism";
  EXPECT_EQ(errors.load(), 0);
}

TEST_P(TeamSemantics, SoloTeamRunsInlineWithoutDispatch) {
  const RuntimeBackend backend = GetParam();
  int runs = 0;
  auto body = [&](runtime::TeamMember& tm) {
    EXPECT_EQ(tm.tid(), 0);
    EXPECT_EQ(tm.nt(), 1);
    tm.barrier();          // no-op, must not hang
    tm.single([&] { ++runs; });
  };
  runtime::run_team(backend, 1, body);
  EXPECT_EQ(runs, 1);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, TeamSemantics,
                         ::testing::Values(RuntimeBackend::kOpenMP,
                                           RuntimeBackend::kPool),
                         [](const auto& info) {
                           return info.param == RuntimeBackend::kPool
                                      ? "pool"
                                      : "openmp";
                         });

TEST(PoolRuntime, WorkersPersistAndAreReusedAcrossRegions) {
  auto noop = [](runtime::TeamMember& tm) { tm.barrier(); };
  runtime::run_team(RuntimeBackend::kPool, 3, noop);
  const int after_first = runtime::pool_worker_count();
  EXPECT_GE(after_first, 2);
  // Back-to-back sequential teams of the same width lease the same parked
  // workers instead of spawning.
  for (int i = 0; i < 16; ++i) runtime::run_team(RuntimeBackend::kPool, 3, noop);
  EXPECT_EQ(runtime::pool_worker_count(), after_first);
}

#if defined(__linux__)
/// Pool workers run in the normal class whoever spawns them.  A new thread
/// copies its spawner's scheduling class by default, so without the reset
/// the first caller to lease a worker (a batch-class shard dispatcher, an
/// idle-class thread) would set the class of every later caller's teams.
TEST(PoolRuntime, SpawnedWorkersKeepTheNormalClass) {
  // One more worker than the pool has, so at least one gets spawned here.
  const int nt = runtime::pool_worker_count() + 2;
  std::vector<int> policy(std::size_t(nt), -1);
  bool switched = false;
  std::thread caller([&] {
    const sched_param param{};
    switched = pthread_setschedparam(pthread_self(), SCHED_BATCH, &param) == 0;
    if (!switched) return;
    auto record = [&](runtime::TeamMember& tm) {
      policy[std::size_t(tm.tid())] = sched_getscheduler(0);
    };
    runtime::run_team(RuntimeBackend::kPool, nt, record);
  });
  caller.join();
  ASSERT_TRUE(switched) << "could not switch the caller to SCHED_BATCH";
  EXPECT_EQ(policy[0], SCHED_BATCH) << "rank 0 is the calling thread";
  for (int r = 1; r < nt; ++r) {
    EXPECT_EQ(policy[std::size_t(r)], SCHED_OTHER) << "rank " << r;
  }
}
#endif

TEST(PoolRuntime, NestedOpenMPRegionFallsBackToPool) {
  // A nested `#pragma omp parallel` delivers a one-member team by default,
  // which would silently drop every tid > 0 partition.  run_team detects
  // the nesting and routes the OpenMP backend to the pool instead.
  std::vector<int> seen(2, 0);
#pragma omp parallel num_threads(2)
  {
    if (omp_get_thread_num() == 0) {
      auto body = [&](runtime::TeamMember& tm) {
        seen[std::size_t(tm.tid())] = 1;
        tm.barrier();
      };
      runtime::run_team(RuntimeBackend::kOpenMP, 2, body);
    }
  }
  EXPECT_EQ(seen[0], 1);
  EXPECT_EQ(seen[1], 1);
}

// ---------------------------------------------------------------------------
// The acceptance bar: pool results are bit-identical to OpenMP results at
// equal thread counts, Ori and FT, across shapes with edge tiles,
// transposes, non-trivial scalars, and multiple verification panels.
// ---------------------------------------------------------------------------

template <typename T>
void expect_backend_bit_identity(const GemmCase& cs, int threads) {
  Problem<T> p(cs, 31);
  Options omp_opts;
  omp_opts.threads = threads;
  omp_opts.runtime = RuntimeBackend::kOpenMP;
  omp_opts.small_fast_path = false;  // keep the team path under test
  Options pool_opts = omp_opts;
  pool_opts.runtime = RuntimeBackend::kPool;

  const auto call_ft = [&](Matrix<T>& c, const Options& o) {
    if constexpr (sizeof(T) == 8) {
      return ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                      cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                      cs.beta, c.data(), c.ld(), o);
    } else {
      return ft_sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                      T(cs.alpha), p.a.data(), p.a.ld(), p.b.data(),
                      p.b.ld(), T(cs.beta), c.data(), c.ld(), o);
    }
  };
  const auto call_ori = [&](Matrix<T>& c, const Options& o) {
    if constexpr (sizeof(T) == 8) {
      dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
            p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c.data(),
            c.ld(), o);
    } else {
      sgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, T(cs.alpha),
            p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), T(cs.beta), c.data(),
            c.ld(), o);
    }
  };
  const std::size_t bytes =
      sizeof(T) * std::size_t(p.c.ld()) * std::size_t(cs.n);

  Matrix<T> ft_omp = p.c.clone();
  Matrix<T> ft_pool = p.c.clone();
  const FtReport rep_omp = call_ft(ft_omp, omp_opts);
  const FtReport rep_pool = call_ft(ft_pool, pool_opts);
  EXPECT_TRUE(rep_omp.clean()) << cs;
  EXPECT_TRUE(rep_pool.clean()) << cs;
  EXPECT_EQ(rep_pool.errors_detected, 0) << cs;
  ASSERT_EQ(0, std::memcmp(ft_omp.data(), ft_pool.data(), bytes))
      << "FT pool backend diverged from OpenMP at nt=" << threads << " for "
      << cs;

  Matrix<T> ori_omp = p.c.clone();
  Matrix<T> ori_pool = p.c.clone();
  call_ori(ori_omp, omp_opts);
  call_ori(ori_pool, pool_opts);
  ASSERT_EQ(0, std::memcmp(ori_omp.data(), ori_pool.data(), bytes))
      << "Ori pool backend diverged from OpenMP at nt=" << threads << " for "
      << cs;

  // And both agree with the naive oracle to rounding.
  const Matrix<T> ref = reference_result(cs, p);
  EXPECT_LE(max_abs_diff(ft_pool, ref), gemm_tolerance<T>(cs.k)) << cs;
}

TEST(BackendBitIdentity, DoubleAcrossShapeAndThreadSweep) {
  const std::vector<GemmCase> cases = {
      {128, 96, 300},                                     // multi-panel
      {97, 203, 129},                                     // ragged edges
      {17, 64, 64},                                       // idle members
      {256, 32, 512, Trans::kTrans, Trans::kNoTrans},     // At
      {64, 64, 64, Trans::kNoTrans, Trans::kTrans, -1.5, 2.0},
      {31, 29, 100, Trans::kTrans, Trans::kTrans, 0.75, 0.25},
  };
  for (const int threads : {2, 4}) {
    for (const GemmCase& cs : cases) {
      expect_backend_bit_identity<double>(cs, threads);
    }
  }
}

TEST(BackendBitIdentity, FloatSpotChecks) {
  expect_backend_bit_identity<float>({128, 96, 300}, 4);
  expect_backend_bit_identity<float>(
      {64, 64, 64, Trans::kNoTrans, Trans::kTrans, -1.5, 2.0}, 3);
}

TEST(PoolFt, InjectedFaultsCorrectedAcrossMemberBoundaries) {
  // Same scenario as ParallelFt.InjectionCorrectedAcrossThreadBoundaries,
  // but the team runs on pool workers: the Cr reduction and the rank-0
  // solve must see faults from every member's row partition.
  const GemmCase cs{128, 128, 128};
  Problem<double> p(cs);
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 5, 100, 2.0, 0},
      {InjectionKind::kAddDelta, 0, 120, 3, -7.0, 0},
  });
  Options opts;
  opts.threads = 4;
  opts.runtime = RuntimeBackend::kPool;
  opts.injector = &inj;
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  EXPECT_EQ(static_cast<std::size_t>(rep.errors_corrected),
            inj.injected_count());
  EXPECT_TRUE(rep.clean());
  EXPECT_LE(max_rel_diff(c, ref), gemm_tolerance<double>(cs.k));
}

TEST(PoolBatched, InterBatchMembersRunOnPoolWorkersBitIdentically) {
  // Forced inter-batch scheduling on both backends: every member executes
  // the same serial plan, so the two schedules must agree bitwise.
  const index_t n = 48, batch = 8;
  Problem<double> p({n, n * batch, n}, 99);
  std::vector<double> c_omp(p.c.data(), p.c.data() + p.c.ld() * n * batch);
  std::vector<double> c_pool = c_omp;

  BatchOptions opts;
  opts.schedule = BatchSchedule::kInter;
  opts.inject_problem = -1;  // no injector attached — shared-sink veto moot
  opts.base.threads = 4;

  opts.base.runtime = RuntimeBackend::kOpenMP;
  const BatchReport rep_omp = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
      p.a.data(), p.a.ld(), 0, p.b.data(), p.b.ld(), n * p.b.ld(), 0.5,
      c_omp.data(), p.c.ld(), n * p.c.ld(), batch, opts);

  opts.base.runtime = RuntimeBackend::kPool;
  const BatchReport rep_pool = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
      p.a.data(), p.a.ld(), 0, p.b.data(), p.b.ld(), n * p.b.ld(), 0.5,
      c_pool.data(), p.c.ld(), n * p.c.ld(), batch, opts);

  EXPECT_TRUE(rep_omp.inter_batch);
  EXPECT_TRUE(rep_pool.inter_batch);
  EXPECT_EQ(rep_omp.dirty_problems, 0);
  EXPECT_EQ(rep_pool.dirty_problems, 0);
  ASSERT_EQ(0, std::memcmp(c_omp.data(), c_pool.data(),
                           sizeof(double) * c_omp.size()));
}

}  // namespace
}  // namespace ftgemm
