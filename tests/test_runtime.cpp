// The thread-team runtime layer (src/runtime/): topology resolution,
// team-primitive semantics, the per-leader workers (nesting, ownership,
// exit, scheduling class, fork), and — the contract the executor rests on —
// bit-identical (FT-)GEMM results at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "core/gemm_batched.hpp"
#include "runtime/team.hpp"
#include "runtime/topology.hpp"
#include "test_common.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>
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

#if defined(__linux__)
/// The default team is the affinity mask, read at call time: a child whose
/// mask is narrowed to two CPUs gets two-member teams.
TEST(Topology, NarrowedAffinityMaskCapsTheDefault) {
  cpu_set_t all;
  CPU_ZERO(&all);
  ASSERT_EQ(sched_getaffinity(0, sizeof(all), &all), 0);
  if (CPU_COUNT(&all) < 2) GTEST_SKIP() << "needs two CPUs";
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int cpu = 0, kept = 0; cpu < CPU_SETSIZE && kept < 2; ++cpu) {
    if (CPU_ISSET(cpu, &all)) {
      CPU_SET(cpu, &two);
      ++kept;
    }
  }
  ::unsetenv("FTGEMM_THREADS");
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // _exit: the child must not flush the parent's buffered output or run
    // the test program's exit handlers.
    if (sched_setaffinity(0, sizeof(two), &two) != 0) _exit(100);
    _exit(runtime::topology(0));
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}
#endif

// ---------------------------------------------------------------------------
// Team-primitive semantics.
// ---------------------------------------------------------------------------

TEST(TeamSemantics, EveryRankRunsOnceAndBarrierSynchronizes) {
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
  runtime::run_team(nt, body);
  EXPECT_EQ(errors.load(), 0);
  for (int t = 0; t < nt; ++t) EXPECT_EQ(seen[std::size_t(t)], 1);
}

TEST(TeamSemantics, BarrierPhasesNeverTear) {
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
  runtime::run_team(nt, body);
  EXPECT_EQ(errors.load(), 0);
}

TEST(TeamSemantics, SingleRunsExactlyOnceOnRankZeroThenBarriers) {
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
  runtime::run_team(nt, body);
  EXPECT_EQ(executions.load(), 1);
  EXPECT_EQ(executor, 0) << "single is pinned to rank 0 for determinism";
  EXPECT_EQ(errors.load(), 0);
}

TEST(TeamSemantics, SoloTeamRunsInlineWithoutDispatch) {
  int runs = 0;
  auto body = [&](runtime::TeamMember& tm) {
    EXPECT_EQ(tm.tid(), 0);
    EXPECT_EQ(tm.nt(), 1);
    tm.barrier();          // no-op, must not hang
    tm.single([&] { ++runs; });
  };
  runtime::run_team(1, body);
  EXPECT_EQ(runs, 1);
}

// ---------------------------------------------------------------------------
// Per-leader workers.
// ---------------------------------------------------------------------------

TEST(PoolRuntime, WorkersPersistAndAreReusedAcrossRegions) {
  auto noop = [](runtime::TeamMember& tm) { tm.barrier(); };
  runtime::run_team(3, noop);
  const int after_first = runtime::pool_worker_count();
  EXPECT_GE(after_first, 2);
  // Back-to-back sequential teams of the same width reuse the same parked
  // workers instead of spawning.
  for (int i = 0; i < 16; ++i) runtime::run_team(3, noop);
  EXPECT_EQ(runtime::pool_worker_count(), after_first);
}

TEST(PoolRuntime, RanksZeroAndTwoEachLeadANestedTeam) {
  // Rank 0 nests on its own crew's next slots; rank 2 is a worker and
  // leads from a crew of its own.  Both inner teams run at once.
  constexpr int kOuter = 3, kInner = 3, kPhases = 16;
  std::vector<int> outer_seen(kOuter, 0);
  std::vector<std::vector<int>> inner_seen(2, std::vector<int>(kInner, 0));
  std::atomic<int> errors{0};
  auto outer = [&](runtime::TeamMember& om) {
    outer_seen[std::size_t(om.tid())] += 1;
    if (om.tid() == 0 || om.tid() == 2) {
      std::vector<int>& seen = inner_seen[std::size_t(om.tid() / 2)];
      std::vector<int> slot(kInner, -1);
      auto inner = [&](runtime::TeamMember& im) {
        if (im.nt() != kInner) errors.fetch_add(1);
        seen[std::size_t(im.tid())] += 1;
        for (int phase = 0; phase < kPhases; ++phase) {
          slot[std::size_t(im.tid())] = phase;
          im.barrier();
          for (int t = 0; t < kInner; ++t) {
            if (slot[std::size_t(t)] != phase) errors.fetch_add(1);
          }
          im.barrier();
        }
      };
      runtime::run_team(kInner, inner);
    }
    om.barrier();  // the outer barrier still holds after the nested teams
    for (int t = 0; t < kOuter; ++t) {
      if (outer_seen[std::size_t(t)] != 1) errors.fetch_add(1);
    }
  };
  runtime::run_team(kOuter, outer);
  EXPECT_EQ(errors.load(), 0);
  for (int t = 0; t < kOuter; ++t) EXPECT_EQ(outer_seen[std::size_t(t)], 1);
  for (const auto& seen : inner_seen) {
    for (int t = 0; t < kInner; ++t) EXPECT_EQ(seen[std::size_t(t)], 1);
  }
}

TEST(PoolRuntime, EachLeaderKeepsItsOwnWorkers) {
  constexpr int kNt = 3, kCalls = 50;
  using Ids = std::vector<std::thread::id>;
  Ids first[2];
  bool stable[2] = {true, true};
  // Both leaders stay alive until both are done, so their workers' lives
  // overlap and a thread id cannot be reused between the two sets.
  std::atomic<int> done{0};
  const auto lead = [&](int who) {
    Ids ids(kNt);
    auto record = [&](runtime::TeamMember& tm) {
      ids[std::size_t(tm.tid())] = std::this_thread::get_id();
      tm.barrier();
    };
    for (int call = 0; call < kCalls; ++call) {
      runtime::run_team(kNt, record);
      if (call == 0) {
        first[who] = ids;
      } else if (ids != first[who]) {
        stable[who] = false;
      }
    }
    done.fetch_add(1);
    while (done.load() < 2) std::this_thread::yield();
  };
  std::thread a(lead, 0);
  std::thread b(lead, 1);
  a.join();
  b.join();
  EXPECT_TRUE(stable[0]);
  EXPECT_TRUE(stable[1]);
  for (const std::thread::id& id : first[0]) {
    EXPECT_EQ(std::count(first[1].begin(), first[1].end(), id), 0);
  }
}

TEST(PoolRuntime, ExitingLeaderJoinsItsWorkers) {
  const int before = runtime::pool_worker_count();
  int during = -1;
  std::thread leader([&] {
    auto noop = [](runtime::TeamMember& tm) { tm.barrier(); };
    runtime::run_team(4, noop);
    during = runtime::pool_worker_count();
  });
  leader.join();
  EXPECT_EQ(during, before + 3);
  EXPECT_EQ(runtime::pool_worker_count(), before);
}

#if defined(__linux__)
/// A leader spawns its own workers, and a new thread copies its creator's
/// scheduling class, so a batch-class leader's teams run in the batch
/// class on every rank.
TEST(PoolRuntime, WorkersRunInTheirLeadersClass) {
  const int nt = 3;
  std::vector<int> policy(std::size_t(nt), -1);
  bool switched = false;
  std::thread caller([&] {
    const sched_param param{};
    switched = pthread_setschedparam(pthread_self(), SCHED_BATCH, &param) == 0;
    if (!switched) return;
    auto record = [&](runtime::TeamMember& tm) {
      policy[std::size_t(tm.tid())] = sched_getscheduler(0);
    };
    runtime::run_team(nt, record);
  });
  caller.join();
  ASSERT_TRUE(switched) << "could not switch the caller to SCHED_BATCH";
  for (int r = 0; r < nt; ++r) {
    EXPECT_EQ(policy[std::size_t(r)], SCHED_BATCH) << "rank " << r;
  }
}

/// A child forked after its thread led a team has none of the parent's
/// workers, so its first team must spawn new ones rather than wait on the
/// inherited crew.  The child runs a 2-thread ft_dgemm and must match the
/// parent's C bit for bit.  The parent polls for at most 10 s, then kills
/// the child, so a hang fails the test and leaves no process behind.
TEST(PoolRuntime, ForkedChildRunsTeamsOnNewWorkers) {
  auto noop = [](runtime::TeamMember& tm) { tm.barrier(); };
  runtime::run_team(2, noop);

  const GemmCase cs{128, 96, 300};
  Problem<double> p(cs, 41);
  Options opts;
  opts.threads = 2;
  opts.small_fast_path = false;  // keep the team path under test
  const auto call = [&](Matrix<double>& c) {
    return ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                    cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                    cs.beta, c.data(), c.ld(), opts);
  };
  Matrix<double> want = p.c.clone();
  ASSERT_TRUE(call(want).clean());
  const std::size_t bytes =
      sizeof(double) * std::size_t(p.c.ld()) * std::size_t(cs.n);

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // _exit: the child must not flush the parent's buffered output or run
    // the test program's exit handlers.
    Matrix<double> got = p.c.clone();
    const bool clean = call(got).clean();
    _exit(clean && std::memcmp(got.data(), want.data(), bytes) == 0 ? 0 : 1);
  }
  int status = 0;
  pid_t reaped = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((reaped = waitpid(child, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reaped == 0) {
    kill(child, SIGKILL);
    waitpid(child, &status, 0);
  }
  ASSERT_EQ(reaped, child) << "the forked child's team never returned";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "the child's C or report differed";
}
#endif

// ---------------------------------------------------------------------------
// The executor's contract: C is bit-identical at every thread count, Ori and
// FT, across shapes with edge tiles, transposes, non-trivial scalars,
// multiple verification panels and idle members.
// ---------------------------------------------------------------------------

template <typename T>
void expect_thread_count_bit_identity(const GemmCase& cs) {
  Problem<T> p(cs, 31);
  Options one;
  one.threads = 1;
  one.small_fast_path = false;  // keep the team path under test

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

  Matrix<T> ft_one = p.c.clone();
  const FtReport rep_one = call_ft(ft_one, one);
  EXPECT_TRUE(rep_one.clean()) << cs;
  Matrix<T> ori_one = p.c.clone();
  call_ori(ori_one, one);

  for (const int threads : {2, 3, 4}) {
    Options opts = one;
    opts.threads = threads;
    Matrix<T> ft = p.c.clone();
    const FtReport rep = call_ft(ft, opts);
    EXPECT_TRUE(rep.clean()) << cs;
    EXPECT_EQ(rep.errors_detected, 0) << cs;
    EXPECT_EQ(rep.panels, rep_one.panels) << cs;
    ASSERT_EQ(0, std::memcmp(ft_one.data(), ft.data(), bytes))
        << "FT at nt=" << threads << " diverged from nt=1 for " << cs;

    Matrix<T> ori = p.c.clone();
    call_ori(ori, opts);
    ASSERT_EQ(0, std::memcmp(ori_one.data(), ori.data(), bytes))
        << "Ori at nt=" << threads << " diverged from nt=1 for " << cs;
  }

  // And both agree with the naive oracle to rounding.
  const Matrix<T> ref = reference_result(cs, p);
  EXPECT_LE(max_abs_diff(ft_one, ref), gemm_tolerance<T>(cs.k)) << cs;
}

TEST(ThreadCountBitIdentity, DoubleAcrossShapeAndThreadSweep) {
  const std::vector<GemmCase> cases = {
      {128, 96, 300},                                     // multi-panel
      {97, 203, 129},                                     // ragged edges
      {17, 64, 64},                                       // idle members
      {256, 32, 512, Trans::kTrans, Trans::kNoTrans},     // At
      {64, 64, 64, Trans::kNoTrans, Trans::kTrans, -1.5, 2.0},
      {31, 29, 100, Trans::kTrans, Trans::kTrans, 0.75, 0.25},
  };
  for (const GemmCase& cs : cases) expect_thread_count_bit_identity<double>(cs);
}

TEST(ThreadCountBitIdentity, FloatSpotChecks) {
  expect_thread_count_bit_identity<float>({128, 96, 300});
  expect_thread_count_bit_identity<float>(
      {64, 64, 64, Trans::kNoTrans, Trans::kTrans, -1.5, 2.0});
}

TEST(PoolBatched, InterBatchMembersRunOnPoolWorkersBitIdentically) {
  // Forced inter-batch scheduling runs each member's serial plan on one
  // team worker; forced intra-batch runs each on a 4-member team.  C does
  // not depend on the thread count, so the two schedules agree bitwise.
  const index_t n = 48, batch = 8;
  Problem<double> p({n, n * batch, n}, 99);
  std::vector<double> c_inter(p.c.data(), p.c.data() + p.c.ld() * n * batch);
  std::vector<double> c_intra = c_inter;

  BatchOptions opts;
  opts.inject_problem = -1;  // no injector attached — shared-sink veto moot
  opts.base.threads = 4;
  opts.base.small_fast_path = false;  // keep the 4-member teams intra

  opts.schedule = BatchSchedule::kInter;
  const BatchReport rep_inter = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
      p.a.data(), p.a.ld(), 0, p.b.data(), p.b.ld(), n * p.b.ld(), 0.5,
      c_inter.data(), p.c.ld(), n * p.c.ld(), batch, opts);

  opts.schedule = BatchSchedule::kIntra;
  const BatchReport rep_intra = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
      p.a.data(), p.a.ld(), 0, p.b.data(), p.b.ld(), n * p.b.ld(), 0.5,
      c_intra.data(), p.c.ld(), n * p.c.ld(), batch, opts);

  EXPECT_TRUE(rep_inter.inter_batch);
  EXPECT_FALSE(rep_intra.inter_batch);
  EXPECT_EQ(rep_inter.dirty_problems, 0);
  EXPECT_EQ(rep_intra.dirty_problems, 0);
  ASSERT_EQ(0, std::memcmp(c_inter.data(), c_intra.data(),
                           sizeof(double) * c_inter.size()));
}

}  // namespace
}  // namespace ftgemm
