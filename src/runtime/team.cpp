// Thread-team backends: the OpenMP region fallback and the persistent
// worker pool (see runtime/team.hpp for the contract).
//
// Pool anatomy — three pieces, all process-wide:
//
//   WorkerSlot  — one parked worker thread.  Job handoff is a single
//     atomic pointer published under the slot mutex, so a spinning worker
//     picks it up lock-free while a parked worker is woken exactly once
//     (storing under the mutex makes the park/assign race a textbook
//     condition-variable pattern instead of a Dekker store-load).
//
//   TeamJob     — one run_team invocation: the member function, the team's
//     sense-reversing barrier, and a completion latch.  Heap-allocated and
//     manually reference-counted (leader + one ref per worker) so the last
//     participant out — whoever it is — frees it, and neither the leader's
//     spin-exit nor a worker's final notify can touch a dead job.
//
//   WorkerPool  — the free-list.  run() leases nt-1 workers (growing the
//     pool on demand, never shrinking), participates as rank 0, and waits
//     on the job latch.  Leasing means concurrent application threads get
//     disjoint workers — N serving threads each running 4-member teams use
//     4N workers, not a shared global region — which is what makes the
//     batched scheduler safe to dispatch onto the pool from any thread.
//
// Spin policy: both the barrier and the parked-worker wakeup spin a bounded
// number of iterations before falling back to a futex sleep (condvar).  On
// an oversubscribed machine (teams wider than the core count — the CI
// regime) spinning only steals cycles from the threads being waited on, so
// the spin budget collapses to zero there.  FTGEMM_POOL_SPIN overrides.
#include "runtime/team.hpp"

#include <omp.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/topology.hpp"
#include "util/env.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ftgemm::runtime {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Bounded spin before parking (workers awaiting a job, members inside a
/// barrier, the leader awaiting completion).  ~10^4 pause iterations is a
/// few microseconds — enough to bridge back-to-back serving dispatches
/// without ever burning a core for long.
int spin_budget() {
  static const int budget = [] {
    const long env = env_long("FTGEMM_POOL_SPIN", -1);
    if (env >= 0) return int(env);
    return hardware_concurrency() > 1 ? 16384 : 0;
  }();
  return budget;
}

/// Centralized sense-reversing barrier for one team.  The last arriver
/// flips the generation and wakes any parked members; everyone else spins
/// on the generation, then parks.
class PoolBarrier final : public TeamBarrier {
 public:
  explicit PoolBarrier(int nt) : nt_(nt) {}

  void wait() override {
    const int gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == nt_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      // The empty critical section orders the generation flip before the
      // notify: a member that observed the old generation under the mutex
      // is guaranteed to be in wait() and receive the broadcast.
      { std::lock_guard<std::mutex> lk(m_); }
      cv_.notify_all();
      return;
    }
    for (int i = spin_budget(); i > 0; --i) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [&] {
      return generation_.load(std::memory_order_acquire) != gen;
    });
  }

 private:
  const int nt_;
  std::atomic<int> arrived_{0};
  std::atomic<int> generation_{0};
  std::mutex m_;
  std::condition_variable cv_;
};

/// One run_team invocation (see file comment for the lifetime protocol):
/// the calling thread participates as rank 0, holds one ref, and parks on
/// done_cv until every worker has finished.
struct TeamJob {
  TeamJob(int nt, TeamFnRef fn)
      : fn(fn), barrier(nt), nt(nt), refs(nt), active_workers(nt - 1) {}

  const TeamFnRef fn;
  PoolBarrier barrier;
  const int nt;
  std::atomic<int> refs;            ///< participants still holding it
  std::atomic<int> active_workers;  ///< workers not yet finished
  std::mutex m;
  std::condition_variable done_cv;  ///< leader parks here past the spin
};

void drop_ref(TeamJob* job) {
  if (job->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete job;
}

struct WorkerSlot {
  std::atomic<TeamJob*> job{nullptr};
  int tid = 0;  ///< rank for the pending job; published by the job store
  std::mutex m;
  std::condition_variable cv;
  bool stop = false;  ///< guarded by m
  std::thread thread;
};

class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  void run(int nt, TeamFnRef fn) {
    const int workers = nt - 1;
    TeamJob* job = new TeamJob(nt, fn);

    {
      std::lock_guard<std::mutex> lk(m_);
      for (int i = 0; i < workers; ++i) {
        if (free_.empty()) spawn_locked();
        WorkerSlot* slot = free_.back();
        free_.pop_back();
        assign(slot, job, i + 1);
      }
    }

    TeamMember leader(0, nt, &job->barrier);
    job->fn(leader);

    // Completion latch: spin, then park on the job's condvar.  The job's
    // refcount keeps the latch alive through a worker's final notify even
    // when the leader leaves via the spin path.
    if (job->active_workers.load(std::memory_order_acquire) > 0) {
      for (int i = spin_budget(); i > 0; --i) {
        if (job->active_workers.load(std::memory_order_acquire) == 0) break;
        cpu_relax();
      }
      if (job->active_workers.load(std::memory_order_acquire) > 0) {
        std::unique_lock<std::mutex> lk(job->m);
        job->done_cv.wait(lk, [&] {
          return job->active_workers.load(std::memory_order_acquire) == 0;
        });
      }
    }
    drop_ref(job);
  }

  [[nodiscard]] int worker_count() {
    std::lock_guard<std::mutex> lk(m_);
    return int(slots_.size());
  }

 private:
  WorkerPool()
      : pin_(env_long("FTGEMM_POOL_PIN", 0) != 0),
        ncpu_(hardware_concurrency()) {}

  // Joining happens outside m_: a worker finishing its last job needs m_
  // for the free-list push, and no worker ever touches slots_ itself.
  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      for (auto& slot : slots_) {
        std::lock_guard<std::mutex> slk(slot->m);
        slot->stop = true;
      }
    }
    for (auto& slot : slots_) {
      slot->cv.notify_one();
      slot->thread.join();
    }
  }

  /// Hand a leased worker its job.  Storing under the slot mutex makes the
  /// handoff race-free against a worker transitioning from spin to park:
  /// the worker re-checks the slot under the same mutex before sleeping.
  static void assign(WorkerSlot* slot, TeamJob* job, int tid) {
    {
      std::lock_guard<std::mutex> lk(slot->m);
      slot->tid = tid;
      slot->job.store(job, std::memory_order_release);
    }
    slot->cv.notify_one();
  }

  void spawn_locked() {
    auto slot = std::make_unique<WorkerSlot>();
    WorkerSlot* raw = slot.get();
    const int index = int(slots_.size());
    raw->thread = std::thread([this, raw, index] { worker_main(raw, index); });
    slots_.push_back(std::move(slot));
    free_.push_back(raw);
  }

  void worker_main(WorkerSlot* slot, int index) {
#if defined(__linux__)
    // A new thread copies its spawner's scheduling class; the first thread
    // to lease a worker must not set the class of every later caller's
    // teams (a batch-class shard dispatcher, an idle-class caller).
    const sched_param normal{};
    pthread_setschedparam(pthread_self(), SCHED_OTHER, &normal);
    if (pin_ && ncpu_ > 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(std::size_t(index % ncpu_), &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
#else
    (void)index;
#endif
    for (;;) {
      TeamJob* job = nullptr;
      for (int i = spin_budget(); i > 0; --i) {
        job = slot->job.load(std::memory_order_acquire);
        if (job != nullptr) break;
        cpu_relax();
      }
      if (job == nullptr) {
        std::unique_lock<std::mutex> lk(slot->m);
        slot->cv.wait(lk, [&] {
          return slot->stop ||
                 slot->job.load(std::memory_order_acquire) != nullptr;
        });
        if (slot->stop) return;
        job = slot->job.load(std::memory_order_acquire);
      }
      const int tid = slot->tid;
      slot->job.store(nullptr, std::memory_order_relaxed);

      TeamMember member(tid, job->nt, &job->barrier);
      job->fn(member);

      // Return to the free list *before* signalling completion: by the
      // time the leader can observe the team as done, every worker is
      // already reusable, so an immediately following run() never spawns
      // spuriously.
      {
        std::lock_guard<std::mutex> lk(m_);
        free_.push_back(slot);
      }
      {
        std::lock_guard<std::mutex> lk(job->m);
        if (job->active_workers.fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          job->done_cv.notify_one();
        }
      }
      drop_ref(job);
    }
  }

  std::mutex m_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<WorkerSlot*> free_;
  const bool pin_;
  const int ncpu_;
};

class OmpBarrier final : public TeamBarrier {
 public:
  void wait() override {
// Orphaned directive: binds to the innermost enclosing parallel region.
#pragma omp barrier
  }
};

OmpBarrier g_omp_barrier;

/// Returns false — without having run fn at all — when the region
/// materializes with fewer than nt threads (OMP_DYNAMIC, OMP_THREAD_LIMIT,
/// resource exhaustion): the caller partitioned work over nt ranks, so an
/// under-delivered team would silently drop the absent ranks' share.
bool run_openmp(int nt, TeamFnRef fn) {
  bool delivered = true;
#pragma omp parallel num_threads(nt)
  {
    if (omp_get_num_threads() == nt) {
      TeamMember member(omp_get_thread_num(), nt, &g_omp_barrier);
      fn(member);
    } else if (omp_get_thread_num() == 0) {
      delivered = false;  // visible to the caller via the region join
    }
  }
  return delivered;
}

}  // namespace

void run_team(RuntimeBackend backend, int nt, TeamFnRef fn) {
  if (nt <= 1) {
    TeamMember solo(0, 1, nullptr);
    fn(solo);
    return;
  }
  backend = resolve_backend(backend);
  // The pool is the fallback whenever OpenMP cannot host a faithful
  // nt-member team: inside an existing parallel region (a nested region
  // delivers a one-member team by default, silently dropping every tid > 0
  // partition) or when the runtime hands the region fewer threads than
  // requested.  Member function, ranks, and team size are identical either
  // way, so results do not depend on which backend ends up executing.
  if (backend == RuntimeBackend::kOpenMP && !omp_in_parallel() &&
      run_openmp(nt, fn)) {
    return;
  }
  WorkerPool::instance().run(nt, fn);
}

int pool_worker_count() { return WorkerPool::instance().worker_count(); }

}  // namespace ftgemm::runtime
