// Thread-team runtime (see runtime/team.hpp for the contract), on
// libgomp's design: each thread that leads a team owns its workers, and
// every wait spins before it parks.
//
// Three pieces:
//
//   Crew   — one leader's workers, held thread_local.  A team takes the
//     slots after those the leader's running teams hold, so a nested team
//     led by the same thread (rank 0 of a running team) gets workers of
//     its own.  The crew grows on demand, never shrinks, and joins its
//     workers when the leader exits.  Workers are spawned by their leader,
//     so they run in its scheduling class.
//
//   Worker — one parked thread.  The leader publishes a Team pointer under
//     the worker's mutex, so a spinning worker picks it up lock-free while
//     a parked one is woken exactly once.
//
//   Team   — one run_team call, on the leader's stack: the member function,
//     the barrier and the count of workers still running.  A worker
//     touches its Team only before it decrements that count, and the
//     leader returns only once it reads zero, so the Team outlives every
//     access.
//
// Spin rule (the GOMP_SPINCOUNT default of the libgomp manual, plus a
// yield): workers awaiting a team, members in a barrier and the leader
// awaiting its workers spin kLongSpin iterations while the process's
// workers plus one leader fit in hardware_concurrency(), and kShortSpin
// once they do not; then they park on a condition variable.  libgomp uses
// 300,000 and 100.  Every kYieldEvery-th iteration of the long spin is a
// sched_yield(), so a long spinner never keeps a core from a runnable
// thread of another process.  The short spin does not yield: it parks
// after tens of microseconds anyway, and a yield there hands the core to
// another of this process's threads while the spinner's team waits for it.  A
// pause is not a fixed time: 16,384 of them took 365-463 us on a 4-core
// AVX-512 Xeon, so the long spin lasts milliseconds there, long enough to
// keep a team awake between back-to-back calls.
#include "runtime/team.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/topology.hpp"

namespace ftgemm::runtime {

namespace {

constexpr int kLongSpin = 1 << 18;
constexpr int kShortSpin = 1024;
constexpr int kYieldEvery = 64;

/// Workers alive in the process, over every crew.
std::atomic<int> g_workers{0};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// The spin rule's test: the process's workers plus one leader fit the
/// cores.
bool threads_fit_cores() {
  static const int cores = hardware_concurrency();
  return g_workers.load(std::memory_order_relaxed) + 1 <= cores;
}

/// Spin until done() holds or the budget is spent; returns done()'s last
/// value.
template <typename Done>
bool spin_until(Done done) {
  const bool fit = threads_fit_cores();
  const int budget = fit ? kLongSpin : kShortSpin;
  for (int i = 1; i <= budget; ++i) {
    if (done()) return true;
    if (fit && i % kYieldEvery == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  return done();
}

}  // namespace

/// Centralized sense-reversing barrier for one team.  The last arriver
/// flips the generation and wakes any parked members; everyone else spins
/// on the generation, then parks.
class TeamBarrier {
 public:
  explicit TeamBarrier(int nt) : nt_(nt) {}

  void wait() {
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
    const auto passed = [&] {
      return generation_.load(std::memory_order_acquire) != gen;
    };
    if (spin_until(passed)) return;
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, passed);
  }

 private:
  const int nt_;
  std::atomic<int> arrived_{0};
  std::atomic<int> generation_{0};
  std::mutex m_;
  std::condition_variable cv_;
};

void TeamMember::barrier() {
  if (nt_ > 1) barrier_->wait();
}

namespace {

struct Team {
  Team(int nt, TeamFnRef fn) : fn(fn), barrier(nt), nt(nt), running(nt - 1) {}

  const TeamFnRef fn;
  TeamBarrier barrier;
  const int nt;
  std::atomic<int> running;  ///< workers not yet finished
};

struct Worker {
  std::atomic<Team*> team{nullptr};
  int tid = 0;  ///< rank in the pending team; published by the team store
  std::atomic<bool> stop{false};  ///< set under m when the leader exits
  std::mutex m;
  std::condition_variable cv;
  std::thread thread;
};

class Crew {
 public:
  Crew() = default;
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  ~Crew() {
    for (auto& w : workers_) {
      {
        std::lock_guard<std::mutex> lk(w->m);
        w->stop.store(true, std::memory_order_relaxed);
      }
      w->cv.notify_one();
    }
    for (auto& w : workers_) w->thread.join();
    g_workers.fetch_sub(int(workers_.size()), std::memory_order_relaxed);
  }

  void run(int nt, TeamFnRef fn) {
    const int first = held_;
    grow(first + nt - 1);  // may throw; no worker has a job yet
    held_ = first + nt - 1;
    lead(first, nt, fn);
    held_ = first;
  }

 private:
  /// noexcept: an exception from the member function must not unwind the
  /// frame that holds the team while workers still use it, so it ends the
  /// program, as it does on a worker thread.
  void lead(int first, int nt, TeamFnRef fn) noexcept {
    Team team(nt, fn);
    for (int r = 1; r < nt; ++r) {
      Worker& w = *workers_[std::size_t(first + r - 1)];
      {
        std::lock_guard<std::mutex> lk(w.m);
        w.tid = r;
        w.team.store(&team, std::memory_order_release);
      }
      w.cv.notify_one();
    }

    TeamMember leader(0, nt, &team.barrier);
    fn(leader);

    const auto finished = [&] {
      return team.running.load(std::memory_order_acquire) == 0;
    };
    if (!spin_until(finished)) {
      std::unique_lock<std::mutex> lk(done_m_);
      done_cv_.wait(lk, finished);
    }
  }

  void grow(int n) {
    if (int(workers_.size()) >= n) return;
    workers_.reserve(std::size_t(n));
    while (int(workers_.size()) < n) {
      auto w = std::make_unique<Worker>();
      Worker* raw = w.get();
      raw->thread = std::thread([this, raw] { serve(*raw); });
      workers_.push_back(std::move(w));  // no reallocation: reserved
      g_workers.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void serve(Worker& w) {
    for (;;) {
      Team* team = nullptr;
      const auto ready = [&] {
        team = w.team.load(std::memory_order_acquire);
        return team != nullptr || w.stop.load(std::memory_order_relaxed);
      };
      if (!spin_until(ready)) {
        std::unique_lock<std::mutex> lk(w.m);
        w.cv.wait(lk, ready);
      }
      if (team == nullptr) return;  // the leader exited
      const int tid = w.tid;
      w.team.store(nullptr, std::memory_order_relaxed);

      TeamMember member(tid, team->nt, &team->barrier);
      team->fn(member);

      // Past this decrement the leader may return and free the Team; only
      // the crew's own latch is touched after it.
      if (team->running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        { std::lock_guard<std::mutex> lk(done_m_); }
        done_cv_.notify_one();
      }
    }
  }

  std::mutex done_m_;  ///< the leader parks here past its spin
  std::condition_variable done_cv_;
  int held_ = 0;  ///< slots the leader's running teams hold
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace

void run_team(int nt, TeamFnRef fn) {
  if (nt <= 1) {
    TeamMember solo(0, 1, nullptr);
    fn(solo);
    return;
  }
  thread_local Crew crew;
  crew.run(nt, fn);
}

int pool_worker_count() {
  return g_workers.load(std::memory_order_relaxed);
}

}  // namespace ftgemm::runtime
