// Thread-team runtime: the parallel-region abstraction every (FT-)GEMM
// layer executes on.
//
// The paper's §2.3 algorithm needs exactly three collective primitives —
// fork a team of nt members, barrier, and a single-executor section — and
// nothing OpenMP-specific.  This layer expresses them behind one interface:
//
//   run_team(backend, nt, fn)  — run fn(member) on nt team members;
//   TeamMember::tid()/nt()     — the member's rank and the team size;
//   TeamMember::barrier()      — synchronize the whole team;
//   TeamMember::single(f)      — f runs on exactly one member (rank 0),
//                                followed by a team barrier, mirroring
//                                OpenMP single's implicit barrier.
//
// Two backends implement it (selected per plan, see runtime/topology.hpp):
//
//   kOpenMP — the pre-existing `#pragma omp parallel` region.  Barriers are
//     orphaned `#pragma omp barrier` directives binding to the innermost
//     region.  When the caller is already inside an OpenMP parallel region
//     (where a nested region would silently deliver a one-thread team and
//     drop every tid > 0 partition), run_team routes the call to the pool
//     backend instead, which is nesting-agnostic.
//
//   kPool — a persistent process-wide worker pool (runtime/team.cpp).
//     Workers are spawned once, parked on a condition variable between
//     regions (with a bounded spin phase before parking, skipped when the
//     machine is oversubscribed), and leased per region under a free-list
//     mutex — so N application threads can each run teams concurrently
//     without oversubscribing a shared global region or re-spawning
//     threads.  FTGEMM_POOL_PIN=1 pins workers round-robin to cores.
//
// Bit-identity contract: a team member's rank and team size fully determine
// its partition of the work and its position in every reduction, and both
// backends run the identical member function at the identical (tid, nt) —
// so results are bit-identical across backends at equal nt.
// tests/test_runtime.cpp asserts this across the plan-equivalence shape
// sweep.  Across thread counts, C's summation order does not depend on nt;
// the FT checksums' does (Bc, for one, is summed from per-member partials
// in rank order), inside the verification tolerance.
#pragma once

#include <type_traits>

namespace ftgemm {

/// Team runtime a plan executes on.  kAuto defers to FTGEMM_RUNTIME, then
/// the library default (see runtime/topology.hpp).
enum class RuntimeBackend {
  kAuto = 0,    ///< resolve at plan time from the environment
  kOpenMP = 1,  ///< per-call OpenMP parallel region
  kPool = 2,    ///< persistent parked-worker pool
};

namespace runtime {

/// Synchronization point shared by one team; backends implement wait().
class TeamBarrier {
 public:
  virtual void wait() = 0;

 protected:
  ~TeamBarrier() = default;
};

/// One member's view of a running team.  Cheap value handle: rank, size,
/// and the team's barrier.
class TeamMember {
 public:
  TeamMember(int tid, int nt, TeamBarrier* barrier)
      : tid_(tid), nt_(nt), barrier_(barrier) {}

  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] int nt() const { return nt_; }

  /// Wait until every team member arrives.  All writes made by any member
  /// before its barrier() are visible to every member after.
  void barrier() {
    if (nt_ > 1) barrier_->wait();
  }

  /// Run f on exactly one member (rank 0), then barrier the team — the
  /// semantics of `#pragma omp single` with its implicit barrier, made
  /// deterministic (OpenMP hands the block to the first arriver; pinning it
  /// to rank 0 keeps the executor stable across backends and runs).
  template <typename F>
  void single(F&& f) {
    if (tid_ == 0) f();
    barrier();
  }

 private:
  int tid_;
  int nt_;
  TeamBarrier* barrier_;
};

/// Non-owning reference to the team body: run_team is not a template (the
/// backends live in a .cpp), and a std::function would heap-allocate on
/// every dispatch — measurable at serving sizes.  The referenced callable
/// must outlive the run_team call (it always does: the lambda lives in the
/// caller's frame and run_team returns only after every member finished).
class TeamFnRef {
 public:
  // The enable_if keeps this overload away from TeamFnRef itself: without
  // it the template would hijack the copy constructor and capture a
  // pointer to the by-value copy instead of the caller's callable.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, TeamFnRef>>>
  TeamFnRef(F& fn)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* o, TeamMember& m) { (*static_cast<F*>(o))(m); }) {}

  void operator()(TeamMember& member) const { call_(obj_, member); }

 private:
  void* obj_;
  void (*call_)(void*, TeamMember&);
};

/// Execute fn(member) on a team of nt members on the given backend.
/// nt <= 1 runs fn inline on the calling thread (no region, no pool trip);
/// the calling thread always participates as rank 0, so nt - 1 workers are
/// dispatched at most.  Returns after every member has finished.
void run_team(RuntimeBackend backend, int nt, TeamFnRef fn);

/// Workers currently alive in the process-wide pool (diagnostics/tests).
int pool_worker_count();

}  // namespace runtime
}  // namespace ftgemm
