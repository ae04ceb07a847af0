// Thread-team runtime: the parallel-region abstraction every (FT-)GEMM
// layer executes on.
//
// The paper's §2.3 algorithm needs exactly three collective primitives —
// fork a team of nt members, barrier, and a single-executor section.  This
// layer expresses them behind one interface:
//
//   run_team(nt, fn)           — run fn(member) on nt team members;
//   TeamMember::tid()/nt()     — the member's rank and the team size;
//   TeamMember::barrier()      — synchronize the whole team;
//   TeamMember::single(f)      — f runs on exactly one member (rank 0),
//                                followed by a team barrier.
//
// Every thread that leads a team keeps its own parked workers
// (runtime/team.cpp): they are spawned on its first team, serve only its
// teams, and are joined when it exits.  A leader therefore always pairs
// with the same workers, and concurrent leaders share no lock.  A child
// process forked after its thread led a team spawns new workers on its
// next team; the parent's are not threads of the child.
//
// Bit-identity contract: a team member's rank and team size fully determine
// its partition of the work and its position in every reduction, so
// results do not depend on which thread runs which rank.  Across thread
// counts, C's summation order does not depend on nt; the FT checksums'
// does (Bc, for one, is summed from per-member partials in rank order),
// inside the verification tolerance.
#pragma once

#include <type_traits>

namespace ftgemm {

/// Kept only because benchmark/ still names it; ROADMAP item 10(g) removes
/// it with resolve_backend and the three-argument run_team.
enum class RuntimeBackend { kAuto = 0 };

namespace runtime {

/// One team's barrier (defined in runtime/team.cpp).
class TeamBarrier;

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
  void barrier();

  /// Run f on exactly one member (rank 0), then barrier the team.  Pinning
  /// the executor to rank 0, rather than to the first arriver, keeps it
  /// stable across runs.
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
/// runtime lives in a .cpp), and a std::function would heap-allocate on
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

/// Execute fn(member) on a team of nt members.  nt <= 1 runs fn inline on
/// the calling thread (no dispatch); otherwise the calling thread runs
/// rank 0 and its own workers run ranks 1..nt-1.  A member of a running
/// team may lead a nested team.  Returns after every member has finished.
void run_team(int nt, TeamFnRef fn);

/// Forwards to run_team(nt, fn); see RuntimeBackend.
inline void run_team(RuntimeBackend, int nt, TeamFnRef fn) {
  run_team(nt, fn);
}

/// Worker threads alive in the process, over every leader (diagnostics and
/// tests).
int pool_worker_count();

}  // namespace runtime
}  // namespace ftgemm
