// Topology policy: the single place worker counts are resolved.  The
// planner and the batched scheduler both ask topology(), and the result is
// frozen into the GemmPlan fingerprint so a warm PlanCache never masks a
// changed environment.
//
// Resolution order for the worker count (topology()):
//   1. the per-call request (Options::threads > 0),
//   2. the FTGEMM_THREADS environment variable (> 0), the only cap,
//   3. hardware concurrency (the CPUs the process may run on).
#pragma once

#include "runtime/team.hpp"

namespace ftgemm::runtime {

/// CPUs in the calling thread's affinity mask, read on every call, so a
/// narrowed mask (taskset, a cpuset) caps the default team; falls back to
/// std::thread::hardware_concurrency().  Always >= 1.
int hardware_concurrency();

/// Resolve a per-call thread request (0 = unset) against FTGEMM_THREADS and
/// hardware concurrency.  Always >= 1.
int topology(int requested_threads);

/// Returns its argument; see RuntimeBackend.
inline RuntimeBackend resolve_backend(RuntimeBackend requested) {
  return requested;
}

}  // namespace ftgemm::runtime
