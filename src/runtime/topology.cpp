#include "runtime/topology.hpp"

#include <algorithm>
#include <thread>

#include "util/env.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace ftgemm::runtime {

int hardware_concurrency() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
#endif
  return std::max(int(std::thread::hardware_concurrency()), 1);
}

int topology(int requested_threads) {
  if (requested_threads > 0) return requested_threads;
  const long env = env_long("FTGEMM_THREADS", 0);
  if (env > 0) return int(env);
  return hardware_concurrency();
}

}  // namespace ftgemm::runtime
