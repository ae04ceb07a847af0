// Shared infrastructure for the paper-figure benchmark binaries.
//
// Environment knobs (all optional):
//   FTGEMM_BENCH_MAX    largest square size in the sweep   (default 1024)
//   FTGEMM_BENCH_REPS   timed repetitions per point        (default 5;
//                       the paper uses 20 — raise it on quiet machines)
//   FTGEMM_BENCH_THREADS  thread count for the parallel figures
//                         (default: omp_get_max_threads())
//
// The paper sweeps 1024..10240 (serial) and 512..20480 (parallel) on a
// 10-core Xeon W-2255; the default sweep here is scaled to a CI-class
// single-core VM but keeps the same geometry (doubling sizes, same series).
#pragma once

#include <omp.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arch/cpu_features.hpp"
#include "baseline/naive_gemm.hpp"
#include "baseline/unfused_abft.hpp"
#include "core/gemm.hpp"
#include "inject/injectors.hpp"
#include "runtime/topology.hpp"
#include "util/env.hpp"
#include "util/matrix.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

// Source revision the binary was built from; CMake stamps the bench
// targets with the configure-time `git rev-parse --short HEAD` (see
// CMakeLists.txt).  "unknown" covers out-of-tree builds of the header.
#ifndef FTGEMM_GIT_SHA
#define FTGEMM_GIT_SHA "unknown"
#endif

namespace ftgemm::bench {

inline std::vector<index_t> square_sizes(index_t lo = 256) {
  const index_t max = env_long("FTGEMM_BENCH_MAX", 1024);
  std::vector<index_t> sizes;
  for (index_t s = lo; s <= max; s *= 2) {
    sizes.push_back(s);
    const index_t mid = s + s / 2;
    if (mid <= max && mid < s * 2) sizes.push_back(mid);
  }
  return sizes;
}

inline int bench_reps() { return int(env_long("FTGEMM_BENCH_REPS", 5)); }

inline int bench_threads() {
  return int(env_long("FTGEMM_BENCH_THREADS", omp_get_max_threads()));
}

/// Time `fn` (a full GEMM of the given shape) `reps` times; median GFLOPS.
template <typename Fn>
double median_gflops(index_t m, index_t n, index_t k, int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(std::size_t(reps));
  fn();  // warm-up (also first-touch of workspaces)
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    samples.push_back(gemm_gflops(double(m), double(n), double(k),
                                  t.seconds()));
  }
  return compute_stats(samples).median;
}

/// Whether an injected FT call ended clean with C equal to the fault-free
/// reference to rounding; adds the call's corrections to `corrected`.
inline bool injected_call_verified(const FtReport& rep,
                                   const Matrix<double>& c,
                                   const Matrix<double>& ref,
                                   std::int64_t& corrected) {
  corrected += rep.errors_corrected;
  return rep.clean() &&
         max_rel_diff(c, ref) < 1e-10 * std::sqrt(double(c.rows()));
}

/// One benchmark workload: square operands, C overwritten every run
/// (beta = 0 keeps runs independent so repetitions are comparable).
template <typename T>
struct SquareWorkload {
  index_t n;
  Matrix<T> a, b, c;

  explicit SquareWorkload(index_t size, std::uint64_t seed = 42)
      : n(size), a(size, size), b(size, size), c(size, size) {
    a.fill_random(seed);
    b.fill_random(seed + 1);
    c.fill(T(0));
  }
};

/// Machine and build context, as table comment lines.
inline void print_provenance() {
  // Machine context, so a record from a 1-hardware-thread CI container is
  // self-describing next to one from real multi-core hardware (record.sh
  // lifts this line into the JSON env block).
  std::printf("# hardware_concurrency=%d team_backend=%s\n",
              runtime::hardware_concurrency(),
              runtime::resolve_backend(RuntimeBackend::kAuto) ==
                      RuntimeBackend::kPool
                  ? "pool"
                  : "openmp");
  // Provenance: which source revision produced the numbers and which ISA
  // feature bits the dispatch saw — two records of the same bench are only
  // comparable when both match (record.sh lifts these into the JSON env
  // block).
  std::printf("# git_sha=%s isa_features=%s\n", FTGEMM_GIT_SHA,
              cpu_feature_string().c_str());
}

/// Table header; `threads` is the team size the harness runs its calls at.
inline void print_header(const char* title, const char* figure, int threads,
                         const std::vector<std::string>& columns) {
  std::printf("# %s\n", title);
  std::printf("# reproduces: %s\n", figure);
  std::printf("# threads=%d reps=%d (paper: 20 reps, Xeon W-2255)\n",
              threads, bench_reps());
  print_provenance();
  std::printf("%-8s", "size");
  for (const std::string& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
}

}  // namespace ftgemm::bench
