// Per-layer probes of the gating benchmark.  Each probe times public calls
// of one library layer in isolation, at the workload's primary shape (n^3)
// and thread count, and adds its metrics to the report.  They run only in
// traced runs (--trace 1), after the workload's timed phase.
#pragma once

#include <cstdint>

#include "suite.hpp"

namespace suite {

/// Instruction mixes whose throughput is this machine's compute peak for
/// one precision: fp64 FMA, fp32 FMA, and the int8 dot product the int8
/// kernels use (AVX-512 VNNI, else the AVX2 int16 multiply-add), each on the
/// widest vector ISA the kernels dispatch to.
enum class PeakKind { kF64, kF32, kI8 };

/// Run `iters` iterations of one mix on the calling thread; returns the
/// operations executed (a multiply-add counts 2).
double run_peak(PeakKind kind, long iters);

struct ProbeConfig {
  index_t n;           ///< square problem size of the workload
  int threads;         ///< thread count of the workload's calls
  int nproc;           ///< hardware threads available
  std::uint64_t seed;  ///< workload seed
};

/// kernels.*: bench-owned FMA peak, micro-kernel and pack-engine rates on
/// the plan's blocks, and the plan-derived operation/byte counts.
void probe_kernels(const ProbeConfig& cfg, Report& out);

/// abft.scan_ns_per_elem and abft.solve_us.
void probe_abft(const ProbeConfig& cfg, Report& out);

/// Corrected over injected errors for a few ft_dgemm calls with 20 injected
/// errors each (the workloads without injection of their own use this).
double probe_corrected_per_injected(const ProbeConfig& cfg);

/// core.*: plan build / plan-cache hit, small synchronous FT call, resident
/// encode / hit / cold calls for bf16 and int8 at 128^3.
void probe_core(const ProbeConfig& cfg, Report& out);

/// runtime.*: empty team dispatch, barrier, and FT scaling efficiency.
void probe_runtime(const ProbeConfig& cfg, Report& out);

}  // namespace suite
