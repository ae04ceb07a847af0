// Fault-injection campaigns (§3.2 methodology, DESIGN.md §12).
//
// One runner over two independent axes: the entry point a trial calls
// (sync, reliable, batched or service) and the surface its faults strike —
// the compute domain (additive deltas inside the kernel, CountInjector) or
// one memory surface (resident panels, transient packed A~/B~ panels, a
// cached plan; SurfaceBitFlipInjector bit flips).
//
// A trial runs every unit of the entry point — the call, each batch member,
// or each request — and aims the cell's one injector at one of them, drawn
// from the seed.  Every unit is judged by one oracle: a fault-free run of
// the same entry point on the same operands, compared bit-exactly on the
// memory surfaces and to 1e-9 relative on the compute surface (a correction
// subtracts a rounded delta).  Every trial lands in one bucket:
//
//   detected — some defense fired (checksum mismatch, uncorrectable panel,
//              resident heal or SEC-DED fix, plan heal); `flagged` counts
//              the detected trials that left a unit whose report is not
//              clean;
//   masked   — nothing fired and every unit matches its oracle;
//   silent   — some unit's report is clean but its C is wrong.  The
//              reliability claim is that this count is zero.
//
// Precision follows the surface: the transient panels run the int8 path,
// whose exact integer checksums turn any live-byte flip into a guaranteed
// detection (a float path could absorb a low mantissa flip under its
// tolerance); every other surface runs fp64.  There is no int8 reliable
// entry point, so reliable x panel_a and reliable x panel_b are rejected.
//
// Operands, strikes and targets are seeded and no fault count depends on
// thread interleaving, so a config reproduces its counters run to run
// (mean_gflops and the service's routing aside).
#pragma once

#include <cstdint>
#include <vector>

#include "core/gemm_batched.hpp"
#include "core/options.hpp"

namespace ftgemm {

/// The entry point every unit of a trial goes through.
enum class CampaignEntry {
  kSync,      ///< one ft_dgemm / ft_gemm_i8 call
  kReliable,  ///< one ft_dgemm_reliable call (fp64 surfaces only)
  kBatched,   ///< one strided-batched FT call of `units` members
  kService,   ///< `units` requests staged on a paused GemmService
};

/// Where a campaign's faults strike.
enum class CampaignSurface {
  kCompute,   ///< additive deltas in C (CountInjector)
  kResident,  ///< resident-operand payload, on each cache hit
  kPanelA,    ///< transient packed A~, between pack and consume (int8)
  kPanelB,    ///< transient packed B~, between pack and consume (int8)
  kPlan,      ///< cached plan bytes, on each plan-cache hit
};

/// One campaign cell.
struct CampaignConfig {
  CampaignEntry entry = CampaignEntry::kSync;
  CampaignSurface surface = CampaignSurface::kCompute;
  /// Square problem size; 0 = the precision's odd default shape (fp64
  /// 96x80x320, int8 128x96x384), which takes the general blocked path
  /// with partial register tiles.
  index_t size = 0;
  int trials = 10;
  /// Batch members (batched) or requests (service) per trial; a sync or
  /// reliable trial is one call.
  index_t units = 4;
  /// Faults aimed at each trial's targeted unit: errors per call on the
  /// compute surface, strikes of `burst` contiguous bits on a memory
  /// surface.  0 attaches no injector at all.
  int faults = 1;
  int burst = 1;
  double magnitude = 2.0;  ///< compute surface: injected delta scale
  std::uint64_t seed = 0x5eedu;
  int threads = 2;  ///< per call; the worker cap of a batched call
  BatchSchedule schedule = BatchSchedule::kAuto;  ///< batched entry only
  /// SEC-DED coded resident payloads (FTGEMM_OPERAND_ECC), so single-bit
  /// resident strikes are corrected in place instead of healed by
  /// re-encoding.  The configured state is restored after the cell.
  bool ecc = false;
};

/// Counters aggregated over a cell's trials.
struct CampaignResult {
  /// Injector ground truth: errors applied (compute) or net bits flipped
  /// (memory).
  std::int64_t injected = 0;
  // The taxonomy: detected + masked + silent == trials, flagged <= detected.
  std::int64_t detected = 0;
  std::int64_t flagged = 0;
  std::int64_t masked = 0;
  std::int64_t silent = 0;
  // Defense counters summed over every unit of every trial.
  std::int64_t errors_detected = 0;   ///< checksum mismatches attributed
  std::int64_t errors_corrected = 0;  ///< C elements repaired
  std::int64_t ecc_corrected = 0;     ///< resident bits fixed by SEC-DED
  std::int64_t heals = 0;             ///< resident payload re-encodes
  std::int64_t plan_heals = 0;        ///< plan self-check rebuilds
  std::int64_t retries = 0;           ///< reliable-entry re-executions
  std::int64_t coalesced = 0;  ///< service units run inside a merged batch
  double max_rel_error = 0.0;  ///< worst unit error against its oracle
  double mean_gflops = 0.0;    ///< per-trial throughput of all its units

  /// Every fault corrected or flagged; no unit silently wrong.
  [[nodiscard]] bool reliable() const { return silent == 0; }
};

/// Run one cell.  Starts from clear_process_caches() so cells are
/// independent.  Throws std::invalid_argument for reliable x panel_a /
/// panel_b (no int8 reliable entry point), a negative size, or fewer than
/// one unit.
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

/// The memory-fault sweep of BENCH_faults.json on the sync entry point:
/// surfaces {resident, panel_a, panel_b, plan} x faults {1, 4} x burst
/// {1, 3}, the resident cells both without and with ECC (20 cells).
[[nodiscard]] std::vector<CampaignConfig> memory_fault_grid(
    int trials, std::uint64_t seed);

/// Table and log tags.
[[nodiscard]] const char* campaign_entry_name(CampaignEntry entry);
[[nodiscard]] const char* campaign_surface_name(CampaignSurface surface);

}  // namespace ftgemm
