// Plan/execute split: everything a (FT-)GEMM call decides *before* touching
// operand data lives in an immutable GemmPlan, built once per (shape, opts)
// fingerprint and cached, so steady-state calls — the serving regime of many
// small protected GEMMs — pay for ISA selection, kernel dispatch, cache-aware
// blocking, thread topology, tolerance resolution, and workspace sizing
// exactly once.
//
//   PlanKey    — the fingerprint a plan is built from (shape, transposes,
//                FT mode, resolved thread count, raw ISA/tolerance knobs).
//   GemmPlan   — the immutable result: resolved ISA + KernelSet, shape-aware
//                BlockingPlan, thread topology, panel count, FT tolerance
//                factor, workspace footprint, and the small-GEMM fast-path
//                decision.
//   PlanCache  — a small LRU of shared_ptr<const GemmPlan>, seeded into
//                GemmContext / ContextCache so every entry point (free
//                functions, GemmEngine, ft_*_reliable, batched) reuses plans
//                instead of re-planning.
//
// Environment knobs (FTGEMM_FORCE_ISA, FTGEMM_MC/NC/KC,
// FTGEMM_FAST_PATH_FLOPS) are read when a plan is *built*; a warm cache
// will not observe later changes to them.  Callers that mutate the
// environment mid-process (the blocking-ablation bench) must start from an
// empty cache: a fresh GemmEngine for engine users, clear_process_caches()
// (core/gemm.hpp) for free-function users.
//
// The small-GEMM fast path: when the whole problem fits one macro-tile
// (m <= MC, n <= NC, k <= KC after shape-aware clamping) AND its flop count
// stays under kFastPathFlopCutoff, the planner pins the topology to one
// thread and marks the plan fast_path.  The executor then skips the
// parallel region, the cooperative-packing partitions and their barriers,
// and the per-call reduction scratch: pack B~ once, pack A~ once, run the
// macro kernel, verify — FT checksums still fused.  Results are
// bit-identical to the general path (same packing, same kernels, same
// summation order; a one-thread reduction is a copy).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "arch/isa.hpp"
#include "blocking/plan.hpp"
#include "core/options.hpp"
#include "inject/injector.hpp"
#include "kernels/microkernel.hpp"

namespace ftgemm {

/// Work bound for the small-GEMM fast path: a problem must both fit one
/// macro-tile and keep 2*m*n*k at or below this for the planner to pin it
/// to one thread (NC alone can span thousands of columns, so the tile test
/// by itself would capture multi-GFLOP shapes and silently drop the
/// caller's thread request).  2*128^3 — the serving-size regime the fast
/// path exists for, far below kInterBatchFlopCutoff (134e6), under which
/// the batched scheduler already judges per-problem threading to be
/// barrier-dominated.  Override with FTGEMM_FAST_PATH_FLOPS (read at
/// plan-build time).
inline constexpr double kFastPathFlopCutoff = 2.0 * 128.0 * 128.0 * 128.0;

/// Fingerprint of every input the planner reads.  ISA and tolerance are kept
/// *raw* (as the caller's Options carried them) so cache lookups stay free of
/// env reads and cpuid checks; the thread count is kept *resolved* (via
/// runtime/topology.hpp) so a changed environment — FTGEMM_THREADS, the
/// affinity mask — is never masked by a warm cache.
struct PlanKey {
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  Trans ta = Trans::kNoTrans;
  Trans tb = Trans::kNoTrans;
  bool ft = false;
  bool fast_path_allowed = true;  ///< Options::small_fast_path
  int threads = 1;                ///< resolved worker-count request
  int isa_override = -1;          ///< int(Options::isa) or -1 for auto
  double tolerance_factor = 0.0;  ///< raw Options value; 0 = library default
  /// Storage-dtype discriminator (kStorageDtypeTag<S>): 0 for the uniform
  /// fp32/fp64 paths — keeping every pre-existing key identity and hash
  /// unchanged — 1 for bf16, 2 for fp16 storage.  Typed call sites
  /// (ContextCache::plan, the service fast-path resolver) stamp it after
  /// make_plan_key, which stays dtype-blind.
  std::uint8_t sdtype = 0;

  [[nodiscard]] bool operator==(const PlanKey& o) const {
    return m == o.m && n == o.n && k == o.k && ta == o.ta && tb == o.tb &&
           ft == o.ft && fast_path_allowed == o.fast_path_allowed &&
           threads == o.threads && isa_override == o.isa_override &&
           tolerance_factor == o.tolerance_factor && sdtype == o.sdtype;
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const {
    // FNV-1a over the discriminating fields; shapes dominate, so fold them
    // first.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(std::uint64_t(key.m));
    mix(std::uint64_t(key.n));
    mix(std::uint64_t(key.k));
    mix(std::uint64_t(key.ta == Trans::kTrans) | (std::uint64_t(key.tb == Trans::kTrans) << 1) |
        (std::uint64_t(key.ft) << 2) | (std::uint64_t(key.fast_path_allowed) << 3) |
        (std::uint64_t(key.sdtype) << 4));
    mix(std::uint64_t(std::uint32_t(key.threads)));
    mix(std::uint64_t(std::uint32_t(key.isa_override)));
    std::uint64_t tol_bits = 0;
    static_assert(sizeof(tol_bits) == sizeof(key.tolerance_factor));
    __builtin_memcpy(&tol_bits, &key.tolerance_factor, sizeof(tol_bits));
    mix(tol_bits);
    return std::size_t(h);
  }
};

/// The immutable result of planning one (shape, opts) combination.  Executors
/// (core/driver.hpp) read every decision from here and contain none of their
/// own.  (StorageT, ComputeT) generalized like the kernel layer: the packed
/// element width behind the blocking, the tolerance rule and the workspace
/// buffer types come from the pair's checksum domain
/// (core/checksum_domain.hpp), the register tile and depth quad from its
/// kernel set.
template <typename StorageT, typename ComputeT = StorageT>
struct GemmPlan {
  PlanKey key;               ///< fingerprint this plan was built from
  Isa isa = Isa::kScalar;    ///< resolved instruction set
  /// Resolved micro-kernel pair + tile shape + the ISA-dispatched packing &
  /// checksum engine (kernels.pack); executors reach the whole per-ISA
  /// surface through this one member.
  KernelSet<StorageT, ComputeT> kernels;
  BlockingPlan blocking;     ///< shape-aware MC/NC/KC/MR/NR
  int threads = 1;           ///< execution topology (1 on the fast path)
  index_t num_panels = 0;    ///< rank-KC verification intervals for k > 0
  bool k_zero = false;       ///< k <= 0 (alpha == 0 is resolved per call)
  bool fast_path = false;    ///< single-macro-tile direct execution
  double tol_factor = 0.0;   ///< resolved verification safety factor
  std::size_t workspace_bytes = 0;  ///< packing + checksum footprint
  /// FNV self-checksum over the frozen planning decisions, stamped by
  /// build_plan.  PlanCache re-derives it on every hit: a mismatch means
  /// the cached plan bytes were corrupted in memory (the kPlan strike
  /// surface), and the cache heals by rebuilding from the stored key.
  std::uint64_t self_check = 0;

  [[nodiscard]] bool ft() const { return key.ft; }
  [[nodiscard]] index_t m() const { return key.m; }
  [[nodiscard]] index_t n() const { return key.n; }
  [[nodiscard]] index_t k() const { return key.k; }
};

/// Checksum of a plan's frozen decision fields (everything the executor
/// reads except the KernelSet function pointers, whose bytes are
/// process-immutable code addresses — corrupting *them* is a crash, not a
/// recoverable memory fault, so they stay outside the strike surface).
template <typename StorageT, typename ComputeT>
[[nodiscard]] inline std::uint64_t plan_self_check(
    const GemmPlan<StorageT, ComputeT>& p) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(std::uint64_t(p.key.m));
  mix(std::uint64_t(p.key.n));
  mix(std::uint64_t(p.key.k));
  mix(std::uint64_t(p.key.ta == Trans::kTrans) |
      (std::uint64_t(p.key.tb == Trans::kTrans) << 1) |
      (std::uint64_t(p.key.ft) << 2) | (std::uint64_t(p.key.sdtype) << 3));
  mix(std::uint64_t(std::uint32_t(int(p.isa))));
  mix(std::uint64_t(p.blocking.mc));
  mix(std::uint64_t(p.blocking.nc));
  mix(std::uint64_t(p.blocking.kc));
  mix(std::uint64_t(p.blocking.mr));
  mix(std::uint64_t(p.blocking.nr));
  mix(std::uint64_t(std::uint32_t(p.threads)));
  mix(std::uint64_t(p.num_panels));
  mix(std::uint64_t(p.k_zero) | (std::uint64_t(p.fast_path) << 1));
  std::uint64_t tol_bits = 0;
  static_assert(sizeof(tol_bits) == sizeof(p.tol_factor));
  __builtin_memcpy(&tol_bits, &p.tol_factor, sizeof(tol_bits));
  mix(tol_bits);
  mix(std::uint64_t(p.workspace_bytes));
  return h;
}

/// Build the lookup key for (shape, opts).  Resolves the thread count (via
/// runtime/topology.hpp) but deliberately nothing else.
PlanKey make_plan_key(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                      const Options& opts, bool ft);

/// Build a plan from its key: resolve the ISA (select_isa unless overridden),
/// fetch the kernel set, derive the shape-aware blocking, resolve the FT
/// tolerance factor, size the workspace, and decide the fast path.  One
/// body for every precision (plan.cpp); what differs is read from the
/// checksum domain and the kernel set.  Deterministic: equal keys (under an
/// unchanged environment) produce equal plans.
template <typename S, typename C = S>
GemmPlan<S, C> build_plan(const PlanKey& key);

/// Convenience: key + build in one step, bypassing any cache.  Stamps the
/// storage dtype into the key like the cached paths do.
template <typename S, typename C = S>
GemmPlan<S, C> build_plan(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                          const Options& opts, bool ft) {
  PlanKey key = make_plan_key(ta, tb, m, n, k, opts, ft);
  key.sdtype = kStorageDtypeTag<S>;
  return build_plan<S, C>(key);
}

/// The plan one call executes: a private copy of the cached plan, checked
/// against its self-checksum and rebuilt from its key on a mismatch.  The
/// cache checks a plan when it hands it out; the copy closes the window
/// after that — a kPlan strike on the shared cached plan cannot reach a
/// call already running (it executes its own verified copy), and one that
/// lands between the cache's check and the copy is caught here.
template <typename S, typename C>
[[nodiscard]] GemmPlan<S, C> private_plan(const GemmPlan<S, C>& cached) {
  GemmPlan<S, C> plan = cached;
  if (plan.self_check != plan_self_check(plan)) {
    plan = build_plan<S, C>(plan.key);
  }
  return plan;
}

/// Small LRU cache of immutable plans.  Not thread-safe: each cache lives in
/// a thread-local or per-engine GemmContext / ContextCache, mirroring the
/// workspace ownership model (no locks on the hot path).
template <typename S, typename C = S>
class PlanCache {
 public:
  /// Distinct (shape, opts) fingerprints kept; a serving workload cycling
  /// through more shapes than this re-plans on the recurrence.
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit PlanCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  /// Look up (building on miss) the plan for (shape, opts).
  std::shared_ptr<const GemmPlan<S, C>> get_or_build(Trans ta, Trans tb,
                                                     index_t m, index_t n,
                                                     index_t k,
                                                     const Options& opts,
                                                     bool ft) {
    PlanKey key = make_plan_key(ta, tb, m, n, k, opts, ft);
    key.sdtype = kStorageDtypeTag<S>;
    return get_or_build(key, opts.memory_injector);
  }

  std::shared_ptr<const GemmPlan<S, C>> get_or_build(
      const PlanKey& key, MemoryFaultInjector* mem_injector = nullptr) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most recent
      if (mem_injector != nullptr) {
        // kPlan strike surface: the bytes of the cached blocking decision.
        // Test-only mutation of the (logically immutable) shared plan —
        // callers still holding the shared_ptr across the strike see the
        // corruption too, exactly like real memory decay would.  The
        // KernelSet function pointers stay off-limits (see plan_self_check).
        auto& plan = const_cast<GemmPlan<S, C>&>(*it->second->second);
        auto* bytes = reinterpret_cast<unsigned char*>(&plan.blocking);
        const MemoryStrikeContext mctx{MemorySurface::kPlan,
                                       sizeof(BlockingPlan), 8};
        std::vector<PanelFlip> flips;
        mem_injector->plan_flips(mctx, flips);
        if (!flips.empty()) {
          for (const PanelFlip& f : flips) flip_value_bit(bytes[f.elem], f.bit);
          mem_injector->record_applied(flips.size());
        }
      }
      // CHECK_BEFORE for plans: a cached plan whose decision bytes no
      // longer match the checksum stamped at build is corrupted — rebuild
      // it from the stored key (the heal) instead of handing executors a
      // poisoned blocking/topology.
      if (it->second->second->self_check !=
          plan_self_check(*it->second->second)) {
        it->second->second = std::make_shared<const GemmPlan<S, C>>(
            build_plan<S, C>(it->second->first));
        ++heals_;
      }
      return it->second->second;
    }
    ++misses_;
    auto plan = std::make_shared<const GemmPlan<S, C>>(build_plan<S, C>(key));
    lru_.emplace_front(key, plan);
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
    return plan;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t heals() const { return heals_; }
  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drop every cached plan (e.g. after mutating FTGEMM_* environment
  /// knobs); the hit/miss counters survive.
  void clear() {
    lru_.clear();
    index_.clear();
  }

 private:
  using Entry = std::pair<PlanKey, std::shared_ptr<const GemmPlan<S, C>>>;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<PlanKey, typename std::list<Entry>::iterator,
                     PlanKeyHash>
      index_;
  std::size_t capacity_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t heals_ = 0;
};

extern template GemmPlan<float> build_plan<float, float>(const PlanKey&);
extern template GemmPlan<double> build_plan<double, double>(const PlanKey&);
extern template GemmPlan<bf16_t, float>
    build_plan<bf16_t, float>(const PlanKey&);
extern template GemmPlan<fp16_t, float>
    build_plan<fp16_t, float>(const PlanKey&);
extern template GemmPlan<std::int8_t, std::int32_t>
    build_plan<std::int8_t, std::int32_t>(const PlanKey&);

}  // namespace ftgemm
