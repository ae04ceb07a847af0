// Resident-operand cache: packed + checksum-encoded A panels kept alive
// across calls (ROADMAP item: "pack and checksum once, keep the encoded
// panels resident" for serving traffic that re-uses one weight matrix per
// layer across millions of requests).
//
// An entry stores everything the executor's A-side would otherwise rebuild
// per call:
//   - the alpha-scaled packed panels, laid out per rank-KC panel with all
//     ceil(m/MR) MR-tall tiles contiguous — so the general path's macro loop
//     can slice any (thread, ic) slab out of it at the exact address a
//     cold-call atilde would have held,
//   - the operand row checksum Ar (reduced in the cold path's per-thread
//     partial order, so the hit path is bit-identical at any thread count),
//   - amax(|A|) for the tolerance model,
//   - integrity row/column sums over the packed bytes themselves: exact
//     integer sums of the packed elements' raw bit patterns (wrapping), so
//     a flip of any single bit changes both sums.
//
// CHECK_BEFORE (after the MAGMA abft_dgemm idiom of persistent
// dA_colchk/dA_rowchk buffers re-verified before consumption): every hit
// recomputes the integrity sums and compares them bit-exactly with the
// ones stored at fill time.  A mismatch means the resident bytes
// were corrupted in memory — the cache re-encodes from the source operand
// and swaps the healed payload in (self-healing), counting the heal in the
// call's FtReport and the service's ServiceStats.  This extends the paper's
// compute-domain ABFT to the storage domain: a bit flip striking cached
// weights is detected before it can poison a single result.
//
// Keying (like the PlanCache, plus operand identity): source pointer and a
// sampled content fingerprint, shape, leading dimension, transpose, alpha
// bits, and the plan-resolved ISA / MR / KC / thread count (packed layout
// and the Ar reduction order depend on all of them).  The fingerprint
// samples a bounded grid of elements — a mutation outside the grid is NOT
// detected, which is why resident_a is strictly opt-in for operands the
// caller promises are stable (weights).  FT and Ori plans share entries.
//
// Eviction: LRU over both an entry cap and a byte cap
// (FTGEMM_OPERAND_CACHE_ENTRIES / FTGEMM_OPERAND_CACHE_BYTES).  Payloads
// are handed out as shared_ptr, so eviction never invalidates a call in
// flight; a ResidentOperand handle pins the payload's storage (not its
// cache slot) for as long as the caller holds it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/plan.hpp"
#include "util/aligned_buffer.hpp"

namespace ftgemm {

/// Fingerprint of one resident A operand under one plan.
struct OperandKey {
  std::uintptr_t ptr = 0;         ///< source operand address
  std::uint64_t fingerprint = 0;  ///< FNV over a sampled element grid
  index_t m = 0;
  index_t k = 0;
  index_t lda = 0;
  bool trans = false;
  std::uint64_t alpha_bits = 0;   ///< exact scale baked into the panels
  int isa = 0;                    ///< packed layout is ISA-bit-identical,
                                  ///< but keep engines separate regardless
  index_t mr = 0;                 ///< tile height the panels were packed for
  index_t kc = 0;                 ///< rank-KC panel depth
  int threads = 1;                ///< Ar partial-reduction order

  [[nodiscard]] bool operator==(const OperandKey& o) const {
    return ptr == o.ptr && fingerprint == o.fingerprint && m == o.m &&
           k == o.k && lda == o.lda && trans == o.trans &&
           alpha_bits == o.alpha_bits && isa == o.isa && mr == o.mr &&
           kc == o.kc && threads == o.threads;
  }
};

struct OperandKeyHash {
  std::size_t operator()(const OperandKey& key) const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(std::uint64_t(key.ptr));
    mix(key.fingerprint);
    mix(std::uint64_t(key.m));
    mix(std::uint64_t(key.k));
    mix(std::uint64_t(key.lda));
    mix(std::uint64_t(key.trans));
    mix(key.alpha_bits);
    mix(std::uint64_t(std::uint32_t(key.isa)));
    mix(std::uint64_t(key.mr));
    mix(std::uint64_t(key.kc));
    mix(std::uint64_t(std::uint32_t(key.threads)));
    return std::size_t(h);
  }
};

/// The resident encoding of one A operand: packed panels + Ar + amax +
/// integrity sums.  Immutable once published (heals swap in a fresh one).
///
/// (StorageT, ComputeT) generalized like the kernel layer.  Uniform
/// payloads (S == C) store the alpha-scaled packed panels the executor can
/// consume zero-copy.  Narrow-storage payloads (bf16/fp16) store the *raw
/// permuted storage bits* (pack_a_raw — alpha NOT baked in; it lives in the
/// OperandKey) at half the byte footprint, and the executor widens a slab
/// into its private atilde on every hit (PackSet::widen_a, bit-identical to
/// the cold convert-on-pack path).  Checksums (ar) and integrity sums are
/// always ComputeT.
template <typename StorageT, typename ComputeT = StorageT>
struct ResidentAPayload {
  index_t m = 0, k = 0;
  index_t mr = 0, kc = 0;
  index_t tiles = 0;  ///< ceil(m / mr)
  bool trans = false;
  ComputeT alpha = ComputeT(0);
  /// Rank-KC panels in k order; within a panel of depth pinc, tile q
  /// occupies [q*mr*pinc, (q+1)*mr*pinc) — the layout a cold pack_a_ft
  /// produces per macro block, concatenated over the whole M extent.
  AlignedBuffer<StorageT> panels;
  AlignedBuffer<ComputeT> ar;  ///< operand row checksum, length k
  double amax_a = 0.0;
  /// Integrity sum word: int8's exact int32 totals (which double as the
  /// executor's arow), else an unsigned integer as wide as ComputeT that
  /// adds raw element bit patterns modulo 2^width.
  using Sum = std::conditional_t<
      std::is_integral_v<ComputeT>, ComputeT,
      std::conditional_t<sizeof(ComputeT) == 8, std::uint64_t,
                         std::uint32_t>>;
  /// Integrity sums over the packed panels (see CHECK_BEFORE above):
  /// per-packed-row and per-depth totals.
  AlignedBuffer<Sum> rowchk;  ///< length tiles*mr
  AlignedBuffer<Sum> colchk;  ///< length k

  [[nodiscard]] std::size_t elems() const {
    return std::size_t(tiles * mr) * std::size_t(k);
  }
  [[nodiscard]] std::size_t bytes() const {
    return elems() * sizeof(StorageT) + std::size_t(k) * sizeof(ComputeT) +
           (std::size_t(k) + std::size_t(tiles * mr)) * sizeof(Sum);
  }
  /// Packed tiles of the rank-KC panel starting at k-offset p (the driver's
  /// panel-loop variable, a multiple of kc).
  [[nodiscard]] const StorageT* panel_at(index_t p) const {
    return panels.data() + std::size_t(tiles * mr) * std::size_t(p);
  }
};

/// Counters for tests, stats surfaces, and the bench.
struct OperandCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t verifies = 0;   ///< CHECK_BEFORE sweeps run on hits
  std::uint64_t heals = 0;      ///< mismatches healed by re-encoding
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;        ///< resident payload bytes currently cached
};

/// What one acquire() handed the executor.
template <typename StorageT, typename ComputeT = StorageT>
struct ResidentAcquisition {
  std::shared_ptr<const ResidentAPayload<StorageT, ComputeT>> payload;
  bool hit = false;
  int heals = 0;
};

class MemoryFaultInjector;

/// Thread-safe LRU cache of ResidentAPayloads, owned by the ContextCache
/// beside the shared PlanCache.  acquire() is the one entry point: look up,
/// (re-)encode on miss, inject + CHECK_BEFORE-verify + heal on hit.
template <typename StorageT, typename ComputeT = StorageT>
class OperandCache {
 public:
  using Payload = ResidentAPayload<StorageT, ComputeT>;

  static constexpr std::size_t kDefaultCapacity = 16;
  static constexpr std::size_t kDefaultByteCapacity = 256u << 20;  // 256 MiB

  /// Caps resolve FTGEMM_OPERAND_CACHE_ENTRIES / _BYTES at construction.
  OperandCache();
  OperandCache(std::size_t capacity, std::size_t byte_capacity);

  /// Look up (encoding on miss) the resident payload for (a, plan).  On a
  /// hit, applies `mem_injector`'s planned panel flips (may be null), then —
  /// when `verify` — recomputes the integrity sums bit-exactly and heals a
  /// mismatch by re-encoding from `a`.  Thread-safe; per-entry hit
  /// processing is serialized on the entry, concurrent distinct entries
  /// proceed in parallel.
  ResidentAcquisition<StorageT, ComputeT> acquire(
      const StorageT* a, index_t lda, bool trans, ComputeT alpha,
      const GemmPlan<StorageT, ComputeT>& plan,
      MemoryFaultInjector* mem_injector, bool verify);

  /// Drop every cached payload (in-flight shared_ptrs stay valid).
  void clear();

  [[nodiscard]] OperandCacheStats stats();
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t byte_capacity() const { return byte_capacity_; }

 private:
  /// One published entry.  A miss publishes its slot before encoding and
  /// holds `m` until `payload` is set, so concurrent acquirers of the key
  /// wait for that one encode.  `payload` is swappable under `m` (heals —
  /// the replacement always has the same shape, so `bytes`, set before
  /// publication, is immutable and readable without the slot mutex; the
  /// eviction sweep relies on that to keep a single global lock order: slot
  /// mutex before cache mutex).
  struct Slot {
    std::mutex m;
    std::shared_ptr<const Payload> payload;
    std::size_t bytes = 0;
  };
  using Entry = std::pair<OperandKey, std::shared_ptr<Slot>>;

  void evict_to_caps_locked();

  std::mutex m_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<OperandKey, typename std::list<Entry>::iterator,
                     OperandKeyHash>
      index_;
  std::size_t capacity_;
  std::size_t byte_capacity_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t verifies_ = 0;
  std::uint64_t heals_ = 0;
  std::uint64_t evictions_ = 0;
};

extern template class OperandCache<float>;
extern template class OperandCache<double>;
extern template class OperandCache<bf16_t, float>;
extern template class OperandCache<fp16_t, float>;
// int8 payloads store raw *biased u8* packed bytes (quad layout, 4x smaller
// than an fp32 residency) with exact int32 integrity sums; alpha is pinned
// to 1 by the int8 entry points, so one payload serves every (alpha,
// QuantParams) combination of the operand.  See the specializations in
// operand_cache.cpp.
extern template class OperandCache<std::int8_t, std::int32_t>;

// ---------------------------------------------------------------------------
// Public handle: pre-encode a weight matrix once and pin its storage.
// ---------------------------------------------------------------------------

class ResidentOperand;

/// Pre-pack + pre-encode the column-major A operand of a
/// (ta, tb, m, n, k, alpha) GEMM into the process-wide resident-operand
/// cache and return a pinning handle.  `n`, `tb`, and `opts` participate
/// because the packed layout follows the shape-aware blocking plan of the
/// full problem; `ft` selects the plan family the subsequent calls will use
/// (payloads themselves are shared between FT and Ori).  Subsequent
/// ft_*gemm/*gemm calls with Options::resident_a over the same operand and
/// shape hit the warm entry.  No-op (invalid handle) for degenerate
/// problems (m, n, or k <= 0, or alpha == 0).
template <typename S, typename C = S>
ResidentOperand make_resident_a(Trans ta, Trans tb, index_t m, index_t n,
                                index_t k, C alpha, const S* a, index_t lda,
                                const Options& opts = {}, bool ft = true);

/// Opaque pin on a resident operand's storage.  Holding one guarantees the
/// encoded panels outlive LRU eviction (the cache *slot* may still be
/// evicted; a later call re-encodes on the resulting miss).  Obtained from
/// make_resident_a(); release by destruction or release().
class ResidentOperand {
 public:
  ResidentOperand() = default;

  [[nodiscard]] bool valid() const { return hold_ != nullptr; }
  [[nodiscard]] bool hit() const { return hit_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  void release() {
    hold_.reset();
    bytes_ = 0;
    hit_ = false;
  }

 private:
  template <typename U, typename V>
  friend ResidentOperand make_resident_a(Trans, Trans, index_t, index_t,
                                         index_t, V, const U*, index_t,
                                         const Options&, bool);
  std::shared_ptr<const void> hold_;
  std::size_t bytes_ = 0;
  bool hit_ = false;
};

extern template ResidentOperand make_resident_a<float>(Trans, Trans, index_t,
                                                       index_t, index_t,
                                                       float, const float*,
                                                       index_t,
                                                       const Options&, bool);
extern template ResidentOperand make_resident_a<double>(
    Trans, Trans, index_t, index_t, index_t, double, const double*, index_t,
    const Options&, bool);
extern template ResidentOperand make_resident_a<bf16_t, float>(
    Trans, Trans, index_t, index_t, index_t, float, const bf16_t*, index_t,
    const Options&, bool);
extern template ResidentOperand make_resident_a<fp16_t, float>(
    Trans, Trans, index_t, index_t, index_t, float, const fp16_t*, index_t,
    const Options&, bool);
extern template ResidentOperand make_resident_a<std::int8_t, std::int32_t>(
    Trans, Trans, index_t, index_t, index_t, std::int32_t, const std::int8_t*,
    index_t, const Options&, bool);

}  // namespace ftgemm
