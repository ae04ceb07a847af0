// Fault-injection framework (§3.2).
//
// The paper injects errors "at the source code level to minimize the
// performance impact on native programs".  We emulate a soft error inside
// the compute kernel: the corrupted FMA result is what gets stored to C
// *and* what the register-level reference checksums observe.  The driver
// therefore applies an injected delta to C(i, j), cc_ref[i] and cr_ref[j]
// together — exactly the footprint a real in-register fault would leave —
// while the predicted checksums (derived from A and B) keep the truth.
//
// Injectors only *plan* corruptions; the drivers apply them at the
// macro-block hook and append ground truth to the log so tests can assert
// exact detection and correction.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <vector>

namespace ftgemm {

/// Where the planned corruption lands.
enum class InjectionKind {
  kAddDelta,  ///< C(i, j) += delta
  kFlipBit,   ///< flip mantissa/exponent bit `bit` of C(i, j)
};

/// Identifies one macro-block update, the granularity of the driver hook.
struct BlockContext {
  int panel = 0;          ///< rank-KC panel index (verification interval)
  std::int64_t i0 = 0;    ///< first global row of the block
  std::int64_t j0 = 0;    ///< first global column of the block
  std::int64_t mlen = 0;  ///< rows in the block
  std::int64_t nlen = 0;  ///< columns in the block
  int thread = 0;         ///< executing thread
};

/// One planned / recorded corruption. `delta` is filled with the actually
/// applied perturbation when the driver executes a bit flip.
struct InjectionRecord {
  InjectionKind kind = InjectionKind::kAddDelta;
  int panel = 0;
  std::int64_t i = 0;  ///< global row
  std::int64_t j = 0;  ///< global column
  double delta = 0.0;
  int bit = 0;  ///< for kFlipBit: which of the 64/32 bits to flip
};

/// Abstract fault injector.  Implementations decide *when and where*;
/// drivers decide *how* (and log ground truth).
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Called once at the start of each protected GEMM call with the problem
  /// geometry, so rate/count-based injectors can plan schedules.
  virtual void begin_call(std::int64_t m, std::int64_t n, std::int64_t k,
                          int num_panels) {
    (void)m;
    (void)n;
    (void)k;
    (void)num_panels;
  }

  /// Append the corruptions to apply inside this block to `out`.  Positions
  /// must satisfy i in [i0, i0+mlen), j in [j0, j0+nlen).  Called from
  /// worker threads; implementations must be thread-safe.
  virtual void plan_block(const BlockContext& ctx,
                          std::vector<InjectionRecord>& out) = 0;

  /// Ground-truth log of corruptions actually applied by the driver.
  void record(const InjectionRecord& rec) {
    const std::lock_guard<std::mutex> lock(mutex_);
    log_.push_back(rec);
  }

  [[nodiscard]] std::vector<InjectionRecord> log() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return log_;
  }

  [[nodiscard]] std::size_t injected_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return log_.size();
  }

  void clear_log() {
    const std::lock_guard<std::mutex> lock(mutex_);
    log_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<InjectionRecord> log_;
};

/// Apply a planned corruption to a value; returns the applied delta.
/// Defined (injector.cpp) for the compute types faults can strike: double,
/// float, and the int8 path's int32 accumulator (integral applied delta).
template <typename T>
double apply_corruption(T& value, const InjectionRecord& rec);
template <>
double apply_corruption<double>(double& value, const InjectionRecord& rec);
template <>
double apply_corruption<float>(float& value, const InjectionRecord& rec);
template <>
double apply_corruption<std::int32_t>(std::int32_t& value,
                                      const InjectionRecord& rec);

// ---------------------------------------------------------------------------
// Memory-domain faults: corruption of data *at rest* between its producer
// and its consumer, as opposed to the compute-domain faults FaultInjector
// models inside a kernel.  Three strike surfaces exist:
//
//  - kResidentPanel: the resident-operand cache's packed panels, struck on
//    each cache hit before the CHECK_BEFORE re-verification, which heals a
//    mismatch by re-encoding from the source operand.
//  - kPanelA / kPanelB: *transient* packed panels in driver workspace,
//    struck between pack (where the predicted checksums are derived) and
//    the macro-kernel consume — a fault the rank-KC panel verification must
//    catch.  Element indices address live (unpadded) elements; the driver
//    remaps them into the physical tile layout, because flips in zero
//    padding are both undetectable and harmless.
//  - kPlan: the bytes of a cached GemmPlan's blocking decision, struck on
//    PlanCache hits and caught by the plan's self-checksum.
// ---------------------------------------------------------------------------

/// Which memory surface a strike targets.
enum class MemorySurface {
  kResidentPanel,  ///< resident-operand cache payload (packed panels)
  kPanelA,         ///< transient packed A~ in driver workspace
  kPanelB,         ///< transient packed B~ in driver workspace
  kPlan,           ///< cached GemmPlan blocking bytes
};

/// Surface tag for tables and logs.
[[nodiscard]] inline const char* memory_surface_name(MemorySurface surface) {
  switch (surface) {
    case MemorySurface::kResidentPanel: return "resident";
    case MemorySurface::kPanelA: return "panel_a";
    case MemorySurface::kPanelB: return "panel_b";
    case MemorySurface::kPlan: return "plan";
  }
  return "unknown";
}

/// Geometry of one strike opportunity, passed to plan_flips.  `elems` is the
/// number of addressable elements on the surface and `elem_bits` the width
/// of one element (64 for fp64, 32 for fp32, 8 for packed int8 bytes and
/// plan bytes, ...).
struct MemoryStrikeContext {
  MemorySurface surface = MemorySurface::kResidentPanel;
  std::size_t elems = 0;
  int elem_bits = 64;
};

/// One planned flip on a memory surface.
struct PanelFlip {
  std::size_t elem = 0;  ///< flat element index on the struck surface
  int bit = 0;           ///< which of the element's elem_bits bits to flip
};

/// Flip bit `bit` of a trivially-copyable value.  Bit numbering follows the
/// little-endian integer interpretation of the value's bytes (bit b lives in
/// byte b/8).  Out-of-range bits are a caller bug: plan_flips implementations
/// canonicalize against MemoryStrikeContext::elem_bits, so by the time a
/// flip reaches a surface it must be in range.
template <typename T>
inline void flip_value_bit(T& value, int bit) {
  static_assert(std::is_trivially_copyable<T>::value,
                "bit flips address raw object bytes");
  assert(bit >= 0 && std::size_t(bit) < 8 * sizeof(T));
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  bytes[std::size_t(bit) / 8] ^=
      static_cast<unsigned char>(1u << (std::size_t(bit) % 8));
  std::memcpy(&value, bytes, sizeof(T));
}

/// Abstract memory-fault injector.  Implementations decide when and where;
/// the surface owner (operand cache, driver, plan cache) applies the flips
/// and counts ground truth.  Called from whatever thread touches the
/// surface; implementations must be thread-safe.
class MemoryFaultInjector {
 public:
  virtual ~MemoryFaultInjector() = default;

  /// Called at each strike opportunity with the surface geometry; append
  /// the flips to apply.  Contract: emitted (elem, bit) pairs are unique,
  /// in range (elem < ctx.elems, 0 <= bit < ctx.elem_bits), so every
  /// emitted flip net-corrupts exactly one bit — implementations should
  /// funnel raw draws through canonicalize_flips().  A call that plans
  /// nothing (surface not targeted, strike cadence) leaves `out` untouched.
  virtual void plan_flips(const MemoryStrikeContext& ctx,
                          std::vector<PanelFlip>& out) = 0;

  /// Ground truth: net bits actually corrupted by the surface owner.
  void record_applied(std::size_t count) {
    const std::lock_guard<std::mutex> lock(mutex_);
    applied_ += count;
  }

  [[nodiscard]] std::size_t applied_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return applied_;
  }

 protected:
  /// Enforce the plan_flips contract on raw draws: clamp each bit into
  /// [0, elem_bits) (a historical default of bit 52 predates sub-64-bit
  /// payloads), drop out-of-range elements, and dedupe (elem, bit) pairs —
  /// two XOR flips of the same bit self-cancel, so counting both would
  /// overstate ground-truth corruption.
  static void canonicalize_flips(const MemoryStrikeContext& ctx,
                                 std::vector<PanelFlip>& flips) {
    for (PanelFlip& f : flips) {
      if (f.bit < 0) f.bit = 0;
      if (f.bit >= ctx.elem_bits) f.bit = ctx.elem_bits - 1;
    }
    flips.erase(std::remove_if(flips.begin(), flips.end(),
                               [&](const PanelFlip& f) {
                                 return f.elem >= ctx.elems;
                               }),
                flips.end());
    std::sort(flips.begin(), flips.end(),
              [](const PanelFlip& a, const PanelFlip& b) {
                return a.elem != b.elem ? a.elem < b.elem : a.bit < b.bit;
              });
    flips.erase(std::unique(flips.begin(), flips.end(),
                            [](const PanelFlip& a, const PanelFlip& b) {
                              return a.elem == b.elem && a.bit == b.bit;
                            }),
                flips.end());
  }

 private:
  mutable std::mutex mutex_;
  std::size_t applied_ = 0;
};

}  // namespace ftgemm
