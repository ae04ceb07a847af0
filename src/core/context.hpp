// Workspace context: every buffer a (FT-)GEMM call needs, reusable across
// calls so steady-state invocations are allocation-free.
//
// Buffer roles mirror Fig. 1 of the paper:
//   - btilde:  the packed B panel, *shared* among all threads (lives in the
//     shared L3 on Cascade Lake),
//   - atilde:  per-thread private packed A blocks (private L2),
//   - cc/cr:   predicted checksums of C (maintained via checksum math),
//   - ccref/crref: reference checksums accumulated from computed C values,
//   - ar, bc:  operand checksums, with per-thread partials for the
//     reductions the parallel algorithm requires; every member also keeps
//     its own copy of the reduced Bc.
//
// One workspace serves every precision: the checksum domain
// (core/checksum_domain.hpp) names each buffer's element type and which
// buffers exist at all.  Only a domain with a private accumulator (int8)
// sizes cq and the zero-point vectors arow/bcol, and only a domain that
// reduces Ar from partials (the float paths) sizes ar_part; the others stay
// empty and never allocate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "blocking/plan.hpp"
#include "core/checksum_domain.hpp"
#include "core/operand_cache.hpp"
#include "core/plan.hpp"
#include "kernels/macro_kernel.hpp"
#include "util/aligned_buffer.hpp"
#include "util/matrix.hpp"

namespace ftgemm {

/// Element counts of every workspace buffer of one problem, before
/// cache-line padding.  Per-member buffers (atilde, crref_part, ar_part, bc)
/// count one member; cc and cr each come with an equally sized reference
/// (ccref, crref), and bc with an equally sized partial (bc_part).  A
/// buffer the domain does not use counts zero.  The one sizing behind
/// GemmContext::ensure and GemmPlan::workspace_bytes.
template <typename S, typename C = S>
struct WorkspaceSizes {
  using D = detail::Domain<S, C>;
  std::size_t atilde = 0, btilde = 0;
  std::size_t cq = 0, arow = 0, bcol = 0;
  std::size_t cc = 0, cr = 0, crref_part = 0, ar = 0, ar_part = 0, bc = 0;

  WorkspaceSizes(index_t m, index_t n, index_t k, const BlockingPlan& bp,
                 bool ft, index_t cr_lanes) {
    const auto su = [](index_t v) {
      return std::size_t(std::max<index_t>(v, 0));
    };
    using KS = KernelSet<S, C>;
    atilde = su(packed_tile_elems<KS>(bp.kc, bp.mc));
    btilde = su(packed_tile_elems<KS>(bp.kc, bp.nc));
    if (D::kPrivateAcc) {
      cq = su(m * n);
      arow = su(m);
      bcol = su(n);
    }
    if (!ft) return;
    cc = su(m);
    cr = su(n);
    crref_part = su(n * cr_lanes);
    ar = su(k);
    if (D::kArPartials) ar_part = su(k);
    bc = su(bp.kc);
  }
  explicit WorkspaceSizes(const GemmPlan<S, C>& plan)
      : WorkspaceSizes(plan.key.m, plan.key.n,
                       std::max<index_t>(plan.key.k, 1), plan.blocking,
                       plan.key.ft, plan.kernels.cr_lanes) {}

  /// Unpadded footprint on `threads` members.
  [[nodiscard]] std::size_t bytes(int threads) const {
    const std::size_t nt = std::size_t(threads);
    return atilde * nt * sizeof(typename D::PackedA) +
           btilde * sizeof(typename D::PackedB) + cq * sizeof(C) +
           (arow + bcol) * sizeof(typename D::Sum) +
           (2 * cc + 2 * cr + crref_part * nt) * sizeof(typename D::Ref) +
           (ar + ar_part * nt + 2 * bc * nt) * sizeof(typename D::Sum);
  }
};

template <typename StorageT, typename ComputeT = StorageT>
class GemmContext {
  using D = detail::Domain<StorageT, ComputeT>;

 public:
  using PackedA = typename D::PackedA;
  using PackedB = typename D::PackedB;
  using Ref = typename D::Ref;
  using Sum = typename D::Sum;

  /// Size all buffers for an (m, n, k) problem on `threads` threads.
  /// Grow-only: repeated calls with smaller problems reuse storage.
  void ensure(index_t m, index_t n, index_t k, const BlockingPlan& plan,
              int threads, bool ft, index_t cr_lanes = 1) {
    const WorkspaceSizes<StorageT, ComputeT> sz(m, n, k, plan, ft, cr_lanes);
    const std::size_t nt = std::size_t(threads);
    atilde_stride_ = pad<PackedA>(sz.atilde);
    atilde_.ensure(atilde_stride_ * nt);
    btilde_.ensure(sz.btilde);
    cq_.ensure(sz.cq);
    arow_.ensure(sz.arow);
    bcol_.ensure(sz.bcol);
    cc_.ensure(sz.cc);
    ccref_.ensure(sz.cc);
    cr_.ensure(sz.cr);
    crref_.ensure(sz.cr);
    // Lane-strided reference partials (cr_lanes slots per column); the
    // float domains also use the buffer as the stride-1 per-member Cr
    // partial of the encode pass (the two uses never overlap in time).
    crref_stride_ = pad<Ref>(sz.crref_part);
    crref_part_.ensure(crref_stride_ * nt);
    ar_.ensure(sz.ar);
    ar_stride_ = pad<Sum>(sz.ar_part);
    ar_part_.ensure(ar_stride_ * nt);
    bc_stride_ = pad<Sum>(sz.bc);
    bc_.ensure(2 * bc_stride_ * nt);
  }

  /// Size all buffers for the problem a GemmPlan was built for.
  void ensure(const GemmPlan<StorageT, ComputeT>& plan) {
    ensure(plan.key.m, plan.key.n, std::max<index_t>(plan.key.k, 1),
           plan.blocking, plan.threads, plan.key.ft, plan.kernels.cr_lanes);
  }

  [[nodiscard]] PackedA* atilde(int tid) {
    return atilde_.data() + atilde_stride_ * std::size_t(tid);
  }
  [[nodiscard]] PackedB* btilde() { return btilde_.data(); }
  /// Private accumulator and zero-point vectors (kPrivateAcc domains).
  [[nodiscard]] ComputeT* cq() { return cq_.data(); }
  /// The m*n starting value beta*C0 (leading dimension m) a float FT call
  /// at beta != 0 keeps for its repair.  Sized here rather than by ensure:
  /// it depends on beta, which no plan covers.  Grow-only.
  [[nodiscard]] ComputeT* seed(std::size_t elems) {
    seed_.ensure(elems);
    return seed_.data();
  }
  [[nodiscard]] Sum* arow() { return arow_.data(); }
  [[nodiscard]] Sum* bcol() { return bcol_.data(); }

  [[nodiscard]] Ref* cc() { return cc_.data(); }
  [[nodiscard]] Ref* cr() { return cr_.data(); }
  [[nodiscard]] Ref* ccref() { return ccref_.data(); }
  [[nodiscard]] Ref* crref() { return crref_.data(); }
  [[nodiscard]] Ref* crref_part(int tid) {
    return crref_part_.data() + crref_stride_ * std::size_t(tid);
  }
  [[nodiscard]] Sum* ar() { return ar_.data(); }
  /// Per-member Ar partials (kArPartials domains).
  [[nodiscard]] Sum* ar_part(int tid) {
    return ar_part_.data() + ar_stride_ * std::size_t(tid);
  }
  /// A member's copy of the reduced panel checksum Bc, and the partial it
  /// reduces from the B~ columns it packed (adjacent cache-line-padded
  /// slots, so no two members' writes share a line).
  [[nodiscard]] Sum* bc(int tid) {
    return bc_.data() + 2 * bc_stride_ * std::size_t(tid);
  }
  [[nodiscard]] Sum* bc_part(int tid) { return bc(tid) + bc_stride_; }

  /// Plans this workspace's owner has built, so repeated calls of one shape
  /// skip re-planning entirely (LRU, see core/plan.hpp).
  [[nodiscard]] PlanCache<StorageT, ComputeT>& plans() { return plans_; }

 private:
  /// Pad a per-thread stride to a cache-line multiple to avoid false
  /// sharing between adjacent threads' partials.
  template <typename U>
  static std::size_t pad(std::size_t elems) {
    const std::size_t per_line = kCacheLineBytes / sizeof(U);
    return (elems + per_line - 1) / per_line * per_line;
  }

  AlignedBuffer<PackedA> atilde_;
  AlignedBuffer<PackedB> btilde_;
  AlignedBuffer<ComputeT> cq_, seed_;
  AlignedBuffer<Sum> arow_, bcol_;
  AlignedBuffer<Ref> cc_, cr_, ccref_, crref_, crref_part_;
  AlignedBuffer<Sum> ar_, ar_part_, bc_;
  std::size_t atilde_stride_ = 0;
  std::size_t crref_stride_ = 0;
  std::size_t ar_stride_ = 0;
  std::size_t bc_stride_ = 0;
  PlanCache<StorageT, ComputeT> plans_;
};

/// Thread-safe pool of GemmContexts plus a shared plan cache: the substrate
/// that makes concurrent application threads first-class submitters.
///
/// N serving threads calling (FT-)GEMM entry points simultaneously each
/// lease() a private workspace for the duration of one call and return it on
/// scope exit — so workspace memory scales with *concurrency*, not with the
/// number of threads that have ever called in, and a recurring shape is
/// planned once process-wide instead of once per thread.  Grow-only, like
/// the contexts it holds: a steady-state workload allocates on the first
/// call of each concurrency level and never again.  Context addresses are
/// stable (held by unique_ptr) for the lifetime of the cache.
///
/// lease() and plan() are fully thread-safe (a free-list mutex and a plan
/// mutex; both are microseconds-scale costs next to any GEMM).  The leased
/// GemmContext itself is single-owner for the lease's lifetime, exactly like
/// the per-thread contexts it replaces.
template <typename StorageT, typename ComputeT = StorageT>
class ContextCache {
 public:
  using Context = GemmContext<StorageT, ComputeT>;
  using Plan = GemmPlan<StorageT, ComputeT>;

  /// RAII workspace lease; returns the context to the free list on
  /// destruction.  Move-only.
  class Lease {
   public:
    Lease() = default;
    Lease(Context* ctx, ContextCache* owner)
        : ctx_(ctx), owner_(owner) {}
    Lease(Lease&& o) noexcept
        : ctx_(std::exchange(o.ctx_, nullptr)),
          owner_(std::exchange(o.owner_, nullptr)) {}
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        ctx_ = std::exchange(o.ctx_, nullptr);
        owner_ = std::exchange(o.owner_, nullptr);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] Context& operator*() const { return *ctx_; }
    [[nodiscard]] Context* operator->() const { return ctx_; }

   private:
    void release() {
      if (owner_ != nullptr) owner_->release(ctx_);
      ctx_ = nullptr;
      owner_ = nullptr;
    }
    Context* ctx_ = nullptr;
    ContextCache* owner_ = nullptr;
  };

  /// Lease a private workspace (growing the pool if every context is
  /// currently out on loan).  Thread-safe.
  [[nodiscard]] Lease lease() {
    std::lock_guard<std::mutex> lk(m_);
    if (free_.empty()) {
      contexts_.push_back(std::make_unique<Context>());
      free_.push_back(contexts_.back().get());
    }
    Context* ctx = free_.back();
    free_.pop_back();
    ++outstanding_;
    return Lease(ctx, this);
  }

  /// Look up (building on miss) the shared plan for (shape, opts).
  /// Thread-safe; every submitter of a recurring shape gets the same
  /// immutable plan.
  [[nodiscard]] std::shared_ptr<const Plan> plan(
      Trans ta, Trans tb, index_t m, index_t n, index_t k,
      const Options& opts, bool ft) {
    // The key resolves env/topology reads *outside* the lock.  The memory
    // injector rides along so PlanCache hits expose the kPlan strike
    // surface (and verify + heal against it).
    return plan(make_plan_key(ta, tb, m, n, k, opts, ft),
                opts.memory_injector);
  }

  /// Same lookup for a pre-built key (callers that already resolved the
  /// fingerprint — the serving layer's admission path — skip the second
  /// env/topology resolution).
  [[nodiscard]] std::shared_ptr<const Plan> plan(
      const PlanKey& key, MemoryFaultInjector* mem_injector = nullptr) {
    // Stamp the storage dtype (make_plan_key is dtype-blind) so every plan
    // this typed cache hands out carries its discriminator.
    PlanKey stamped = key;
    stamped.sdtype = kStorageDtypeTag<StorageT>;
    std::lock_guard<std::mutex> lk(plan_m_);
    return plans_.get_or_build(stamped, mem_injector);
  }

  /// Drop every cached plan (thread-safe; see clear_process_caches).
  void clear_plans() {
    std::lock_guard<std::mutex> lk(plan_m_);
    plans_.clear();
  }

  /// The shared resident-operand cache living beside the plan cache: every
  /// submitter of a recurring weight matrix gets the same encoded panels.
  /// Thread-safe (internally locked).
  [[nodiscard]] OperandCache<StorageT, ComputeT>& operands() { return operands_; }

  /// Drop every resident operand payload (in-flight calls holding a
  /// shared_ptr stay valid; see clear_process_caches).
  void clear_operands() { operands_.clear(); }

  [[nodiscard]] std::uint64_t plan_hits() {
    std::lock_guard<std::mutex> lk(plan_m_);
    return plans_.hits();
  }
  [[nodiscard]] std::uint64_t plan_misses() {
    std::lock_guard<std::mutex> lk(plan_m_);
    return plans_.misses();
  }
  [[nodiscard]] std::uint64_t plan_heals() {
    std::lock_guard<std::mutex> lk(plan_m_);
    return plans_.heals();
  }

  /// Contexts ever created / currently out on loan (diagnostics, tests).
  [[nodiscard]] int size() {
    std::lock_guard<std::mutex> lk(m_);
    return int(contexts_.size());
  }
  [[nodiscard]] int outstanding() {
    std::lock_guard<std::mutex> lk(m_);
    return outstanding_;
  }

 private:
  void release(Context* ctx) {
    std::lock_guard<std::mutex> lk(m_);
    free_.push_back(ctx);
    --outstanding_;
  }

  std::mutex m_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<Context*> free_;
  int outstanding_ = 0;
  std::mutex plan_m_;
  PlanCache<StorageT, ComputeT> plans_;
  OperandCache<StorageT, ComputeT> operands_;
};

/// The process-wide context pool + shared plan cache backing the free
/// functions and the batched entry points.  GemmEngine deliberately keeps
/// its own private context instead (an engine is a single-owner object).
template <typename StorageT, typename ComputeT = StorageT>
inline ContextCache<StorageT, ComputeT>& process_context_cache() {
  static ContextCache<StorageT, ComputeT> cache;
  return cache;
}

}  // namespace ftgemm
