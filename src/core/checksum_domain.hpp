// Checksum domains: the precision-specific half of the (FT-)GEMM stack.
//
// core/driver.hpp holds one executor for every precision, core/plan.cpp one
// planner, core/context.hpp one workspace and serve/service.cpp one service
// route.  Everything they do not share across precisions lives behind a
// domain, a class the executor instantiates once per call and whose static
// facts the planner and the workspace read:
//
//   FloatDomain<S, C> (fp64, fp32, bf16/fp16 storage with fp32 compute)
//     - C itself is the accumulator.  The encode pass scales C by beta and
//       encodes Cc/Cr from it in the same sweep.
//     - Packed panels, checksums and operand sums are all ComputeT (narrow
//       storage is widened on pack).
//     - Checksums are compared against a ToleranceModel bound derived from
//       amax(A), amax(B) and amax(C).  Each member records its amax partials
//       and derives the bound from all of them once per panel.
//     - A mismatch is repaired by recomputing the crossings from A and B,
//       starting from beta*C0: at beta != 0 the FT encode keeps a copy of
//       it before the kernels accumulate onto C.
//     - Ar is reduced from per-member partials, in member order.
//     - Cr reference partials are lane-strided (cr_lanes slots per column).
//
//   ExactDomain<int8_t, int32_t> (int8 storage, int32 accumulation; see
//   kernels/int8_types.hpp)
//     - C is never an accumulator.  The biased product accumulates in the
//       private int32 buffer ctx.cq, and the caller's float C is written once
//       by the dequantize epilogue (the store step) after the last panel.
//       Predicted and reference checksums cover cq alone, starting from zero.
//     - Packed panels stay 8-bit (biased u8 A~, s8 B~): the planner sizes
//       the blocking for one-byte elements.
//     - Checksums are int64 and compared at zero: integer sums are exact and
//       order-independent, so there is no ToleranceModel and no amax
//       (docs/DESIGN.md §11); the planner's tolerance factor is exactly 0,
//       and the per-panel tolerance is the empty NoTolerance.
//     - cq starts at zero, so a mismatch is always repaired by recomputing
//       the crossings from A and B, exactly.
//     - The Ar encode writes disjoint K-slices directly: no partials.
//     - The epilogue's zero-point vectors arow/bcol are accumulated by the
//       packers (arow on the first pass over each (row, panel) region).
//     - Cc is encoded from the packed A~ slab after pack_a, on cold calls
//       and resident hits alike; Cr is fused into pack_b over op(B).
//
// Both domains share the executor's thread topology, barrier structure and
// summation order, so results do not depend on which thread runs which
// rank or on the fast-path decision.  Both reduce a Bc partial per member
// from the B~ columns it packed; the executor sums the partials in rank
// order.  Three plumbing facts are also domain-owned so the entry points
// stay generic: the row-major swap of per-call quantization parameters,
// the accepted depth, and the alpha a resident payload is keyed under.
//
// The bottom of this file lists the supported precisions once, as
// (Precision, StorageT, ComputeT) entries; the serving layer and the
// process-wide cache reset visit that list instead of naming precisions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "abft/checksum.hpp"
#include "abft/tolerance.hpp"
#include "abft/verifier.hpp"
#include "core/operand_cache.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "kernels/int8_types.hpp"
#include "kernels/microkernel.hpp"
#include "runtime/team.hpp"

namespace ftgemm {

/// Element type of a type-erased serving request (serve/service.hpp), one
/// value per supported precision (detail::Precisions below).  kBf16/kF16
/// are the narrow-storage mixed-precision paths: A/B are bf16_t/fp16_t, C
/// and the scalars are fp32, and all arithmetic — accumulation and
/// checksums — runs in fp32.  kI8 is the quantized integer path: A/B are s8,
/// C and the scalars are fp32, arithmetic is exact int32/int64, and the
/// request carries its QuantParams.
enum class Precision { kF32, kF64, kBf16, kF16, kI8 };

/// The workspace (core/context.hpp) takes its buffer element types from the
/// domain, so the domains only hold it by reference.
template <typename StorageT, typename ComputeT>
class GemmContext;

}  // namespace ftgemm

namespace ftgemm::detail {

/// One team member's static partitions: rows of C (MR-aligned), the
/// N-range it reduces, scans and stores, and the K-range of the Ar encode.
struct MemberRanges {
  index_t ms = 0, mlen = 0;
  index_t js = 0, jlen = 0;
  index_t ks = 0, klen = 0;
};

/// Per-call quantization of the float domains: none.  A request's
/// QuantParams converts to it and is dropped (the float paths ignore it).
struct NoQuant {
  NoQuant() = default;
  explicit NoQuant(const QuantParams&) {}
  [[nodiscard]] bool operator==(const NoQuant&) const { return true; }
};

/// Per-panel verification threshold of the exact domain: none.
struct NoTolerance {};

template <typename S, typename C>
class FloatDomain {
 public:
  using Scalar = C;   ///< alpha, beta and the caller's C
  using Quant = NoQuant;
  using PackedA = C;  ///< packed A~ element (narrow storage widens on pack)
  using PackedB = C;  ///< packed B~ element
  using Ref = C;      ///< checksum element
  using Sum = C;      ///< operand checksum (Ar, Bc) element
  using Tol = ToleranceModel<C>;  ///< one panel's verification thresholds
  /// C itself accumulates: no private accumulator, no zero-point vectors.
  static constexpr bool kPrivateAcc = false;
  /// Ar is reduced from per-member partials.
  static constexpr bool kArPartials = true;

  static Quant normalize_quant(Layout, const Quant& q) { return q; }
  static bool depth_ok(index_t) { return true; }
  static C resident_alpha(C alpha) { return alpha; }
  /// Verification safety factor: the caller's, else the ComputeT default
  /// (the checksum arithmetic the tolerance model bounds runs in ComputeT,
  /// so bf16/fp16 storage shares the fp32 derivation, DESIGN.md §10).
  static double tolerance_factor(const PlanKey& key) {
    if (!key.ft) return 0.0;
    return key.tolerance_factor > 0.0 ? key.tolerance_factor
                                      : default_tolerance_factor_for<C>();
  }

  FloatDomain(const GemmPlan<S, C>& plan, GemmContext<S, C>& ctx, C alpha,
              C beta, C* c, index_t ldc, const ResidentAPayload<S, C>* ra,
              const Quant&)
      : plan_(plan), ks_(plan.kernels), ctx_(ctx), alpha_(alpha),
        beta_(beta), c_(c), ldc_(ldc), ra_(ra),
        seed_(plan.key.ft && beta != C(0) && alpha != C(0) && !plan.k_zero
                  ? ctx.seed(std::size_t(plan.key.m) *
                             std::size_t(plan.key.n))
                  : nullptr),
        amax_(plan.key.ft ? std::size_t(plan.threads) * 3 : 0, 0.0) {}

  /// The buffer the macro kernels accumulate into.
  [[nodiscard]] C* acc() const { return c_; }
  [[nodiscard]] index_t ldacc() const { return ldc_; }

  /// Encode phase: C = beta*C fused with Cc/Cr encoding, then a copy of
  /// this member's rows of beta*C0 where the repair needs one; Ar; amax.
  template <bool FT>
  void encode(runtime::TeamMember& tm, const MemberRanges& r,
              const OperandView<S>& av, bool /*degenerate*/) {
    const index_t n = plan_.key.n, k = plan_.key.k;
    const int tid = tm.tid(), nt = tm.nt();
    if constexpr (!FT) {
      if (r.mlen > 0) scale_c(c_, ldc_, r.ms, r.mlen, n, beta_);
      tm.barrier();
      return;
    }
    if (r.mlen > 0)
      std::fill(ctx_.cc() + r.ms, ctx_.cc() + r.ms + r.mlen, C(0));
    std::fill(ctx_.crref_part(tid), ctx_.crref_part(tid) + n, C(0));
    double amax_c = 0.0, amax_a = 0.0;
    if (ra_ == nullptr)
      std::fill(ctx_.ar_part(tid), ctx_.ar_part(tid) + k, C(0));
    if (r.mlen > 0) {
      amax_c = ks_.pack.scale_encode_c(c_, ldc_, r.ms, r.mlen, n, beta_,
                                       ctx_.cc(), ctx_.crref_part(tid));
      if (seed_ != nullptr) {
        const index_t m = plan_.key.m;
        for (index_t j = 0; j < n; ++j)
          std::copy(c_ + r.ms + j * ldc_, c_ + r.ms + r.mlen + j * ldc_,
                    seed_ + r.ms + j * m);
      }
      if (ra_ == nullptr) {
        amax_a = ks_.pack.encode_ar(av, r.ms, r.mlen, k, alpha_,
                                    ctx_.ar_part(tid));
      }
    }
    // Resident hit: the payload carries amax(A) and the fully reduced Ar
    // (encoded at fill in this plan's per-member partial order).
    if (ra_ != nullptr) amax_a = tid == 0 ? ra_->amax_a : 0.0;
    amax_[std::size_t(tid) * 3 + 0] = amax_a;
    // amax(B) is folded into the per-panel Bc reduction sweep; slot 1
    // accumulates monotonically as panels stream through.
    amax_[std::size_t(tid) * 3 + 1] = 0.0;
    amax_[std::size_t(tid) * 3 + 2] = amax_c;
    tm.barrier();
    // Reduce the per-member partials: Ar over a K-partition, Cr over an
    // N-partition (the encode pass stored Cr partials in crref_part).
    for (index_t p = r.ks; p < r.ks + r.klen; ++p) {
      if (ra_ != nullptr) {
        ctx_.ar()[p] = ra_->ar.data()[p];
        continue;
      }
      C sum = C(0);
      for (int t = 0; t < nt; ++t) sum += ctx_.ar_part(t)[p];
      ctx_.ar()[p] = sum;
    }
    for (index_t j = r.js; j < r.js + r.jlen; ++j) {
      C sum = C(0);
      for (int t = 0; t < nt; ++t) sum += ctx_.crref_part(t)[j];
      ctx_.cr()[j] = sum;
    }
    tm.barrier();
  }

  /// Pack op(B) depth [k0, k0+klen) x cols [j0, j0+nlen) into `dst`, fused
  /// with the predicted-Cr update in FT.
  template <bool FT>
  void pack_b(const OperandView<S>& bv, index_t k0, index_t j0, index_t klen,
              index_t nlen, C* dst) {
    const index_t nr = plan_.blocking.nr;
    if constexpr (FT) {
      ks_.pack.pack_b_ft(bv, k0, j0, klen, nlen, nr, dst, ctx_.ar() + k0,
                         ctx_.cr() + j0);
    } else {
      ks_.pack.pack_b(bv, k0, j0, klen, nlen, nr, dst);
    }
  }

  /// This member's Bc partial ("an extra stage of reduction operation
  /// among threads", §2.3) over the `nlen` B~ columns it just packed at
  /// `packed`, folding amax(B).
  void reduce_bc(int tid, index_t klen, index_t nlen, const C* packed) {
    double& amax_b = amax_[std::size_t(tid) * 3 + 1];
    amax_b = ks_.pack.reduce_bc(packed, klen, nlen, plan_.blocking.nr,
                                ctx_.bc_part(tid), amax_b);
  }

  /// Produce the A~ slab of rows [i0, i0+ilen) x depth [k0, k0+klen) the
  /// kernels read, fused with the predicted-Cc update in FT.  A resident
  /// slab is consumed zero-copy (uniform payloads) or widened into this
  /// member's atilde (narrow storage: alpha applied, one fp32 rounding —
  /// bit-identical to the cold convert-on-pack), and the Cc update the
  /// skipped pack_a_ft would have made is replayed from it.
  template <bool FT>
  const C* pack_a(const OperandView<S>& av, index_t i0, index_t k0,
                  index_t ilen, index_t klen, bool /*first_pass*/, int tid) {
    const index_t mr = plan_.blocking.mr;
    C* dst = ctx_.atilde(tid);
    if (ra_ != nullptr) {
      // i0 is MR-aligned, so the slab starts on a tile boundary at the
      // exact bytes a cold pack would have written.
      const S* slab = ra_->panel_at(k0) + (i0 / mr) * (mr * klen);
      const C* panel = dst;
      if constexpr (std::is_same_v<S, C>) {
        panel = slab;
      } else {
        ks_.pack.widen_a(slab, ilen, klen, mr, alpha_, dst);
      }
      if constexpr (FT) {
        ks_.pack.encode_cc(panel, av.trans, ilen, klen, mr, ctx_.bc(tid),
                           ctx_.cc() + i0);
      }
      return panel;
    }
    if constexpr (FT) {
      ks_.pack.pack_a_ft(av, i0, k0, ilen, klen, mr, alpha_, dst,
                         ctx_.bc(tid), ctx_.cc() + i0);
    } else {
      ks_.pack.pack_a(av, i0, k0, ilen, klen, mr, alpha_, dst);
    }
    return dst;
  }

  /// This panel's verification thresholds, which every member derives from
  /// the amax partials of all `nt` members: amax(B) now covers every panel
  /// streamed so far, i.e. exactly the contributions the checksums hold.
  [[nodiscard]] Tol tolerance(int nt) const {
    double amax_a = 0.0, amax_b = 0.0, amax_c = 0.0;
    for (int t = 0; t < nt; ++t) {
      amax_a = std::max(amax_a, amax_[std::size_t(t) * 3]);
      amax_b = std::max(amax_b, amax_[std::size_t(t) * 3 + 1]);
      amax_c = std::max(amax_c, amax_[std::size_t(t) * 3 + 2]);
    }
    return Tol::compute(plan_.key.m, plan_.key.n, plan_.key.k, amax_a,
                        amax_b, amax_c, double(alpha_), double(beta_),
                        plan_.tol_factor);
  }

  /// Append the entries of a checksum pair that disagree beyond tolerance
  /// (`rows`: Cc entries, else Cr entries).
  static void scan(const Tol& tol, bool rows, const C* predicted,
                   const C* reference, index_t count, index_t base,
                   std::vector<Mismatch>& out) {
    find_mismatches(predicted, reference, count, tau(tol, rows), base, out);
  }

  /// Re-verification of one exact sum against its prediction; `d` is the
  /// residual, the delta a correction record logs.  NaN-sound (see
  /// outside_tolerance).
  static bool mismatch(const Tol& tol, bool rows, C sum, C predicted,
                       double& d) {
    d = double(sum) - double(predicted);
    return outside_tolerance(d, tau(tol, rows));
  }

  /// Row i of the accumulator at columns `cols` over depth [0, kend),
  /// recomputed from the operands as the packers read them (narrow storage
  /// widened, alpha applied to A) onto the starting value the kernels
  /// accumulated onto: the kept beta*C0, or zero at beta = 0.  Differs from
  /// the kernels' values by summation order only.
  void recompute_row(const OperandView<S>& av, const OperandView<S>& bv,
                     index_t i, const std::vector<index_t>& cols,
                     index_t kend, std::vector<C>& out) const {
    out.assign(cols.size(), C(0));
    if (seed_ != nullptr) {
      for (std::size_t c = 0; c < cols.size(); ++c)
        out[c] = seed_[i + cols[c] * plan_.key.m];
    }
    for (index_t p = 0; p < kend; ++p) {
      const C a = alpha_ * C(av.at(i, p));
      for (std::size_t c = 0; c < cols.size(); ++c)
        out[c] += a * C(bv.at(p, cols[c]));
    }
  }

  /// C is the accumulator: nothing left to store.
  void store(const MemberRanges&, bool) {}

 private:
  [[nodiscard]] static double tau(const Tol& tol, bool rows) {
    return rows ? tol.cc_tau : tol.cr_tau;
  }

  const GemmPlan<S, C>& plan_;
  const KernelSet<S, C>& ks_;
  GemmContext<S, C>& ctx_;
  C alpha_, beta_;
  C* c_;
  index_t ldc_;
  const ResidentAPayload<S, C>* ra_;
  /// beta*C0 (leading dimension m) on FT calls at beta != 0 that compute;
  /// null otherwise.
  C* seed_;
  /// Per-member (amax A, amax B, amax C) partials, shared by the team.
  std::vector<double> amax_;
};

/// Templated like FloatDomain only so it names the workspace lazily; the
/// one instantiation is <int8_t, int32_t> (DomainOf below).
template <typename S, typename C>
class ExactDomain {
 public:
  using Scalar = float;  ///< alpha, beta and the caller's C
  using Quant = QuantParams;
  using PackedA = std::uint8_t;  ///< biased u8 A~ (the VNNI operand order)
  using PackedB = std::int8_t;   ///< s8 B~
  using Ref = std::int64_t;      ///< predicted/reference checksums
  using Sum = std::int32_t;      ///< Ar, Bc and the zero-point vectors
  using Tol = NoTolerance;       ///< exact sums compare at zero
  /// The biased product accumulates in the private int32 buffer cq; the
  /// epilogue's zero-point vectors arow/bcol ride along.
  static constexpr bool kPrivateAcc = true;
  /// The Ar encode writes disjoint K-slices: no partials.
  static constexpr bool kArPartials = false;

  /// Row-major calls are served by the column-major core with the operands
  /// swapped (normalize_layout), so the quantization parameters must travel
  /// with their matrices, not their argument slots.
  static Quant normalize_quant(Layout layout, const Quant& q) {
    Quant out = q;
    if (layout == Layout::kRowMajor) {
      std::swap(out.scale_a, out.scale_b);
      std::swap(out.zero_a, out.zero_b);
    }
    return out;
  }
  /// The int32 accumulators must never wrap (kernels/int8_types.hpp).
  static bool depth_ok(index_t k) { return k <= kI8MaxDepth; }
  /// Resident payloads hold raw biased bytes and exact byte sums, never a
  /// scaled encoding: one payload serves every (alpha, QuantParams).
  static C resident_alpha(Scalar) { return C(1); }
  /// Integer checksums are exact: any nonzero residual is a fault.
  static double tolerance_factor(const PlanKey&) { return 0.0; }

  ExactDomain(const GemmPlan<S, C>& plan, GemmContext<S, C>& ctx,
              Scalar alpha, Scalar beta, Scalar* c, index_t ldc,
              const ResidentAPayload<S, C>* ra, const Quant& q)
      : plan_(plan), ks_(plan.kernels), ctx_(ctx), alpha_(alpha),
        beta_(beta), c_(c), ldc_(ldc), ra_(ra), q_(q) {}

  /// The private biased-product accumulator (leading dimension m).
  [[nodiscard]] C* acc() const { return ctx_.cq(); }
  [[nodiscard]] index_t ldacc() const { return plan_.key.m; }

  /// Encode phase: zero the accumulator, the zero-point vectors and the
  /// predicted checksums; Ar over this member's K-slice.
  template <bool FT>
  void encode(runtime::TeamMember& tm, const MemberRanges& r,
              const OperandView<S>& av, bool degenerate) {
    if (degenerate) return;
    const index_t m = plan_.key.m;
    if (r.jlen > 0) {
      std::fill(ctx_.cq() + std::size_t(r.js) * std::size_t(m),
                ctx_.cq() + std::size_t(r.js + r.jlen) * std::size_t(m), 0);
      std::fill(ctx_.bcol() + r.js, ctx_.bcol() + r.js + r.jlen, 0);
    }
    if (r.mlen > 0) {
      std::fill(ctx_.arow() + r.ms, ctx_.arow() + r.ms + r.mlen, 0);
      if (ra_ != nullptr) {
        // The payload's integrity row sums are per-packed-row sums of the
        // biased bytes: exactly arow (pack_a is skipped on hits).
        std::copy(ra_->rowchk.data() + r.ms,
                  ra_->rowchk.data() + r.ms + r.mlen, ctx_.arow() + r.ms);
      }
    }
    if constexpr (FT) {
      if (r.mlen > 0)
        std::fill(ctx_.cc() + r.ms, ctx_.cc() + r.ms + r.mlen, Ref(0));
      if (r.jlen > 0)
        std::fill(ctx_.cr() + r.js, ctx_.cr() + r.js + r.jlen, Ref(0));
      if (r.klen > 0) {
        if (ra_ != nullptr) {
          std::copy(ra_->ar.data() + r.ks, ra_->ar.data() + r.ks + r.klen,
                    ctx_.ar() + r.ks);
        } else {
          std::fill(ctx_.ar() + r.ks, ctx_.ar() + r.ks + r.klen, 0);
          ks_.pack.encode_ar(av, 0, m, r.ks, r.klen, ctx_.ar() + r.ks);
        }
      }
    }
    tm.barrier();
  }

  template <bool FT>
  void pack_b(const OperandView<S>& bv, index_t k0, index_t j0, index_t klen,
              index_t nlen, S* dst) {
    const index_t nr = plan_.blocking.nr;
    if constexpr (FT) {
      ks_.pack.pack_b_ft(bv, k0, j0, klen, nlen, nr, dst, ctx_.bcol(),
                         ctx_.ar() + k0, ctx_.cr());
    } else {
      ks_.pack.pack_b(bv, k0, j0, klen, nlen, nr, dst, ctx_.bcol());
    }
  }

  /// This member's Bc partial over the `nlen` B~ columns it just packed.
  void reduce_bc(int tid, index_t klen, index_t nlen, const PackedB* packed) {
    ks_.pack.reduce_bc(packed, klen, nlen, plan_.blocking.nr,
                       ctx_.bc_part(tid));
  }

  /// Produce the A~ slab of rows [i0, i0+ilen) x depth [k0, k0+klen): a
  /// resident slab already holds the biased u8 bytes and is consumed
  /// zero-copy; otherwise pack_a writes it, and arow sees each (row, panel)
  /// region exactly once, so only the first pass (jc == 0) accumulates it
  /// (A~ is repacked with identical bytes for every later jc block).  In FT,
  /// Cc is then encoded from the slab the kernels read, on both routes.
  template <bool FT>
  const PackedA* pack_a(const OperandView<S>& av, index_t i0, index_t k0,
                        index_t ilen, index_t klen, bool first_pass, int tid) {
    const index_t mr = plan_.blocking.mr;
    const PackedA* slab = ctx_.atilde(tid);
    if (ra_ != nullptr) {
      slab = reinterpret_cast<const PackedA*>(ra_->panel_at(k0)) +
             (i0 / mr) * i8_tile_bytes(klen, mr);
    } else {
      ks_.pack.pack_a(av, i0, k0, ilen, klen, mr, ctx_.atilde(tid),
                      first_pass ? ctx_.arow() : nullptr);
    }
    if constexpr (FT) {
      ks_.pack.encode_cc(slab, ilen, klen, mr, ctx_.bc(tid), ctx_.cc() + i0);
    }
    return slab;
  }

  /// Exact checksums: there is no threshold to derive.
  [[nodiscard]] static Tol tolerance(int) { return {}; }

  static void scan(const Tol&, bool, const Ref* predicted,
                   const Ref* reference, index_t count, index_t base,
                   std::vector<Mismatch>& out) {
    for (index_t i = 0; i < count; ++i) {
      const Ref d = reference[i] - predicted[i];
      if (d != 0) out.push_back({base + i, double(d)});
    }
  }

  static bool mismatch(const Tol&, bool, Ref sum, Ref predicted, double& d) {
    const Ref diff = sum - predicted;
    d = double(diff);
    return diff != 0;
  }

  /// Row i of cq at columns `cols` over depth [0, kend), recomputed from
  /// the operands with A biased as the packer biases it: exact, so
  /// bit-identical to the fault-free accumulator.
  void recompute_row(const OperandView<S>& av, const OperandView<S>& bv,
                     index_t i, const std::vector<index_t>& cols,
                     index_t kend, std::vector<C>& out) const {
    out.assign(cols.size(), 0);
    for (index_t p = 0; p < kend; ++p) {
      const C a = C(bias_i8(av.at(i, p)));
      for (std::size_t c = 0; c < cols.size(); ++c)
        out[c] += a * C(bv.at(p, cols[c]));
    }
  }

  /// The write-back: undo the bias/zero-point shift and dequantize this
  /// member's column range of the finished accumulator into the caller's C,
  ///
  ///   S[i,j] = cq[i,j] - zb*arow[i] - (128+za)*bcol[j] + k*(128+za)*zb,
  ///   C[i,j] = float( alpha*sa*sb * S[i,j] + beta * C[i,j] ),
  ///
  /// with the scale product and the accumulation carried in fp64 so the only
  /// rounding of the whole path is the final fp32 store.  When beta == 0, C
  /// is never read (BLAS semantics: an uninitialized C stays NaN-free).
  /// `degenerate` covers k <= 0 and alpha == 0: compute was skipped and the
  /// buffers hold garbage, so the identity C = beta*C is applied directly.
  void store(const MemberRanges& r, bool degenerate) {
    const index_t m = plan_.key.m, k = plan_.key.k;
    const float beta = beta_;
    if (degenerate) {
      for (index_t j = r.js; j < r.js + r.jlen; ++j) {
        for (index_t i = 0; i < m; ++i) {
          float& cij = c_[i + j * ldc_];
          cij = beta == 0.0f ? 0.0f : float(double(beta) * double(cij));
        }
      }
      return;
    }
    const C* cq = ctx_.cq();
    const Sum* arow = ctx_.arow();
    const Sum* bcol = ctx_.bcol();
    const double sab =
        double(alpha_) * double(q_.scale_a) * double(q_.scale_b);
    const std::int64_t za128 = 128 + std::int64_t(q_.zero_a);
    const std::int64_t zb = std::int64_t(q_.zero_b);
    const std::int64_t kzz = std::int64_t(k) * za128 * zb;
    for (index_t j = r.js; j < r.js + r.jlen; ++j) {
      const std::int64_t colterm = za128 * std::int64_t(bcol[j]) - kzz;
      for (index_t i = 0; i < m; ++i) {
        const std::int64_t s = std::int64_t(cq[i + j * m]) -
                               zb * std::int64_t(arow[i]) - colterm;
        const double v = sab * double(s);
        float& cij = c_[i + j * ldc_];
        cij = beta == 0.0f ? float(v) : float(v + double(beta) * double(cij));
      }
    }
  }

 private:
  const GemmPlan<S, C>& plan_;
  const KernelSet<S, C>& ks_;
  GemmContext<S, C>& ctx_;
  Scalar alpha_, beta_;
  Scalar* c_;
  index_t ldc_;
  const ResidentAPayload<S, C>* ra_;
  Quant q_;
};

template <typename S, typename C>
struct DomainOf {
  using type = FloatDomain<S, C>;
};
template <>
struct DomainOf<std::int8_t, std::int32_t> {
  using type = ExactDomain<std::int8_t, std::int32_t>;
};

/// The checksum domain of the (StorageT, ComputeT) path, and the scalar /
/// per-call quantization types its entry points take.
template <typename S, typename C = S>
using Domain = typename DomainOf<S, C>::type;
template <typename S, typename C = S>
using ScalarOf = typename Domain<S, C>::Scalar;
template <typename S, typename C = S>
using QuantOf = typename Domain<S, C>::Quant;

/// One supported precision: its serving tag and its (StorageT, ComputeT).
template <Precision P, typename S, typename C = S>
struct PrecisionEntry {
  static constexpr Precision kPrecision = P;
  using Storage = S;
  using Compute = C;
};

/// Every supported precision, listed once.
using Precisions =
    std::tuple<PrecisionEntry<Precision::kF32, float>,
               PrecisionEntry<Precision::kF64, double>,
               PrecisionEntry<Precision::kBf16, bf16_t, float>,
               PrecisionEntry<Precision::kF16, fp16_t, float>,
               PrecisionEntry<Precision::kI8, std::int8_t, std::int32_t>>;

/// Call f(E{}) for every entry E of the list.
template <typename F>
void for_each_precision(F&& f) {
  std::apply([&](auto... e) { (f(e), ...); }, Precisions{});
}

/// Call f(E{}) for the entry tagged `p`.
template <typename F>
void visit_precision(Precision p, F&& f) {
  for_each_precision([&](auto e) {
    if (decltype(e)::kPrecision == p) f(e);
  });
}

/// The entry whose storage type is S as member `type`; no member for an
/// unsupported S, so signatures built on EntryOf drop out of overload
/// resolution instead of guessing a precision.
template <typename S, typename List = Precisions>
struct EntryOfStorage {};
template <typename S, typename E, typename... Rest>
struct EntryOfStorage<S, std::tuple<E, Rest...>>
    : std::conditional_t<std::is_same_v<S, typename E::Storage>,
                         std::enable_if<true, E>,
                         EntryOfStorage<S, std::tuple<Rest...>>> {};
template <typename S>
using EntryOf = typename EntryOfStorage<S>::type;

}  // namespace ftgemm::detail
