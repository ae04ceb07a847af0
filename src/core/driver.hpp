// The (FT-)GEMM executor: a faithful implementation of Fig. 1 of the paper,
// split into plan and execute phases (see core/plan.hpp).
//
// One executor for every precision.  It is a template over the storage /
// compute pair and FT:
//   FT = false : the "Ori" high-performance GEMM (packing + cache blocking
//                + SIMD micro-kernels),
//   FT = true  : FT-GEMM with the fused ABFT scheme of §2.2/§2.3.
// What differs between precisions (which buffer accumulates, how checksums
// compare, what the store step does) lives in the checksum domain the
// executor instantiates per call: FloatDomain for fp64/fp32/bf16/fp16 and
// ExactDomain for int8 (core/checksum_domain.hpp).  The executor body names
// no precision.
//
// execute() is a *pure executor*: every decision — ISA, kernel set, blocking,
// thread topology, tolerance factor, fast-path selection — was made by the
// planner and arrives frozen in the GemmPlan.  The only data-dependent
// branch taken here is the alpha == 0 degeneracy, which depends on an
// operand value no plan fingerprint covers.
//
// The O(n^2) packing and checksum-encode layer is reached exclusively
// through the plan's kernel set (plan.kernels.pack — the ISA-dispatched
// PackSet): SIMD packing is bit-identical to the scalar templates, the
// fused checksum sums are lane-reassociated within the ToleranceModel
// bound (docs/DESIGN.md, "SIMD packing & checksum engine").
//
// Thread topology (§2.3): the thread team (runtime/team.hpp — persistent
// worker pool or OpenMP region, frozen into the plan) partitions C along the
// M-dimension; B~ is one buffer shared by all members and packed
// cooperatively along the N-dimension; each member reduces a partial panel
// checksum Bc from the B~ columns it packed, and sums the partials of all
// members in rank order into its own copy (the cross-thread reduction of
// §2.3).  Each member packs its own private A~.  The executor is
// runtime-agnostic: it sees only TeamMember's tid/nt/barrier/single, and a
// member's rank fully determines its partition and reduction position, so
// results are bit-identical across backends at equal nt.  Running with
// threads = 1 *is* the serial algorithm — no separate code path exists, so
// serial and parallel results are produced by the same verified code.
//
// The planner's small-GEMM fast path (plan.fast_path) is that serial
// algorithm too: the planner pins the plan to one thread, run_team executes
// a one-member team inline (no parallel region, and barriers are no-ops),
// and the whole problem is one panel, one B~ chunk and one A~ block.  Fast
// and general plans therefore run the same code and produce the same bits.
//
// Verification happens once per rank-KC panel ("p-loop: verify" in Fig. 1):
// every element of C is updated exactly once per panel, so the reference
// checksums accumulated inside the micro-kernels equal full row/column sums
// of the current C, directly comparable with the predicted checksums.  A
// clean FT panel costs three team barriers (B~ packed, B~ consumed, checksums
// scanned) against Ori's two.  Only a panel with a mismatch adds the
// repair's barriers: one after rank 0 merges the mismatch lists, and three
// more when the team recomputes the crossings: after it recomputes them and
// re-sums their rows, after it re-sums their columns, and after rank 0
// appends the records.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "abft/verifier.hpp"
#include "core/checksum_domain.hpp"
#include "core/context.hpp"
#include "core/operand_cache.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "inject/injector.hpp"
#include "kernels/macro_kernel.hpp"
#include "runtime/team.hpp"
#include "util/timer.hpp"

namespace ftgemm::detail {

/// Resolve the row-major case onto the column-major core (a row-major
/// matrix viewed column-major with the same ld is its transpose, so
///   C_rm = op(A)·op(B)   ⇔   C_cmᵀ = op(B)·op(A) with operands swapped).
/// Shared by the single-problem and batched dispatchers; `APtr` abstracts
/// over `const T*` and the batched `const T* const*` operand arrays.
template <typename APtr>
void normalize_layout(Layout layout, Trans& ta, Trans& tb, index_t& m,
                      index_t& n, APtr& a, index_t& lda, APtr& b,
                      index_t& ldb) {
  if (layout == Layout::kRowMajor) {
    std::swap(ta, tb);
    std::swap(m, n);
    std::swap(a, b);
    std::swap(lda, ldb);
  }
}

/// valid_gemm_args plus the checksum domain's depth gate (post-normalization
/// column-major arguments).
template <typename S, typename C = S>
bool valid_args(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                index_t lda, index_t ldb, index_t ldc) {
  return valid_gemm_args(ta, tb, m, n, k, lda, ldb, ldc) &&
         Domain<S, C>::depth_ok(k);
}

/// Split `total` into `parts` contiguous chunks aligned to `unit`
/// (chunk boundaries fall on multiples of `unit`; the last chunk absorbs
/// the remainder).  Empty chunks are expressed as len = 0.
inline void partition_units(index_t total, index_t unit, int parts, int idx,
                            index_t& off, index_t& len) {
  const index_t blocks = (total + unit - 1) / unit;
  const index_t per = blocks / parts;
  const index_t rem = blocks % parts;
  const index_t my_blocks = per + (idx < rem ? 1 : 0);
  const index_t first = idx * per + std::min<index_t>(idx, rem);
  off = std::min(first * unit, total);
  len = std::min(my_blocks * unit, total - off);
}

/// Crossing budget of one panel's recompute: |R|·|C| <= m·n / 64 +
/// max(m, n).  A crossing costs kend strided multiply-adds, each tens of
/// times dearer than one of the micro-kernels', and the team shares the
/// crossings as it shares a re-execution; the share keeps the worst case
/// near the cost of one re-execution, which is what a flagged panel costs
/// under ft_*_reliable.  The floor always admits one whole row or column
/// (one struck operand element), which on a small C costs less than any
/// re-execution.
inline constexpr index_t kRecomputeShare = 64;

/// Team-shared state of one call's panel repairs.  Rank 0 publishes the
/// crossing lines in the repair's first `single`; each member then writes
/// only its own slot, which rank 0 reads behind a barrier.
struct PanelRepair {
  /// One member's share; padded so members never write one cache line.
  struct alignas(64) Slot {
    std::vector<CorrectionRecord> log;  ///< in (row, column) order
    std::int64_t fixed = 0;  ///< crossings the recompute moved
    bool mismatch = false;   ///< a re-summed row or column still mismatches
  };
  std::vector<index_t> rows, cols;  ///< ascending crossing lines
  bool recompute = false;           ///< this panel's crossings are rebuilt
  std::vector<Slot> slots;          ///< one per member

  explicit PanelRepair(int nt) : slots(std::size_t(nt)) {}
};

/// Repair a panel whose accumulator cannot be rebuilt (float C at beta != 0:
/// the encode pass overwrote beta*C0) with the delta rules of
/// solve_error_assignment, then re-verify the touched rows and columns
/// (R: rows, C: columns) with exact sums over the accumulator.  The rules
/// repeat while the re-verification finds more: an exponent-scale error
/// dwarfing its row sum loses the original value to rounding in the first
/// subtraction and converges in the second round.  A non-finite element
/// that survives never passes re-verification (NaN fails every tolerance
/// test) and ends the panel uncorrectable.  Single-threaded: called from a
/// team `single` section.  `rows`/`cols` are consumed as scratch.
template <typename D, typename Ctx>
inline void locate_correct_reverify(
    std::vector<Mismatch>& rows, std::vector<Mismatch>& cols, const D& dom,
    const typename D::Tol& tol, index_t m, index_t n, Ctx& ctx, int panel,
    std::vector<CorrectionRecord>* correction_log, std::int64_t& detected,
    std::int64_t& corrected, int& uncorrectable) {
  using Ref = typename D::Ref;
  auto* acc = dom.acc();
  const index_t ld = dom.ldacc();
  std::vector<index_t> touched_rows, touched_cols;
  // Exact re-verification of everything touched; `rows`/`cols` become what
  // still mismatches.
  const auto reverify = [&] {
    std::sort(touched_rows.begin(), touched_rows.end());
    touched_rows.erase(std::unique(touched_rows.begin(), touched_rows.end()),
                       touched_rows.end());
    std::sort(touched_cols.begin(), touched_cols.end());
    touched_cols.erase(std::unique(touched_cols.begin(), touched_cols.end()),
                       touched_cols.end());
    rows.clear();
    cols.clear();
    double d = 0.0;
    for (const index_t i : touched_rows) {
      Ref sum = Ref(0);
      for (index_t j = 0; j < n; ++j) sum += acc[i + j * ld];
      if (dom.mismatch(tol, true, sum, ctx.cc()[i], d))
        rows.push_back({i, d});
    }
    for (const index_t j : touched_cols) {
      Ref sum = Ref(0);
      for (index_t i = 0; i < m; ++i) sum += acc[i + j * ld];
      if (dom.mismatch(tol, false, sum, ctx.cr()[j], d))
        cols.push_back({j, d});
    }
    return rows.empty() && cols.empty();
  };

  constexpr int kMaxRounds = 4;
  for (int round = 0; round < kMaxRounds; ++round) {
    const SolveOutcome outcome = solve_error_assignment(
        rows, cols, dom.slack(tol, rows.size() + cols.size()));
    if (!outcome.solved) {
      if (round == 0)
        detected += std::int64_t(std::max(rows.size(), cols.size()));
      ++uncorrectable;
      return;
    }
    for (const LocatedError& err : outcome.errors) {
      dom.correct(acc[err.row + err.col * ld], err.delta);
      touched_rows.push_back(err.row);
      touched_cols.push_back(err.col);
      if (correction_log != nullptr)
        correction_log->push_back({panel, round, err.row, err.col, err.delta});
    }
    if (round == 0) {
      detected += std::int64_t(outcome.errors.size());
      corrected += std::int64_t(outcome.errors.size());
    }
    if (reverify()) return;
  }
  ++uncorrectable;
}

/// The team phase of a rebuildable panel's repair: recompute every crossing
/// of `rep.rows` x `rep.cols` from A and B over depth [0, kend), since every
/// wrong element lies where a mismatched row crosses a mismatched column,
/// then re-verify those rows and columns with exact sums over the
/// accumulator.
/// Each member takes a contiguous share of the rows, at most
/// ceil(|R| / nt), and owns every crossing in them, so it re-sums its rows
/// at once; after one barrier the members share the column sums.
/// recompute_row keeps each element's depth order, so the repaired
/// accumulator does not depend on nt.  A crossing the recompute moves
/// beyond tolerance counts as one detected-and-corrected error; a row or
/// column that still mismatches flags the panel.  The row shares ascend
/// with rank, so rank 0 appends the records in (row, column) order.
template <typename D, typename S, typename Ctx>
inline void recompute_crossings(
    runtime::TeamMember& tm, PanelRepair& rep, const D& dom,
    const typename D::Tol& tol, const OperandView<S>& av,
    const OperandView<S>& bv, index_t kend, index_t m, index_t n, Ctx& ctx,
    int panel, std::vector<CorrectionRecord>* correction_log,
    std::int64_t& detected, std::int64_t& corrected, int& uncorrectable) {
  using Ref = typename D::Ref;
  auto* acc = dom.acc();
  const index_t ld = dom.ldacc();
  PanelRepair::Slot& mine = rep.slots[std::size_t(tm.tid())];
  mine.log.clear();
  mine.fixed = 0;
  mine.mismatch = false;
  std::vector<std::remove_reference_t<decltype(*acc)>> fresh;
  double d = 0.0;
  index_t first = 0, count = 0;
  partition_units(index_t(rep.rows.size()), 1, tm.nt(), tm.tid(), first,
                  count);
  for (index_t x = first; x < first + count; ++x) {
    const index_t i = rep.rows[std::size_t(x)];
    dom.recompute_row(av, bv, i, rep.cols, kend, fresh);
    for (std::size_t c = 0; c < rep.cols.size(); ++c) {
      auto& value = acc[i + rep.cols[c] * ld];
      double delta = 0.0;
      // The element-level analogue of a checksum mismatch.
      if (dom.mismatch(tol, true, value, fresh[c], delta)) {
        if (correction_log != nullptr)
          mine.log.push_back({panel, 0, i, rep.cols[c], delta});
        ++mine.fixed;
      }
      value = fresh[c];
    }
    Ref sum = Ref(0);
    for (index_t j = 0; j < n; ++j) sum += acc[i + j * ld];
    if (dom.mismatch(tol, true, sum, ctx.cc()[i], d)) mine.mismatch = true;
  }
  tm.barrier();
  partition_units(index_t(rep.cols.size()), 1, tm.nt(), tm.tid(), first,
                  count);
  for (index_t x = first; x < first + count; ++x) {
    const index_t j = rep.cols[std::size_t(x)];
    Ref sum = Ref(0);
    for (index_t i = 0; i < m; ++i) sum += acc[i + j * ld];
    if (dom.mismatch(tol, false, sum, ctx.cr()[j], d)) mine.mismatch = true;
  }
  tm.barrier();
  tm.single([&] {
    bool unverified = false;
    for (const PanelRepair::Slot& s : rep.slots) {
      if (correction_log != nullptr)
        correction_log->insert(correction_log->end(), s.log.begin(),
                               s.log.end());
      detected += s.fixed;
      corrected += s.fixed;
      unverified = unverified || s.mismatch;
    }
    if (unverified) ++uncorrectable;
  });
}

/// Apply the corruptions an injector planned for one macro block of the
/// accumulator, emulating an in-kernel fault: the register-level reference
/// checksums would have seen the corrupted value too.  `crref_lane` is the
/// executing member's lane-strided Cr reference partial.
template <bool FT, typename Acc, typename Ctx, typename Ref>
inline void apply_planned_injections(FaultInjector* injector,
                                     const BlockContext& bctx,
                                     std::vector<InjectionRecord>& planned,
                                     Acc* acc, index_t ld, Ctx& ctx,
                                     Ref* crref_lane, index_t lanes) {
  planned.clear();
  injector->plan_block(bctx, planned);
  for (InjectionRecord rec : planned) {
    Acc& value = acc[rec.i + rec.j * ld];
    const double applied = apply_corruption(value, rec);
    if constexpr (FT) {
      ctx.ccref()[rec.i] += Ref(applied);
      crref_lane[rec.j * lanes] += Ref(applied);
    }
    rec.delta = applied;
    injector->record(rec);
  }
}

/// Strike a transient packed panel between pack and consume (the kPanelA /
/// kPanelB memory surfaces): the fault lands after every checksum predicted
/// from the panel was derived, so the rank-KC panel verification must catch
/// whatever the macro kernels compute from the corrupted bytes.  `live` is
/// the count of live (unpadded) elements and `map` translates a live element
/// ordinal into the physical packed-buffer index — flips in zero padding
/// would be undetectable and harmless, so padding is not part of the
/// surface.
template <typename T, typename MapFn>
inline void strike_transient_panel(MemoryFaultInjector* mem,
                                   MemorySurface surface, T* buf,
                                   std::size_t live, MapFn&& map) {
  if (mem == nullptr || live == 0) return;
  const MemoryStrikeContext mctx{surface, live, int(8 * sizeof(T))};
  std::vector<PanelFlip> flips;
  mem->plan_flips(mctx, flips);
  if (flips.empty()) return;
  for (const PanelFlip& f : flips) flip_value_bit(buf[map(f.elem)], f.bit);
  mem->record_applied(flips.size());
}

/// Execute a planned (FT-)GEMM.  Shape, transposes, kernels, blocking,
/// topology and tolerance all come from `plan`; `injector`/`correction_log`
/// are per-call instrumentation sinks (may be null).  `ra` (may be null) is
/// a resident pre-packed pre-encoded A payload for this exact
/// (operand, plan): pack_a is skipped and the fused Cc update is replayed
/// from the resident panel with the packer's own accumulation structure
/// (PackSet::encode_cc), so the result stays bit-identical to the cold
/// path.  `quant` is the call's quantization (int8 only; like alpha/beta an
/// operand value no plan fingerprint covers).
template <typename S, bool FT, typename C = S>
FtReport execute(const GemmPlan<S, C>& plan, ScalarOf<S, C> alpha,
                 const S* a, index_t lda, const S* b, index_t ldb,
                 ScalarOf<S, C> beta, ScalarOf<S, C>* c, index_t ldc,
                 FaultInjector* injector,
                 std::vector<CorrectionRecord>* correction_log,
                 GemmContext<S, C>& ctx,
                 const ResidentAPayload<S, C>* ra = nullptr,
                 MemoryFaultInjector* mem_injector = nullptr,
                 const QuantOf<S, C>& quant = {}) {
  using KS = KernelSet<S, C>;
  using Ref = typename Domain<S, C>::Ref;
  FtReport report;
  const PlanKey& key = plan.key;
  const index_t m = key.m, n = key.n, k = key.k;
  if (m <= 0 || n <= 0) return report;

  const WallTimer timer;
  const KS& ks = plan.kernels;
  const BlockingPlan& bp = plan.blocking;
  const int nt = plan.threads;
  const bool degenerate = plan.k_zero || alpha == ScalarOf<S, C>(0);

  if (injector != nullptr)
    injector->begin_call(m, n, k,
                         int(std::max<index_t>(plan.num_panels, 1)));

  const index_t lanes = ks.cr_lanes;
  ctx.ensure(plan);

  const OperandView<S> av{a, lda, key.ta == Trans::kTrans};
  const OperandView<S> bv{b, ldb, key.tb == Trans::kTrans};

  // Shared across the team.
  Domain<S, C> dom(plan, ctx, alpha, beta, c, ldc, ra, quant);
  std::vector<std::vector<Mismatch>> row_mm(FT ? std::size_t(nt) : 0);
  std::vector<std::vector<Mismatch>> col_mm(FT ? std::size_t(nt) : 0);
  PanelRepair repair(FT ? nt : 0);
  std::int64_t detected = 0;
  std::int64_t corrected = 0;
  int uncorrectable = 0;

  const auto team_body = [&](runtime::TeamMember& tm) {
    const int tid = tm.tid();
    std::vector<InjectionRecord> planned;

    MemberRanges r;
    // M-partition of C (and A) for this member, aligned to MR so only the
    // global edge produces partial register tiles.
    partition_units(m, bp.mr, nt, tid, r.ms, r.mlen);
    // Static N-partition used for reductions, checksum scans and the store.
    partition_units(n, 1, nt, tid, r.js, r.jlen);
    // Static K-partition for the Ar encode.
    partition_units(k, 1, nt, tid, r.ks, r.klen);

    dom.template encode<FT>(tm, r, av, degenerate);

    // ---- Panel loop: one rank-KC update + verification per iteration. ----
    if (!degenerate) {
      int panel = 0;
      for (index_t p = 0; p < k; p += bp.kc, ++panel) {
        const index_t pinc = std::min(bp.kc, k - p);

        if constexpr (FT) {
          // Reference checksums cover exactly this panel's values.
          if (r.mlen > 0)
            std::fill(ctx.ccref() + r.ms, ctx.ccref() + r.ms + r.mlen,
                      Ref(0));
          std::fill(ctx.crref_part(tid), ctx.crref_part(tid) + n * lanes,
                    Ref(0));
        }

        for (index_t jc = 0; jc < n; jc += bp.nc) {
          const index_t jinc = std::min(bp.nc, n - jc);

          // Cooperative packing of B~ along N (unit NR so panel boundaries
          // land on micro-panel boundaries).  In FT the packer also reduces
          // its Bc partial from its chunk while the chunk is cache-hot; a
          // member with no columns contributes a zero partial.
          index_t js = 0, jlen = 0;
          partition_units(jinc, bp.nr, nt, tid, js, jlen);
          auto* chunk = ctx.btilde() +
                        (js / bp.nr) * packed_tile_elems<KS>(pinc, bp.nr);
          if (jlen > 0) {
            dom.template pack_b<FT>(bv, p, jc + js, pinc, jlen, chunk);
          }
          if constexpr (FT) dom.reduce_bc(tid, pinc, jlen, chunk);
          tm.barrier();
          if constexpr (FT) {
            // This member's copy of Bc: the partials summed in rank order.
            auto* bc = ctx.bc(tid);
            std::copy(ctx.bc_part(0), ctx.bc_part(0) + pinc, bc);
            for (int t = 1; t < nt; ++t) {
              const auto* part = ctx.bc_part(t);
              for (index_t kk = 0; kk < pinc; ++kk) bc[kk] += part[kk];
            }
          }

          // Transient B~ strike: one member mutates the shared panel after
          // every checksum predicted from it (Cr and the Bc partials, both
          // at pack) and before any macro kernel consumes it.  mem_injector
          // is uniform across the team, so every member takes the single's
          // implicit trailing barrier.
          if (mem_injector != nullptr) {
            tm.single([&] {
              strike_transient_panel(
                  mem_injector, MemorySurface::kPanelB, ctx.btilde(),
                  std::size_t(pinc) * std::size_t(jinc), [&](std::size_t l) {
                    return packed_offset<KS>(index_t(l) / pinc,
                                             index_t(l) % pinc, pinc, bp.nr);
                  });
            });
          }

          // Macro loop over this member's rows.  ms and ic are both
          // MR-aligned, so a resident slab starts on a tile boundary.
          for (index_t ic = 0; ic < r.mlen; ic += bp.mc) {
            const index_t ilen = std::min(bp.mc, r.mlen - ic);
            const index_t i0 = r.ms + ic;
            const auto* apanel =
                dom.template pack_a<FT>(av, i0, p, ilen, pinc, jc == 0, tid);

            // Transient A~ strike by the owning member, only when the slab
            // was packed/widened into its private workspace: a zero-copy
            // resident slab belongs to the kResidentPanel surface (and
            // corrupting it here would poison later calls).  Pinned to
            // member 0: opportunity *order* must not depend on which member
            // packs first, or an armed one-shot injector's strike placement
            // would be a scheduling race.
            if (mem_injector != nullptr && tid == 0 &&
                apanel == ctx.atilde(tid)) {
              strike_transient_panel(
                  mem_injector, MemorySurface::kPanelA, ctx.atilde(tid),
                  std::size_t(ilen) * std::size_t(pinc), [&](std::size_t l) {
                    return packed_offset<KS>(index_t(l) / pinc,
                                             index_t(l) % pinc, pinc, bp.mr);
                  });
            }

            run_macro_block<FT>(ks, ilen, jinc, pinc, apanel, ctx.btilde(),
                                dom.acc() + i0 + jc * dom.ldacc(),
                                dom.ldacc(),
                                FT ? ctx.crref_part(tid) + jc * lanes : nullptr,
                                FT ? ctx.ccref() + i0 : nullptr);

            if (injector != nullptr) {
              const BlockContext bctx{panel, i0, jc, ilen, jinc, tid};
              apply_planned_injections<FT>(
                  injector, bctx, planned, dom.acc(), dom.ldacc(), ctx,
                  FT ? ctx.crref_part(tid) : nullptr, lanes);
            }
          }
          tm.barrier();  // B~ chunk complete before it is repacked
        }

        if constexpr (FT) {
          // Verify: each member derives the tolerance, reduces its range of
          // the per-member Cr references and scans its rows (M-partition)
          // and columns (N-partition), then one barrier publishes every
          // member's mismatch lists.
          const auto tol = dom.tolerance(nt);
          for (index_t j = r.js; j < r.js + r.jlen; ++j) {
            Ref sum = Ref(0);
            for (int t = 0; t < nt; ++t) {
              const Ref* part = ctx.crref_part(t) + j * lanes;
              for (index_t l = 0; l < lanes; ++l) sum += part[l];
            }
            ctx.crref()[j] = sum;
          }
          auto& my_rows = row_mm[std::size_t(tid)];
          auto& my_cols = col_mm[std::size_t(tid)];
          my_rows.clear();
          my_cols.clear();
          if (r.mlen > 0) {
            dom.scan(tol, true, ctx.cc() + r.ms, ctx.ccref() + r.ms, r.mlen,
                     r.ms, my_rows);
          }
          if (r.jlen > 0) {
            dom.scan(tol, false, ctx.cr() + r.js, ctx.crref() + r.js, r.jlen,
                     r.js, my_cols);
          }
          tm.barrier();
          // Every member reads the same lists here (none is written again
          // before the next panel's B~ barrier), so all take the same branch.
          const auto any_mismatch = [](const auto& lists) {
            return std::any_of(lists.begin(), lists.end(),
                               [](const auto& l) { return !l.empty(); });
          };
          if (any_mismatch(row_mm) || any_mismatch(col_mm)) {
            // Rank 0 merges the lists (each ascends, as do the members'
            // ranges) and either settles the panel itself or publishes its
            // crossing lines to the team.
            tm.single([&] {
              std::vector<Mismatch> rows, cols;
              for (int t = 0; t < nt; ++t) {
                rows.insert(rows.end(), row_mm[std::size_t(t)].begin(),
                            row_mm[std::size_t(t)].end());
                cols.insert(cols.end(), col_mm[std::size_t(t)].begin(),
                            col_mm[std::size_t(t)].end());
              }
              repair.recompute = false;
              // A private accumulator starts at zero: always rebuildable.
              if constexpr (!Domain<S, C>::kPrivateAcc) {
                if (!dom.rebuildable()) {
                  locate_correct_reverify(rows, cols, dom, tol, m, n, ctx,
                                          panel, correction_log, detected,
                                          corrected, uncorrectable);
                  return;
                }
              }
              if (rows.empty() || cols.empty() ||
                  index_t(rows.size()) * index_t(cols.size()) >
                      m * n / kRecomputeShare + std::max(m, n)) {
                detected += std::int64_t(std::max(rows.size(), cols.size()));
                ++uncorrectable;
                return;
              }
              repair.rows.clear();
              repair.cols.clear();
              for (const Mismatch& mm : rows) repair.rows.push_back(mm.idx);
              for (const Mismatch& mm : cols) repair.cols.push_back(mm.idx);
              repair.recompute = true;
            });  // trailing team barrier
            if (repair.recompute) {
              recompute_crossings(tm, repair, dom, tol, av, bv, p + pinc, m,
                                  n, ctx, panel, correction_log, detected,
                                  corrected, uncorrectable);
            }
          }
        }
      }
    }

    // Every member arrives here synchronized (the last B~ chunk's barrier,
    // in FT the verify barrier or the repair's last), so the accumulator is
    // final; a degenerate call computed nothing.
    dom.store(r, degenerate);
  };
  runtime::run_team(plan.runtime, nt, team_body);

  report.panels = degenerate ? 0 : int(plan.num_panels);
  report.errors_detected = detected;
  report.errors_corrected = corrected;
  report.uncorrectable_panels = uncorrectable;
  report.elapsed_seconds = timer.seconds();
  return report;
}

}  // namespace ftgemm::detail
