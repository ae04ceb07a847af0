#include "core/plan.hpp"

#include <algorithm>

#include "core/checksum_domain.hpp"
#include "core/context.hpp"
#include "runtime/topology.hpp"
#include "util/env.hpp"

namespace ftgemm {

PlanKey make_plan_key(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                      const Options& opts, bool ft) {
  PlanKey key;
  key.m = m;
  key.n = n;
  key.k = k;
  key.ta = ta;
  key.tb = tb;
  key.ft = ft;
  key.fast_path_allowed = opts.small_fast_path;
  key.threads = runtime::topology(opts.threads);
  key.isa_override = opts.isa ? int(*opts.isa) : -1;
  key.tolerance_factor = opts.tolerance_factor;
  return key;
}

template <typename S, typename C>
GemmPlan<S, C> build_plan(const PlanKey& key) {
  using D = detail::Domain<S, C>;
  GemmPlan<S, C> plan;
  plan.key = key;
  plan.isa = key.isa_override >= 0 ? Isa(key.isa_override) : select_isa();
  plan.kernels = get_kernel_set<S, C>(plan.isa);
  // Blocking is sized for the element the packed panels hold — ComputeT on
  // the float paths (narrow storage is widened on pack, so a bf16 plan
  // shares the fp32 blocking exactly, DESIGN.md §10), one byte on the int8
  // path (its whole bandwidth argument) — then fitted to the kernel set's
  // register tile and packed depth quad.  The float blocking model already
  // uses the float kernels' tiles, so the fit only moves int8 plans.
  plan.blocking = make_plan(plan.isa, int(sizeof(typename D::PackedB)),
                            key.m, key.n, key.k);
  const auto round_up = [](index_t v, index_t q) {
    return ((std::max<index_t>(v, q) + q - 1) / q) * q;
  };
  plan.blocking.mr = plan.kernels.mr;
  plan.blocking.nr = plan.kernels.nr;
  plan.blocking.mc = round_up(plan.blocking.mc, plan.kernels.mr);
  plan.blocking.nc = round_up(plan.blocking.nc, plan.kernels.nr);
  plan.blocking.kc =
      round_up(plan.blocking.kc, KernelSet<S, C>::kDepthQuad);
  plan.k_zero = key.k <= 0;
  plan.num_panels =
      plan.k_zero ? 0 : (key.k + plan.blocking.kc - 1) / plan.blocking.kc;
  plan.tol_factor = D::tolerance_factor(key);

  // Single-macro-tile fast path: the whole problem fits one packed-A block
  // and one packed-B panel, so the cooperative-packing machinery would be
  // pure overhead.  Pin the topology to one thread (below the flop bound,
  // threading a problem is all barrier, no work — see kFastPathFlopCutoff
  // for why the tile test alone is not enough).
  const double flops =
      2.0 * double(key.m) * double(key.n) * double(key.k);
  plan.fast_path = key.fast_path_allowed && key.m > 0 && key.n > 0 &&
                   key.k > 0 && key.m <= plan.blocking.mc &&
                   key.n <= plan.blocking.nc && key.k <= plan.blocking.kc &&
                   flops <= env_double("FTGEMM_FAST_PATH_FLOPS",
                                       kFastPathFlopCutoff);
  plan.threads = plan.fast_path ? 1 : key.threads;
  // Unpadded footprint (diagnostics); GemmContext::ensure sizes its
  // buffers from the same WorkspaceSizes and pads per-thread strides.
  plan.workspace_bytes = WorkspaceSizes<S, C>(plan).bytes(plan.threads);
  plan.self_check = plan_self_check(plan);
  return plan;
}

template GemmPlan<float> build_plan<float, float>(const PlanKey&);
template GemmPlan<double> build_plan<double, double>(const PlanKey&);
template GemmPlan<bf16_t, float> build_plan<bf16_t, float>(const PlanKey&);
template GemmPlan<fp16_t, float> build_plan<fp16_t, float>(const PlanKey&);
template GemmPlan<std::int8_t, std::int32_t>
    build_plan<std::int8_t, std::int32_t>(const PlanKey&);

}  // namespace ftgemm
