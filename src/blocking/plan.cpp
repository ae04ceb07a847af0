#include "blocking/plan.hpp"

#include <algorithm>

#include "blocking/cache_info.hpp"
#include "util/env.hpp"

namespace ftgemm {

namespace {

index_t round_down(index_t value, index_t multiple) {
  const index_t r = value / multiple * multiple;
  return r > 0 ? r : multiple;
}

index_t round_up(index_t value, index_t multiple) {
  return (std::max<index_t>(value, 1) + multiple - 1) / multiple * multiple;
}

}  // namespace

void register_tile(Isa isa, int elem_bytes, index_t& mr, index_t& nr) {
  const bool f64 = elem_bytes == 8;
  switch (isa) {
    case Isa::kAvx512:
      // f64: 16x8 -> 16 zmm accumulators; f32: 32x8, same register budget.
      mr = f64 ? 16 : 32;
      nr = 8;
      return;
    case Isa::kAvx2:
      // Classic Haswell shapes: 8x6 (f64) / 16x6 (f32), 12 ymm accumulators.
      mr = f64 ? 8 : 16;
      nr = 6;
      return;
    case Isa::kScalar:
      mr = 4;
      nr = 4;
      return;
  }
  mr = 4;
  nr = 4;
}

BlockingPlan make_plan(Isa isa, int elem_bytes) {
  BlockingPlan plan;
  register_tile(isa, elem_bytes, plan.mr, plan.nr);

  const CacheInfo& cache = cache_info();
  const index_t es = elem_bytes;

  // KC: half of L1 holds the KC x NR B micro-panel plus the streamed
  // MR x KC A panel; solve for KC and clamp to a pragmatic range.  The
  // floor of 256 matters doubly here: the micro-kernel epilogue and the
  // per-panel verification are amortized over KC, so a small KC inflates
  // the FT overhead (measured: KC=128 -> ~6.5%, KC=256 -> ~4.5% at 1024^3),
  // and a KC x NR f64 micro-panel at 256 is still only 16 KiB.
  index_t kc = static_cast<index_t>(cache.l1d_bytes) / (2 * (plan.nr + plan.mr) * es);
  kc = std::clamp<index_t>(kc, 256, 512);
  kc = round_down(kc, 8);

  // MC: packed A (MC x KC) should occupy at most half of L2.
  index_t mc = static_cast<index_t>(cache.l2_bytes) / (2 * kc * es);
  mc = std::clamp<index_t>(mc, plan.mr, 512);
  mc = round_down(mc, plan.mr);

  // NC: packed B (KC x NC) should occupy at most half of L3.
  index_t nc = static_cast<index_t>(cache.l3_bytes) / (2 * kc * es);
  nc = std::clamp<index_t>(nc, plan.nr * 8, 8192);
  nc = round_down(nc, plan.nr);

  plan.kc = env_long("FTGEMM_KC", kc);
  plan.mc = env_long("FTGEMM_MC", mc);
  plan.nc = env_long("FTGEMM_NC", nc);
  plan.kc = std::max<index_t>(plan.kc, 1);
  plan.mc = round_down(std::max(plan.mc, plan.mr), plan.mr);
  plan.nc = round_down(std::max(plan.nc, plan.nr), plan.nr);
  return plan;
}

BlockingPlan make_plan(Isa isa, int elem_bytes, index_t m, index_t n,
                       index_t k) {
  BlockingPlan plan = make_plan(isa, elem_bytes);
  plan.kc = std::min(plan.kc, std::max<index_t>(k, 1));
  plan.mc = std::min(plan.mc, round_up(m, plan.mr));
  plan.nc = std::min(plan.nc, round_up(n, plan.nr));
  return plan;
}

}  // namespace ftgemm
