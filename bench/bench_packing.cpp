// Packing & checksum engine: scalar templates vs the ISA-dispatched SIMD
// PackSet (pack_a_ft / pack_b_ft / reduce_bc / scale_encode_c / encode_ar),
// NoTrans and Trans, in GB/s of operand traffic.
//
// This is the O(n^2)-per-panel layer the fused-ABFT scheme lives in: its
// acceptance bar is dispatched pack_a_ft / pack_b_ft >= 1.5x scalar on
// AVX2-capable hardware (see ISSUE 3 / docs/DESIGN.md "SIMD packing &
// checksum engine").
//
// Shapes mirror one macro-tile of the f64 AVX-512 plan: an MC x KC A block
// and a KC x NC B panel.  The default edge (192) keeps the tile L2-resident
// so the engine is measured rather than DRAM bandwidth — the regime the
// cache-derived blocking plan puts the real pack calls in.  Override the
// depth/width with FTGEMM_BENCH_SIZE (panel edge); at DRAM-sized edges the
// ratios compress toward the machine's bandwidth ceiling.
// `speedup` = simd_GBs / scalar_GBs.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/packing.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

namespace {

/// Median GB/s over reps of fn() moving `bytes` per call.
template <typename Fn>
double median_gbs(double bytes, int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(std::size_t(reps));
  fn();  // warm-up
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    const double s = t.seconds();
    samples.push_back(s > 0 ? bytes / s / 1e9 : 0.0);
  }
  return compute_stats(samples).median;
}

void print_row(const char* op, const char* trans, double scalar_gbs,
               double simd_gbs) {
  std::printf("%-16s%14s%14.2f%14.2f%14.2fx\n", op, trans, scalar_gbs,
              simd_gbs, scalar_gbs > 0 ? simd_gbs / scalar_gbs : 0.0);
}

}  // namespace

int main() {
  const int reps = bench_reps();
  const index_t edge = env_long("FTGEMM_BENCH_SIZE", 192);
  const index_t kc = edge, mc = edge, nc = 2 * edge;
  const KernelSet<double> ks = get_kernel_set<double>(select_isa());
  const PackSet<double> simd = ks.pack;
  const PackSet<double> scalar = get_pack_set<double>(Isa::kScalar);
  const index_t mr = ks.mr, nr = ks.nr;

  std::printf("# packing & checksum engine, scalar vs dispatched (%s)\n",
              std::string(isa_name(simd.isa)).c_str());
  std::printf("# reproduces: ISSUE 3 acceptance (pack >= 1.5x scalar)\n");
  std::printf("# mc=%lld nc=%lld kc=%lld mr=%lld nr=%lld reps=%d\n",
              (long long)mc, (long long)nc, (long long)kc, (long long)mr,
              (long long)nr, reps);
  std::printf("%-16s%14s%14s%14s%14s\n", "op", "trans", "scalar_GBs",
              "simd_GBs", "speedup");

  Matrix<double> a(mc + 8, kc + 8), b(kc + 8, nc + 8);
  a.fill_random(7);
  b.fill_random(9);

  const index_t apanels = (mc + mr - 1) / mr;
  const index_t bpanels = (nc + nr - 1) / nr;
  std::vector<double> atilde(std::size_t(apanels * mr * kc));
  std::vector<double> btilde(std::size_t(bpanels * nr * kc));
  std::vector<double> bc(std::size_t(kc), 0.5), cc(static_cast<std::size_t>(mc));
  std::vector<double> ar(std::size_t(kc), 0.25), cr(static_cast<std::size_t>(nc));

  for (const bool trans : {false, true}) {
    const char* tname = trans ? "T" : "N";
    // pack_a_ft streams mc*kc doubles in, writes the same out, plus the cc
    // FMA — count the packed traffic both ways.
    const OperandView<double> av{a.data(), a.ld(), trans};
    const double a_bytes = 2.0 * double(mc) * double(kc) * sizeof(double);
    const double sa = median_gbs(a_bytes, reps, [&] {
      scalar.pack_a_ft(av, 0, 0, mc, kc, mr, 1.0, atilde.data(), bc.data(),
                       cc.data());
    });
    const double va = median_gbs(a_bytes, reps, [&] {
      simd.pack_a_ft(av, 0, 0, mc, kc, mr, 1.0, atilde.data(), bc.data(),
                     cc.data());
    });
    print_row("pack_a_ft", tname, sa, va);

    const OperandView<double> bv{b.data(), b.ld(), trans};
    const double b_bytes = 3.0 * double(kc) * double(nc) * sizeof(double);
    const double sb = median_gbs(b_bytes, reps, [&] {
      scalar.pack_b_ft(bv, 0, 0, kc, nc, nr, btilde.data(), ar.data(),
                       cr.data());
    });
    const double vb = median_gbs(b_bytes, reps, [&] {
      simd.pack_b_ft(bv, 0, 0, kc, nc, nr, btilde.data(), ar.data(),
                     cr.data());
    });
    print_row("pack_b_ft", tname, sb, vb);
  }

  {
    const double r_bytes = double(kc) * double(nc) * sizeof(double);
    const double sr = median_gbs(r_bytes, reps, [&] {
      scalar.reduce_bc(btilde.data(), kc, nc, nr, bc.data(), 0.0);
    });
    const double vr = median_gbs(r_bytes, reps, [&] {
      simd.reduce_bc(btilde.data(), kc, nc, nr, bc.data(), 0.0);
    });
    print_row("reduce_bc", "-", sr, vr);
  }

  {
    Matrix<double> c(mc, nc);
    c.fill_random(11);
    std::vector<double> cr_part(static_cast<std::size_t>(nc));
    const double c_bytes = 2.0 * double(mc) * double(nc) * sizeof(double);
    const double sc = median_gbs(c_bytes, reps, [&] {
      scalar.scale_encode_c(c.data(), c.ld(), 0, mc, nc, 0.5, cc.data(),
                            cr_part.data());
    });
    const double vc = median_gbs(c_bytes, reps, [&] {
      simd.scale_encode_c(c.data(), c.ld(), 0, mc, nc, 0.5, cc.data(),
                          cr_part.data());
    });
    print_row("scale_encode_c", "-", sc, vc);
  }

  for (const bool trans : {false, true}) {
    const OperandView<double> av{a.data(), a.ld(), trans};
    std::vector<double> ar_part(static_cast<std::size_t>(kc));
    const double e_bytes = double(mc) * double(kc) * sizeof(double);
    const double se = median_gbs(e_bytes, reps, [&] {
      scalar.encode_ar(av, 0, mc, kc, 1.0, ar_part.data());
    });
    const double ve = median_gbs(e_bytes, reps, [&] {
      simd.encode_ar(av, 0, mc, kc, 1.0, ar_part.data());
    });
    print_row("encode_ar", trans ? "T" : "N", se, ve);
  }

  std::fflush(stdout);
  return 0;
}
