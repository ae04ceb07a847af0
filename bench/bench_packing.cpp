// Packing & checksum engine: scalar templates vs the ISA-dispatched SIMD
// PackSet (pack_a_ft / pack_b_ft / reduce_bc / scale_encode_c / encode_ar),
// NoTrans and Trans, for every float precision, in GB/s of operand traffic.
//
// This is the O(n^2)-per-panel layer the fused-ABFT scheme lives in, and
// one SIMD engine serves all four precisions (fp64/fp32 plain loads,
// bf16/fp16 the fp32 engine behind a widening load).  The bf16/fp16 rows
// cover the storage-side stages only: their reduce_bc and scale_encode_c
// are the fp32 members, already in the fp32 rows.
//
// Shapes mirror one macro-tile of a plan: an MC x KC A block and a KC x NC
// B panel.  The default edge (192) keeps the tile L2-resident so the
// engine is measured rather than DRAM bandwidth — the regime the
// cache-derived blocking plan puts the real pack calls in.  Override the
// depth/width with FTGEMM_BENCH_SIZE (panel edge); at DRAM-sized edges the
// ratios compress toward the machine's bandwidth ceiling.  Each rep times
// the scalar call and then the SIMD call, so drift hits both series alike.
// `speedup` = simd_GBs / scalar_GBs.
//
// Exits 1 when a SIMD pack_a_ft / pack_b_ft panel differs from the scalar
// panel by a bit (the engine's bit-identity contract).
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "kernels/packing.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

namespace {

/// Median GB/s of the scalar and the SIMD call, timed alternately in each
/// rep, each moving `bytes` per call.
template <typename Scalar, typename Simd>
void paired_gbs(double bytes, int reps, Scalar&& scalar, Simd&& simd,
                double& scalar_gbs, double& simd_gbs) {
  std::vector<double> ss, vs;
  scalar();  // warm-up
  simd();
  const auto sample = [&](auto& fn, std::vector<double>& out) {
    WallTimer t;
    fn();
    const double s = t.seconds();
    out.push_back(s > 0 ? bytes / s / 1e9 : 0.0);
  };
  for (int r = 0; r < reps; ++r) {
    sample(scalar, ss);
    sample(simd, vs);
  }
  scalar_gbs = compute_stats(ss).median;
  simd_gbs = compute_stats(vs).median;
}

void print_row(const char* prec, const char* op, const char* trans,
               double scalar_gbs, double simd_gbs) {
  std::printf("%-6s%-16s%8s%14.2f%14.2f%14.2fx\n", prec, op, trans,
              scalar_gbs, simd_gbs,
              scalar_gbs > 0 ? simd_gbs / scalar_gbs : 0.0);
}

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// All rows of one (storage, compute) precision; false when a SIMD panel
/// differs from the scalar one.
template <typename S, typename C>
bool run_precision(const char* prec, index_t edge, int reps) {
  const index_t kc = edge, mc = edge, nc = 2 * edge;
  const KernelSet<S, C> ks = get_kernel_set<S, C>(select_isa());
  const PackSet<S, C> simd = ks.pack;
  const PackSet<S, C> scalar = get_pack_set<S, C>(Isa::kScalar);
  const index_t mr = ks.mr, nr = ks.nr;
  std::printf("# %s: mc=%lld nc=%lld kc=%lld mr=%lld nr=%lld\n", prec,
              (long long)mc, (long long)nc, (long long)kc, (long long)mr,
              (long long)nr);

  Matrix<S> a(mc + 8, kc + 8), b(kc + 8, nc + 8);
  a.fill_random(7);
  b.fill_random(9);
  const index_t apanels = (mc + mr - 1) / mr;
  const index_t bpanels = (nc + nr - 1) / nr;
  std::vector<C> at_scalar(std::size_t(apanels * mr * kc));
  std::vector<C> at_simd(at_scalar.size());
  std::vector<C> bt_scalar(std::size_t(bpanels * nr * kc));
  std::vector<C> bt_simd(bt_scalar.size());
  std::vector<C> bc(std::size_t(kc), C(0.5)), cc(static_cast<std::size_t>(mc));
  std::vector<C> ar(std::size_t(kc), C(0.25)), cr(static_cast<std::size_t>(nc));
  bool identical = true;
  double s = 0.0, v = 0.0;

  for (const bool trans : {false, true}) {
    const char* tname = trans ? "T" : "N";
    // pack_a_ft streams mc*kc storage elements in and writes as many
    // compute elements out, plus the Cc FMA.
    const OperandView<S> av{a.data(), a.ld(), trans};
    const double a_bytes =
        double(mc) * double(kc) * double(sizeof(S) + sizeof(C));
    paired_gbs(
        a_bytes, reps,
        [&] {
          scalar.pack_a_ft(av, 0, 0, mc, kc, mr, C(1), at_scalar.data(),
                           bc.data(), cc.data());
        },
        [&] {
          simd.pack_a_ft(av, 0, 0, mc, kc, mr, C(1), at_simd.data(),
                         bc.data(), cc.data());
        },
        s, v);
    print_row(prec, "pack_a_ft", tname, s, v);
    if (!same_bits(at_scalar, at_simd)) {
      std::printf("# MISMATCH: %s pack_a_ft %s panel differs from scalar\n",
                  prec, tname);
      identical = false;
    }

    const OperandView<S> bv{b.data(), b.ld(), trans};
    const double b_bytes =
        double(kc) * double(nc) * double(sizeof(S) + 2 * sizeof(C));
    paired_gbs(
        b_bytes, reps,
        [&] {
          scalar.pack_b_ft(bv, 0, 0, kc, nc, nr, bt_scalar.data(), ar.data(),
                           cr.data());
        },
        [&] {
          simd.pack_b_ft(bv, 0, 0, kc, nc, nr, bt_simd.data(), ar.data(),
                         cr.data());
        },
        s, v);
    print_row(prec, "pack_b_ft", tname, s, v);
    if (!same_bits(bt_scalar, bt_simd)) {
      std::printf("# MISMATCH: %s pack_b_ft %s panel differs from scalar\n",
                  prec, tname);
      identical = false;
    }
  }

  if constexpr (std::is_same_v<S, C>) {
    const double r_bytes = double(kc) * double(nc) * sizeof(C);
    paired_gbs(
        r_bytes, reps,
        [&] { scalar.reduce_bc(bt_scalar.data(), kc, nc, nr, bc.data(), 0.0); },
        [&] { simd.reduce_bc(bt_scalar.data(), kc, nc, nr, bc.data(), 0.0); },
        s, v);
    print_row(prec, "reduce_bc", "-", s, v);

    Matrix<C> c(mc, nc);
    c.fill_random(11);
    std::vector<C> cr_part(static_cast<std::size_t>(nc));
    const double c_bytes = 2.0 * double(mc) * double(nc) * sizeof(C);
    paired_gbs(
        c_bytes, reps,
        [&] {
          scalar.scale_encode_c(c.data(), c.ld(), 0, mc, nc, C(0.5),
                                cc.data(), cr_part.data());
        },
        [&] {
          simd.scale_encode_c(c.data(), c.ld(), 0, mc, nc, C(0.5), cc.data(),
                              cr_part.data());
        },
        s, v);
    print_row(prec, "scale_encode_c", "-", s, v);
  }

  for (const bool trans : {false, true}) {
    const OperandView<S> av{a.data(), a.ld(), trans};
    std::vector<C> ar_part(static_cast<std::size_t>(kc));
    const double e_bytes = double(mc) * double(kc) * sizeof(S);
    paired_gbs(
        e_bytes, reps,
        [&] { scalar.encode_ar(av, 0, mc, kc, C(1), ar_part.data()); },
        [&] { simd.encode_ar(av, 0, mc, kc, C(1), ar_part.data()); }, s, v);
    print_row(prec, "encode_ar", trans ? "T" : "N", s, v);
  }
  return identical;
}

}  // namespace

int main() {
  const int reps = bench_reps();
  const index_t edge = env_long("FTGEMM_BENCH_SIZE", 192);

  std::printf("# packing & checksum engine, scalar vs dispatched (%s)\n",
              std::string(isa_name(select_isa())).c_str());
  std::printf("# claim: SIMD panels bit-identical to scalar (exit 1 "
              "otherwise); GB/s and speedups are reported, not bounded\n");
  std::printf("# edge=%lld reps=%d\n", (long long)edge, reps);
  print_provenance();
  std::printf("%-6s%-16s%8s%14s%14s%14s\n", "prec", "op", "trans",
              "scalar_GBs", "simd_GBs", "speedup");

  bool ok = run_precision<double, double>("f64", edge, reps);
  ok = run_precision<float, float>("f32", edge, reps) && ok;
  ok = run_precision<bf16_t, float>("bf16", edge, reps) && ok;
  ok = run_precision<fp16_t, float>("fp16", edge, reps) && ok;
  std::fflush(stdout);
  return ok ? 0 : 1;
}
