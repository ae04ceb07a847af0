// Macro kernel: sweep an (mlen x nlen) block of C with the micro-kernel.
//
// "A macro kernel updates an MC x NC submatrix of C by iterating over A
// (MR x KC) multiplying B (KC x NR) in micro kernels" (§2.1).  Interior
// tiles go straight to the register kernels; edge tiles are computed into a
// zeroed scratch tile and merged scalar-wise (with checksum accumulation in
// the FT instantiation, so the reference checksums cover every element of C
// exactly once per panel).
//
// One template serves every kernel set: the float sets (ComputeT panels,
// C as accumulator) and the int8 set (u8/s8 quad-packed panels, an int32
// accumulator, int64 reference checksums).  The packed depth granularity
// comes from KernelSet::kDepthQuad (1 for float, 4 for int8).
#pragma once

#include <algorithm>
#include <cstddef>

#include "kernels/microkernel.hpp"

namespace ftgemm {

/// Elements of one packed tile of `tile` rows (A~) or columns (B~) over
/// depth klen, padding included (depth rounds up to KS::kDepthQuad).
template <typename KS>
[[nodiscard]] inline index_t packed_tile_elems(index_t klen, index_t tile) {
  constexpr index_t q = KS::kDepthQuad;
  return (klen + q - 1) / q * q * tile;
}

/// Packed-buffer offset of live element (r, kk) of a panel packed in
/// `tile`-wide tiles over depth klen: r is the row (A~) or column (B~).
template <typename KS>
[[nodiscard]] inline std::size_t packed_offset(index_t r, index_t kk,
                                               index_t klen, index_t tile) {
  constexpr index_t q = KS::kDepthQuad;
  return std::size_t((r / tile) * packed_tile_elems<KS>(klen, tile) +
                     (kk / q) * (tile * q) + (r % tile) * q + kk % q);
}

/// Run the macro kernel over C(0..mlen, 0..nlen) starting at `c`.
///
/// `a_packed`: mlen rows packed in MR panels, depth kc (see pack_a).
/// `b_packed`: nlen cols packed in NR panels, depth kc (see pack_b).
/// With FT=true, `cr_ref` / `cc_ref` (indexed from this block's first
/// column / row) accumulate the reference checksums of the *final* C values;
/// cr_ref is lane-strided (ks.cr_lanes slots per column, summed at
/// verification time).
template <bool FT, typename KS, typename PA, typename PB, typename Acc,
          typename Ref>
void run_macro_block(const KS& ks, index_t mlen, index_t nlen, index_t kc,
                     const PA* a_packed, const PB* b_packed, Acc* c,
                     index_t ldc, Ref* cr_ref, Ref* cc_ref) {
  const index_t mr = ks.mr;
  const index_t nr = ks.nr;
  const index_t a_tile = packed_tile_elems<KS>(kc, mr);
  const index_t b_tile = packed_tile_elems<KS>(kc, nr);
  alignas(64) Acc tile[KS::kMaxTile];

  for (index_t jt = 0; jt < nlen; jt += nr) {
    const index_t ncols = std::min(nr, nlen - jt);
    const PB* b_panel = b_packed + (jt / nr) * b_tile;
    for (index_t it = 0; it < mlen; it += mr) {
      const index_t nrows = std::min(mr, mlen - it);
      const PA* a_panel = a_packed + (it / mr) * a_tile;
      Acc* c_tile = c + it + jt * ldc;

      if (nrows == mr && ncols == nr) {
        if constexpr (FT) {
          ks.ft(kc, a_panel, b_panel, c_tile, ldc,
                cr_ref + jt * ks.cr_lanes, cc_ref + it);
        } else {
          ks.base(kc, a_panel, b_panel, c_tile, ldc);
        }
        continue;
      }

      // Edge tile: the kernel always computes a full MR x NR update, so run
      // it on a zeroed scratch tile and merge only the valid region.
      std::fill_n(tile, mr * nr, Acc(0));
      ks.base(kc, a_panel, b_panel, tile, mr);
      for (index_t jj = 0; jj < ncols; ++jj) {
        Ref colsum = Ref(0);
        for (index_t ii = 0; ii < nrows; ++ii) {
          const Acc v = c_tile[ii + jj * ldc] + tile[ii + jj * mr];
          c_tile[ii + jj * ldc] = v;
          if constexpr (FT) {
            colsum += v;
            cc_ref[it + ii] += v;
          }
        }
        if constexpr (FT) cr_ref[(jt + jj) * ks.cr_lanes] += colsum;
      }
    }
  }
}

}  // namespace ftgemm
