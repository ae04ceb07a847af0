// Portable int8 kernels + the shared quantize-aware packers.
//
// Compiled WITHOUT SIMD flags on purpose (like pack_scalar.cpp): the
// routines here are the fallback executed on machines without AVX2, so they
// must never contain AVX encodings.  The packers here are the reference
// implementations of the single shared packed byte layout (see
// kernels/kernel_int8.hpp); pack_int8_avx2.cpp and kernel_int8_avx512.cpp
// accelerate the FT checksum passes but delegate every byte movement back
// here, so switching kernels via FTGEMM_FORCE_ISA never changes a packed
// byte, a checksum, or a result: the whole path is exact integer
// arithmetic, bit-identical across ISAs by construction.
//
// This TU also owns the int8 get_kernel_set/get_pack_set dispatch: the
// generic dispatcher in kernel_scalar.cpp routes mixed pairs through the
// ComputeT kernel set, which would be meaningless for int32 (there is no
// int32 float-style kernel set) — hence the explicit specializations.
#include "arch/cpu_features.hpp"
#include "kernels/microkernel.hpp"

namespace ftgemm {

namespace {

constexpr index_t kMrScalarI8 = 4;
constexpr index_t kNrScalarI8 = 4;

// ---------------------------------------------------------------------------
// Micro-kernels (4 x 4, quad-grouped operands, exact int32 accumulation).
// ---------------------------------------------------------------------------

template <bool FT>
void kernel_i8_scalar(index_t kc, const std::uint8_t* a, const std::int8_t* b,
                      std::int32_t* c, index_t ldc, std::int64_t* cr_ref,
                      std::int64_t* cc_ref) {
  const index_t kq = i8_kq(kc);
  std::int32_t acc[kNrScalarI8][kMrScalarI8] = {};
  for (index_t q = 0; q < kq; ++q) {
    const std::uint8_t* aq = a + q * (kMrScalarI8 * kI8KQuad);
    const std::int8_t* bq = b + q * (kNrScalarI8 * kI8KQuad);
    for (index_t j = 0; j < kNrScalarI8; ++j) {
      for (index_t i = 0; i < kMrScalarI8; ++i) {
        std::int32_t dot = 0;
        for (index_t t = 0; t < kI8KQuad; ++t) {
          dot += std::int32_t(aq[i * kI8KQuad + t]) *
                 std::int32_t(bq[j * kI8KQuad + t]);
        }
        acc[j][i] += dot;
      }
    }
  }
  // FT references accumulate the *updated* C values (like the float
  // kernels): every element is updated once per rank-KC panel, so the
  // per-panel references total to exact row/column sums of the current
  // accumulator, directly comparable with the cumulative predictions.
  for (index_t j = 0; j < kNrScalarI8; ++j) {
    std::int64_t colsum = 0;
    for (index_t i = 0; i < kMrScalarI8; ++i) {
      c[i + j * ldc] += acc[j][i];
      if constexpr (FT) {
        const std::int32_t v = c[i + j * ldc];
        cc_ref[i] += v;
        colsum += v;
      }
    }
    if constexpr (FT) cr_ref[j] += colsum;
  }
}

void kernel_i8_scalar_base(index_t kc, const std::uint8_t* a,
                           const std::int8_t* b, std::int32_t* c,
                           index_t ldc) {
  kernel_i8_scalar<false>(kc, a, b, c, ldc, nullptr, nullptr);
}

void kernel_i8_scalar_ft(index_t kc, const std::uint8_t* a,
                         const std::int8_t* b, std::int32_t* c, index_t ldc,
                         std::int64_t* cr_ref, std::int64_t* cc_ref) {
  kernel_i8_scalar<true>(kc, a, b, c, ldc, cr_ref, cc_ref);
}

// ---------------------------------------------------------------------------
// Packers (shared across ISAs; see the TU header).
// ---------------------------------------------------------------------------

// Pack op(A) into MR-tall biased-u8 quad tiles; optional fused arow
// (epilogue row sums).  The predicted Cc is encoded from the packed tiles
// afterwards (encode_cc), on cold calls and resident hits alike.
void pack_a_i8(const OperandView<std::int8_t>& a, index_t m0, index_t k0,
               index_t mlen, index_t klen, index_t mr, std::uint8_t* dst,
               std::int32_t* arow) {
  const index_t kq = i8_kq(klen);
  for (index_t it = 0; it < mlen; it += mr) {
    const index_t rows = mlen - it < mr ? mlen - it : mr;
    std::uint8_t* tile = dst + (it / mr) * (kq * kI8KQuad * mr);
    for (index_t q = 0; q < kq; ++q) {
      std::uint8_t* quad = tile + q * (mr * kI8KQuad);
      for (index_t i = 0; i < mr; ++i) {
        std::int32_t rsum = 0;
        for (index_t t = 0; t < kI8KQuad; ++t) {
          const index_t kk = q * kI8KQuad + t;
          std::uint8_t v = 0;
          if (i < rows && kk < klen) {
            v = bias_i8(a.at(m0 + it + i, k0 + kk));
            rsum += std::int32_t(v);
          }
          quad[i * kI8KQuad + t] = v;
        }
        if (i < rows && arow != nullptr) arow[m0 + it + i] += rsum;
      }
    }
  }
}

// Pack op(B) into NR-wide s8 quad tiles; optional fused bcol (epilogue
// column sums) and cr (predicted row checksum, needs ar).
template <bool FT>
void pack_b_i8_impl(const OperandView<std::int8_t>& b, index_t k0, index_t j0,
                    index_t klen, index_t nlen, index_t nr, std::int8_t* dst,
                    std::int32_t* bcol, const std::int32_t* ar,
                    std::int64_t* cr) {
  const index_t kq = i8_kq(klen);
  for (index_t jt = 0; jt < nlen; jt += nr) {
    const index_t cols = nlen - jt < nr ? nlen - jt : nr;
    std::int8_t* tile = dst + (jt / nr) * (kq * kI8KQuad * nr);
    for (index_t j = 0; j < nr; ++j) {
      std::int32_t bsum = 0;
      std::int64_t rsum = 0;
      for (index_t q = 0; q < kq; ++q) {
        std::int8_t* quad = tile + q * (nr * kI8KQuad);
        for (index_t t = 0; t < kI8KQuad; ++t) {
          const index_t kk = q * kI8KQuad + t;
          std::int8_t v = 0;
          if (j < cols && kk < klen) {
            v = b.at(k0 + kk, j0 + jt + j);
            bsum += std::int32_t(v);
            if constexpr (FT) rsum += std::int64_t(ar[kk]) * std::int64_t(v);
          }
          quad[j * kI8KQuad + t] = v;
        }
      }
      if (j < cols) {
        if (bcol != nullptr) bcol[j0 + jt + j] += bsum;
        if constexpr (FT) cr[j0 + jt + j] += rsum;
      }
    }
  }
}

void pack_b_i8(const OperandView<std::int8_t>& b, index_t k0, index_t j0,
               index_t klen, index_t nlen, index_t nr, std::int8_t* dst,
               std::int32_t* bcol) {
  pack_b_i8_impl<false>(b, k0, j0, klen, nlen, nr, dst, bcol, nullptr,
                        nullptr);
}

void pack_b_ft_i8(const OperandView<std::int8_t>& b, index_t k0, index_t j0,
                  index_t klen, index_t nlen, index_t nr, std::int8_t* dst,
                  std::int32_t* bcol, const std::int32_t* ar,
                  std::int64_t* cr) {
  pack_b_i8_impl<true>(b, k0, j0, klen, nlen, nr, dst, bcol, ar, cr);
}

// Panel checksum Bc from the packed panel (padding columns are zero bytes,
// so summing the full NR width of every tile is exact).
void reduce_bc_i8(const std::int8_t* b_packed, index_t klen, index_t nlen,
                  index_t nr, std::int32_t* bc) {
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kI8KQuad * nr;
  for (index_t kk = 0; kk < klen; ++kk) {
    const index_t q = kk / kI8KQuad;
    const index_t t = kk % kI8KQuad;
    std::int32_t sum = 0;
    for (index_t jt = 0; jt < nlen; jt += nr) {
      const std::int8_t* quad =
          b_packed + (jt / nr) * tile_bytes + q * (nr * kI8KQuad);
      for (index_t j = 0; j < nr; ++j) {
        sum += std::int32_t(quad[j * kI8KQuad + t]);
      }
    }
    bc[kk] = sum;
  }
}

// Biased column sums of op(A) straight from the operand (encode phase).
void encode_ar_i8(const OperandView<std::int8_t>& a, index_t i0, index_t ilen,
                  index_t k0, index_t klen, std::int32_t* ar) {
  for (index_t kk = 0; kk < klen; ++kk) {
    std::int32_t sum = 0;
    for (index_t i = 0; i < ilen; ++i) {
      sum += std::int32_t(bias_i8(a.at(i0 + i, k0 + kk)));
    }
    ar[kk] += sum;
  }
}

// Predicted-Cc update from a packed A~ slab.
void encode_cc_i8(const std::uint8_t* packed, index_t mlen, index_t klen,
                  index_t mr, const std::int32_t* bc, std::int64_t* cc) {
  const index_t kq = i8_kq(klen);
  const index_t tile_bytes = kq * kI8KQuad * mr;
  for (index_t it = 0; it < mlen; it += mr) {
    const index_t rows = mlen - it < mr ? mlen - it : mr;
    const std::uint8_t* tile = packed + (it / mr) * tile_bytes;
    for (index_t i = 0; i < rows; ++i) {
      std::int64_t csum = 0;
      for (index_t kk = 0; kk < klen; ++kk) {
        const index_t q = kk / kI8KQuad;
        const index_t t = kk % kI8KQuad;
        csum += std::int64_t(tile[q * (mr * kI8KQuad) + i * kI8KQuad + t]) *
                std::int64_t(bc[kk]);
      }
      cc[it + i] += csum;
    }
  }
}

}  // namespace

PackSet<std::int8_t, std::int32_t> scalar_pack_i8() {
  PackSet<std::int8_t, std::int32_t> p;
  p.pack_a = &pack_a_i8;
  p.pack_b = &pack_b_i8;
  p.pack_b_ft = &pack_b_ft_i8;
  p.reduce_bc = &reduce_bc_i8;
  p.encode_ar = &encode_ar_i8;
  p.encode_cc = &encode_cc_i8;
  p.isa = Isa::kScalar;
  return p;
}

KernelSet<std::int8_t, std::int32_t> scalar_kernels_i8() {
  KernelSet<std::int8_t, std::int32_t> ks;
  ks.base = &kernel_i8_scalar_base;
  ks.ft = &kernel_i8_scalar_ft;
  ks.mr = kMrScalarI8;
  ks.nr = kNrScalarI8;
  ks.cr_lanes = 1;
  ks.isa = Isa::kScalar;
  ks.pack = scalar_pack_i8();
  return ks;
}

template <>
PackSet<std::int8_t, std::int32_t> get_pack_set<std::int8_t, std::int32_t>(
    Isa /*isa*/) {
  // One packed layout, one (portable) packer family for every kernel ISA.
  return scalar_pack_i8();
}

template <>
KernelSet<std::int8_t, std::int32_t> get_kernel_set<std::int8_t,
                                                    std::int32_t>(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      // avx512_kernels_i8 itself clamps to the AVX2 emulation when the CPU
      // lacks AVX-512 VNNI (vpdpbusd), so an Isa::kAvx512 plan is valid on
      // every AVX-512 machine.
      return avx512_kernels_i8();
    case Isa::kAvx2:
      return avx2_kernels_i8();
    case Isa::kScalar:
      return scalar_kernels_i8();
  }
  return scalar_kernels_i8();
}

}  // namespace ftgemm
