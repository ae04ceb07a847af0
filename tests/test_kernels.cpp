// Unit tests: micro-kernels.
//
// Every (ISA, type) kernel is validated against a straightforward reference
// computed from the same packed panels: C_tile += Apanel * Bpanel.  The FT
// variants must additionally produce exact register-level reference
// checksums (column sums lane-strided by cr_lanes, row sums direct).
#include <gtest/gtest.h>

#include <vector>

#include "arch/cpu_features.hpp"
#include "kernels/microkernel.hpp"
#include "util/aligned_buffer.hpp"
#include "util/rng.hpp"

namespace ftgemm {
namespace {

template <typename T>
std::vector<KernelSet<T>> runnable_kernel_sets() {
  std::vector<KernelSet<T>> sets;
  if constexpr (sizeof(T) == 8) {
    sets.push_back(scalar_kernels_f64());
    if (cpu_features().has_avx2_kernel_support())
      sets.push_back(avx2_kernels_f64());
    if (cpu_features().has_avx512_kernel_support())
      sets.push_back(avx512_kernels_f64());
  } else {
    sets.push_back(scalar_kernels_f32());
    if (cpu_features().has_avx2_kernel_support())
      sets.push_back(avx2_kernels_f32());
    if (cpu_features().has_avx512_kernel_support())
      sets.push_back(avx512_kernels_f32());
  }
  return sets;
}

/// Dense reference for one packed tile update.
template <typename T>
void reference_tile(index_t mr, index_t nr, index_t kc, const T* a,
                    const T* b, std::vector<T>& c, index_t ldc) {
  for (index_t p = 0; p < kc; ++p)
    for (index_t j = 0; j < nr; ++j)
      for (index_t i = 0; i < mr; ++i)
        c[std::size_t(i + j * ldc)] += a[p * mr + i] * b[p * nr + j];
}

template <typename T>
class KernelTest : public ::testing::TestWithParam<index_t> {};

using KernelTestF64 = KernelTest<double>;
using KernelTestF32 = KernelTest<float>;

template <typename T>
void run_base_kernel_case(index_t kc) {
  for (const KernelSet<T>& ks : runnable_kernel_sets<T>()) {
    const index_t mr = ks.mr, nr = ks.nr;
    AlignedBuffer<T> a(static_cast<std::size_t>(mr * std::max<index_t>(kc, 1)));
    AlignedBuffer<T> b(static_cast<std::size_t>(nr * std::max<index_t>(kc, 1)));
    Xoshiro256 rng(index_t(kc) * 131 + mr);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = T(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = T(rng.uniform(-1, 1));

    const index_t ldc = mr + 3;  // deliberately unaligned leading dimension
    std::vector<T> c(static_cast<std::size_t>(ldc * nr));
    for (auto& v : c) v = T(rng.uniform(-1, 1));
    std::vector<T> ref = c;

    ks.base(kc, a.data(), b.data(), c.data(), ldc);
    reference_tile<T>(mr, nr, kc, a.data(), b.data(), ref, ldc);

    const double tol = 1e-5 * (sizeof(T) == 8 ? 1e-8 : 1.0) * double(kc + 1);
    for (index_t j = 0; j < nr; ++j)
      for (index_t i = 0; i < mr; ++i)
        EXPECT_NEAR(double(c[std::size_t(i + j * ldc)]),
                    double(ref[std::size_t(i + j * ldc)]), tol)
            << "isa=" << isa_name(ks.isa) << " kc=" << kc << " (" << i << ","
            << j << ")";
  }
}

template <typename T>
void run_ft_kernel_case(index_t kc) {
  for (const KernelSet<T>& ks : runnable_kernel_sets<T>()) {
    const index_t mr = ks.mr, nr = ks.nr, lanes = ks.cr_lanes;
    AlignedBuffer<T> a(static_cast<std::size_t>(mr * std::max<index_t>(kc, 1)));
    AlignedBuffer<T> b(static_cast<std::size_t>(nr * std::max<index_t>(kc, 1)));
    Xoshiro256 rng(index_t(kc) * 733 + nr);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = T(rng.uniform(-1, 1));
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = T(rng.uniform(-1, 1));

    const index_t ldc = mr;
    std::vector<T> c_ft(static_cast<std::size_t>(ldc * nr));
    for (auto& v : c_ft) v = T(rng.uniform(-1, 1));
    std::vector<T> c_base = c_ft;

    std::vector<T> cr_ref(static_cast<std::size_t>(nr * lanes), T(0));
    std::vector<T> cc_ref(static_cast<std::size_t>(mr), T(0));
    // Seed the checksum accumulators to verify the kernel accumulates
    // rather than overwrites.
    cr_ref[0] = T(2);
    cc_ref[0] = T(3);

    ks.ft(kc, a.data(), b.data(), c_ft.data(), ldc, cr_ref.data(),
          cc_ref.data());
    ks.base(kc, a.data(), b.data(), c_base.data(), ldc);

    // 1) FT kernel computes the same C as the base kernel, bitwise.
    for (std::size_t i = 0; i < c_ft.size(); ++i)
      EXPECT_EQ(c_ft[i], c_base[i]) << "isa=" << isa_name(ks.isa);

    // 2) Reference checksums equal the actual sums of the final tile.
    const double tol = double(std::numeric_limits<T>::epsilon()) *
                       double(kc + mr + nr) * 64.0;
    for (index_t j = 0; j < nr; ++j) {
      double lane_sum = 0.0;
      for (index_t l = 0; l < lanes; ++l)
        lane_sum += double(cr_ref[std::size_t(j * lanes + l)]);
      double want = (j == 0) ? 2.0 : 0.0;
      for (index_t i = 0; i < mr; ++i)
        want += double(c_ft[std::size_t(i + j * ldc)]);
      EXPECT_NEAR(lane_sum, want, tol * std::max(1.0, std::abs(want)))
          << "isa=" << isa_name(ks.isa) << " col " << j;
    }
    for (index_t i = 0; i < mr; ++i) {
      double want = (i == 0) ? 3.0 : 0.0;
      for (index_t j = 0; j < nr; ++j)
        want += double(c_ft[std::size_t(i + j * ldc)]);
      EXPECT_NEAR(double(cc_ref[std::size_t(i)]), want,
                  tol * std::max(1.0, std::abs(want)))
          << "isa=" << isa_name(ks.isa) << " row " << i;
    }
  }
}

TEST_P(KernelTestF64, BaseMatchesReference) {
  run_base_kernel_case<double>(GetParam());
}
TEST_P(KernelTestF64, FtMatchesBaseAndChecksums) {
  run_ft_kernel_case<double>(GetParam());
}
TEST_P(KernelTestF32, BaseMatchesReference) {
  run_base_kernel_case<float>(GetParam());
}
TEST_P(KernelTestF32, FtMatchesBaseAndChecksums) {
  run_ft_kernel_case<float>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(KcSweep, KernelTestF64,
                         ::testing::Values<index_t>(1, 2, 3, 8, 17, 64, 256,
                                                    333));
INSTANTIATE_TEST_SUITE_P(KcSweep, KernelTestF32,
                         ::testing::Values<index_t>(1, 2, 3, 8, 17, 64, 256,
                                                    333));

class Avx512ShapeSweep : public ::testing::TestWithParam<index_t> {};

TEST_P(Avx512ShapeSweep, AlternativeTileHeightsMatchReference) {
  if (!cpu_features().has_avx512_kernel_support())
    GTEST_SKIP() << "no AVX-512";
  const index_t mr = GetParam();
  const KernelSet<double> ks = avx512_kernels_f64();
  ASSERT_EQ(ks.mr, mr);
  const index_t kc = 97;
  AlignedBuffer<double> a(std::size_t(ks.mr * kc));
  AlignedBuffer<double> b(std::size_t(ks.nr * kc));
  Xoshiro256 rng(mr);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform(-1, 1);
  std::vector<double> c(std::size_t(ks.mr * ks.nr), 0.25);
  std::vector<double> ref = c;
  std::vector<double> c_ft = c;
  std::vector<double> cr(std::size_t(ks.nr * ks.cr_lanes), 0.0);
  std::vector<double> cc(std::size_t(ks.mr), 0.0);

  ks.base(kc, a.data(), b.data(), c.data(), ks.mr);
  reference_tile<double>(ks.mr, ks.nr, kc, a.data(), b.data(), ref, ks.mr);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i], 1e-12) << "mr=" << mr;

  ks.ft(kc, a.data(), b.data(), c_ft.data(), ks.mr, cr.data(), cc.data());
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_EQ(c_ft[i], c[i]) << "FT must be bitwise equal, mr=" << mr;
  for (index_t i = 0; i < ks.mr; ++i) {
    double want = 0.0;
    for (index_t j = 0; j < ks.nr; ++j)
      want += c_ft[std::size_t(i + j * ks.mr)];
    EXPECT_NEAR(cc[std::size_t(i)], want, 1e-11) << "mr=" << mr;
  }
}

INSTANTIATE_TEST_SUITE_P(TileHeights, Avx512ShapeSweep,
                         ::testing::Values<index_t>(16));

TEST(KernelDispatch, ReturnsRequestedIsa) {
  EXPECT_EQ(get_kernel_set<double>(Isa::kScalar).isa, Isa::kScalar);
  EXPECT_EQ(get_kernel_set<double>(Isa::kAvx2).isa, Isa::kAvx2);
  EXPECT_EQ(get_kernel_set<double>(Isa::kAvx512).isa, Isa::kAvx512);
  EXPECT_EQ(get_kernel_set<float>(Isa::kAvx512).isa, Isa::kAvx512);
}

TEST(KernelDispatch, AllKernelPointersNonNull) {
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const auto kd = get_kernel_set<double>(isa);
    EXPECT_NE(kd.base, nullptr);
    EXPECT_NE(kd.ft, nullptr);
    const auto kf = get_kernel_set<float>(isa);
    EXPECT_NE(kf.base, nullptr);
    EXPECT_NE(kf.ft, nullptr);
  }
}

}  // namespace
}  // namespace ftgemm
