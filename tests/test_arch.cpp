// Unit tests: CPU feature detection and ISA dispatch policy.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "arch/cpu_features.hpp"
#include "arch/isa.hpp"

namespace ftgemm {
namespace {

TEST(CpuFeatures, DetectionIsStable) {
  const CpuFeatures& a = cpu_features();
  const CpuFeatures& b = cpu_features();
  EXPECT_EQ(&a, &b) << "detection must be cached";
}

TEST(CpuFeatures, Avx512ImpliesAvx2Support) {
  const CpuFeatures& f = cpu_features();
  if (f.has_avx512_kernel_support()) {
    EXPECT_TRUE(f.has_avx2_kernel_support())
        << "no real CPU has AVX-512 without AVX2+FMA";
  }
}

TEST(CpuFeatures, FeatureStringNonEmpty) {
  EXPECT_FALSE(cpu_feature_string().empty());
}

TEST(Isa, ParseRoundTrips) {
  EXPECT_EQ(parse_isa("avx512"), Isa::kAvx512);
  EXPECT_EQ(parse_isa("avx2"), Isa::kAvx2);
  EXPECT_EQ(parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(parse_isa("nonsense"), Isa::kScalar);
  EXPECT_EQ(parse_isa(isa_name(Isa::kAvx512)), Isa::kAvx512);
  EXPECT_EQ(parse_isa(isa_name(Isa::kAvx2)), Isa::kAvx2);
  EXPECT_EQ(parse_isa(isa_name(Isa::kScalar)), Isa::kScalar);
}

TEST(Isa, SelectNeverExceedsHardware) {
  const Isa best = select_isa();
  const CpuFeatures& f = cpu_features();
  if (best == Isa::kAvx512) {
    EXPECT_TRUE(f.has_avx512_kernel_support());
  }
  if (best == Isa::kAvx2) {
    EXPECT_TRUE(f.has_avx2_kernel_support());
  }
}

// The Isa.EnvOverride* tests set FTGEMM_FORCE_ISA themselves, so they
// restore any value inherited from the outer environment afterwards (the CI
// ISA legs export it for the whole ctest run): the rest of this binary
// still runs under the leg's forced ISA.
class ForceIsaScope {
 public:
  ForceIsaScope() {
    if (const char* v = std::getenv("FTGEMM_FORCE_ISA")) saved_ = v;
  }
  ~ForceIsaScope() {
    if (saved_) {
      ::setenv("FTGEMM_FORCE_ISA", saved_->c_str(), 1);
    } else {
      ::unsetenv("FTGEMM_FORCE_ISA");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST(Isa, EnvOverrideDowngrades) {
  const ForceIsaScope restore;
  ::setenv("FTGEMM_FORCE_ISA", "scalar", 1);
  EXPECT_EQ(select_isa(), Isa::kScalar);
  ::setenv("FTGEMM_FORCE_ISA", "avx2", 1);
  const Isa got = select_isa();
  if (cpu_features().has_avx2_kernel_support()) {
    EXPECT_EQ(got, Isa::kAvx2);
  } else {
    EXPECT_EQ(got, Isa::kScalar);
  }
}

TEST(Isa, EnvOverrideCannotUpgradeBeyondHardware) {
  const ForceIsaScope restore;
  ::setenv("FTGEMM_FORCE_ISA", "avx512", 1);
  const Isa got = select_isa();
  if (!cpu_features().has_avx512_kernel_support()) {
    EXPECT_NE(got, Isa::kAvx512);
  }
}

}  // namespace
}  // namespace ftgemm
