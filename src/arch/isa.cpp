#include "arch/isa.hpp"

#include "arch/cpu_features.hpp"
#include "util/env.hpp"

namespace ftgemm {

Isa parse_isa(std::string_view name) {
  if (name == "avx512") return Isa::kAvx512;
  if (name == "avx2") return Isa::kAvx2;
  return Isa::kScalar;
}

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512: return "avx512";
    case Isa::kAvx2: return "avx2";
    case Isa::kScalar: return "scalar";
  }
  return "scalar";
}

Isa select_isa() {
  const CpuFeatures& f = cpu_features();
  Isa best = Isa::kScalar;
  if (f.has_avx2_kernel_support()) best = Isa::kAvx2;
  if (f.has_avx512_kernel_support()) best = Isa::kAvx512;

  if (const auto env = env_string("FTGEMM_FORCE_ISA")) {
    const Isa wanted = parse_isa(*env);
    // Never dispatch above hardware capability, even if asked to.
    if (wanted == Isa::kAvx512 && best != Isa::kAvx512) return best;
    if (wanted == Isa::kAvx2 && best == Isa::kScalar) return best;
    return wanted;
  }
  return best;
}

}  // namespace ftgemm
