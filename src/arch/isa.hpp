// Instruction-set selection for the GEMM kernels — one resolved Isa governs
// both the micro-kernels (get_kernel_set) and the packing & checksum engine
// (get_pack_set); the two are never mixed across levels.
#pragma once

#include <string_view>

namespace ftgemm {

enum class Isa {
  kScalar,  ///< portable C++ kernels, any x86-64
  kAvx2,    ///< 256-bit FMA kernels (Haswell+)
  kAvx512,  ///< 512-bit kernels (Skylake-SP / Cascade Lake+)
};

/// Best ISA supported by this machine, overridable with FTGEMM_FORCE_ISA
/// ("scalar" | "avx2" | "avx512"); an override above hardware capability is
/// clamped down to what the CPU can execute.
Isa select_isa();

/// Parse an ISA name; returns kScalar for unknown strings.
Isa parse_isa(std::string_view name);

std::string_view isa_name(Isa isa);

}  // namespace ftgemm
