// FT-GEMM — umbrella header.
//
// Reproduction of "FT-GEMM: A Fault Tolerant High Performance GEMM
// Implementation on x86 CPUs" (Wu et al., HPDC '23).  See README.md for a
// tour and docs/DESIGN.md for the architecture.
//
//   #include <ftgemm.hpp>
//
//   ftgemm::Matrix<double> A(m, k), B(k, n), C(m, n);
//   ...fill...
//   ftgemm::FtReport rep = ftgemm::ft_dgemm(
//       ftgemm::Layout::kColMajor, ftgemm::Trans::kNoTrans,
//       ftgemm::Trans::kNoTrans, m, n, k, 1.0, A.data(), A.ld(),
//       B.data(), B.ld(), 0.0, C.data(), C.ld());
//   assert(rep.clean());
#pragma once

#include "arch/cpu_features.hpp"   // IWYU pragma: export
#include "arch/isa.hpp"            // IWYU pragma: export
#include "baseline/naive_gemm.hpp" // IWYU pragma: export
#include "baseline/unfused_abft.hpp" // IWYU pragma: export
#include "blocking/plan.hpp"       // IWYU pragma: export
#include "core/gemm.hpp"           // IWYU pragma: export
#include "core/gemm_batched.hpp"   // IWYU pragma: export
#include "core/operand_cache.hpp"  // IWYU pragma: export
#include "core/options.hpp"        // IWYU pragma: export
#include "core/plan.hpp"           // IWYU pragma: export
#include "inject/injectors.hpp"    // IWYU pragma: export
#include "serve/service.hpp"       // IWYU pragma: export
#include "util/matrix.hpp"         // IWYU pragma: export
#include "util/stats.hpp"          // IWYU pragma: export
#include "util/timer.hpp"          // IWYU pragma: export
