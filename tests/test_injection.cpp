// Fault-injection tests: the heart of the reproduction.
//
// Property under test (§3.2): with online ABFT operating, injected compute
// errors are detected at the end of their rank-KC panel, located by the
// row/column mismatch intersection, and corrected — the final C equals the
// fault-free result to rounding error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "blocking/plan.hpp"
#include "core/gemm_i8.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"
#include "util/timer.hpp"

namespace ftgemm {
namespace {

using testing::GemmCase;
using testing::Problem;
using testing::gemm_tolerance;
using testing::random_i8_matrix;
using testing::reference_result;

/// Run ft_dgemm under a given injector and return (report, result-vs-ref).
struct InjectionRun {
  FtReport report;
  double rel_err;
  std::size_t injected;
};

InjectionRun run_with_injector(const GemmCase& cs, FaultInjector& inj,
                               std::uint64_t seed = 7) {
  Problem<double> p(cs, seed);
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  Options opts;
  opts.injector = &inj;
  InjectionRun out;
  out.report = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                        cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                        cs.beta, c.data(), c.ld(), opts);
  out.rel_err = max_rel_diff(c, ref);
  out.injected = inj.injected_count();
  return out;
}

// ---------------------------------------------------------------------------
// Exhaustive single-error property sweep: an error in any panel, any
// quadrant of C, positive or negative, large or small-but-above-threshold,
// must be corrected exactly.
// ---------------------------------------------------------------------------

class SingleErrorSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(SingleErrorSweep, DetectedLocatedCorrected) {
  const auto [panel, corner, delta] = GetParam();
  const GemmCase cs{130, 120, 600};  // KC=256ish -> >= 2 panels, edge tiles
  const BlockingPlan plan = make_plan(select_isa(), 8);
  const int num_panels = int((cs.k + plan.kc - 1) / plan.kc);
  if (panel >= num_panels) GTEST_SKIP() << "plan has fewer panels";

  const index_t i = corner % 2 == 0 ? 3 : cs.m - 2;
  const index_t j = corner / 2 == 0 ? 5 : cs.n - 3;
  DeterministicInjector inj({{InjectionKind::kAddDelta, panel, i, j, delta, 0}});

  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(run.injected, 1u);
  EXPECT_EQ(inj.undelivered_count(), 0u) << "schedule must be ground truth";
  EXPECT_EQ(run.report.errors_detected, 1);
  EXPECT_EQ(run.report.errors_corrected, 1);
  EXPECT_TRUE(run.report.clean());
  // ABFT correction recovers the element to checksum rounding accuracy,
  // which scales with the *injected* magnitude (the delta estimate is a
  // difference of sums containing the corrupted value).
  const double corr_tol =
      std::max(gemm_tolerance<double>(cs.k),
               1e-12 * std::max(1.0, std::abs(delta)));
  EXPECT_LE(run.rel_err, corr_tol);
}

INSTANTIATE_TEST_SUITE_P(
    PanelsCornersDeltas, SingleErrorSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1.0, -1.0, 1e6, -1e-4, 1e-6)),
    [](const auto& info) {
      const double delta = std::get<2>(info.param);
      std::string d = std::to_string(int(std::log10(std::abs(delta))));
      for (char& ch : d)
        if (ch == '-') ch = 'm';
      return "panel" + std::to_string(std::get<0>(info.param)) + "_corner" +
             std::to_string(std::get<1>(info.param)) +
             (delta > 0 ? "_pos" : "_neg") + "_e" + d;
    });

// ---------------------------------------------------------------------------
// Multi-error patterns within one panel.
// ---------------------------------------------------------------------------

TEST(MultiError, DistinctRowsAndColumns) {
  const GemmCase cs{96, 96, 96};
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 10, 20, 2.0, 0},
      {InjectionKind::kAddDelta, 0, 30, 40, -3.0, 0},
      {InjectionKind::kAddDelta, 0, 50, 60, 0.5, 0},
  });
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(inj.undelivered_count(), 0u) << "schedule must be ground truth";
  EXPECT_EQ(run.report.errors_corrected, 3);
  EXPECT_TRUE(run.report.clean());
  EXPECT_LE(run.rel_err, gemm_tolerance<double>(cs.k));
}

TEST(MultiError, BurstInOneRow) {
  // A corrupted packed-A element manifests as several errors in one row.
  const GemmCase cs{64, 64, 64};
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 7, 3, 1.0, 0},
      {InjectionKind::kAddDelta, 0, 7, 12, 2.0, 0},
      {InjectionKind::kAddDelta, 0, 7, 40, -4.0, 0},
  });
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(inj.undelivered_count(), 0u) << "schedule must be ground truth";
  EXPECT_EQ(run.report.errors_corrected, 3);
  EXPECT_TRUE(run.report.clean());
  EXPECT_LE(run.rel_err, gemm_tolerance<double>(cs.k));
}

TEST(MultiError, BurstInOneColumn) {
  const GemmCase cs{64, 64, 64};
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 3, 9, 1.5, 0},
      {InjectionKind::kAddDelta, 0, 21, 9, -2.5, 0},
      {InjectionKind::kAddDelta, 0, 45, 9, 8.0, 0},
  });
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(inj.undelivered_count(), 0u) << "schedule must be ground truth";
  EXPECT_EQ(run.report.errors_corrected, 3);
  EXPECT_TRUE(run.report.clean());
  EXPECT_LE(run.rel_err, gemm_tolerance<double>(cs.k));
}

TEST(MultiError, ErrorsInDifferentPanelsAreIndependent) {
  const GemmCase cs{80, 80, 600};
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 5, 5, 1.0, 0},
      {InjectionKind::kAddDelta, 1, 6, 6, -2.0, 0},
      {InjectionKind::kAddDelta, 2, 7, 7, 3.0, 0},
  });
  const BlockingPlan plan = make_plan(select_isa(), 8);
  const int num_panels = int((cs.k + plan.kc - 1) / plan.kc);
  if (num_panels < 3) GTEST_SKIP();
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(inj.undelivered_count(), 0u) << "schedule must be ground truth";
  EXPECT_EQ(run.report.errors_corrected, 3);
  EXPECT_TRUE(run.report.clean());
  EXPECT_LE(run.rel_err, gemm_tolerance<double>(cs.k));
}

TEST(MultiError, SameElementTwiceInOnePanelMergesIntoOneCorrection) {
  const GemmCase cs{64, 64, 64};
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 11, 13, 1.0, 0},
      {InjectionKind::kAddDelta, 0, 11, 13, 2.0, 0},
  });
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(inj.undelivered_count(), 0u);
  // The two deltas sum in both checksums: one located error of +3.
  EXPECT_EQ(run.report.errors_corrected, 1);
  EXPECT_TRUE(run.report.clean());
  EXPECT_LE(run.rel_err, gemm_tolerance<double>(cs.k));
}

TEST(MultiError, CancellingPairInRowIsAtLeastDetected) {
  // +d and -d in the same row cancel in Cc but not in Cr: no mismatched
  // row crosses the mismatched columns, so the panel must be flagged
  // uncorrectable — silent corruption is the one forbidden outcome.
  const GemmCase cs{64, 64, 64};
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 9, 10, 5.0, 0},
      {InjectionKind::kAddDelta, 0, 9, 30, -5.0, 0},
  });
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(inj.undelivered_count(), 0u);
  EXPECT_EQ(run.report.uncorrectable_panels, 1);
  EXPECT_FALSE(run.report.clean());
}

TEST(MultiError, OutOfGeometryScheduleEntriesAreCountedUndelivered) {
  // A record whose panel lies beyond the problem's panel count can never be
  // delivered; pre-fix it was silently skipped, making injected_count an
  // overstatement of ground truth.  undelivered_count must expose it.
  const GemmCase cs{64, 64, 64};
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 9, 10, 5.0, 0},
      {InjectionKind::kAddDelta, 99, 9, 30, -5.0, 0},  // no such panel
  });
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(inj.undelivered_count(), 1u);
  EXPECT_EQ(run.report.errors_corrected, 1);
  EXPECT_TRUE(run.report.clean());
}

// ---------------------------------------------------------------------------
// Patterns whose checksums several assignments of the deltas balance.
//
// Checksums say which rows and columns are wrong, not which crossings.
// The repair recomputes the crossings at every beta, so the call must end
// clean and equal to the fault-free call, at beta = 0 and 1 alike.
// ---------------------------------------------------------------------------

struct CrossPattern {
  std::string name;
  std::vector<InjectionRecord> errors;  // all in panel 0
};

std::vector<CrossPattern> cross_patterns() {
  const auto at = [](index_t i, index_t j, double delta) {
    return InjectionRecord{InjectionKind::kAddDelta, 0, i, j, delta, 0};
  };
  return {
      {"equal_pair", {at(10, 10, 1.0), at(30, 30, 1.0)}},
      {"equal_pair_crossed", {at(10, 30, 1.0), at(30, 10, 1.0)}},
      {"equal_triple", {at(10, 50, 2.0), at(30, 30, 2.0), at(50, 10, 2.0)}},
      {"peel_misled", {at(10, 20, 1.0), at(10, 40, 0.75), at(30, 40, 1.0)}},
      {"row_pair", {at(4, 10, 1.0), at(4, 11, 2.0)}},
      {"row_and_column_bursts",
       {at(2, 7, 1.0), at(2, 8, 4.0), at(5, 9, -2.0), at(6, 9, -3.0)}},
      {"bursts_plus_singles",
       {at(1, 10, 7.0), at(4, 20, 1.0), at(4, 21, 2.0), at(9, 30, -1.25)}},
  };
}

TEST(CrossTable, RecomputedOrFlaggedNeverSilent) {
  constexpr index_t kN = 128;
  const Matrix<std::int8_t> a8 = random_i8_matrix(kN, kN, 71);
  const Matrix<std::int8_t> b8 = random_i8_matrix(kN, kN, 72);
  const auto run_i8 = [&](FaultInjector* inj, Matrix<float>& c) {
    Options opts;
    opts.threads = 1;
    opts.injector = inj;
    return ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
                      kN, kN, kN, 1.0f, a8.data(), kN, b8.data(), kN, 0.0f,
                      c.data(), kN, {}, opts);
  };
  Matrix<float> want8(kN, kN);
  ASSERT_TRUE(run_i8(nullptr, want8).clean());

  for (const CrossPattern& pattern : cross_patterns()) {
    SCOPED_TRACE(pattern.name);
    for (const double beta : {0.0, 1.0}) {
      SCOPED_TRACE(beta == 0.0 ? "ft_dgemm beta=0" : "ft_dgemm beta=1");
      GemmCase cs{kN, kN, kN};
      cs.beta = beta;
      DeterministicInjector inj(pattern.errors);
      const InjectionRun run = run_with_injector(cs, inj);
      ASSERT_EQ(inj.undelivered_count(), 0u);
      EXPECT_TRUE(run.report.clean());
      EXPECT_GE(run.report.errors_corrected, 1);
      EXPECT_LE(run.rel_err, gemm_tolerance<double>(cs.k));
    }
    SCOPED_TRACE("ft_gemm_i8");
    DeterministicInjector inj(pattern.errors);
    Matrix<float> got(kN, kN);
    const FtReport rep = run_i8(&inj, got);
    ASSERT_EQ(inj.undelivered_count(), 0u);
    EXPECT_TRUE(rep.clean());
    EXPECT_GE(rep.errors_corrected, 1);
    EXPECT_EQ(max_abs_diff(got, want8), 0.0) << "int8 C must be bit-exact";
  }
}

// ---------------------------------------------------------------------------
// Never silent under small repeated deltas.  CountInjector magnitude 2.0
// gives deltas in [1, 3): on int8 they round to the integers 1..3, so equal
// deltas meet in one panel all the time; on float they are distinct but
// still land several to a row or column.  A clean report must mean C equals
// the fault-free call, bit for bit on int8.  The float calls run at beta = 0
// and at beta = 1 over one C0, restored before every call.  One thread: the
// locator is what is under test, and hundreds of calls must not wait on
// barriers of an oversubscribed host.
// ---------------------------------------------------------------------------

TEST(NeverSilent, Int8SmallIntegerDeltas) {
  constexpr index_t kN = 256;
  const Matrix<std::int8_t> a = random_i8_matrix(kN, kN, 81);
  const Matrix<std::int8_t> b = random_i8_matrix(kN, kN, 82);
  const auto run = [&](FaultInjector* inj, Matrix<float>& c) {
    Options opts;
    opts.threads = 1;
    opts.injector = inj;
    return ft_gemm_i8(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans,
                      kN, kN, kN, 1.0f, a.data(), kN, b.data(), kN, 0.0f,
                      c.data(), kN, {}, opts);
  };
  Matrix<float> want(kN, kN), got(kN, kN);
  ASSERT_TRUE(run(nullptr, want).clean());
  for (const int errors : {2, 3, 4, 6}) {
    for (std::uint64_t s = 0; s < 100; ++s) {
      CountInjector inj(errors, 1000 + s, 2.0);
      const FtReport rep = run(&inj, got);
      EXPECT_GE(rep.errors_detected, 1);
      if (rep.clean()) {
        EXPECT_EQ(max_abs_diff(got, want), 0.0)
            << "silent: E=" << errors << " seed=" << 1000 + s;
      }
    }
  }
}

template <typename S>
void float_small_deltas_never_silent() {
  constexpr index_t kN = 256;
  Matrix<S> a(kN, kN), b(kN, kN);
  a.fill_random(91);
  b.fill_random(92);
  Matrix<float> c0(kN, kN);
  c0.fill_random(93);
  const auto run = [&](FaultInjector* inj, float beta, Matrix<float>& c) {
    Options opts;
    opts.threads = 1;
    opts.injector = inj;
    c = c0.clone();
    if constexpr (std::is_same_v<S, float>) {
      return ft_sgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, kN,
                      kN, kN, 1.0f, a.data(), kN, b.data(), kN, beta,
                      c.data(), kN, opts);
    } else {
      return ft_gemm_bf16(Layout::kColMajor, Trans::kNoTrans,
                          Trans::kNoTrans, kN, kN, kN, 1.0f, a.data(), kN,
                          b.data(), kN, beta, c.data(), kN, opts);
    }
  };
  for (const float beta : {0.0f, 1.0f}) {
    Matrix<float> want, got;
    ASSERT_TRUE(run(nullptr, beta, want).clean());
    for (const int errors : {2, 4}) {
      for (std::uint64_t s = 0; s < 300; ++s) {
        CountInjector inj(errors, s, 2.0);
        const FtReport rep = run(&inj, beta, got);
        if (rep.clean()) {
          EXPECT_LE(max_rel_diff(got, want), gemm_tolerance<float>(kN))
              << "silent: beta=" << beta << " E=" << errors << " seed=" << s;
        }
      }
    }
  }
}

TEST(NeverSilent, Fp32SmallDeltas) { float_small_deltas_never_silent<float>(); }

TEST(NeverSilent, Bf16SmallDeltas) {
  float_small_deltas_never_silent<bf16_t>();
}

TEST(NeverSilent, EqualDeltasInOnePanelAreBoundedInTime) {
  // E equal +1.0 deltas at distinct rows and columns of one panel.  Small E
  // is recomputed; a cross over the recompute budget is flagged at once.
  // Either way the call costs a small multiple of a clean call; the slack
  // absorbs preemption on a loaded host, not a search.
  const GemmCase cs{256, 256, 256};
  const Problem<double> p(cs);
  const Matrix<double> ref = reference_result(cs, p);
  const auto run = [&](FaultInjector* inj, FtReport& rep) {
    Options opts;
    opts.threads = 1;
    opts.injector = inj;
    Matrix<double> c = p.c.clone();
    const WallTimer timer;
    rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k,
                   cs.alpha, p.a.data(), p.a.ld(), p.b.data(), p.b.ld(),
                   cs.beta, c.data(), c.ld(), opts);
    const double seconds = timer.seconds();
    if (rep.clean()) {
      EXPECT_LE(max_rel_diff(c, ref), gemm_tolerance<double>(cs.k));
    }
    return seconds;
  };
  FtReport rep;
  double clean_s = 1e30;
  for (int r = 0; r < 3; ++r) clean_s = std::min(clean_s, run(nullptr, rep));
  for (const int errors : {16, 48, 64, 96}) {
    std::vector<InjectionRecord> schedule;
    for (int e = 0; e < errors; ++e) {
      const index_t at = (e * 37) % cs.m;  // distinct rows and columns
      schedule.push_back({InjectionKind::kAddDelta, 0, at, (at * 5 + 3) % cs.n,
                          1.0, 0});
    }
    DeterministicInjector inj(schedule);
    const double seconds = run(&inj, rep);
    EXPECT_LE(seconds, 10.0 * clean_s + 0.5) << "E=" << errors;
    if (errors == 16) {
      EXPECT_TRUE(rep.clean());
      EXPECT_EQ(rep.errors_corrected, errors);
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-flip fault model.
// ---------------------------------------------------------------------------

/// Value of the struck element when the flip lands.
enum class Struck {
  kRandom,    ///< random operands: |C(i,j)| < 1, every flip stays finite
  kOneToTwo,  ///< C(i,j) in (1, 2): bit 62 sets the all-ones exponent -> NaN
  kOne,       ///< C(i,j) == 1.0 exactly: bit 62 gives +Inf
};

/// Forwards to `inner` during the first call only: a transient fault that
/// a re-execution does not meet again.
class FirstCallOnly final : public FaultInjector {
 public:
  explicit FirstCallOnly(FaultInjector& inner) : inner_(inner) {}
  void begin_call(std::int64_t m, std::int64_t n, std::int64_t k,
                  int panels) override {
    if (calls_++ == 0) inner_.begin_call(m, n, k, panels);
  }
  void plan_block(const BlockContext& ctx,
                  std::vector<InjectionRecord>& out) override {
    if (calls_ == 1) inner_.plan_block(ctx, out);
  }

 private:
  FaultInjector& inner_;
  int calls_ = 0;
};

bool all_finite(const Matrix<double>& c) {
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = 0; i < c.rows(); ++i)
      if (!std::isfinite(c(i, j))) return false;
  return true;
}

class BitflipSweep
    : public ::testing::TestWithParam<std::tuple<int, Struck, bool>> {};

TEST_P(BitflipSweep, HighBitsCorrected) {
  const auto [bit, struck, fast] = GetParam();
  constexpr index_t kI = 17, kJ = 23;
  GemmCase cs{64, 64, 64};
  if (struck != Struck::kRandom) {
    // beta = 1 over C in [1.25, 1.75] plus an alpha*A*B of magnitude at
    // most 64/512 keeps every entry, the struck one included, in (1, 2).
    cs.alpha = 1.0 / 512.0;
    cs.beta = 1.0;
  }
  Problem<double> p(cs);
  if (struck != Struck::kRandom) {
    for (index_t j = 0; j < cs.n; ++j)
      for (index_t i = 0; i < cs.m; ++i)
        p.c(i, j) = 1.5 + 0.25 * p.c(i, j);
  }
  if (struck == Struck::kOne) {
    // A zero row of A leaves row kI of C at beta*C exactly.
    for (index_t kk = 0; kk < cs.k; ++kk) p.a(kI, kk) = 0.0;
    p.c(kI, kJ) = 1.0;
  }
  const Matrix<double> ref = reference_result(cs, p);

  DeterministicInjector inj({{InjectionKind::kFlipBit, 0, kI, kJ, 0.0, bit}});
  Options opts;
  opts.small_fast_path = fast;
  opts.injector = &inj;
  Matrix<double> c = p.c.clone();
  const FtReport rep = ft_dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n,
                                cs.k, cs.alpha, p.a.data(), p.a.ld(),
                                p.b.data(), p.b.ld(), cs.beta, c.data(),
                                c.ld(), opts);
  ASSERT_EQ(inj.injected_count(), 1u);
  // The one forbidden outcome: a clean report over a non-finite C.
  if (!all_finite(c)) {
    EXPECT_FALSE(rep.clean()) << "silent non-finite C";
  }

  if (struck == Struck::kRandom) {
    if (std::abs(inj.log()[0].delta) > 1e-4) {
      EXPECT_EQ(rep.errors_corrected, 1) << "bit " << bit;
      EXPECT_TRUE(rep.clean());
    }
    // Whether corrected (a large flip, rebuilt by the recompute) or below
    // threshold (low mantissa bit, numerically harmless by the tolerance
    // argument), the result must stay near the reference.
    EXPECT_LE(max_rel_diff(c, ref),
              std::max(gemm_tolerance<double>(cs.k), 1e-9));
    return;
  }
  // A non-finite element is rebuilt from the kept beta*C0 and A and B in
  // the call itself: no flag, so a reliable call never re-executes.
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.errors_corrected, 1);
  EXPECT_TRUE(all_finite(c));
  EXPECT_LE(max_rel_diff(c, ref), gemm_tolerance<double>(cs.k));

  Matrix<double> healed = p.c.clone();
  const FtReport rel = ft_dgemm_reliable(
      Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, p.a.data(),
      p.a.ld(), p.b.data(), p.b.ld(), cs.beta, healed.data(), healed.ld(),
      opts);
  EXPECT_TRUE(rel.clean());
  EXPECT_EQ(rel.errors_corrected, 1);
  EXPECT_EQ(rel.retries, 0);
  EXPECT_TRUE(all_finite(healed));
  EXPECT_LE(max_rel_diff(healed, ref), gemm_tolerance<double>(cs.k));
}

INSTANTIATE_TEST_SUITE_P(
    Bits, BitflipSweep,
    ::testing::Combine(::testing::Values(62, 60, 55, 52, 40, 30),
                       ::testing::Values(Struck::kRandom),
                       ::testing::Values(true, false)),
    [](const auto& info) {
      return "bit" + std::to_string(std::get<0>(info.param)) +
             (std::get<2>(info.param) ? "" : "_general");
    });

INSTANTIATE_TEST_SUITE_P(
    NonFinite, BitflipSweep,
    ::testing::Combine(::testing::Values(62),
                       ::testing::Values(Struck::kOneToTwo, Struck::kOne),
                       ::testing::Values(true, false)),
    [](const auto& info) {
      return std::string(std::get<1>(info.param) == Struck::kOne ? "inf"
                                                                 : "nan") +
             (std::get<2>(info.param) ? "_fast" : "_general");
    });

// ---------------------------------------------------------------------------
// Stochastic injectors.
// ---------------------------------------------------------------------------

TEST(CountInjectorTest, TwentyErrorsPerRunAllCorrected) {
  // The paper's Fig 2(c) regime: 20 injected errors per multiplication.
  const GemmCase cs{256, 256, 512};
  CountInjector inj(20, 4242, 3.0);
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_EQ(run.injected, 20u);
  EXPECT_EQ(inj.undelivered_count(), 0u)
      << "every scheduled error must have landed in an executed block";
  EXPECT_TRUE(run.report.clean());
  EXPECT_GE(run.report.errors_corrected, 18)
      << "collisions may merge corrections, but nearly all are distinct";
  EXPECT_LE(run.rel_err, gemm_tolerance<double>(cs.k));
}

TEST(CountInjectorTest, RepeatedCallsUseFreshSchedules) {
  CountInjector inj(4, 1, 1.0);
  const GemmCase cs{64, 64, 64};
  const InjectionRun r1 = run_with_injector(cs, inj);
  inj.clear_log();
  const InjectionRun r2 = run_with_injector(cs, inj);
  EXPECT_TRUE(r1.report.clean());
  EXPECT_TRUE(r2.report.clean());
}

TEST(RateInjectorTest, InjectsRoughlyAtConfiguredRate) {
  // A very high rate guarantees injections even on a fast machine.  The
  // wall-clock rate is load-dependent: on a contended CI core the call runs
  // long enough to pile more errors into one panel than the recompute budget
  // admits.  The library's contract for that regime is *flagged, not
  // silent* — an unclean report excuses an off result, a clean report never
  // does (ft_dgemm_reliable exists to retry flagged runs).  A flag costs no
  // search, so a slow locator cannot feed more errors back into the call.
  const GemmCase cs{192, 192, 512};
  RateInjector inj(/*errors_per_minute=*/60.0 * 1e4, 7, 2.0);
  const InjectionRun run = run_with_injector(cs, inj);
  EXPECT_GT(run.injected, 0u) << "rate injector should have fired";
  if (run.report.clean()) {
    EXPECT_LE(run.rel_err, gemm_tolerance<double>(cs.k))
        << "clean report must mean a correct result";
  } else {
    EXPECT_GT(run.report.uncorrectable_panels, 0)
        << "unclean report must say which panels failed";
  }
}

// ---------------------------------------------------------------------------
// Failure modes and recovery paths.
// ---------------------------------------------------------------------------

TEST(OriUnderInjection, SilentlyCorrupts) {
  // Sanity check of the experiment design: without FT the same injection
  // visibly corrupts the result.
  const GemmCase cs{96, 96, 96};
  Problem<double> p(cs);
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  DeterministicInjector inj({{InjectionKind::kAddDelta, 0, 1, 1, 100.0, 0}});
  Options opts;
  opts.injector = &inj;
  dgemm(Layout::kColMajor, cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha,
        p.a.data(), p.a.ld(), p.b.data(), p.b.ld(), cs.beta, c.data(),
        c.ld(), opts);
  EXPECT_GT(max_rel_diff(c, ref), 1.0);
}

TEST(ReliableWrapper, RetriesUncorrectablePattern) {
  // The cancelling pair is uncorrectable in-flight; ft_dgemm_reliable must
  // roll back and re-run.  The injector fires on every call, so retries
  // exhaust and the final report stays dirty — but C must never silently
  // hold a wrong result without the report saying so.
  const GemmCase cs{64, 64, 64};
  Problem<double> p(cs);
  Matrix<double> c = p.c.clone();
  DeterministicInjector inj({
      {InjectionKind::kAddDelta, 0, 9, 10, 5.0, 0},
      {InjectionKind::kAddDelta, 0, 9, 30, -5.0, 0},
  });
  Options opts;
  opts.injector = &inj;
  const FtReport rep = ft_dgemm_reliable(Layout::kColMajor, cs.ta, cs.tb,
                                         cs.m, cs.n, cs.k, cs.alpha,
                                         p.a.data(), p.a.ld(), p.b.data(),
                                         p.b.ld(), cs.beta, c.data(), c.ld(),
                                         opts, /*max_retries=*/2);
  EXPECT_EQ(rep.retries, 2);
  EXPECT_FALSE(rep.clean());
}

/// ft_dgemm_reliable on 64^3, C random or (`nan_c`) all NaN, under a
/// cancelling pair that strikes the first call only: the pair leaves row
/// 9's sum intact, so the first attempt flags its panel on either repair
/// path, the retry runs clean, and C must be the fault-free result.  At
/// beta != 0 that holds only if the retry starts from the caller's C, not
/// from the flagged attempt's.
void expect_transient_fault_heals(double beta, bool nan_c) {
  GemmCase cs{64, 64, 64};
  cs.beta = beta;
  Problem<double> p(cs);
  if (nan_c) p.c.fill(std::numeric_limits<double>::quiet_NaN());
  const Matrix<double> ref = reference_result(cs, p);
  Matrix<double> c = p.c.clone();
  DeterministicInjector pair({
      {InjectionKind::kAddDelta, 0, 9, 10, 5.0, 0},
      {InjectionKind::kAddDelta, 0, 9, 30, -5.0, 0},
  });
  FirstCallOnly inj(pair);
  Options opts;
  opts.injector = &inj;
  const FtReport rep = ft_dgemm_reliable(Layout::kColMajor, cs.ta, cs.tb,
                                         cs.m, cs.n, cs.k, cs.alpha,
                                         p.a.data(), p.a.ld(), p.b.data(),
                                         p.b.ld(), cs.beta, c.data(), c.ld(),
                                         opts, 2);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.retries, 1);
  EXPECT_TRUE(all_finite(c));
  EXPECT_LE(max_rel_diff(c, ref), gemm_tolerance<double>(cs.k));
}

TEST(ReliableWrapper, OneTransientFaultHealsOnRetry) {
  expect_transient_fault_heals(0.0, false);
}

TEST(ReliableWrapper, OneTransientFaultHealsOnRetryAtBetaOne) {
  expect_transient_fault_heals(1.0, false);
}

TEST(ReliableWrapper, BetaZeroRetryOverNanFilledC) {
  // At beta = 0 no snapshot is taken: the retry writes over C as it stands.
  expect_transient_fault_heals(0.0, true);
}

TEST(InjectionLog, RecordsGroundTruthPositionsAndDeltas) {
  const GemmCase cs{64, 64, 64};
  DeterministicInjector inj({{InjectionKind::kAddDelta, 0, 12, 34, 1.5, 0}});
  run_with_injector(cs, inj);
  const auto log = inj.log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].i, 12);
  EXPECT_EQ(log[0].j, 34);
  EXPECT_DOUBLE_EQ(log[0].delta, 1.5);
}

TEST(ApplyCorruption, BitflipReturnsExactDelta) {
  double v = 3.25;
  const double orig = v;
  InjectionRecord rec;
  rec.kind = InjectionKind::kFlipBit;
  rec.bit = 62;
  const double delta = apply_corruption(v, rec);
  // For exponent flips the tiny original is below the ulp of the delta, so
  // orig + delta only reproduces v to rounding of the larger magnitude.
  EXPECT_NEAR(orig + delta, v,
              4e-16 * std::max({std::abs(orig), std::abs(v), 1.0}));
  // Flipping the same bit back restores the value.
  apply_corruption(v, rec);
  EXPECT_DOUBLE_EQ(v, orig);

  float f = -1.5f;
  rec.bit = 30;
  const double fdelta = apply_corruption(f, rec);
  EXPECT_NE(fdelta, 0.0);
}

}  // namespace
}  // namespace ftgemm
