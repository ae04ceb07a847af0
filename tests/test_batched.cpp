// Batched (FT-)GEMM subsystem tests.
//
// Invariants: (1) every batch member matches the naive-loop oracle in both
// Ori and FT modes, for both the pointer-array and strided forms and both
// precisions; (2) faults injected into any single batch member are detected
// and corrected, and only that member's report shows them; (3) degenerate
// inputs (empty batch, zero-dim problems) are well-defined no-ops; (4) the
// BatchReport aggregation equals the sum of the per-problem reports; (5) the
// scheduler's forced inter/intra modes both produce correct results.
#include <gtest/gtest.h>

#include <vector>

#include "core/gemm_batched.hpp"
#include "inject/campaign.hpp"
#include "inject/injectors.hpp"
#include "test_common.hpp"

namespace ftgemm {
namespace {

using testing::gemm_tolerance;

/// One strided batch of random problems plus its naive-loop reference.
template <typename T>
struct BatchProblem {
  index_t m, n, k, batch;
  index_t sa, sb, sc;  ///< element strides between consecutive problems
  Matrix<T> a, b, c, ref;

  BatchProblem(index_t m_, index_t n_, index_t k_, index_t batch_,
               std::uint64_t seed = 11)
      : m(m_), n(n_), k(k_), batch(batch_), sa(m_ * k_), sb(k_ * n_),
        sc(m_ * n_), a(m, k * batch), b(k, n * batch), c(m, n * batch),
        ref(m, n * batch) {
    a.fill_random(seed);
    b.fill_random(seed + 1);
    c.fill_random(seed + 2);
    ref = c.clone();
    for (index_t p = 0; p < batch; ++p) naive_one(p);
  }

  void naive_one(index_t p) {
    if constexpr (sizeof(T) == 8) {
      baseline::naive_dgemm(Trans::kNoTrans, Trans::kNoTrans, m, n, k, T(1),
                            a.data() + p * sa, m, b.data() + p * sb, k,
                            T(0.5), ref.data() + p * sc, m);
    } else {
      baseline::naive_sgemm(Trans::kNoTrans, Trans::kNoTrans, m, n, k, T(1),
                            a.data() + p * sa, m, b.data() + p * sb, k,
                            T(0.5), ref.data() + p * sc, m);
    }
  }

  /// Worst |C - ref| over batch member p.
  double member_err(const Matrix<T>& got, index_t p) const {
    double worst = 0.0;
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        worst = std::max(worst, std::abs(double(got(i, p * n + j)) -
                                         double(ref(i, p * n + j))));
    return worst;
  }

  /// Pointer arrays into the strided storage (for the array-of-pointers API).
  std::vector<const T*> aptrs() const {
    std::vector<const T*> v;
    for (index_t p = 0; p < batch; ++p) v.push_back(a.data() + p * sa);
    return v;
  }
  std::vector<const T*> bptrs() const {
    std::vector<const T*> v;
    for (index_t p = 0; p < batch; ++p) v.push_back(b.data() + p * sb);
    return v;
  }
  std::vector<T*> cptrs(Matrix<T>& cm) const {
    std::vector<T*> v;
    for (index_t p = 0; p < batch; ++p) v.push_back(cm.data() + p * sc);
    return v;
  }
};

template <typename T>
class BatchedGemmTyped : public ::testing::Test {};
using Precisions = ::testing::Types<float, double>;
TYPED_TEST_SUITE(BatchedGemmTyped, Precisions);

TYPED_TEST(BatchedGemmTyped, StridedMatchesNaiveLoop) {
  using T = TypeParam;
  BatchProblem<T> bp(37, 29, 53, 12);
  Matrix<T> c = bp.c.clone();

  const BatchReport rep = gemm_strided_batched<T>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, bp.m, bp.n, bp.k,
      T(1), bp.a.data(), bp.m, bp.sa, bp.b.data(), bp.k, bp.sb, T(0.5),
      c.data(), bp.m, bp.sc, bp.batch);

  EXPECT_EQ(rep.problems, bp.batch);
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.per_problem.empty()) << "Ori carries no per-problem FT data";
  const double tol = gemm_tolerance<T>(bp.k);
  for (index_t p = 0; p < bp.batch; ++p)
    EXPECT_LE(bp.member_err(c, p), tol) << "batch member " << p;
}

TYPED_TEST(BatchedGemmTyped, PointerArrayMatchesNaiveLoop) {
  using T = TypeParam;
  BatchProblem<T> bp(24, 45, 32, 9);
  Matrix<T> c = bp.c.clone();
  const auto ap = bp.aptrs();
  const auto bptr = bp.bptrs();
  const auto cp = bp.cptrs(c);

  const BatchReport rep = gemm_batched<T>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, bp.m, bp.n, bp.k,
      T(1), ap.data(), bp.m, bptr.data(), bp.k, T(0.5), cp.data(), bp.m,
      bp.batch);

  EXPECT_EQ(rep.problems, bp.batch);
  const double tol = gemm_tolerance<T>(bp.k);
  for (index_t p = 0; p < bp.batch; ++p)
    EXPECT_LE(bp.member_err(c, p), tol) << "batch member " << p;
}

TYPED_TEST(BatchedGemmTyped, FtMatchesNaiveLoopAndReportsClean) {
  using T = TypeParam;
  BatchProblem<T> bp(33, 41, 64, 8);
  Matrix<T> c = bp.c.clone();

  const BatchReport rep = ft_gemm_strided_batched<T>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, bp.m, bp.n, bp.k,
      T(1), bp.a.data(), bp.m, bp.sa, bp.b.data(), bp.k, bp.sb, T(0.5),
      c.data(), bp.m, bp.sc, bp.batch);

  EXPECT_EQ(rep.problems, bp.batch);
  EXPECT_EQ(index_t(rep.per_problem.size()), bp.batch);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.errors_detected, 0);
  EXPECT_EQ(rep.faulty_problems, 0);
  const double tol = gemm_tolerance<T>(bp.k);
  for (index_t p = 0; p < bp.batch; ++p)
    EXPECT_LE(bp.member_err(c, p), tol) << "batch member " << p;
}

TEST(BatchedGemm, ForcedSchedulesBothCorrect) {
  for (const BatchSchedule sched :
       {BatchSchedule::kInter, BatchSchedule::kIntra}) {
    BatchProblem<double> bp(31, 27, 40, 7);
    Matrix<double> c = bp.c.clone();
    BatchOptions opts;
    opts.schedule = sched;
    const BatchReport rep = ft_gemm_strided_batched<double>(
        Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, bp.m, bp.n,
        bp.k, 1.0, bp.a.data(), bp.m, bp.sa, bp.b.data(), bp.k, bp.sb, 0.5,
        c.data(), bp.m, bp.sc, bp.batch, opts);
    EXPECT_EQ(rep.inter_batch, sched == BatchSchedule::kInter);
    EXPECT_TRUE(rep.clean());
    const double tol = gemm_tolerance<double>(bp.k);
    for (index_t p = 0; p < bp.batch; ++p)
      EXPECT_LE(bp.member_err(c, p), tol)
          << "schedule=" << int(sched) << " member " << p;
  }
}

TEST(BatchedGemm, AutoPrefersInterForSmallProblems) {
  BatchProblem<double> bp(32, 32, 32, 6);
  Matrix<double> c = bp.c.clone();
  const BatchReport rep = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, bp.m, bp.n, bp.k,
      1.0, bp.a.data(), bp.m, bp.sa, bp.b.data(), bp.k, bp.sb, 0.5, c.data(),
      bp.m, bp.sc, bp.batch);
  EXPECT_TRUE(rep.inter_batch) << "32^3 problems are far below the cutoff";
}

TEST(BatchedGemm, RowMajorStridedMatchesColMajor) {
  // A row-major batch is the transpose view of a column-major one; run both
  // and compare member-by-member.
  const index_t m = 19, n = 23, k = 31, batch = 5;
  BatchProblem<double> bp(m, n, k, batch);
  Matrix<double> c_cm = bp.c.clone();
  gemm_strided_batched<double>(Layout::kColMajor, Trans::kNoTrans,
                               Trans::kNoTrans, m, n, k, 1.0, bp.a.data(), m,
                               bp.sa, bp.b.data(), k, bp.sb, 0.5, c_cm.data(),
                               m, bp.sc, batch);

  // The same memory image read row-major is C^T = B^T A^T per member, so a
  // row-major call with swapped operands and (n, m) must canonicalize onto
  // the identical column-major core invocation — results agree bitwise.
  Matrix<double> c_rm = bp.c.clone();
  gemm_strided_batched<double>(Layout::kRowMajor, Trans::kNoTrans,
                               Trans::kNoTrans, n, m, k, 1.0, bp.b.data(), k,
                               bp.sb, bp.a.data(), m, bp.sa, 0.5, c_rm.data(),
                               m, bp.sc, batch);
  EXPECT_DOUBLE_EQ(max_abs_diff(c_cm, c_rm), 0.0);
}

TEST(BatchedGemm, EmptyBatchAndZeroDimsAreNoOps) {
  BatchOptions opts;
  // batch = 0: nothing to do, report empty.
  const BatchReport r0 = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 8, 8, 8, 1.0,
      nullptr, 8, 0, nullptr, 8, 0, 0.0, nullptr, 8, 0, 0, opts);
  EXPECT_EQ(r0.problems, 0);
  EXPECT_TRUE(r0.clean());
  EXPECT_TRUE(r0.per_problem.empty());

  // m = 0 / n = 0: every member is an empty problem; C untouched.
  const BatchReport rm = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 0, 8, 8, 1.0,
      nullptr, 1, 0, nullptr, 8, 0, 0.0, nullptr, 1, 0, 3, opts);
  EXPECT_EQ(rm.problems, 3);
  EXPECT_TRUE(rm.clean());
  EXPECT_EQ(index_t(rm.per_problem.size()), 3);

  // k = 0 degenerates to C *= beta, still per-member.
  Matrix<double> c(4, 4 * 2);
  c.fill(2.0);
  const BatchReport rk = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, 4, 4, 0, 1.0,
      nullptr, 4, 0, nullptr, 1, 0, 0.5, c.data(), 4, 16, 2, opts);
  EXPECT_EQ(rk.problems, 2);
  EXPECT_TRUE(rk.clean());
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = 0; i < c.rows(); ++i) EXPECT_DOUBLE_EQ(c(i, j), 1.0);
}

TEST(BatchedGemm, InjectedFaultsCorrectedOnTargetMember) {
  // Aim a deterministic burst of faults at each member in turn; the batch
  // must come out correct every time and only the target's report may show
  // detections.
  const index_t m = 48, n = 40, k = 96, batch = 6;
  BatchProblem<double> bp(m, n, k, batch, 21);
  const double tol = gemm_tolerance<double>(k);

  for (index_t target = 0; target < batch; ++target) {
    Matrix<double> c = bp.c.clone();
    CountInjector injector(3, 1000 + std::uint64_t(target), 8.0);
    BatchOptions opts;
    opts.base.injector = &injector;
    opts.inject_problem = target;

    const BatchReport rep = ft_gemm_strided_batched<double>(
        Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0,
        bp.a.data(), m, bp.sa, bp.b.data(), k, bp.sb, 0.5, c.data(), m,
        bp.sc, batch, opts);

    EXPECT_TRUE(rep.clean()) << "target " << target;
    EXPECT_EQ(injector.injected_count(), 3u) << "target " << target;
    EXPECT_EQ(rep.errors_corrected, 3) << "target " << target;
    EXPECT_EQ(rep.faulty_problems, 1) << "target " << target;
    for (index_t p = 0; p < batch; ++p) {
      EXPECT_LE(bp.member_err(c, p), tol)
          << "target " << target << " member " << p;
      const FtReport& r = rep.per_problem[std::size_t(p)];
      if (p == target) {
        EXPECT_EQ(r.errors_corrected, 3) << "target " << target;
      } else {
        EXPECT_EQ(r.errors_detected, 0)
            << "fault leaked to member " << p << " (target " << target << ")";
      }
    }
  }
}

TEST(BatchedGemm, SharedInjectorForcesIntraAndHitsEveryMember) {
  // inject_problem < 0 attaches the injector to all members; the scheduler
  // must serialize (inter_batch == false) and every member still corrects.
  const index_t m = 40, n = 40, k = 80, batch = 4;
  BatchProblem<double> bp(m, n, k, batch, 33);
  Matrix<double> c = bp.c.clone();

  CountInjector injector(2, 77, 6.0);  // 2 faults per *member* call
  BatchOptions opts;
  opts.base.injector = &injector;
  opts.inject_problem = -1;

  const BatchReport rep = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0,
      bp.a.data(), m, bp.sa, bp.b.data(), k, bp.sb, 0.5, c.data(), m, bp.sc,
      batch, opts);

  EXPECT_FALSE(rep.inter_batch) << "shared injector must serialize the batch";
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(injector.injected_count(), std::size_t(2 * batch));
  EXPECT_EQ(rep.errors_corrected, 2 * batch);
  EXPECT_EQ(rep.faulty_problems, batch);
  const double tol = gemm_tolerance<double>(k);
  for (index_t p = 0; p < batch; ++p)
    EXPECT_LE(bp.member_err(c, p), tol) << "member " << p;
}

TEST(BatchedGemm, SharedCorrectionLogForcesIntra) {
  // The Options contract forbids appending to one correction log from
  // concurrent GEMMs; a log shared across all members (inject_problem < 0)
  // must therefore serialize the batch even without an injector.
  BatchProblem<double> bp(16, 16, 16, 4);
  Matrix<double> c = bp.c.clone();
  std::vector<CorrectionRecord> log;
  BatchOptions opts;
  opts.base.correction_log = &log;
  opts.inject_problem = -1;
  const BatchReport rep = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, bp.m, bp.n, bp.k,
      1.0, bp.a.data(), bp.m, bp.sa, bp.b.data(), bp.k, bp.sb, 0.5, c.data(),
      bp.m, bp.sc, bp.batch, opts);
  EXPECT_FALSE(rep.inter_batch) << "shared correction log must serialize";
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(log.empty()) << "fault-free run corrects nothing";
}

TEST(BatchedGemm, ReportAggregationMatchesPerProblemSum) {
  const index_t m = 32, n = 32, k = 64, batch = 5;
  BatchProblem<double> bp(m, n, k, batch, 55);
  Matrix<double> c = bp.c.clone();
  CountInjector injector(4, 5, 7.0);
  BatchOptions opts;
  opts.base.injector = &injector;
  opts.inject_problem = 2;

  const BatchReport rep = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0,
      bp.a.data(), m, bp.sa, bp.b.data(), k, bp.sb, 0.5, c.data(), m, bp.sc,
      batch, opts);

  std::int64_t det = 0, cor = 0, unc = 0;
  index_t faulty = 0, dirty = 0;
  for (const FtReport& r : rep.per_problem) {
    det += r.errors_detected;
    cor += r.errors_corrected;
    unc += r.uncorrectable_panels;
    if (r.errors_detected > 0) ++faulty;
    if (!r.clean()) ++dirty;
  }
  EXPECT_EQ(rep.errors_detected, det);
  EXPECT_EQ(rep.errors_corrected, cor);
  EXPECT_EQ(rep.uncorrectable_panels, unc);
  EXPECT_EQ(rep.faulty_problems, faulty);
  EXPECT_EQ(rep.dirty_problems, dirty);
  EXPECT_GE(rep.elapsed_seconds, 0.0);
}

TEST(BatchedGemm, ForcedInterWithSharedInjectorIsWellDefined) {
  // Regression for the former limitation: an injector attached to every
  // member (inject_problem < 0) used to silently downgrade a forced kInter
  // to intra-batch, because the begin_call/plan_block protocol is per-call
  // stateful.  The dispatcher now honors kInter and serializes the injected
  // members' execution instead — the protocol must come out exact: every
  // member's faults planned, applied, detected, and corrected, with no
  // leakage between members.
  const index_t m = 40, n = 36, k = 80, batch = 6;
  BatchProblem<double> bp(m, n, k, batch, 91);
  Matrix<double> c = bp.c.clone();

  CountInjector injector(2, 123, 6.0);  // 2 faults per member call
  BatchOptions opts;
  opts.base.injector = &injector;
  opts.inject_problem = -1;
  opts.schedule = BatchSchedule::kInter;

  const BatchReport rep = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, m, n, k, 1.0,
      bp.a.data(), m, bp.sa, bp.b.data(), k, bp.sb, 0.5, c.data(), m, bp.sc,
      batch, opts);

  EXPECT_TRUE(rep.inter_batch) << "a forced kInter schedule is honored";
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(injector.injected_count(), std::size_t(2 * batch));
  EXPECT_EQ(rep.errors_corrected, 2 * batch);
  EXPECT_EQ(rep.faulty_problems, batch);
  const double tol = gemm_tolerance<double>(k);
  for (index_t p = 0; p < batch; ++p) {
    EXPECT_LE(bp.member_err(c, p), tol) << "member " << p;
    EXPECT_EQ(rep.per_problem[std::size_t(p)].errors_corrected, 2)
        << "member " << p << " saw another member's schedule";
  }
}

TEST(BatchedGemm, AutoStillSerializesSharedSinks) {
  // kAuto keeps preferring intra-batch for shared sinks (whole-batch
  // serialization keeps all cores busy on the one running problem).
  BatchProblem<double> bp(24, 24, 32, 4);
  Matrix<double> c = bp.c.clone();
  CountInjector injector(1, 9, 5.0);
  BatchOptions opts;
  opts.base.injector = &injector;
  opts.inject_problem = -1;
  const BatchReport rep = ft_gemm_strided_batched<double>(
      Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, bp.m, bp.n, bp.k,
      1.0, bp.a.data(), bp.m, bp.sa, bp.b.data(), bp.k, bp.sb, 0.5, c.data(),
      bp.m, bp.sc, bp.batch, opts);
  EXPECT_FALSE(rep.inter_batch);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.errors_corrected, bp.batch);
}

TEST(BatchedCampaign, ForcedInterCampaignIsReliable) {
  // The serving-regime campaign under inter-batch scheduling: one random
  // target per run, concurrent untargeted members, protocol still exact.
  CampaignConfig config;
  config.entry = CampaignEntry::kBatched;
  config.size = 48;
  config.units = 8;
  config.trials = 5;
  config.faults = 2;
  config.seed = 77;
  config.schedule = BatchSchedule::kInter;
  const CampaignResult res = run_campaign(config);
  EXPECT_EQ(res.injected, std::int64_t(config.trials * config.faults));
  EXPECT_EQ(res.errors_corrected,
            std::int64_t(config.trials * config.faults));
  EXPECT_EQ(res.flagged, 0);
  EXPECT_TRUE(res.reliable());
}

TEST(BatchedCampaign, RandomTargetCampaignIsReliable) {
  CampaignConfig config;
  config.entry = CampaignEntry::kBatched;
  config.size = 64;
  config.units = 8;
  config.trials = 6;
  config.faults = 3;
  config.seed = 2024;
  const CampaignResult res = run_campaign(config);
  EXPECT_EQ(res.injected, std::int64_t(config.trials * config.faults));
  EXPECT_EQ(res.errors_corrected,
            std::int64_t(config.trials * config.faults));
  EXPECT_EQ(res.flagged, 0);
  EXPECT_TRUE(res.reliable());
  EXPECT_LE(res.max_rel_error, 1e-9);
}

}  // namespace
}  // namespace ftgemm
