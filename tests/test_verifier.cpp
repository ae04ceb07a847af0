// Unit tests: mismatch scanning and the delta rules of the error solver
// (the mutual-unique peel and the single-row / single-column line).  Every
// pattern these rules cannot pin to one assignment must come back unsolved;
// the executor-level table in test_injection.cpp covers what the driver
// then does with it.
#include <gtest/gtest.h>

#include <vector>

#include "abft/verifier.hpp"

namespace ftgemm {
namespace {

constexpr double kSlack = 1e-9;

std::vector<Mismatch> mm(std::initializer_list<Mismatch> list) {
  return std::vector<Mismatch>(list);
}

TEST(FindMismatches, ThresholdAndBaseOffset) {
  const double pred[5] = {1.0, 2.0, 3.0, 4.0, 5.0};
  const double ref[5] = {1.0, 2.5, 3.0, 3.2, 5.0 + 1e-12};
  std::vector<Mismatch> out;
  find_mismatches(pred, ref, 5, 1e-6, 100, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].idx, 101);
  EXPECT_DOUBLE_EQ(out[0].delta, 0.5);
  EXPECT_EQ(out[1].idx, 103);
  EXPECT_NEAR(out[1].delta, -0.8, 1e-12);
}

TEST(Solver, CleanPanelSolvesTrivially) {
  const SolveOutcome o = solve_error_assignment({}, {}, kSlack);
  EXPECT_TRUE(o.solved);
  EXPECT_TRUE(o.errors.empty());
}

TEST(Solver, SingleError) {
  const SolveOutcome o = solve_error_assignment(mm({{5, 2.5}}),
                                                mm({{9, 2.5}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 1u);
  EXPECT_EQ(o.errors[0].row, 5);
  EXPECT_EQ(o.errors[0].col, 9);
  EXPECT_DOUBLE_EQ(o.errors[0].delta, 2.5);
}

TEST(Solver, OneSidedMismatchIsUncorrectable) {
  EXPECT_FALSE(solve_error_assignment(mm({{5, 2.5}}), {}, kSlack).solved);
  EXPECT_FALSE(solve_error_assignment({}, mm({{9, 2.5}}), kSlack).solved);
}

TEST(Solver, DistinctRowsAndColumns) {
  // Errors at (1, 10)=+2, (3, 12)=-5, (7, 19)=+0.5.
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 2.0}, {3, -5.0}, {7, 0.5}}),
      mm({{10, 2.0}, {12, -5.0}, {19, 0.5}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 3u);
  for (const LocatedError& e : o.errors) {
    // Each located error pairs the row and column carrying the same delta.
    if (e.row == 1) { EXPECT_EQ(e.col, 10); EXPECT_NEAR(e.delta, 2.0, kSlack); }
    if (e.row == 3) { EXPECT_EQ(e.col, 12); EXPECT_NEAR(e.delta, -5.0, kSlack); }
    if (e.row == 7) { EXPECT_EQ(e.col, 19); EXPECT_NEAR(e.delta, 0.5, kSlack); }
  }
}

TEST(Solver, TwoErrorsSharingARow) {
  // Errors at (4, 10)=+1 and (4, 11)=+2: row 4 shows +3, columns show +1,+2.
  const SolveOutcome o = solve_error_assignment(
      mm({{4, 3.0}}), mm({{10, 1.0}, {11, 2.0}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 2u);
  EXPECT_EQ(o.errors[0].row, 4);
  EXPECT_EQ(o.errors[1].row, 4);
  EXPECT_NEAR(o.errors[0].delta + o.errors[1].delta, 3.0, kSlack);
}

TEST(Solver, TwoErrorsSharingAColumn) {
  // Errors at (4, 10)=+1 and (6, 10)=+2.
  const SolveOutcome o = solve_error_assignment(
      mm({{4, 1.0}, {6, 2.0}}), mm({{10, 3.0}}), kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 2u);
  EXPECT_EQ(o.errors[0].col, 10);
  EXPECT_EQ(o.errors[1].col, 10);
  EXPECT_NEAR(o.errors[0].delta + o.errors[1].delta, 3.0, kSlack);
}

TEST(Solver, MixedBurst) {
  // (2, 7)=+1, (2, 8)=+4, (5, 9)=-2: rows {2:+5, 5:-2}, cols {7:+1, 8:+4,
  // 9:-2}; the peel takes (5, 9), leaving the line of row 2.
  const SolveOutcome o = solve_error_assignment(
      mm({{2, 5.0}, {5, -2.0}}), mm({{7, 1.0}, {8, 4.0}, {9, -2.0}}),
      kSlack);
  ASSERT_TRUE(o.solved);
  EXPECT_EQ(o.errors.size(), 3u);
}

TEST(Solver, NoisyDeltasWithinSlackStillMatch) {
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 2.0 + 3e-10}}), mm({{9, 2.0 - 3e-10}}), kSlack);
  EXPECT_TRUE(o.solved);
}

TEST(Solver, InconsistentDeltasFail) {
  // Row says +2 but column says +5: no assignment explains both.
  const SolveOutcome o =
      solve_error_assignment(mm({{1, 2.0}}), mm({{9, 5.0}}), kSlack);
  EXPECT_FALSE(o.solved);
}

TEST(Solver, AmbiguousCrossPatternFails) {
  // Rows {1, 2}, cols {2.5, 0.5}: no row matches a column, and two rows and
  // two columns remain, which is no line.
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 1.0}, {2, 2.0}}), mm({{5, 2.5}, {6, 0.5}}), kSlack);
  EXPECT_FALSE(o.solved);
}

TEST(Solver, SymmetricPairingIsUnsolved) {
  // Rows {+1, +1}, cols {+1, +1}: errors at (1, 5) and (2, 6) or at (1, 6)
  // and (2, 5) give the same sums, and only one pairing is right.
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 1.0}, {2, 1.0}}), mm({{5, 1.0}, {6, 1.0}}), kSlack);
  EXPECT_FALSE(o.solved);
  EXPECT_TRUE(o.errors.empty());
}

TEST(Solver, ManyEqualDeltasAreUnsolved) {
  // 30 rows/cols all carrying the SAME delta: nothing peels (no unique
  // match) and no line remains -> refuse, quickly.
  std::vector<Mismatch> rows, cols;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({i, 1.0});
    cols.push_back({i + 100, 1.0});
  }
  EXPECT_FALSE(solve_error_assignment(rows, cols, kSlack).solved);
}

TEST(Solver, ManyDistinctErrorsStillSolve) {
  std::vector<Mismatch> rows, cols;
  for (int i = 0; i < 12; ++i) {
    const double d = 1.0 + i;
    rows.push_back({i, d});
    cols.push_back({i + 50, d});
  }
  const SolveOutcome o = solve_error_assignment(rows, cols, kSlack);
  ASSERT_TRUE(o.solved);
  ASSERT_EQ(o.errors.size(), 12u);
  for (const LocatedError& e : o.errors)
    EXPECT_EQ(e.col, e.row + 50) << "distinct deltas pin each pairing";
}

TEST(Solver, CoexistingRowAndColumnBursts) {
  // A row burst at (2, {7,8}) = {+1, +4} AND a column burst at ({5,6}, 9)
  // = {-2, -3}: nothing peels and three rows and three columns remain,
  // which is no line.  Four errors are beyond the delta rules; the
  // executor recomputes this pattern (test_injection.cpp, CrossTable).
  const SolveOutcome o = solve_error_assignment(
      mm({{2, 5.0}, {5, -2.0}, {6, -3.0}}),
      mm({{7, 1.0}, {8, 4.0}, {9, -5.0}}), kSlack);
  EXPECT_FALSE(o.solved);
}

TEST(Solver, BurstsPlusScatteredSingles) {
  // Mixed panel: one isolated error, one row burst, one isolated error.
  const SolveOutcome o = solve_error_assignment(
      mm({{1, 7.0}, {4, 3.0}, {9, -1.25}}),
      mm({{10, 7.0}, {20, 1.0}, {21, 2.0}, {30, -1.25}}), kSlack);
  ASSERT_TRUE(o.solved);
  EXPECT_EQ(o.errors.size(), 4u);
  for (const LocatedError& e : o.errors) {
    if (e.col == 10) {
      EXPECT_EQ(e.row, 1);
    }
    if (e.col == 20 || e.col == 21) {
      EXPECT_EQ(e.row, 4);
    }
    if (e.col == 30) {
      EXPECT_EQ(e.row, 9);
    }
  }
}

TEST(Solver, RowLineTakesEveryOpenColumn) {
  // One row left: every open column holds one error on it, repeated deltas
  // included, and the row delta must equal their sum.
  const SolveOutcome o = solve_error_assignment(
      mm({{3, 6.0}}), mm({{1, 1.0}, {2, 2.0}, {4, 1.5}, {5, 1.5}}), kSlack);
  ASSERT_TRUE(o.solved);
  EXPECT_EQ(o.errors.size(), 4u);
  for (const LocatedError& e : o.errors) EXPECT_EQ(e.row, 3);
}

TEST(Solver, ZeroSumRowBurstAcrossColumns) {
  // (3, 5)=+2 and (3, 6)=-2 cancel in the row checksum: row list is empty,
  // columns show +2/-2.  Detected but not locatable -> unsolved.
  const SolveOutcome o = solve_error_assignment(
      {}, mm({{5, 2.0}, {6, -2.0}}), kSlack);
  EXPECT_FALSE(o.solved);
}

}  // namespace
}  // namespace ftgemm
