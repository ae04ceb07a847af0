#include "abft/verifier.hpp"

#include <cmath>
#include <cstddef>
#include <utility>

namespace ftgemm {

namespace {

constexpr std::size_t kMaxMismatches = 512;

/// Whether two deltas name the same error value.  False for NaN.
bool same_delta(double a, double b, double slack) {
  return std::abs(a - b) <= slack;
}

/// Open entries of `pool` whose delta equals `delta`; `match` is the last.
int count_matches(double delta, const std::vector<Mismatch>& pool,
                  const std::vector<char>& used, double slack, int& match) {
  int count = 0;
  for (std::size_t x = 0; x < pool.size(); ++x) {
    if (!used[x] && same_delta(delta, pool[x].delta, slack)) {
      match = int(x);
      ++count;
    }
  }
  return count;
}

}  // namespace

SolveOutcome solve_error_assignment(const std::vector<Mismatch>& rows,
                                    const std::vector<Mismatch>& cols,
                                    double slack) {
  SolveOutcome outcome;
  if (rows.size() > kMaxMismatches || cols.size() > kMaxMismatches)
    return outcome;

  // Mutual-unique peel: a row and a column whose deltas match each other
  // and no other open line identify one error at their intersection.
  std::vector<LocatedError> located;
  std::vector<char> row_used(rows.size(), 0);
  std::vector<char> col_used(cols.size(), 0);
  for (bool progress = true; progress;) {
    progress = false;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      int c = -1, back = -1;
      if (row_used[r] ||
          count_matches(rows[r].delta, cols, col_used, slack, c) != 1 ||
          count_matches(cols[std::size_t(c)].delta, rows, row_used, slack,
                        back) != 1)
        continue;
      located.push_back({rows[r].idx, cols[std::size_t(c)].idx,
                         cols[std::size_t(c)].delta});
      row_used[r] = 1;
      col_used[std::size_t(c)] = 1;
      progress = true;
    }
  }

  // Line: the rest lies on one row (one error per open column) or on one
  // column (one error per open row), whose delta is the sum of the others.
  // A mismatch left on one axis only cannot be located.
  std::vector<std::size_t> open_rows, open_cols;
  for (std::size_t r = 0; r < rows.size(); ++r)
    if (!row_used[r]) open_rows.push_back(r);
  for (std::size_t c = 0; c < cols.size(); ++c)
    if (!col_used[c]) open_cols.push_back(c);
  if (open_rows.empty() != open_cols.empty()) return outcome;
  if (!open_rows.empty()) {
    const bool row_line = open_rows.size() == 1;
    if (!row_line && open_cols.size() != 1) return outcome;
    const Mismatch& line = row_line ? rows[open_rows[0]] : cols[open_cols[0]];
    double sum = 0.0;
    for (const std::size_t x : row_line ? open_cols : open_rows) {
      const Mismatch& e = row_line ? cols[x] : rows[x];
      sum += e.delta;
      located.push_back(row_line ? LocatedError{line.idx, e.idx, e.delta}
                                 : LocatedError{e.idx, line.idx, e.delta});
    }
    if (!same_delta(line.delta, sum, slack)) return outcome;
  }
  outcome.solved = true;
  outcome.errors = std::move(located);
  return outcome;
}

}  // namespace ftgemm
