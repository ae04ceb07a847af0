// Shared infrastructure of the gating benchmark harness (bench_suite.cpp,
// probes.cpp): clocks and sample statistics, the metric report, span
// tracing, and the output checks.  README.md in this directory describes
// the benchmark; BENCHMARK.json at the repository root fixes its workloads,
// metrics and bounds.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace suite {

using index_t = std::int64_t;
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Seconds on the steady clock since the first call in the process.
inline double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// q-th percentile (0..100) with linear interpolation; +inf samples (failed
/// requests) sort last and win any interpolation that touches them.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - double(lo);
  if (frac == 0.0) return v[lo];
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + frac * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50); }

/// Peak resident set size of this process, MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

/// Median seconds per call of `fn`: one untimed warm-up, then calls until
/// both `min_reps` samples and `min_seconds` of samples are collected.
template <typename Fn>
double median_seconds(Fn&& fn, int min_reps, double min_seconds) {
  fn();
  std::vector<double> s;
  double total = 0.0;
  while (int(s.size()) < min_reps || total < min_seconds) {
    const double t0 = now_s();
    fn();
    s.push_back(now_s() - t0);
    total += s.back();
  }
  return median(s);
}

// ---------------------------------------------------------------------------
// Metric report.
// ---------------------------------------------------------------------------

/// Ordered metric sink: prints `workload metric value unit [samples=N]` per
/// metric and the final JSON result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    rows_.push_back({name, value, unit, samples});
  }

  void print_lines(const std::string& workload) const {
    for (const Row& r : rows_) {
      if (r.samples > 0) {
        std::printf("%s %s %.6g %s samples=%zu\n", workload.c_str(),
                    r.name.c_str(), r.value, r.unit.c_str(), r.samples);
      } else {
        std::printf("%s %s %.6g %s\n", workload.c_str(), r.name.c_str(),
                    r.value, r.unit.c_str());
      }
    }
  }

  void print_json(bool correct, long attempted, long failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      // JSON has no infinities; a non-finite value only arises from a
      // failed request, which already makes the run incorrect.
      const double v = std::isfinite(rows_[i].value)
                           ? rows_[i].value
                           : std::copysign(1e300, rows_[i].value);
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), v,
                  rows_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Row> rows_;
};

/// Attempted / failed outcome counts, shared by every checking thread.
struct Tally {
  std::atomic<long> attempted{0};
  std::atomic<long> failed{0};
  void count(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

// ---------------------------------------------------------------------------
// Span tracing.  Spans are recorded only on threads (or for requests) the
// harness marked as traced, kept in per-thread vectors, and written once at
// exit as Chrome trace-event JSON.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name;
  double t0, t1;
  std::uint64_t id, parent, req;
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  /// Stable name pointer for a run-time string (spans store pointers).
  const char* intern(const std::string& s) {
    const std::lock_guard<std::mutex> lock(m_);
    return names_.insert(s).first->c_str();
  }

  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  void record(const SpanRecord& r) { local().push_back(r); }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (std::size_t t = 0; t < bufs_.size(); ++t) {
      for (const SpanRecord& r : *bufs_[t]) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %llu, \"parent\": %llu, \"req\": %llu}}",
                     first ? "" : ",\n", r.name, t, r.t0 * 1e6,
                     (r.t1 - r.t0) * 1e6, (unsigned long long)r.id,
                     (unsigned long long)r.parent, (unsigned long long)r.req);
        first = false;
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  /// Per span name: count, total and self time (duration minus the part
  /// covered by child spans), largest self time first.
  void print_self_times(const std::string& workload) const {
    std::unordered_map<std::uint64_t, double> child;
    for (const auto& buf : bufs_)
      for (const SpanRecord& r : *buf)
        if (r.parent != 0) child[r.parent] += r.t1 - r.t0;
    struct Agg {
      std::size_t n = 0;
      double total = 0, self = 0;
    };
    std::unordered_map<std::string, Agg> by_name;
    for (const auto& buf : bufs_) {
      for (const SpanRecord& r : *buf) {
        Agg& a = by_name[r.name];
        const double d = r.t1 - r.t0;
        const auto it = child.find(r.id);
        a.n += 1;
        a.total += d;
        a.self += d - (it == child.end() ? 0.0 : it->second);
      }
    }
    std::vector<std::pair<std::string, Agg>> rows(by_name.begin(),
                                                  by_name.end());
    std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
      return x.second.self > y.second.self;
    });
    for (const auto& [name, a] : rows) {
      std::printf("# self %s %s count=%zu total_ms=%.3f self_ms=%.3f\n",
                  workload.c_str(), name.c_str(), a.n, a.total * 1e3,
                  a.self * 1e3);
    }
  }

 private:
  std::vector<SpanRecord>& local() {
    thread_local std::vector<SpanRecord>* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<std::vector<SpanRecord>>();
      owned->reserve(1 << 12);
      buf = owned.get();
      const std::lock_guard<std::mutex> lock(m_);
      bufs_.push_back(std::move(owned));
    }
    return *buf;
  }

  std::mutex m_;  // guards names_ and bufs_ (registration, not appends)
  std::set<std::string> names_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> bufs_;
  std::atomic<std::uint64_t> ids_{0};
};

namespace detail {
inline thread_local bool tl_traced = false;
inline thread_local std::uint64_t tl_parent = 0;
}  // namespace detail

/// Marks the calling thread traced (or not) for the scope's lifetime.
class TraceScope {
 public:
  explicit TraceScope(bool on) : prev_(detail::tl_traced) {
    detail::tl_traced = on;
  }
  ~TraceScope() { detail::tl_traced = prev_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool prev_;
};

/// RAII span on the calling thread; a no-op unless the thread is traced.
/// Nested spans record the enclosing one as parent.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t req = 0) : name_(name) {
    if (!detail::tl_traced) return;
    id_ = Tracer::instance().next_id();
    parent_ = detail::tl_parent;
    req_ = req;
    detail::tl_parent = id_;
    t0_ = now_s();
  }
  ~Span() {
    if (id_ == 0) return;
    Tracer::instance().record({name_, t0_, now_s(), id_, parent_, req_});
    detail::tl_parent = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double t0_ = 0;
  std::uint64_t id_ = 0, parent_ = 0, req_ = 0;
};

/// A span whose start and end were taken on different threads (one request
/// from its due time to its completion), recorded by the finishing thread.
inline void record_async(const char* name, double t0, double t1,
                         std::uint64_t req) {
  Tracer& t = Tracer::instance();
  t.record({name, t0, t1, t.next_id(), 0, req});
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

/// Tolerances.  fp64 follows bench/bench_fig2d_inject_parallel
/// (1e-10 * sqrt(k), relative); fp32-accumulated bf16 gets the fp32 analogue
/// below.  The int8 inputs are chosen so every product, sum and the
/// dequantizing scale are exact in fp32 and fp64, so its checks are exact.
inline double gamma_f64(index_t k) { return 1e-10 * std::sqrt(double(k)); }
inline double gamma_f32(index_t k) { return 1e-7 * std::sqrt(double(k)); }
/// Elementwise fp32-vs-fp32 reference (two summation orders).
inline double gamma_f32_elem(index_t k) { return 1e-5 * std::sqrt(double(k)); }

/// Freivalds' O(n^2) test, independent of the library: C*x is compared
/// against A*(B*x) for a seeded random x with integer |x_j| in 1..4, row by
/// row, within gamma * (|A|*(|B|*|x|)).  A fault of size d left in C(i, j)
/// moves row i by at least d, so with the tolerances above any uncorrected
/// injected error (|d| >= 1) fails the check.  Integer x keeps every sum
/// exact for exactly representable operands, so gamma = 0 is an exact
/// test.
class Freivalds {
 public:
  /// a_at(i, p) / b_at(p, j): the effective operand values, widened to
  /// double (column-major m x k and k x n).
  template <typename AAt, typename BAt>
  Freivalds(index_t m, index_t n, index_t k, AAt a_at, BAt b_at,
            std::uint64_t seed, double gamma)
      : m_(m), n_(n), gamma_(gamma), x_(std::size_t(n)),
        y_(std::size_t(m), 0.0), bound_(std::size_t(m), 0.0) {
    ftgemm::Xoshiro256 rng(seed);
    for (double& v : x_) v = (rng.uniform() < 0.5 ? -1.0 : 1.0) * double(1 + rng.bounded(4));
    std::vector<double> t(std::size_t(k), 0.0), ta(std::size_t(k), 0.0);
    for (index_t j = 0; j < n; ++j) {
      const double xj = x_[std::size_t(j)];
      for (index_t p = 0; p < k; ++p) {
        const double b = b_at(p, j);
        t[std::size_t(p)] += b * xj;
        ta[std::size_t(p)] += std::abs(b) * std::abs(xj);
      }
    }
    for (index_t p = 0; p < k; ++p) {
      const double tp = t[std::size_t(p)], tap = ta[std::size_t(p)];
      for (index_t i = 0; i < m; ++i) {
        const double a = a_at(i, p);
        y_[std::size_t(i)] += a * tp;
        bound_[std::size_t(i)] += std::abs(a) * tap;
      }
    }
  }

  template <typename T>
  bool ok(const T* c, index_t ldc) const {
    std::vector<double> y(std::size_t(m_), 0.0);
    for (index_t j = 0; j < n_; ++j) {
      const double xj = x_[std::size_t(j)];
      const T* col = c + j * ldc;
      for (index_t i = 0; i < m_; ++i) y[std::size_t(i)] += double(col[i]) * xj;
    }
    for (index_t i = 0; i < m_; ++i) {
      const double d = std::abs(y[std::size_t(i)] - y_[std::size_t(i)]);
      if (!(d <= gamma_ * bound_[std::size_t(i)])) return false;  // NaN fails
    }
    return true;
  }

 private:
  index_t m_, n_;
  double gamma_;
  std::vector<double> x_, y_, bound_;
};

/// Elementwise check against a reference product (outputs of 256^2 or
/// smaller): |c - ref| <= gamma * max(|c|, |ref|, 1), as in max_rel_diff.
template <typename T>
bool close_to(const std::vector<double>& ref, index_t m, index_t n,
              double gamma, const T* c, index_t ldc) {
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      const double x = double(c[i + j * ldc]), y = ref[std::size_t(i + j * m)];
      const double scale = std::max({std::abs(x), std::abs(y), 1.0});
      if (!(std::abs(x - y) <= gamma * scale)) return false;  // NaN fails
    }
  return true;
}

}  // namespace suite
