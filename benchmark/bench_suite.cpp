// The gating benchmark harness: one process runs one workload.
//
//   bench_suite --workload W --seed N --seconds S [--trace 0|1] [--smoke]
//               [--corrupt]
//
// Workloads (README.md in this directory says why each was chosen):
//   gemm_serial    1 thread, 1024^3: Ori and FT calls in f64, bf16 and int8
//   gemm_parallel  nproc threads, 2048^3: the same six series
//   gemm_inject    nproc threads, 1024^3: f64 FT with 20 injected errors per
//                  call against clean f64 FT, plus bf16 and int8 Ori and FT
//   serve_mixed    GemmService under a mixed request stream: an open loop,
//                  then a closed loop, both alternating with direct calls
//
// Every protected series runs beside a reference in the same rounds (or
// time slices), and the end-to-end metrics are these paired ratios: on a
// shared host absolute speed drifts by tens of percent from one run to the
// next, while work measured side by side drifts together.  Absolute rates,
// shares of the machine's measured peak and latencies in ms are printed as
// comment lines, and as per-layer metrics in traced runs.
//
// The series of a GEMM workload run one call each per round in a rotating
// order, until --seconds have passed; every output is checked outside its
// timing.  The seed drives every generated input: matrix values, request
// classes, arrival times and injection sites.
//
// Output: `workload metric value unit [samples=N]` lines, then the JSON
// result line last.  With --trace 1 rounds (or requests) alternate between
// traced and untraced, spans are recorded around every library call the
// harness makes, the per-layer probes run, bench_trace_<workload>.json is
// written, and the per-layer metrics are printed instead of the end-to-end
// ones.  --smoke shrinks the problems and set-up repetitions for a quick
// pass that still checks every output; --corrupt damages one checked output
// element to show that the checks fire.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/naive_gemm.hpp"
#include "core/gemm.hpp"
#include "core/gemm_i8.hpp"
#include "core/operand_cache.hpp"
#include "inject/injectors.hpp"
#include "probes.hpp"
#include "runtime/team.hpp"
#include "runtime/topology.hpp"
#include "serve/service.hpp"
#include "suite.hpp"
#include "util/matrix.hpp"

using namespace ftgemm;
using suite::now_s;
using suite::Span;
using suite::TraceScope;

namespace {

constexpr Trans kN = Trans::kNoTrans;
constexpr Layout kCol = Layout::kColMajor;

/// int8 quantization of every int8 call: power-of-two scales keep each
/// dequantized value, product, sum and the epilogue scale exact in fp32 and
/// fp64, so int8 outputs are checked for exact equality.
constexpr QuantParams kQp{0.125f, 0.25f, 3, -5};

/// Alternation period of the serving workload's time slices, seconds.
constexpr double kSlice = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;
};

/// State shared by a whole run: arguments, the report and outcome tally.
struct Run {
  Args args;
  int nproc = 1;
  suite::Report report;
  suite::Tally tally;
  std::atomic<bool> corrupt_pending{false};

  /// Check one output.  Under --corrupt the first output checked gets one
  /// element damaged first.
  template <typename T, typename Check>
  bool check(T* c, Check&& fn) {
    if (corrupt_pending.exchange(false)) c[0] = T(double(c[0]) + 1.0);
    return fn();
  }

  /// Set-up repetitions: the median of several keeps one slow start (page
  /// faults, a neighbour's burst) from deciding setup_s.
  [[nodiscard]] int setup_reps() const { return args.smoke ? 1 : 5; }
};

/// One metric as measured, oriented for the tracing-overhead report.
struct Value {
  std::string name;
  double value;
  const char* unit;
  bool higher_is_better;
  std::size_t samples;
};
using Values = std::vector<Value>;

/// What a workload measured, each from its untraced and traced samples:
/// the end-to-end ratios (BENCHMARK.json order, set-up and memory aside)
/// and the absolute numbers.
struct Measured {
  Values e2e[2], absolute[2];  // [traced]
};

/// An untraced run reports the end-to-end metrics (absolute numbers as
/// comments); a traced one the tracing overhead and the absolute numbers,
/// before the per-layer probes.
void report(Run& run, const Measured& m, double setup_s, std::size_t setup_reps) {
  suite::Report& out = run.report;
  if (!run.args.trace) {
    for (const Value& v : m.absolute[0])
      std::printf("# %s %.6g %s samples=%zu\n", v.name.c_str(), v.value, v.unit, v.samples);
    for (const Value& v : m.e2e[0]) out.add(v.name, v.value, v.unit, v.samples);
    out.add("setup_s", setup_s, "s", setup_reps);
    out.add("rss_mb", suite::peak_rss_mb(), "MB");
    return;
  }
  for (std::size_t i = 0; i < m.e2e[0].size(); ++i) {
    const Value& u = m.e2e[0][i];
    const double t = m.e2e[1][i].value;
    out.add("trace.overhead_frac." + u.name,
            (u.higher_is_better ? u.value - t : t - u.value) / u.value, "ratio");
  }
  for (const Value& v : m.absolute[0]) out.add(v.name, v.value, v.unit, v.samples);
}

/// Compute peak per precision, GOP/s.
struct Peak {
  double f64 = 0, f32 = 0, i8 = 0;
};

/// Peak of `nt` threads right now: every member of a team runs the same
/// instruction mix, and the team's wall time counts, as it does for a GEMM
/// call.
Peak measure_peak(int nt) {
  const RuntimeBackend backend = runtime::resolve_backend(RuntimeBackend::kAuto);
  const auto rate = [&](suite::PeakKind kind) {
    const long iters = 1'000'000;  // ~2 ms per member at full speed
    double ops = 0;
    auto body = [&](runtime::TeamMember& m) {
      const double o = suite::run_peak(kind, iters);
      if (m.tid() == 0) ops = o;
    };
    const double t0 = now_s();
    runtime::run_team(backend, nt, body);
    return double(nt) * ops / (now_s() - t0) / 1e9;
  };
  Peak p;
  p.f64 = rate(suite::PeakKind::kF64);
  p.f32 = rate(suite::PeakKind::kF32);
  p.i8 = rate(suite::PeakKind::kI8);
  return p;
}

/// Set-up in fresh processes: fork `reps` children one after another; each
/// runs `first_round` (the process's first library calls: plan builds,
/// workspace growth, thread-pool spawn, resident encodes) and sends back its
/// time and whether its outputs checked.  Must be called before this
/// process makes any library call, so that no thread exists when it forks.
template <typename FirstRound>
std::vector<double> setup_in_children(Run& run, int reps, FirstRound&& first_round) {
  struct Message {
    double seconds;
    int ok;
  };
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    int fd[2];
    if (pipe(fd) != 0) {
      run.tally.count(false);
      continue;
    }
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
      close(fd[0]);
      const auto [seconds, ok] = first_round();
      const Message msg{seconds, ok ? 1 : 0};
      const bool sent = write(fd[1], &msg, sizeof msg) == ssize_t(sizeof msg);
      _exit(sent ? 0 : 1);
    }
    close(fd[1]);
    Message msg{0, 0};
    const bool got = pid > 0 && read(fd[0], &msg, sizeof msg) == ssize_t(sizeof msg);
    close(fd[0]);
    int status = 0;
    if (pid > 0) waitpid(pid, &status, 0);
    const bool ok = got && msg.ok == 1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    run.tally.count(ok);
    if (ok) times.push_back(msg.seconds);
  }
  return times;
}

template <typename T>
void fill_int8(Matrix<T>& m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i)
      m(i, j) = T(std::int32_t(rng.bounded(256)) - 128);
}

double real_a(std::int8_t q) { return kQp.scale_a * (double(q) - kQp.zero_a); }
double real_b(std::int8_t q) { return kQp.scale_b * (double(q) - kQp.zero_b); }

// ---------------------------------------------------------------------------
// Serving workload: inputs, requests, checks.
// ---------------------------------------------------------------------------

enum Cls { kSmall = 0, kBf16 = 1, kI8 = 2, kBig = 3, kClasses = 4 };

struct ClassSpec {
  const char* name;
  double share;   ///< fraction of requests
  index_t n;      ///< square size
  int threads;    ///< Options::threads (0 = library default)
  int n_a, n_b;   ///< distinct A (or resident weight) and B operands
  int slots;      ///< open-loop output buffers in rotation
};

// 50% f64 64^3 with fresh operands (fast path, coalescable); 20% bf16 and
// 25% int8 128^3 on one of 4 resident weights; 5% f64 256^3 at threads=2
// (general path).
constexpr ClassSpec kSpec[kClasses] = {
    {"f64_64", 0.50, 64, 0, 8, 8, 256},
    {"bf16_128_resident", 0.20, 128, 0, 4, 8, 128},
    {"i8_128_resident", 0.25, 128, 0, 4, 8, 128},
    {"f64_256_t2", 0.05, 256, 2, 4, 1, 32},
};

/// Open-loop offered rate, requests/s (Poisson arrivals).
constexpr double kOpenRate = 4000;
/// Closed loop: requests per submit_all window.
constexpr int kWindow = 8;

bool is_f64(int cls) { return cls == kSmall || cls == kBig; }
double class_flops(int cls) {
  const double n = double(kSpec[cls].n);
  return 2 * n * n * n;
}

int draw_class(Xoshiro256& rng) {
  double u = rng.uniform();
  for (int c = 0; c < kClasses - 1; ++c) {
    if (u < kSpec[c].share) return c;
    u -= kSpec[c].share;
  }
  return kClasses - 1;
}

/// Span name of a direct synchronous call of one request class.
const char* direct_span(int cls) {
  static const std::vector<const char*> names = [] {
    std::vector<const char*> v;
    for (const ClassSpec& c : kSpec)
      v.push_back(suite::Tracer::instance().intern(std::string("direct.") + c.name));
    return v;
  }();
  return names[std::size_t(cls)];
}

/// One output buffer of a request class (f64 or fp32 C).
struct OutBuf {
  Matrix<double> d;
  Matrix<float> f;
  explicit OutBuf(int cls) {
    const index_t n = kSpec[cls].n;
    if (is_f64(cls)) d = Matrix<double>(n, n); else f = Matrix<float>(n, n);
  }
  void* data(int cls) { return is_f64(cls) ? (void*)d.data() : (void*)f.data(); }
};

/// Operand pools of the four classes with their naive references.
struct ServeInputs {
  std::vector<Matrix<double>> small_a, small_b, big_a, big_b;
  std::vector<Matrix<bf16_t>> bf_w, bf_b;
  std::vector<Matrix<std::int8_t>> i8_w, i8_b;
  std::vector<std::vector<double>> ref[kClasses];  // [a * n_b + b]
  std::vector<ResidentOperand> resident;

  explicit ServeInputs(std::uint64_t seed) {
    std::uint64_t s = seed * 1000;
    const auto f64_pool = [&](std::vector<Matrix<double>>& v, int count, index_t n) {
      for (int i = 0; i < count; ++i) {
        v.emplace_back(n, n);
        v.back().fill_random(++s);
      }
    };
    f64_pool(small_a, kSpec[kSmall].n_a, kSpec[kSmall].n);
    f64_pool(small_b, kSpec[kSmall].n_b, kSpec[kSmall].n);
    f64_pool(big_a, kSpec[kBig].n_a, kSpec[kBig].n);
    f64_pool(big_b, kSpec[kBig].n_b, kSpec[kBig].n);
    const index_t nb = kSpec[kBf16].n;
    for (int i = 0; i < kSpec[kBf16].n_a + kSpec[kBf16].n_b; ++i) {
      auto& v = i < kSpec[kBf16].n_a ? bf_w : bf_b;
      v.emplace_back(nb, nb);
      v.back().fill_random(++s);
    }
    const index_t ni = kSpec[kI8].n;
    for (int i = 0; i < kSpec[kI8].n_a + kSpec[kI8].n_b; ++i) {
      auto& v = i < kSpec[kI8].n_a ? i8_w : i8_b;
      v.emplace_back(ni, ni);
      fill_int8(v.back(), ++s);
    }
    for (int c = 0; c < kClasses; ++c) {
      for (int a = 0; a < kSpec[c].n_a; ++a)
        for (int b = 0; b < kSpec[c].n_b; ++b) ref[c].push_back(reference(c, a, b));
    }
  }

  /// Oracle: baseline::naive_* on f64 operands, on fp32-widened operands
  /// for bf16 and int8 (exact for the int8 values above).
  std::vector<double> reference(int cls, int a, int b) const {
    const index_t n = kSpec[cls].n;
    std::vector<double> out(std::size_t(n * n));
    if (is_f64(cls)) {
      const auto& A = cls == kSmall ? small_a[std::size_t(a)] : big_a[std::size_t(a)];
      const auto& B = cls == kSmall ? small_b[std::size_t(b)] : big_b[std::size_t(b)];
      baseline::naive_dgemm(kN, kN, n, n, n, 1.0, A.data(), n, B.data(), n, 0.0,
                            out.data(), n);
      return out;
    }
    std::vector<float> wa(std::size_t(n * n)), wb(std::size_t(n * n)),
        c(std::size_t(n * n));
    for (index_t x = 0; x < n * n; ++x) {
      if (cls == kBf16) {
        wa[std::size_t(x)] = float(bf_w[std::size_t(a)].data()[x]);
        wb[std::size_t(x)] = float(bf_b[std::size_t(b)].data()[x]);
      } else {
        wa[std::size_t(x)] = float(real_a(i8_w[std::size_t(a)].data()[x]));
        wb[std::size_t(x)] = float(real_b(i8_b[std::size_t(b)].data()[x]));
      }
    }
    baseline::naive_sgemm(kN, kN, n, n, n, 1.0f, wa.data(), n, wb.data(), n,
                          0.0f, c.data(), n);
    std::copy(c.begin(), c.end(), out.begin());
    return out;
  }

  /// Encode the resident weights of the bf16 and int8 classes.
  void make_resident() {
    resident.clear();
    for (const auto& w : bf_w) {
      const index_t n = kSpec[kBf16].n;
      resident.push_back(make_resident_a<bf16_t, float>(kN, kN, n, n, n, 1.0f,
                                                        w.data(), n));
    }
    for (const auto& w : i8_w) {
      const index_t n = kSpec[kI8].n;
      resident.push_back(make_resident_a_i8(kN, kN, n, n, n, w.data(), n));
    }
  }

  serve::GemmRequest request(int cls, int a, int b, void* c) const {
    const index_t n = kSpec[cls].n;
    Options o;
    o.threads = kSpec[cls].threads;
    switch (cls) {
      case kBf16:
        o.resident_a = true;
        return serve::make_gemm_request<bf16_t>(
            true, kCol, kN, kN, n, n, n, 1.0f, bf_w[std::size_t(a)].data(), n,
            bf_b[std::size_t(b)].data(), n, 0.0f, static_cast<float*>(c), n, o);
      case kI8:
        o.resident_a = true;
        return serve::make_gemm_request_i8(
            true, kCol, kN, kN, n, n, n, 1.0f, i8_w[std::size_t(a)].data(), n,
            i8_b[std::size_t(b)].data(), n, 0.0f, static_cast<float*>(c), n,
            kQp, o);
      default: {
        const auto& A = cls == kSmall ? small_a[std::size_t(a)] : big_a[std::size_t(a)];
        const auto& B = cls == kSmall ? small_b[std::size_t(b)] : big_b[std::size_t(b)];
        return serve::make_gemm_request<double>(
            true, kCol, kN, kN, n, n, n, 1.0, A.data(), n, B.data(), n, 0.0,
            static_cast<double*>(c), n, o);
      }
    }
  }

  bool check(Run& run, int cls, int a, int b, void* c) const {
    const index_t n = kSpec[cls].n;
    const auto& r = ref[cls][std::size_t(a * kSpec[cls].n_b + b)];
    if (is_f64(cls)) {
      auto* p = static_cast<double*>(c);
      return run.check(p, [&] { return suite::close_to(r, n, n, suite::gamma_f64(n), p, n); });
    }
    auto* p = static_cast<float*>(c);
    const double gamma = cls == kI8 ? 0.0 : suite::gamma_f32_elem(n);
    return run.check(p, [&] { return suite::close_to(r, n, n, gamma, p, n); });
  }
};

/// The synchronous entry point a request stands for, called directly.
bool run_direct(const serve::GemmRequest& r) {
  FtReport rep;
  switch (r.precision) {
    case serve::Precision::kF64:
      rep = ft_dgemm(r.layout, r.ta, r.tb, r.m, r.n, r.k, r.alpha,
                     static_cast<const double*>(r.a), r.lda,
                     static_cast<const double*>(r.b), r.ldb, r.beta,
                     static_cast<double*>(r.c), r.ldc, r.opts);
      break;
    case serve::Precision::kBf16:
      rep = ft_gemm_bf16(r.layout, r.ta, r.tb, r.m, r.n, r.k, float(r.alpha),
                         static_cast<const bf16_t*>(r.a), r.lda,
                         static_cast<const bf16_t*>(r.b), r.ldb, float(r.beta),
                         static_cast<float*>(r.c), r.ldc, r.opts);
      break;
    case serve::Precision::kI8:
      rep = ft_gemm_i8(r.layout, r.ta, r.tb, r.m, r.n, r.k, float(r.alpha),
                       static_cast<const std::int8_t*>(r.a), r.lda,
                       static_cast<const std::int8_t*>(r.b), r.ldb,
                       float(r.beta), static_cast<float*>(r.c), r.ldc, r.qp,
                       r.opts);
      break;
    default:
      return false;
  }
  return !rep.invalid_args && rep.clean();
}

/// Start the service: a default-config service, the resident weights, and
/// one request per class.  Returns the time this took and whether the
/// requests' outputs checked.
std::pair<double, bool> start_service(Run& run, ServeInputs& in,
                                      std::unique_ptr<serve::GemmService>& svc) {
  std::vector<OutBuf> outs;
  for (int c = 0; c < kClasses; ++c) outs.emplace_back(c);
  const double t0 = now_s();
  svc = std::make_unique<serve::GemmService>();
  in.make_resident();
  bool ok[kClasses];
  for (int c = 0; c < kClasses; ++c)
    ok[c] = svc->submit(in.request(c, 0, 0, outs[std::size_t(c)].data(c))).wait().ok();
  const double seconds = now_s() - t0;
  bool all = true;
  for (int c = 0; c < kClasses; ++c)
    all = ok[c] && in.check(run, c, 0, 0, outs[std::size_t(c)].data(c)) && all;
  return {seconds, all};
}

/// What one serving session measured.
struct ServeResult {
  Measured m;
  std::vector<double> submit_us, wait_us, lag_ms;
  double achieved_rps = 0;
  long backlog_end = 0;
  double sync_median[kClasses] = {};  ///< direct call time per class, s
  serve::ServiceStats before, after;  ///< around both loops
};

struct OpenReq {
  double due = 0;
  int cls = 0, a = 0, b = 0;
  double submit_s = 0, start = 0;
  std::atomic<double> done_at{0};
  std::atomic<int> state{0};  // 0 in flight, 1 ok, 2 failed
  bool checked_ok = false;
};

/// Open loop: Poisson arrivals at kOpenRate from one generator thread for
/// `seconds`, each request timed from its due time, so generator stalls
/// count.  The serve.* and absolute latency numbers come from here; it
/// runs after the closed loop, whose direct calls give each class's
/// synchronous time.
void open_loop(Run& run, const ServeInputs& in, serve::GemmService& svc,
               double seconds, ServeResult& res) {
  const bool trace = run.args.trace;
  Xoshiro256 rng(run.args.seed * 0x9E37 + 11);
  std::vector<double> offsets;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform()) / kOpenRate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  const std::size_t count = offsets.size();
  auto reqs = std::make_unique<OpenReq[]>(count);
  for (std::size_t i = 0; i < count; ++i) {
    OpenReq& r = reqs[i];
    r.cls = draw_class(rng);
    r.a = int(rng.bounded(std::uint64_t(kSpec[r.cls].n_a)));
    r.b = int(rng.bounded(std::uint64_t(kSpec[r.cls].n_b)));
  }
  struct Slot {
    OutBuf buf;
    long owner = -1;
  };
  std::vector<std::vector<Slot>> slots(kClasses);
  std::vector<std::size_t> next(kClasses, 0);
  for (int c = 0; c < kClasses; ++c)
    for (int s = 0; s < kSpec[c].slots; ++s) slots[std::size_t(c)].push_back({OutBuf(c), -1});
  const auto finalize = [&](Slot& s) {
    OpenReq& r = reqs[std::size_t(s.owner)];
    while (r.state.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    r.checked_ok = r.state.load(std::memory_order_acquire) == 1 &&
                   in.check(run, r.cls, r.a, r.b, s.buf.data(r.cls));
    run.tally.count(r.checked_ok);
    s.owner = -1;
  };
  const char* request_span = suite::Tracer::instance().intern("serve.request");
  const double origin = now_s() + 0.01;
  for (std::size_t i = 0; i < count; ++i) {
    OpenReq& r = reqs[i];
    r.due = origin + offsets[i];
    for (double ahead; (ahead = r.due - now_s()) > 0;) {
      if (ahead > 3e-4) std::this_thread::sleep_for(std::chrono::duration<double>(ahead - 2e-4));
    }
    auto& ring = slots[std::size_t(r.cls)];
    Slot& slot = ring[next[std::size_t(r.cls)]++ % ring.size()];
    if (slot.owner >= 0) finalize(slot);
    slot.owner = long(i);
    const serve::GemmRequest req = in.request(r.cls, r.a, r.b, slot.buf.data(r.cls));
    const bool traced = trace && i % 2 == 1;
    r.start = now_s();
    serve::GemmFuture fut;
    {
      TraceScope scope(traced);
      Span span("serve.submit", i + 1);
      fut = svc.submit(req);
    }
    r.submit_s = now_s() - r.start;
    fut.then([&r, traced, i, request_span](const serve::GemmResult& g) {
      const double t = now_s();
      if (traced) suite::record_async(request_span, r.due, t, i + 1);
      r.done_at.store(t, std::memory_order_relaxed);
      r.state.store(g.ok() ? 1 : 2, std::memory_order_release);
    });
  }
  const double gen_end = now_s();
  for (std::size_t i = 0; i < count; ++i)
    res.backlog_end += reqs[i].state.load(std::memory_order_acquire) == 0 ? 1 : 0;
  res.achieved_rps = double(count) / (gen_end - origin);
  for (auto& ring : slots)
    for (Slot& s : ring)
      if (s.owner >= 0) finalize(s);

  std::vector<double> latency[2];  // [traced]
  for (std::size_t i = 0; i < count; ++i) {
    const OpenReq& r = reqs[i];
    // A failed request counts as +inf.
    const double l = r.checked_ok ? r.done_at.load(std::memory_order_relaxed) - r.due : suite::kInf;
    latency[trace && i % 2 == 1].push_back(l);
    res.submit_us.push_back(r.submit_s * 1e6);
    // Queueing and hand-off: latency beyond the class's direct call time.
    res.wait_us.push_back((l - res.sync_median[r.cls]) * 1e6);
    res.lag_ms.push_back((r.start - r.due) * 1e3);
  }
  for (int t = 0; t < (trace ? 2 : 1); ++t) {
    const std::vector<double>& v = latency[t];
    res.m.absolute[t].push_back(
        {"absolute.p50_ms", suite::percentile(v, 50) * 1e3, "ms", false, v.size()});
    res.m.absolute[t].push_back(
        {"absolute.tail_ms", suite::percentile(v, 99) * 1e3, "ms", false, v.size()});
  }
}

/// Closed loop: nproc clients, each submitting windows of kWindow requests
/// and waiting for all of them, for `seconds`.  Every kSlice the clients
/// move on to the next of three modes: the service, direct synchronous
/// calls of the same requests, and the peak instruction mixes.  Each
/// request is timed from its window's start.  The end-to-end ratios come
/// from here: service against direct calls, side by side.
void closed_loop(Run& run, const ServeInputs& in, serve::GemmService& svc,
                 double seconds, ServeResult& res) {
  const bool trace = run.args.trace;
  struct Acc {
    double time = 0;
    long reqs = 0;
    double flops[kClasses] = {};
    std::vector<double> latency[kClasses];
  };
  struct Client {
    Acc acc[2][2];  // [direct][traced]
    std::vector<double> direct_s[kClasses];
    double peak_ops[3] = {}, peak_s[3] = {};
  };
  std::vector<Client> clients(static_cast<std::size_t>(run.nproc));
  const double begin = now_s(), end = begin + seconds;
  const auto client = [&](int id) {
    Client& me = clients[std::size_t(id)];
    Xoshiro256 crng(run.args.seed * 0x51ED + std::uint64_t(id) * 7919 + 3);
    std::vector<std::vector<OutBuf>> bufs(kClasses);
    for (int c = 0; c < kClasses; ++c)
      for (int w = 0; w < kWindow; ++w) bufs[std::size_t(c)].emplace_back(c);
    std::vector<serve::GemmRequest> window(kWindow);
    int cls[kWindow], a[kWindow], b[kWindow];
    bool ok[kWindow];
    double done_at[kWindow];
    for (long w = 0;; ++w) {
      const double t = now_s();
      if (t >= end) break;
      const int mode = int((t - begin) / kSlice) % 3;  // service, direct, peak
      if (mode == 2) {
        for (int k = 0; k < 3; ++k) {
          const double p0 = now_s();
          me.peak_ops[k] += suite::run_peak(suite::PeakKind(k), 1'000'000);
          me.peak_s[k] += now_s() - p0;
        }
        continue;
      }
      const bool traced = trace && w % 2 == 1;
      TraceScope scope(traced);
      for (int k = 0; k < kWindow; ++k) {
        cls[k] = draw_class(crng);
        a[k] = int(crng.bounded(std::uint64_t(kSpec[cls[k]].n_a)));
        b[k] = int(crng.bounded(std::uint64_t(kSpec[cls[k]].n_b)));
        window[std::size_t(k)] =
            in.request(cls[k], a[k], b[k], bufs[std::size_t(cls[k])][std::size_t(k)].data(cls[k]));
      }
      const double t0 = now_s();
      if (mode == 0) {
        std::vector<serve::GemmFuture> fl;
        {
          Span span("serve.submit_all");
          fl = svc.submit_all(window);
        }
        Span span("serve.wait");
        std::atomic<int> settled{0};
        for (int k = 0; k < kWindow; ++k) {
          fl[std::size_t(k)].then([&, k](const serve::GemmResult& g) {
            done_at[k] = now_s();
            ok[k] = g.ok();
            settled.fetch_add(1, std::memory_order_release);
          });
        }
        for (const serve::GemmFuture& f : fl) f.wait();
        // A continuation runs just after its request settles.
        while (settled.load(std::memory_order_acquire) < kWindow) std::this_thread::yield();
      } else {
        for (int k = 0; k < kWindow; ++k) {
          Span span(direct_span(cls[k]));
          const double c0 = now_s();
          ok[k] = run_direct(window[std::size_t(k)]);
          done_at[k] = now_s();
          me.direct_s[cls[k]].push_back(done_at[k] - c0);
        }
      }
      Acc& acc = me.acc[mode][traced ? 1 : 0];
      acc.time += now_s() - t0;
      acc.reqs += kWindow;
      for (int k = 0; k < kWindow; ++k) {
        acc.flops[cls[k]] += class_flops(cls[k]);
        acc.latency[cls[k]].push_back(done_at[k] - t0);
      }
      Span span("check");
      for (int k = 0; k < kWindow; ++k)
        run.tally.count(ok[k] && in.check(run, cls[k], a[k], b[k],
                                          bufs[std::size_t(cls[k])][std::size_t(k)].data(cls[k])));
    }
  };
  std::vector<std::thread> threads;
  for (int id = 0; id < run.nproc; ++id) threads.emplace_back(client, id);
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClasses; ++c) {
    std::vector<double> all;
    for (const Client& cl : clients)
      all.insert(all.end(), cl.direct_s[c].begin(), cl.direct_s[c].end());
    res.sync_median[c] = all.empty() ? 0.0 : suite::median(all);
  }
  double peak[3] = {};
  for (const Client& cl : clients)
    for (int k = 0; k < 3; ++k)
      if (cl.peak_s[k] > 0) peak[k] += cl.peak_ops[k] / cl.peak_s[k] / 1e9;
  const auto p50 = [](const std::vector<double>& v) { return suite::percentile(v, 50); };
  const auto p99 = [](const std::vector<double>& v) { return suite::percentile(v, 99); };
  for (int t = 0; t < (trace ? 2 : 1); ++t) {
    double rps[2] = {}, flops = 0, bf = 0, i8 = 0;
    std::vector<double> lat[2], cls_lat[2][kClasses];  // [direct]
    for (const Client& cl : clients) {
      for (int d = 0; d < 2; ++d) {
        const Acc& acc = cl.acc[d][t];
        if (acc.time > 0) rps[d] += double(acc.reqs) / acc.time;
        for (int c = 0; c < kClasses; ++c) {
          lat[d].insert(lat[d].end(), acc.latency[c].begin(), acc.latency[c].end());
          cls_lat[d][c].insert(cls_lat[d][c].end(), acc.latency[c].begin(), acc.latency[c].end());
        }
      }
      const Acc& sv = cl.acc[0][t];
      if (sv.time > 0) {
        for (int c = 0; c < kClasses; ++c) flops += sv.flops[c] / sv.time;
        bf += sv.flops[kBf16] / sv.time;
        i8 += sv.flops[kI8] / sv.time;
      }
    }
    const auto pairs = [](const std::vector<double>& x, const std::vector<double>& y) {
      return std::min(x.size(), y.size());
    };
    res.m.e2e[t] = {
        {"ft_over_ref", rps[0] / rps[1], "ratio", true, pairs(lat[0], lat[1])},
        {"p50_over_ref", p50(lat[0]) / p50(lat[1]), "ratio", false, pairs(lat[0], lat[1])},
        {"tail_over_ref", p99(lat[0]) / p99(lat[1]), "ratio", false, pairs(lat[0], lat[1])},
        {"bf16_over_ref", p50(cls_lat[1][kBf16]) / p50(cls_lat[0][kBf16]), "ratio", true,
         pairs(cls_lat[0][kBf16], cls_lat[1][kBf16])},
        {"i8_over_ref", p50(cls_lat[1][kI8]) / p50(cls_lat[0][kI8]), "ratio", true,
         pairs(cls_lat[0][kI8], cls_lat[1][kI8])},
    };
    res.m.absolute[t] = {
        {"absolute.ft_gflops", flops / 1e9, "GFLOP/s", true, lat[0].size()},
        {"absolute.ft_pct_peak", 100 * flops / 1e9 / peak[0], "%", true, lat[0].size()},
        {"absolute.bf16_pct_peak", 100 * bf / 1e9 / peak[1], "%", true, lat[0].size()},
        {"absolute.i8_pct_peak", 100 * i8 / 1e9 / peak[2], "%", true, lat[0].size()},
    };
  }
}

/// serve.* / loadgen.* / core.resident_hit_frac from one session.
void add_serve_layer(suite::Report& out, const ServeResult& r) {
  const serve::ServiceStats& a = r.after;
  const serve::ServiceStats& b = r.before;
  const auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
  const double done = double(a.completed - b.completed);
  const double hits = double(a.resident_hits - b.resident_hits);
  const double misses = double(a.resident_misses - b.resident_misses);
  out.add("core.resident_hit_frac", share(hits, hits + misses), "ratio");
  out.add("serve.submit_us_p50", suite::percentile(r.submit_us, 50), "us", r.submit_us.size());
  out.add("serve.submit_us_p99", suite::percentile(r.submit_us, 99), "us", r.submit_us.size());
  out.add("serve.wait_us_p50", suite::percentile(r.wait_us, 50), "us", r.wait_us.size());
  out.add("serve.wait_us_p99", suite::percentile(r.wait_us, 99), "us", r.wait_us.size());
  out.add("serve.inline_frac", share(double(a.inline_executed - b.inline_executed), done), "ratio");
  out.add("serve.coalesced_frac", share(double(a.coalesced_members - b.coalesced_members), done), "ratio");
  out.add("serve.steals", double(a.steals - b.steals), "count");
  out.add("serve.peak_queue_depth", double(a.peak_queue_depth), "count");
  out.add("serve.peak_inflight", double(a.peak_inflight), "count");
  out.add("serve.backlog_end", double(r.backlog_end), "count");
  out.add("loadgen.lag_ms_p99", suite::percentile(r.lag_ms, 99), "ms", r.lag_ms.size());
  out.add("loadgen.achieved_rps", r.achieved_rps, "1/s");
}

/// A serving session on one fresh service: closed loop, then open loop.
ServeResult serve_session(Run& run, ServeInputs& in, double closed_s,
                          double open_s) {
  ServeResult res;
  std::unique_ptr<serve::GemmService> svc;
  run.tally.count(start_service(run, in, svc).second);
  res.before = svc->stats();
  closed_loop(run, in, *svc, closed_s, res);
  open_loop(run, in, *svc, open_s, res);
  res.after = svc->stats();
  svc->shutdown(true);
  return res;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Per-layer probes and the serving-layer metrics every traced run prints;
/// `serve` is the run's own session, or null for a short one of the same
/// mix.
void add_layers(Run& run, index_t n, int threads, double corrected_per_injected,
                const ServeResult* serve) {
  suite::Report& out = run.report;
  const suite::ProbeConfig cfg{n, threads, run.nproc, run.args.seed};
  {
    TraceScope scope(true);
    {
      Span span("probe.kernels");
      suite::probe_kernels(cfg, out);
    }
    {
      Span span("probe.abft");
      suite::probe_abft(cfg, out);
      out.add("abft.corrected_per_injected",
              corrected_per_injected >= 0
                  ? corrected_per_injected
                  : suite::probe_corrected_per_injected(cfg),
              "ratio");
    }
    {
      Span span("probe.core");
      suite::probe_core(cfg, out);
    }
    {
      Span span("probe.runtime");
      suite::probe_runtime(cfg, out);
    }
  }
  // Last: a service session leaves pool and OpenMP workers spinning for a
  // while, which would disturb the single-core probes above.
  if (serve != nullptr) {
    add_serve_layer(out, *serve);
    return;
  }
  ServeInputs in(run.args.seed);
  add_serve_layer(out, serve_session(run, in, 1.0, 1.0));
}

struct GemmConfig {
  index_t n;
  int threads;
  bool inject;
};

/// Tail percentile of the GEMM workloads' per-round ratios: the highest
/// with at least ten rounds beyond it in the shortest (2048^3) phase.
constexpr double kGemmTail = 85;

struct Series {
  Series(const char* s, std::function<bool()> c, std::function<bool()> k)
      : span(s), call(std::move(c)), check(std::move(k)) {}

  const char* span;             ///< entry point, as span name
  std::function<bool()> call;   ///< one call; false if the report is dirty
  std::function<bool()> check;  ///< check of the call's output
  std::vector<double> secs[2];  ///< call times, [traced]
  long failed = 0;              ///< calls that were dirty or wrong

  void count(Run& run, bool ok) {
    run.tally.count(ok);
    failed += ok ? 0 : 1;
  }
};

void run_gemm(Run& run, const GemmConfig& cfg) {
  const index_t n = cfg.n;
  const std::uint64_t seed = run.args.seed;
  Matrix<double> a(n, n), b(n, n);
  Matrix<bf16_t> abf(n, n), bbf(n, n);
  Matrix<std::int8_t> ai8(n, n), bi8(n, n);
  a.fill_random(seed * 16 + 1);
  b.fill_random(seed * 16 + 2);
  abf.fill_random(seed * 16 + 3);
  bbf.fill_random(seed * 16 + 4);
  fill_int8(ai8, seed * 16 + 5);
  fill_int8(bi8, seed * 16 + 6);
  const suite::Freivalds chk64(
      n, n, n, [&](index_t i, index_t p) { return a(i, p); },
      [&](index_t p, index_t j) { return b(p, j); }, seed * 16 + 7,
      suite::gamma_f64(n));
  const suite::Freivalds chkbf(
      n, n, n, [&](index_t i, index_t p) { return double(float(abf(i, p))); },
      [&](index_t p, index_t j) { return double(float(bbf(p, j))); },
      seed * 16 + 8, suite::gamma_f32(n));
  const suite::Freivalds chki8(
      n, n, n, [&](index_t i, index_t p) { return real_a(ai8(i, p)); },
      [&](index_t p, index_t j) { return real_b(bi8(p, j)); }, seed * 16 + 9,
      0.0);
  // Outputs, [reference, protected] per precision.
  Matrix<double> c64[2] = {Matrix<double>(n, n), Matrix<double>(n, n)};
  Matrix<float> cbf[2] = {Matrix<float>(n, n), Matrix<float>(n, n)};
  Matrix<float> ci8[2] = {Matrix<float>(n, n), Matrix<float>(n, n)};

  Options plain;
  plain.threads = cfg.threads;
  // Under injection the f64 FT series takes 20 errors per call of magnitude
  // 2.0 (the paper's Fig. 2(c)/(d) regime) at seeded positions.  The bf16
  // and int8 series stay uninjected: under that load both paths flag panels
  // uncorrectable, and a gating workload must have no failing calls.
  CountInjector injector(20, seed * 16 + 10, 2.0);
  Options o64 = plain;
  if (cfg.inject) o64.injector = &injector;
  std::int64_t corrected = 0;
  const auto clean = [&](const FtReport& r) {
    corrected += r.errors_corrected;
    return !r.invalid_args && r.clean();
  };
  // Under injection a panel the locator cannot resolve is flagged, not
  // silently wrong; the reliable entry point re-executes it, which is how a
  // caller gets a correct result under this load.
  const auto ft64 = [&](Matrix<double>& c, const Options& o) {
    return clean(cfg.inject
                     ? ft_dgemm_reliable(kCol, kN, kN, n, n, n, 1.0, a.data(), n,
                                         b.data(), n, 0.0, c.data(), n, o)
                     : ft_dgemm(kCol, kN, kN, n, n, n, 1.0, a.data(), n,
                                b.data(), n, 0.0, c.data(), n, o));
  };
  const auto checked = [&](auto& c, const suite::Freivalds& chk) {
    return [&run, &c, &chk, n] {
      return run.check(c.data(), [&] { return chk.ok(c.data(), n); });
    };
  };

  // Pairs of (reference, protected) per precision; the f64 reference is Ori,
  // or clean FT under injection.
  std::vector<Series> series;
  if (cfg.inject) {
    series.emplace_back("core.ft_dgemm_reliable.clean",
                      [&] { return ft64(c64[0], plain); }, checked(c64[0], chk64));
    series.emplace_back("core.ft_dgemm_reliable",
                      [&] { return ft64(c64[1], o64); }, checked(c64[1], chk64));
  } else {
    series.emplace_back("core.dgemm",
                      [&] {
                        dgemm(kCol, kN, kN, n, n, n, 1.0, a.data(), n, b.data(),
                              n, 0.0, c64[0].data(), n, plain);
                        return true;
                      },
                      checked(c64[0], chk64));
    series.emplace_back("core.ft_dgemm", [&] { return ft64(c64[1], o64); },
                      checked(c64[1], chk64));
  }
  series.emplace_back("core.gemm_bf16",
                    [&] {
                      gemm_bf16(kCol, kN, kN, n, n, n, 1.0f, abf.data(), n,
                                bbf.data(), n, 0.0f, cbf[0].data(), n, plain);
                      return true;
                    },
                    checked(cbf[0], chkbf));
  series.emplace_back("core.ft_gemm_bf16",
                    [&] {
                      return clean(ft_gemm_bf16(kCol, kN, kN, n, n, n, 1.0f,
                                                abf.data(), n, bbf.data(), n,
                                                0.0f, cbf[1].data(), n, plain));
                    },
                    checked(cbf[1], chkbf));
  series.emplace_back("core.gemm_i8",
                    [&] {
                      gemm_i8(kCol, kN, kN, n, n, n, 1.0f, ai8.data(), n,
                              bi8.data(), n, 0.0f, ci8[0].data(), n, kQp, plain);
                      return true;
                    },
                    checked(ci8[0], chki8));
  series.emplace_back("core.ft_gemm_i8",
                    [&] {
                      return clean(ft_gemm_i8(kCol, kN, kN, n, n, n, 1.0f,
                                              ai8.data(), n, bi8.data(), n,
                                              0.0f, ci8[1].data(), n, kQp, plain));
                    },
                    checked(ci8[1], chki8));

  // Set-up: the first round of a fresh process, several times over.
  const std::vector<double> setup =
      setup_in_children(run, run.setup_reps(), [&] {
        std::vector<char> ok(series.size());
        const double t0 = now_s();
        for (std::size_t s = 0; s < series.size(); ++s) ok[s] = series[s].call();
        const double seconds = now_s() - t0;
        bool all = true;
        for (std::size_t s = 0; s < series.size(); ++s) all = series[s].check() && ok[s] && all;
        return std::make_pair(seconds, all);
      });

  // This process's own first round warms it up; it is checked, not timed.
  for (Series& s : series) {
    const bool ok = s.call();
    s.count(run, s.check() && ok);
  }
  measure_peak(cfg.threads);

  // Each round: one call of every series in rotating order, then the peak
  // instruction mixes on the same thread count.
  std::vector<Peak> peaks[2];
  const double t_end = now_s() + run.args.seconds;
  for (std::size_t r = 0; now_s() < t_end; ++r) {
    const int traced = run.args.trace && r % 2 == 1;
    TraceScope scope(traced);
    Span round("round");
    for (std::size_t i = 0; i < series.size(); ++i) {
      Series& s = series[(r + i) % series.size()];
      bool ok;
      double dt;
      {
        Span span(s.span);
        const double t0 = now_s();
        ok = s.call();
        dt = now_s() - t0;
      }
      s.secs[traced].push_back(dt);
      Span span("check");
      s.count(run, s.check() && ok);
    }
    Span span("peak");
    peaks[traced].push_back(measure_peak(cfg.threads));
  }
  for (const Series& s : series)
    if (s.failed > 0) std::printf("# %s failed=%ld\n", s.span, s.failed);

  const double flops = 2.0 * double(n) * double(n) * double(n);
  Measured m;
  for (int t = 0; t < (run.args.trace ? 2 : 1); ++t) {
    const auto secs = [&](std::size_t s) -> const std::vector<double>& {
      return series[s].secs[t];
    };
    const std::size_t rounds = secs(1).size();
    std::vector<double> ft_vs_ref, bf_speed, i8_speed, pct64, pct32, pct8;
    for (std::size_t j = 0; j < rounds; ++j) {
      const Peak& p = peaks[t][j];
      ft_vs_ref.push_back(secs(1)[j] / secs(0)[j]);
      bf_speed.push_back(secs(2)[j] / secs(3)[j]);
      i8_speed.push_back(secs(4)[j] / secs(5)[j]);
      pct64.push_back(100 * flops / secs(1)[j] / 1e9 / p.f64);
      pct32.push_back(100 * flops / secs(3)[j] / 1e9 / p.f32);
      pct8.push_back(100 * flops / secs(5)[j] / 1e9 / p.i8);
    }
    const double ft = suite::median(secs(1));
    m.e2e[t] = {
        {"ft_over_ref", suite::median(secs(0)) / ft, "ratio", true, rounds},
        {"p50_over_ref", suite::median(ft_vs_ref), "ratio", false, rounds},
        {"tail_over_ref", suite::percentile(ft_vs_ref, kGemmTail), "ratio", false, rounds},
        {"bf16_over_ref", suite::median(bf_speed), "ratio", true, rounds},
        {"i8_over_ref", suite::median(i8_speed), "ratio", true, rounds},
    };
    m.absolute[t] = {
        {"absolute.ft_gflops", flops / ft / 1e9, "GFLOP/s", true, rounds},
        {"absolute.ft_pct_peak", suite::median(pct64), "%", true, rounds},
        {"absolute.bf16_pct_peak", suite::median(pct32), "%", true, rounds},
        {"absolute.i8_pct_peak", suite::median(pct8), "%", true, rounds},
        {"absolute.p50_ms", ft * 1e3, "ms", false, rounds},
        {"absolute.tail_ms", suite::percentile(secs(1), kGemmTail) * 1e3, "ms", false, rounds},
    };
  }
  report(run, m, suite::median(setup), setup.size());
  if (!run.args.trace) return;
  double cpi = -1;
  if (cfg.inject) {
    const std::size_t injected = injector.injected_count();
    cpi = injected > 0 ? double(corrected) / double(injected) : 0.0;
  }
  add_layers(run, n, cfg.threads, cpi, nullptr);
}

void run_serve(Run& run) {
  ServeInputs in(run.args.seed);
  const std::vector<double> setup =
      setup_in_children(run, run.setup_reps(), [&] {
        std::unique_ptr<serve::GemmService> svc;
        const auto first = start_service(run, in, svc);
        svc->shutdown(true);
        return first;
      });
  const double half = run.args.seconds / 2;
  const ServeResult r = serve_session(run, in, half, half);
  report(run, r.m, suite::median(setup), setup.size());
  if (run.args.trace) add_layers(run, kSpec[kBig].n, kSpec[kBig].threads, -1, &r);
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--workload" && has_value) a.workload = argv[++i];
    else if (k == "--seed" && has_value) a.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (k == "--seconds" && has_value) a.seconds = std::atof(argv[++i]);
    else if (k == "--trace" && has_value) a.trace = std::atoi(argv[++i]) != 0;
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--corrupt") a.corrupt = true;
    else return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (!parse(argc, argv, run.args)) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload W --seed N --seconds S "
                 "[--trace 0|1] [--smoke] [--corrupt]\n");
    return 2;
  }
  run.nproc = runtime::hardware_concurrency();
  run.corrupt_pending = run.args.corrupt;
  const bool smoke = run.args.smoke;
  const std::string& w = run.args.workload;
  if (w == "gemm_serial") {
    run_gemm(run, {smoke ? 512 : 1024, 1, false});
  } else if (w == "gemm_parallel") {
    run_gemm(run, {smoke ? 1024 : 2048, run.nproc, false});
  } else if (w == "gemm_inject") {
    run_gemm(run, {smoke ? 512 : 1024, run.nproc, true});
  } else if (w == "serve_mixed") {
    run_serve(run);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", w.c_str());
    return 2;
  }

  if (run.args.trace) {
    suite::Tracer& tracer = suite::Tracer::instance();
    tracer.print_self_times(w);
    const std::string path = "bench_trace_" + w + ".json";
    if (!tracer.write_chrome(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::printf("# trace written to %s\n", path.c_str());
  }
  run.report.print_lines(w);
  const long attempted = run.tally.attempted.load();
  const long failed = run.tally.failed.load();
  const bool correct = failed == 0 && attempted > 0;
  std::printf("# %s attempted=%ld failed=%ld failed_frac=%.6g\n", w.c_str(),
              attempted, failed, attempted > 0 ? double(failed) / double(attempted) : 1.0);
  run.report.print_json(correct, attempted, failed);
  return correct ? 0 : 1;
}
