// Serving-layer throughput: GemmService (bounded admission queue,
// dispatcher-run groups, coalescing, help-on-wait) vs the
// synchronous-loop baseline (each client thread calls ft_dgemm directly),
// at 1/2/4/8 concurrent clients.
//
// Two request profiles:
//
//   nt=1  — serial fast-path requests (FTGEMM_BENCH_SIZE^3, default 64).
//           Measures the queue tax: admission, hand-off to the dispatcher
//           or the waiting client, and future settle, against requests a
//           synchronous loop executes at its cheapest.  The coalescer
//           folds same-shape neighbors into batched calls (one plan fetch
//           + workspace lease per group).
//
//   nt=T  — team requests (FTGEMM_BENCH_BIG^3, default 192, general path,
//           T = FTGEMM_BENCH_SERVICE_THREADS, default 4).  A synchronous
//           loop opens one thread team PER CLIENT concurrently (N clients
//           -> N*T runnable threads, barrier-storming each other).  The
//           service does not bound that: a waiting client runs its
//           shard's next team request beside the dispatcher's, also while
//           the dispatcher runs the request it waits for, so teams run
//           side by side there too.
//
//   sharded_* — the same two profiles against services with an explicit
//           shard count (FTGEMM_SERVICE_SHARDS equivalent swept {1,2,4})
//           at loaded client counts; comparing async_rps across the
//           _s1/_s2/_s4 rows isolates what sharded admission buys.
//
// No ratio is claimed.  On the 4-core record host the loaded rows sit at
// 0.84-1.11x of the synchronous loop, and the harness is noisy there: three
// records of one binary put serial_nt1 at 1 client at 0.96x, 1.00x and
// 0.88x, and team_nt4 at 2 clients at 0.93x, 0.85x and 0.77x.  The last
// comment line of a run states what its own rows show.
//
// Clients submit in pipelined windows (FTGEMM_BENCH_WINDOW requests via
// submit_all, drained newest-first) — the shape of real serving traffic.
// Per-client operands are private; each client spot-verifies its last
// window against the oracle so the harness cannot quietly serve garbage.
// Series are interleaved (async, sync, async, ...) per rep; medians over
// FTGEMM_BENCH_REPS are reported.  helped_pct is who ran the queued
// requests: the share a waiting client ran itself (ServiceStats::helped
// over queued completions), the dispatchers having run the rest.
#include <algorithm>
#include <atomic>
#include <thread>

#include "bench_common.hpp"
#include "runtime/topology.hpp"
#include "serve/service.hpp"

using namespace ftgemm;
using namespace ftgemm::bench;

namespace {

struct ClientWorkload {
  Matrix<double> a, b, ref;
  std::vector<Matrix<double>> c;
  index_t n;

  ClientWorkload(index_t size, index_t window, std::uint64_t seed)
      : a(size, size), b(size, size), ref(size, size), n(size) {
    a.fill_random(seed);
    b.fill_random(seed + 1);
    ref.fill(0.0);
    baseline::naive_dgemm(Trans::kNoTrans, Trans::kNoTrans, n, n, n, 1.0,
                          a.data(), n, b.data(), n, 0.0, ref.data(), n);
    c.reserve(std::size_t(window));
    for (index_t w = 0; w < window; ++w) c.emplace_back(size, size);
  }
};

double run_sync(std::vector<ClientWorkload>& clients, index_t calls,
                index_t window, int nt, std::atomic<int>& failures) {
  const int nclients = int(clients.size());
  WallTimer t;
  std::vector<std::thread> threads;
  threads.reserve(std::size_t(nclients));
  for (int id = 0; id < nclients; ++id) {
    threads.emplace_back([&, id] {
      ClientWorkload& w = clients[std::size_t(id)];
      Options opts;
      opts.threads = nt;
      for (index_t i = 0; i < calls; ++i) {
        const FtReport rep = ft_dgemm(
            Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, w.n, w.n,
            w.n, 1.0, w.a.data(), w.n, w.b.data(), w.n, 0.0,
            w.c[std::size_t(i % window)].data(), w.n, opts);
        if (!rep.clean()) failures.fetch_add(1);
      }
      if (max_rel_diff(w.c[0], w.ref) > 1e-9) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  return double(nclients) * double(calls) / t.seconds();
}

struct AsyncRun {
  double rps = 0;
  /// Share of the queued requests that their own waiting client ran
  /// (help-on-wait); the dispatchers ran the rest.
  double helped_pct = 0;
};

AsyncRun run_async(std::vector<ClientWorkload>& clients, index_t calls,
                   index_t window, int nt, int shards,
                   std::atomic<int>& failures) {
  const int nclients = int(clients.size());
  serve::ServiceConfig cfg;
  cfg.max_coalesce = 32;
  cfg.queue_capacity = std::size_t(nclients) * std::size_t(window) * 2;
  cfg.shards = shards;  // 0 = auto (env / hardware concurrency)
  serve::GemmService service(cfg);

  WallTimer t;
  std::vector<std::thread> threads;
  threads.reserve(std::size_t(nclients));
  for (int id = 0; id < nclients; ++id) {
    threads.emplace_back([&, id] {
      ClientWorkload& w = clients[std::size_t(id)];
      Options opts;
      opts.threads = nt;
      std::vector<serve::GemmRequest> wnd;
      wnd.reserve(std::size_t(window));
      for (index_t i = 0; i < calls; ++i) {
        wnd.push_back(serve::make_gemm_request<double>(
            true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, w.n,
            w.n, w.n, 1.0, w.a.data(), w.n, w.b.data(), w.n, 0.0,
            w.c[std::size_t(i % window)].data(), w.n, opts));
        if (index_t(wnd.size()) == window || i == calls - 1) {
          std::vector<serve::GemmFuture> fl = service.submit_all(wnd);
          // Newest-first drain: one park on the window's last future, the
          // earlier waits return already settled.
          for (auto f = fl.rbegin(); f != fl.rend(); ++f) {
            if (!f->wait().ok()) failures.fetch_add(1);
          }
          wnd.clear();
        }
      }
      if (max_rel_diff(w.c[0], w.ref) > 1e-9) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  AsyncRun run;
  run.rps = double(nclients) * double(calls) / t.seconds();
  const serve::ServiceStats st = service.stats();
  const std::uint64_t queued = st.completed - st.inline_executed;
  if (queued > 0) run.helped_pct = 100.0 * double(st.helped) / double(queued);
  service.shutdown(true);
  return run;
}

/// Symmetric plan-cache warm-up.  The sync loop only ever exercises the
/// direct-path plan, while the service routes windows through the batched
/// coalescer — so without an explicit pre-warm the
/// async side pays the batched plan build + workspace growth inside its
/// first timed window and the serial ratio under-reports steady state.
/// Warm every route the timed loops can take before either side runs.
void prewarm(ClientWorkload& w, index_t window, int nt, int shards) {
  Options opts;
  opts.threads = nt;
  ft_dgemm(Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, w.n, w.n,
           w.n, 1.0, w.a.data(), w.n, w.b.data(), w.n, 0.0, w.c[0].data(),
           w.n, opts);  // direct-path plan (sync loop, direct dispatch)
  serve::ServiceConfig cfg;
  cfg.shards = shards;
  serve::GemmService service(cfg);
  std::vector<serve::GemmRequest> wnd;
  const index_t k = std::min<index_t>(window, 2);
  for (index_t i = 0; i < k; ++i) {
    wnd.push_back(serve::make_gemm_request<double>(
        true, Layout::kColMajor, Trans::kNoTrans, Trans::kNoTrans, w.n, w.n,
        w.n, 1.0, w.a.data(), w.n, w.b.data(), w.n, 0.0,
        w.c[std::size_t(i)].data(), w.n, opts));
  }
  for (auto& f : service.submit_all(wnd)) f.wait();  // batched-path plan
  service.shutdown(true);
}

/// One row's medians over reps.
struct Point {
  double ratio = 0;  ///< async/sync
  double helped_pct = 0;
};

/// Runs one series and returns its row per client count.
std::vector<Point> run_series(const std::string& label, index_t size,
                              index_t calls, index_t window, int nt, int reps,
                              int shards,
                              std::initializer_list<int> client_counts,
                              std::atomic<int>& failures) {
  std::vector<Point> rows;
  for (const int nclients : client_counts) {
    std::vector<ClientWorkload> cw;
    cw.reserve(std::size_t(nclients));
    for (int id = 0; id < nclients; ++id) {
      cw.emplace_back(size, window, std::uint64_t(7 + id));
    }
    prewarm(cw[0], window, nt, shards);
    run_async(cw, calls, window, nt, shards, failures);  // warm-up both sides
    run_sync(cw, calls, window, nt, failures);
    std::vector<double> sync_s, async_s, helped_s;
    for (int r = 0; r < reps; ++r) {
      const AsyncRun run = run_async(cw, calls, window, nt, shards, failures);
      async_s.push_back(run.rps);
      helped_s.push_back(run.helped_pct);
      sync_s.push_back(run_sync(cw, calls, window, nt, failures));
    }
    const double s = compute_stats(sync_s).median;
    const double a = compute_stats(async_s).median;
    rows.push_back({s > 0 ? a / s : 0.0, compute_stats(helped_s).median});
    std::printf("%-16s%8d%14.1f%14.1f%12.2fx%12.1f\n", label.c_str(),
                nclients, s, a, rows.back().ratio, rows.back().helped_pct);
    std::fflush(stdout);
  }
  return rows;
}

}  // namespace

int main() {
  const index_t small = env_long("FTGEMM_BENCH_SIZE", 64);
  const index_t big = env_long("FTGEMM_BENCH_BIG", 192);
  const int team = int(env_long("FTGEMM_BENCH_SERVICE_THREADS", 4));
  const index_t window = env_long("FTGEMM_BENCH_WINDOW", 8);
  const int reps = bench_reps();
  // Equalize wall time per point across the two series.
  const index_t small_calls = env_long("FTGEMM_BENCH_CALLS", 160);
  const index_t big_calls = std::max<index_t>(small_calls / 8, 8);

  std::printf("# serving-layer throughput: async GemmService vs "
              "synchronous-loop clients\n");
  std::printf("# serial: %lld^3 nt=1 (queue-tax story); team: %lld^3 nt=%d "
              "(admission-control story);\n",
              (long long)small, (long long)big, team);
  std::printf("# window=%lld reps=%d hw_threads=%d — ratio = async/sync; "
              "no ratio is claimed (summary after the rows)\n",
              (long long)window, reps, runtime::hardware_concurrency());
  std::printf("# sharded_* series: explicit shard counts, loaded client "
              "counts only\n");
  print_provenance();
  std::printf("%-16s%8s%14s%14s%13s%12s\n", "series", "clients",
              "sync_rps", "async_rps", "ratio", "helped_pct");

  std::atomic<int> failures{0};
  const index_t team_window = std::max(window / 2, index_t(4));
  const std::vector<Point> serial = run_series(
      "serial_nt1", small, small_calls, window, 1, reps, 0, {1, 2, 4, 8},
      failures);
  const std::vector<Point> teams =
      run_series("team_nt" + std::to_string(team), big, big_calls,
                 team_window, team, reps, 0, {1, 2, 4, 8}, failures);
  // Shard-scaling sweep at loaded client counts: the sync baseline is the
  // same, so comparing async_rps across _s1/_s2/_s4 rows isolates sharding.
  for (const int s : {1, 2, 4}) {
    run_series("sharded_nt1_s" + std::to_string(s), small, small_calls,
               window, 1, reps, s, {4, 8}, failures);
  }
  for (const int s : {1, 2, 4}) {
    run_series("sharded_team_s" + std::to_string(s), big, big_calls,
               team_window, team, reps, s, {4, 8}, failures);
  }
  // What the rows show, stated from the rows themselves.
  const auto [smin, smax] = std::minmax_element(
      serial.begin(), serial.end(),
      [](const Point& x, const Point& y) { return x.ratio < y.ratio; });
  std::printf("# rows: serial_nt1 ratio %.2fx..%.2fx over 1-8 clients; "
              "team_nt%d ratio %.2fx and %.2fx, helped_pct %.1f and %.1f, "
              "at 4 and 8 clients\n",
              smin->ratio, smax->ratio, team, teams[2].ratio, teams[3].ratio,
              teams[2].helped_pct, teams[3].helped_pct);
  if (failures.load() != 0) {
    std::printf("# VERIFICATION FAILURES: %d\n", failures.load());
    return 1;
  }
  return 0;
}
