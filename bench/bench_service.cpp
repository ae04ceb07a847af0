// Serving-layer throughput: GemmService (bounded admission queue,
// dispatcher-run groups, coalescing, help-on-wait) vs the
// synchronous-loop baseline (each client thread calls ft_dgemm directly),
// at 1/2/4/8 concurrent clients.
//
// Two request profiles, two stories:
//
//   nt=1  — serial fast-path requests (FTGEMM_BENCH_SIZE^3, default 64).
//           Measures the queue tax: admission + future settle + dispatcher
//           hand-off against requests a synchronous loop executes at its
//           cheapest.  The coalescer folds same-shape neighbors into
//           batched calls (one plan fetch + workspace lease per group);
//           async lands within a few percent of sync.
//
//   nt=T  — team requests (FTGEMM_BENCH_BIG^3, default 192, general path,
//           T = FTGEMM_BENCH_SERVICE_THREADS, default 4 — the natural
//           config for a multi-core deployment).  This is the claim: a
//           synchronous loop opens one thread team PER CLIENT concurrently
//           (N clients -> N*T runnable threads, barrier-storming each
//           other), while the service admits cheaply and executes with
//           bounded concurrency.  async/sync >= 1 at >= 4 clients, and the
//           margin grows with the client count.
//
//   sharded_* — the same two profiles against services with an explicit
//           shard count (FTGEMM_SERVICE_SHARDS equivalent swept {1,2,4})
//           at loaded client counts, isolating what sharded admission +
//           work stealing buy once the submit side is no longer the
//           bottleneck.  The serial story additionally rides the inline
//           fast lane: idle-service fast-path requests execute on the
//           submitting thread with no queue round-trip at all.
//
// Clients submit in pipelined windows (FTGEMM_BENCH_WINDOW requests via
// submit_all, drained newest-first) — the shape of real serving traffic.
// Per-client operands are private; each client spot-verifies its last
// window against the oracle so the harness cannot quietly serve garbage.
// Series are interleaved (async, sync, async, ...) per rep; medians over
// FTGEMM_BENCH_REPS are reported.
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
      opts.runtime = RuntimeBackend::kPool;
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

double run_async(std::vector<ClientWorkload>& clients, index_t calls,
                 index_t window, int nt, int shards,
                 std::atomic<int>& failures) {
  const int nclients = int(clients.size());
  serve::ServiceConfig cfg;
  cfg.max_coalesce = 32;
  cfg.queue_capacity = std::size_t(nclients) * std::size_t(window) * 2;
  cfg.shards = shards;  // 0 = auto (env / hardware concurrency)
  // Every client may ride the inline fast lane concurrently; queued
  // traffic runs one group per dispatcher plus one per waiting client.
  cfg.inline_inflight_limit = nclients;
  serve::GemmService service(cfg);

  WallTimer t;
  std::vector<std::thread> threads;
  threads.reserve(std::size_t(nclients));
  for (int id = 0; id < nclients; ++id) {
    threads.emplace_back([&, id] {
      ClientWorkload& w = clients[std::size_t(id)];
      Options opts;
      opts.threads = nt;
      opts.runtime = RuntimeBackend::kPool;
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
  const double rps = double(nclients) * double(calls) / t.seconds();
  service.shutdown(true);
  return rps;
}

/// Symmetric plan-cache warm-up.  The sync loop only ever exercises the
/// direct-path plan, while the service routes windows through the batched
/// coalescer (and the inline lane) — so without an explicit pre-warm the
/// async side pays the batched plan build + workspace growth inside its
/// first timed window and the serial ratio under-reports steady state.
/// Warm every route the timed loops can take before either side runs.
void prewarm(ClientWorkload& w, index_t window, int nt, int shards) {
  Options opts;
  opts.threads = nt;
  opts.runtime = RuntimeBackend::kPool;
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

void run_series(const std::string& label, index_t size, index_t calls,
                index_t window, int nt, int reps, int shards,
                std::initializer_list<int> client_counts,
                std::atomic<int>& failures) {
  for (const int nclients : client_counts) {
    std::vector<ClientWorkload> cw;
    cw.reserve(std::size_t(nclients));
    for (int id = 0; id < nclients; ++id) {
      cw.emplace_back(size, window, std::uint64_t(7 + id));
    }
    prewarm(cw[0], window, nt, shards);
    run_async(cw, calls, window, nt, shards, failures);  // warm-up both sides
    run_sync(cw, calls, window, nt, failures);
    std::vector<double> sync_s, async_s;
    for (int r = 0; r < reps; ++r) {
      async_s.push_back(run_async(cw, calls, window, nt, shards, failures));
      sync_s.push_back(run_sync(cw, calls, window, nt, failures));
    }
    const double s = compute_stats(sync_s).median;
    const double a = compute_stats(async_s).median;
    std::printf("%-16s%8d%14.1f%14.1f%12.2fx\n", label.c_str(), nclients, s,
                a, s > 0 ? a / s : 0.0);
    std::fflush(stdout);
  }
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
              "team ratio >= 1 at >= 4 clients is the claim\n",
              (long long)window, reps, runtime::hardware_concurrency());
  std::printf("# sharded_* series: explicit shard counts (inline lane on), "
              "loaded client counts only\n");
  print_provenance();
  std::printf("%-16s%8s%14s%14s%13s\n", "series", "clients", "sync_rps",
              "async_rps", "ratio");

  std::atomic<int> failures{0};
  const index_t team_window = std::max(window / 2, index_t(4));
  run_series("serial_nt1", small, small_calls, window, 1, reps, 0,
             {1, 2, 4, 8}, failures);
  run_series("team_nt" + std::to_string(team), big, big_calls, team_window,
             team, reps, 0, {1, 2, 4, 8}, failures);
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
  if (failures.load() != 0) {
    std::printf("# VERIFICATION FAILURES: %d\n", failures.load());
    return 1;
  }
  return 0;
}
