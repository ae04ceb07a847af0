// GemmService implementation: the sharded front-end — validation, plan
// resolution, the inline-execute fast lane, shard selection, admission,
// shutdown, and group execution on behalf of the shard dispatchers (see
// serve/service.hpp for the contracts, serve/shard.hpp for the per-shard
// mechanics, serve/shard.cpp for the lock order).
//
// Lifetime protocol of one request: enqueue() validates, resolves the plan
// fingerprint, and either (a) executes inline on the calling thread when
// the fast lane is open (submit() only), or (b) pushes it to its lane in the
// home shard's queue.  A consumer — the home shard's dispatcher or a
// client waiting on a request of that shard — claims it into a group and
// calls back into execute_group(), which runs the synchronous entry
// points, updates counters, and settles every future.  A client
// observing its future done and immediately destroying the service still
// blocks in ~GemmService until the consumer that settled it has left
// (dispatchers are joined, helpers drained).
//
// Shutdown protocol: the shared stopping flag closes the door; every
// submitter and every helping waiter passes through a ClientGate, and
// shutdown() waits for the gated count to drain *before* arming
// stop_mode_ — so by the time a dispatcher runs its final drain/cancel
// sweep, no producer can be mid-admission, no helper can be building or
// running a group, and no request can be admitted and never settled.  The
// flag, the count and shutdown's mutex/cv live in a shared
// detail::ShutdownSync block so a client that released shutdown's wait can
// finish its notify after the service is destroyed.
#include "serve/service.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "core/checksum_domain.hpp"
#include "core/context.hpp"
#include "core/dispatch.hpp"
#include "runtime/topology.hpp"
#include "serve/shard.hpp"
#include "serve/state.hpp"
#include "util/env.hpp"

namespace ftgemm::serve {

// ---------------------------------------------------------------------------
// GemmFuture
// ---------------------------------------------------------------------------

namespace {

/// RAII pass of a client thread into the service — a submitter (incl. its
/// inline executions) or a waiter helping its shard: shutdown() waits for
/// the count to drain before arming the dispatchers' stop mode, so a client
/// that saw `stopping` clear can always finish its admission or its group.
struct ClientGate {
  /// Owning copy: the decrement below may release shutdown()'s wait, after
  /// which the service can be destroyed under us — everything this
  /// destructor touches past that decrement must live in the shared block.
  std::shared_ptr<detail::ShutdownSync> sync;

  explicit ClientGate(std::shared_ptr<detail::ShutdownSync> s)
      : sync(std::move(s)) {
    sync->clients.fetch_add(1, std::memory_order_seq_cst);
  }
  ~ClientGate() {
    // seq_cst load: if shutdown's predicate missed this decrement (slept
    // on count == 1), its earlier stopping store is S-ordered before the
    // decrement and must be visible here so the wake gets delivered.
    if (sync->clients.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        sync->stopping.load(std::memory_order_seq_cst)) {
      { std::lock_guard<std::mutex> lk(sync->m); }
      sync->cv.notify_all();
    }
  }
  /// Re-read after entering (seq_cst, Dekker against shutdown's stopping
  /// store then count read): false means shutdown will wait for us.
  [[nodiscard]] bool stopping() const {
    return sync->stopping.load(std::memory_order_seq_cst);
  }
};

}  // namespace

GemmResult GemmFuture::wait() const {
  if (!st_) {
    GemmResult res;
    res.status = RequestStatus::kRejected;
    return res;
  }
  // Fast path: a settled future costs one acquire load, no lock — the
  // common case for a client draining a pipelined window newest-first.
  if (detail::is_settled(st_->status.load(std::memory_order_acquire))) {
    return st_->result;
  }
  if (st_->shard != nullptr) {
    // Help: run the shard's next groups here instead of sleeping until the
    // request settles, whoever has claimed it; park only once the shard
    // has nothing left to run.  The gate keeps the shard alive for every
    // pass that starts before shutdown does.
    const ClientGate gate(st_->sync);
    while (!gate.stopping() && !detail::is_settled(detail::status_of(*st_)) &&
           st_->shard->help(*st_)) {
    }
  }
  std::unique_lock<std::mutex> lk(st_->m);
  st_->cv.wait(lk, [&] {
    return detail::is_settled(
        st_->status.load(std::memory_order_acquire));
  });
  return st_->result;
}

bool GemmFuture::wait_for(double seconds) const {
  if (!st_) return true;
  if (detail::is_settled(st_->status.load(std::memory_order_acquire))) {
    return true;
  }
  std::unique_lock<std::mutex> lk(st_->m);
  return st_->cv.wait_for(lk, std::chrono::duration<double>(seconds), [&] {
    return detail::is_settled(
        st_->status.load(std::memory_order_acquire));
  });
}

bool GemmFuture::settled() const {
  return st_ == nullptr || detail::is_settled(detail::status_of(*st_));
}

RequestStatus GemmFuture::status() const {
  return st_ ? detail::status_of(*st_) : RequestStatus::kRejected;
}

bool GemmFuture::cancel() {
  return st_ != nullptr && detail::try_cancel(*st_);
}

void GemmFuture::then(std::function<void(const GemmResult&)> fn) {
  if (!st_ || !fn) return;
  bool now = false;
  {
    std::lock_guard<std::mutex> lk(st_->m);
    if (detail::is_settled(st_->status.load(std::memory_order_acquire))) {
      now = true;
    } else {
      st_->continuation = std::move(fn);
    }
  }
  if (now) fn(st_->result);
}

// ---------------------------------------------------------------------------
// Request validation / routing helpers
// ---------------------------------------------------------------------------

namespace {

using ftgemm::detail::Domain;
using ftgemm::detail::QuantOf;
using ftgemm::detail::ScalarOf;
using ftgemm::detail::visit_precision;

/// Everything the entry points would reject plus the null-pointer
/// dereferences only the service can see (it knows alpha up front).
bool request_valid(const GemmRequest& r) {
  if (r.batch < 1) return false;
  // The domain's depth gate (the int8 exactness bound) — the entry points
  // would reject it anyway; catching it at the door avoids planning an
  // unusable shape.  A tag outside the precision list fails it too.
  bool depth_ok = false;
  visit_precision(r.precision, [&](auto e) {
    using E = decltype(e);
    depth_ok = Domain<typename E::Storage, typename E::Compute>::depth_ok(r.k);
  });
  if (!depth_ok) return false;
  Trans ta = r.ta, tb = r.tb;
  index_t m = r.m, n = r.n, lda = r.lda, ldb = r.ldb;
  const void* a = r.a;
  const void* b = r.b;
  ftgemm::detail::normalize_layout(r.layout, ta, tb, m, n, a, lda, b, ldb);
  if (!valid_gemm_args(ta, tb, m, n, r.k, lda, ldb, r.ldc)) return false;
  if (m > 0 && n > 0) {
    if (r.c == nullptr) return false;
    if (r.k > 0 && r.alpha != 0.0 && (r.a == nullptr || r.b == nullptr))
      return false;
  }
  return true;
}

template <typename S, typename C>
bool plan_takes_fast_path(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                          const Options& opts, bool ft, PlanKey& key) {
  key = make_plan_key(ta, tb, m, n, k, opts, ft);
  // The shared process-wide cache: this is the very plan a synchronous call
  // of the same fingerprint resolves, so the lookup doubles as a warm-up.
  // ContextCache::plan stamps the storage-dtype tag into the key, so the
  // fingerprint this request coalesces under is dtype-qualified.
  const auto plan = process_context_cache<S, C>().plan(key);
  key = plan->key;
  return plan->fast_path;
}

/// Whether the request's resolved plan is planner-pinned to one thread (the
/// small-GEMM fast path) — the condition under which both the inline fast
/// lane pays off and batched-member execution is bit-identical to the
/// synchronous call (see the header's bit-identity contract).
bool resolve_fast_path(const GemmRequest& r, PlanKey& key) {
  Trans ta = r.ta, tb = r.tb;
  index_t m = r.m, n = r.n, lda = r.lda, ldb = r.ldb;
  const void* a = r.a;
  const void* b = r.b;
  ftgemm::detail::normalize_layout(r.layout, ta, tb, m, n, a, lda, b, ldb);
  bool fast = false;
  visit_precision(r.precision, [&](auto e) {
    using E = decltype(e);
    fast = plan_takes_fast_path<typename E::Storage, typename E::Compute>(
        ta, tb, m, n, r.k, r.opts, r.ft, key);
  });
  return fast;
}

/// Synchronous execution of one request through the generic single and
/// batched dispatch every public entry point forwards to — the direct and
/// inline routes *are* the synchronous API (on whichever thread runs the
/// group).  The request's QuantParams become the domain's per-call
/// quantization (dropped by the float domains).
template <typename S, typename C>
GemmResult run_direct(const GemmRequest& r) {
  using Scalar = ScalarOf<S, C>;
  GemmResult res;
  const Scalar alpha = Scalar(r.alpha);
  const Scalar beta = Scalar(r.beta);
  const S* a = static_cast<const S*>(r.a);
  const S* b = static_cast<const S*>(r.b);
  Scalar* c = static_cast<Scalar*>(r.c);
  const QuantOf<S, C> q(r.qp);
  if (r.batch > 1) {
    BatchOptions bopts;
    bopts.base = r.opts;
    res.batch =
        r.ft ? ftgemm::detail::run_strided_batched<S, true, C>(
                   r.layout, r.ta, r.tb, r.m, r.n, r.k, alpha, a, r.lda,
                   r.stride_a, b, r.ldb, r.stride_b, beta, c, r.ldc,
                   r.stride_c, r.batch, bopts, q)
             : ftgemm::detail::run_strided_batched<S, false, C>(
                   r.layout, r.ta, r.tb, r.m, r.n, r.k, alpha, a, r.lda,
                   r.stride_a, b, r.ldb, r.stride_b, beta, c, r.ldc,
                   r.stride_c, r.batch, bopts, q);
  } else if (r.ft) {
    res.report = ftgemm::detail::dispatch<S, true, C>(
        r.layout, r.ta, r.tb, r.m, r.n, r.k, alpha, a, r.lda, b, r.ldb, beta,
        c, r.ldc, r.opts, nullptr, q);
  } else {
    // Ori requests report nothing (GemmResult::report stays default).
    ftgemm::detail::dispatch<S, false, C>(r.layout, r.ta, r.tb, r.m, r.n,
                                          r.k, alpha, a, r.lda, b, r.ldb,
                                          beta, c, r.ldc, r.opts, nullptr, q);
  }
  res.status = RequestStatus::kDone;
  return res;
}

/// Round-robin home-shard assignment: each submitting thread gets a stable
/// index on first contact with any service, so one client's pipelined
/// window lands on one shard (coalescing) while distinct clients spread
/// across shards (parallel dispatch).
std::atomic<unsigned> g_thread_seq{0};

unsigned thread_home_index() {
  thread_local const unsigned idx =
      g_thread_seq.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

}  // namespace

// ---------------------------------------------------------------------------
// GemmService — construction / admission
// ---------------------------------------------------------------------------

GemmService::GemmService(ServiceConfig config) : cfg_(config) {
  cfg_.queue_capacity = std::max<std::size_t>(cfg_.queue_capacity, 1);
  cfg_.max_coalesce = std::max<index_t>(cfg_.max_coalesce, 1);
  int shards = cfg_.shards;
  if (shards <= 0) {
    const long env = env_long("FTGEMM_SERVICE_SHARDS", 0);
    shards = env > 0 ? int(std::min<long>(env, 64))
                     : runtime::hardware_concurrency();
  }
  nshards_ = std::clamp(shards, 1, 64);
  cfg_.shards = nshards_;
  if (cfg_.inline_inflight_limit <= 0) cfg_.inline_inflight_limit = nshards_;
  paused_.store(cfg_.start_paused, std::memory_order_seq_cst);
  shards_.reserve(std::size_t(nshards_));
  for (int i = 0; i < nshards_; ++i) {
    shards_.push_back(
        std::make_unique<ServiceShard>(this, i, cfg_.queue_capacity));
  }
  for (auto& s : shards_) s->start();
}

GemmService::~GemmService() { shutdown(true); }

GemmFuture GemmService::submit(const GemmRequest& req) {
  return enqueue(req, /*blocking=*/true);
}

GemmFuture GemmService::try_submit(const GemmRequest& req) {
  return enqueue(req, /*blocking=*/false);
}

/// Build the queue entry for one validated request (state, plan
/// fingerprint, inline/coalescing eligibility).
detail::Pending GemmService::make_pending(
    const GemmRequest& req, std::shared_ptr<detail::RequestState> st) {
  detail::Pending p;
  p.req = req;
  p.state = std::move(st);
  if (req.batch == 1) {
    p.inline_eligible = resolve_fast_path(req, p.key);
    // resident_a / injector / memory_injector / correction_log requests
    // route direct: the synchronous entry point resolves those per request
    // (operand-cache verify/heal accounting, compute and memory fault
    // injection, logging), which a coalesced batch — run under its head
    // request's Options — would apply to the wrong member or not at all.
    // They may still run inline — the inline route *is* the synchronous
    // entry point.
    p.coalescible = p.inline_eligible && req.opts.injector == nullptr &&
                    req.opts.memory_injector == nullptr &&
                    req.opts.correction_log == nullptr && !req.opts.resident_a;
  }
  return p;
}

ServiceShard& GemmService::shard_for(const GemmRequest& req) {
  if (req.shard_hint >= 0) {
    return *shards_[std::size_t(req.shard_hint % nshards_)];
  }
  return *shards_[std::size_t(thread_home_index() % unsigned(nshards_))];
}

bool GemmService::inline_open(const ServiceShard& home) const {
  // Closed while paused (order must be preserved for staged queues), while
  // the home shard has a backlog (no queue-jumping past requests this
  // thread already queued), and once dispatch capacity is saturated
  // (queueing lets small requests coalesce behind the backlog instead).
  return cfg_.inline_fast_lane &&
         !paused_.load(std::memory_order_acquire) &&
         !sync_->stopping.load(std::memory_order_acquire) &&
         home.queued() == 0 &&
         inflight_.load(std::memory_order_acquire) <
             cfg_.inline_inflight_limit;
}

GemmFuture GemmService::enqueue(const GemmRequest& req, bool blocking) {
  auto st = std::make_shared<detail::RequestState>();
  GemmFuture fut(st);
  if (!request_valid(req)) {
    detail::reject_unpublished(*st, RejectReason::kInvalidRequest);
    count_rejected();
    return fut;
  }
  const ClientGate gate(sync_);
  if (gate.stopping()) {
    detail::reject_unpublished(*st, RejectReason::kShuttingDown);
    count_rejected();
    return fut;
  }
  detail::Pending p = make_pending(req, std::move(st));
  ServiceShard& home = shard_for(req);
  if (p.inline_eligible && inline_open(home)) {
    // The future has not been returned yet, so the claim cannot race a
    // cancel; the gate keeps shutdown from completing under our feet.
    detail::try_claim(*p.state);
    execute_direct(p, /*inlined=*/true);
    return fut;
  }
  const ServiceShard::Admit verdict =
      !blocking                ? home.try_admit(p)
      : home.admit(&p, 1) == 1 ? ServiceShard::Admit::kOk
                               : ServiceShard::Admit::kStopping;
  switch (verdict) {
    case ServiceShard::Admit::kOk:
      home.wake();
      break;
    case ServiceShard::Admit::kStopping:
      detail::reject_unpublished(*p.state, RejectReason::kShuttingDown);
      count_rejected();
      break;
    case ServiceShard::Admit::kFull:
      detail::reject_unpublished(*p.state,
                                 paused_.load(std::memory_order_acquire)
                                     ? RejectReason::kPaused
                                     : RejectReason::kQueueFull);
      count_rejected();
      break;
  }
  return fut;
}

std::vector<GemmFuture> GemmService::submit_all(
    const std::vector<GemmRequest>& reqs) {
  std::vector<GemmFuture> futures;
  futures.reserve(reqs.size());
  std::vector<detail::Pending> ready;
  ready.reserve(reqs.size());
  std::uint64_t rejected = 0;
  const ClientGate gate(sync_);
  const bool stopping_now = gate.stopping();
  for (const GemmRequest& r : reqs) {
    auto st = std::make_shared<detail::RequestState>();
    futures.push_back(GemmFuture(st));
    if (stopping_now) {
      detail::reject_unpublished(*st, RejectReason::kShuttingDown);
      ++rejected;
      continue;
    }
    if (!request_valid(r)) {
      detail::reject_unpublished(*st, RejectReason::kInvalidRequest);
      ++rejected;
      continue;
    }
    ready.push_back(make_pending(r, std::move(st)));
  }
  // Admit each shard's share of the window under one hold of its lock,
  // then wake: a dispatcher sees the share whole, so its same-fingerprint
  // runs coalesce as they would from a staged queue.  A shard that fills
  // mid-window is woken before this thread blocks for space (admit).
  std::vector<ServiceShard*> homes;
  homes.reserve(ready.size());
  for (const detail::Pending& p : ready) homes.push_back(&shard_for(p.req));
  std::vector<ServiceShard*> touched;
  std::vector<detail::Pending> share;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    ServiceShard* home = homes[i];
    if (std::find(touched.begin(), touched.end(), home) != touched.end()) {
      continue;  // this shard's share is already in
    }
    touched.push_back(home);
    share.clear();
    for (std::size_t j = i; j < ready.size(); ++j) {
      if (homes[j] == home) share.push_back(std::move(ready[j]));
    }
    const std::size_t in = home->admit(share.data(), share.size());
    for (std::size_t j = in; j < share.size(); ++j) {
      detail::reject_unpublished(*share[j].state, RejectReason::kShuttingDown);
      ++rejected;
    }
  }
  for (ServiceShard* s : touched) s->wake();
  if (rejected > 0) count_rejected(rejected);
  return futures;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void GemmService::pause() {
  paused_.store(true, std::memory_order_seq_cst);
}

void GemmService::resume() {
  paused_.store(false, std::memory_order_seq_cst);
  for (auto& s : shards_) s->wake_all();
}

void GemmService::shutdown(bool drain) {
  std::lock_guard<std::mutex> slk(shutdown_m_);
  if (shards_joined_) return;
  sync_->stopping.store(true, std::memory_order_seq_cst);
  // Unpause only when draining: drain must execute the backlog, but a
  // cancel-mode shutdown of a paused service must keep the dispatchers
  // parked, or they could build and execute staged groups in the window
  // between here and the stop_mode_ store below.  Cancel mode needs no
  // unpause — the dispatcher loop checks kCancel before it checks paused,
  // and the park predicate wakes on any nonzero stop mode.
  if (drain) paused_.store(false, std::memory_order_seq_cst);
  // First wake: unblock space-waiting producers (they observe stopping
  // and bow out through their gates).  Helpers finish the group they are
  // running and stop.
  for (auto& s : shards_) s->wake_all();
  {
    std::unique_lock<std::mutex> lk(sync_->m);
    sync_->cv.wait(lk, [&] {
      return sync_->clients.load(std::memory_order_seq_cst) == 0;
    });
  }
  // The admission window is drained: every accepted request is in a lane
  // or settled, and only the dispatchers consume.  Arm their final sweep
  // and collect them; their joins end the last in-flight group.
  stop_mode_.store(int(drain ? StopMode::kDrain : StopMode::kCancel),
                   std::memory_order_seq_cst);
  for (auto& s : shards_) s->wake_all();
  for (auto& s : shards_) s->join();
  assert(inflight_.load(std::memory_order_seq_cst) == 0);
  shards_joined_ = true;
}

// ---------------------------------------------------------------------------
// Counters / introspection
// ---------------------------------------------------------------------------

void GemmService::count_rejected(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(stats_m_);
  stats_.rejected += n;
}

void GemmService::count_cancelled(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(stats_m_);
  stats_.cancelled += n;
}

void GemmService::note_group_start() {
  const int now = inflight_.fetch_add(1, std::memory_order_seq_cst) + 1;
  std::lock_guard<std::mutex> lk(stats_m_);
  stats_.peak_inflight =
      std::max<std::uint64_t>(stats_.peak_inflight, std::uint64_t(now));
}

void GemmService::note_group_end() {
  inflight_.fetch_sub(1, std::memory_order_seq_cst);
}

ServiceStats GemmService::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    out = stats_;
  }
  out.shard.reserve(shards_.size());
  std::uint64_t submitted = out.inline_executed;
  for (const auto& s : shards_) {
    ShardStats ss = s->snapshot();
    submitted += ss.submitted;
    out.helped += ss.helped;
    out.peak_queue_depth =
        std::max(out.peak_queue_depth, ss.peak_queue_depth);
    out.shard.push_back(ss);
  }
  out.submitted = submitted;
  return out;
}

std::size_t GemmService::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& s : shards_) depth += s->queued();
  return depth;
}

int GemmService::inflight() const {
  return inflight_.load(std::memory_order_seq_cst);
}

// ---------------------------------------------------------------------------
// Group execution (called from shard dispatchers, helping waiters, and the
// inline fast lane)
// ---------------------------------------------------------------------------

void GemmService::execute_group(std::vector<detail::Pending>& group,
                                int shard_id) {
  if (group.size() == 1) {
    execute_direct(group.front(), /*inlined=*/false);
  } else {
    visit_precision(group.front().req.precision, [&](auto e) {
      using E = decltype(e);
      execute_coalesced<typename E::Storage, typename E::Compute>(group,
                                                                  shard_id);
    });
  }
  shards_[std::size_t(shard_id)]->counters.executed.fetch_add(
      group.size(), std::memory_order_relaxed);
}

void GemmService::execute_direct(detail::Pending& p, bool inlined) {
  GemmResult res;
  visit_precision(p.req.precision, [&](auto e) {
    using E = decltype(e);
    res = run_direct<typename E::Storage, typename E::Compute>(p.req);
  });
  res.inlined = inlined;
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    ++stats_.completed;
    if (inlined) ++stats_.inline_executed;
    if (p.req.batch > 1) {
      ++stats_.batched_calls;
      stats_.errors_detected += res.batch.errors_detected;
      stats_.errors_corrected += res.batch.errors_corrected;
      if (!res.batch.clean() || res.batch.invalid_args) ++stats_.dirty_results;
      if (p.req.opts.resident_a && !res.batch.invalid_args) {
        stats_.resident_hits += std::uint64_t(res.batch.resident_hits);
        stats_.resident_misses +=
            std::uint64_t(res.batch.problems - res.batch.resident_hits);
        stats_.resident_heals += res.batch.resident_heals;
      }
    } else {
      ++stats_.direct_calls;
      stats_.errors_detected += res.report.errors_detected;
      stats_.errors_corrected += res.report.errors_corrected;
      if (!res.report.clean() || res.report.invalid_args)
        ++stats_.dirty_results;
      if (p.req.opts.resident_a && !res.report.invalid_args) {
        res.report.resident_hit ? ++stats_.resident_hits
                                : ++stats_.resident_misses;
        stats_.resident_heals += res.report.resident_heals;
      }
    }
  }
  detail::settle(*p.state, std::move(res));
}

template <typename S, typename C>
void GemmService::execute_coalesced(std::vector<detail::Pending>& group,
                                    int shard_id) {
  using Scalar = ScalarOf<S, C>;
  const GemmRequest& head = group.front().req;
  const index_t members = index_t(group.size());
  std::vector<const S*> ap(static_cast<std::size_t>(members));
  std::vector<const S*> bp(static_cast<std::size_t>(members));
  std::vector<Scalar*> cp(static_cast<std::size_t>(members));
  for (index_t i = 0; i < members; ++i) {
    const GemmRequest& r = group[std::size_t(i)].req;
    ap[std::size_t(i)] = static_cast<const S*>(r.a);
    bp[std::size_t(i)] = static_cast<const S*>(r.b);
    cp[std::size_t(i)] = static_cast<Scalar*>(r.c);
  }
  // Inter-batch by construction: every member's plan is fast-path (one
  // thread), so per-member execution inside the batched call is the same
  // one-member execute a synchronous call runs — the bit-identity contract.
  // threads = 1 runs the members one after another on this thread: the
  // executing thread is one of many busy clients or dispatchers, and a
  // fan-out team per group would only contend with them for cores.  One
  // QuantParams serves the whole merged batch (coalesce_match required
  // every member's to be equal).
  BatchOptions bopts;
  bopts.base = head.opts;
  bopts.base.threads = 1;
  bopts.schedule = BatchSchedule::kInter;
  const QuantOf<S, C> q(head.qp);
  const BatchReport rep =
      head.ft ? ftgemm::detail::run_batched<S, true, C>(
                    head.layout, head.ta, head.tb, head.m, head.n, head.k,
                    Scalar(head.alpha), ap.data(), head.lda, bp.data(),
                    head.ldb, Scalar(head.beta), cp.data(), head.ldc, members,
                    bopts, q)
              : ftgemm::detail::run_batched<S, false, C>(
                    head.layout, head.ta, head.tb, head.m, head.n, head.k,
                    Scalar(head.alpha), ap.data(), head.lda, bp.data(),
                    head.ldb, Scalar(head.beta), cp.data(), head.ldc, members,
                    bopts, q);
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    stats_.completed += std::uint64_t(members);
    ++stats_.coalesced_batches;
    stats_.coalesced_members += std::uint64_t(members);
    stats_.errors_detected += rep.errors_detected;
    stats_.errors_corrected += rep.errors_corrected;
    stats_.dirty_results += std::uint64_t(rep.dirty_problems);
    if (rep.invalid_args) stats_.dirty_results += std::uint64_t(members);
  }
  auto& c = shards_[std::size_t(shard_id)]->counters;
  c.coalesced_batches.fetch_add(1, std::memory_order_relaxed);
  c.coalesced_members.fetch_add(std::uint64_t(members),
                                std::memory_order_relaxed);
  for (index_t i = 0; i < members; ++i) {
    GemmResult res;
    res.status = RequestStatus::kDone;
    res.coalesced = true;
    if (head.ft && std::size_t(i) < rep.per_problem.size()) {
      res.report = rep.per_problem[std::size_t(i)];
    }
    res.report.invalid_args = rep.invalid_args;
    detail::settle(*group[std::size_t(i)].state, std::move(res));
  }
}

}  // namespace ftgemm::serve
