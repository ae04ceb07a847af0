// Asynchronous GEMM serving front-end — sharded admission with a
// lock-free submit fast lane.
//
// Every entry point below PR 4 is synchronous: a caller blocks for the
// whole GEMM, so admission control, queueing, prioritization, and
// cross-request batching — the things serving-scale traffic is made of —
// all have to be reinvented by every application.  GemmService is that
// layer, built directly on the pieces the lower layers already provide:
//
//   submit(GemmRequest) -> GemmFuture
//
//   Every admitted request runs on a thread that already exists and would
//   otherwise sit idle: the submitting client, the client that waits for
//   it, or its shard's dispatcher.  No request is handed to a pool worker.
//
//   - An *inline-execute fast lane*: when a request's resolved plan takes
//     the small-GEMM fast path (a one-thread plan — the regime where a queue
//     round-trip costs more than the GEMM itself) and the service is idle
//     enough (home-shard queue empty, fewer groups in flight than shards),
//     submit() executes the request synchronously on the calling thread —
//     the identical code path a direct call runs, bit-identical, zero
//     hand-offs.  submit_all() never runs a request on the calling thread:
//     it queues the whole window, wakes each touched shard once, and
//     returns; each request then settles as soon as its own group finishes.
//
//   - N *shards* (ServiceConfig::shards; default: FTGEMM_SERVICE_SHARDS,
//     else hardware concurrency), each owning a bounded *lock-free MPSC
//     submit ring* per priority lane (serve/queue.hpp) and its own
//     dispatcher thread, which executes each group it builds on itself,
//     one group at a time.  Client threads are round-robin affine to a
//     home shard (overridable per request via GemmRequest::shard_hint), so
//     a client's pipelined window lands on one shard and keeps its
//     coalescing opportunity.  submit() applies per-shard backpressure
//     (blocks while the shard is full); try_submit() sheds load instead,
//     and its kRejected future carries a RejectReason saying *which*
//     resource was exhausted.
//
//   - *Help-on-wait*: GemmFuture::wait() on a still-queued request runs
//     its shard's next group on the waiting thread, built exactly as the
//     dispatcher builds one, until the request has left the queue; then it
//     blocks.  A client that queued work thus executes it instead of
//     sleeping while its dispatcher is busy.
//
//   - *Coalescing*: queued single-problem requests whose resolved plan
//     takes the small-GEMM fast path (planner-pinned to one thread) and
//     whose full plan fingerprint + scalars + leading dimensions match are
//     merged into one batched call on the inter-batch scheduler — one plan
//     fetch and one workspace lease for up to max_coalesce requests, whose
//     members run one after another on the executing thread.  See the
//     bit-identity note below.
//
//   - *Cancellation* (GemmFuture::cancel — queued requests only),
//     *completion callbacks* (GemmFuture::then), and per-service counters
//     (ServiceStats, with per-shard and inline breakdowns) aggregating
//     FtReport/BatchReport outcomes across every request the service
//     executed.
//
// Bit-identity contract: for every routing decision the service can make —
// inline fast lane, direct dispatch on any shard, run by a waiting client,
// coalesced by the dispatcher or by a waiting client — the delivered C
// (and FT detection behavior) is bit-identical to the synchronous entry
// point called with the same arguments and Options.  Inline and direct
// routes *are* the synchronous entry points (on whichever thread runs the
// group).  The coalesced route holds because coalescing is restricted to
// fast-path plans: the planner pins those to one thread regardless of the
// requested topology, and the batched inter-scheduler runs each member
// through the identical one-thread plan (same blocking, same kernels, same
// summation order) — the same one-member execute either way.
// tests/test_service.cpp asserts this differentially across shapes x
// team sizes x priorities x shard counts.
//
// Ordering: priority lanes drain highest-first and FIFO within a lane *per
// shard*; once more than one shard (or the inline lane) is in play,
// cross-request completion order is concurrent by design — exactly like N
// independent synchronous clients.  Requests racing on overlapping C
// regions are the caller's data race, as with concurrent synchronous
// calls.
//
// Threading contract: GemmFuture is a value handle, safe to wait/cancel
// from any thread.  then() continuations run on whichever thread settles
// the request: the submitting thread for submit()'s inline route, otherwise
// the shard's dispatcher or any client thread blocked in wait() on a
// request of the same shard — keep them light, and do not block them on other
// futures of the same service (in particular, do not call shutdown() from
// one).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/checksum_domain.hpp"
#include "core/gemm_batched.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "kernels/int8_types.hpp"

namespace ftgemm::serve {

/// Element type of a type-erased request: one tag per entry of the
/// supported-precision list (core/checksum_domain.hpp).  Coalescing is
/// precision-safe by construction: the group-merge predicate
/// (serve/shard.cpp coalesce_match) requires member precisions to match, so
/// mixed traffic shards and batches without ever mixing element types in
/// one batched call, and it additionally requires equal per-call
/// quantization as the precision's checksum domain reads it (a batched
/// call takes one for the whole batch; the float domains have none).
using ftgemm::Precision;

/// Precision tag of a storage element type, read off the precision list:
/// float, double, bf16_t, fp16_t and int8_t have one, and any other type
/// is a compile error.
template <typename T>
inline constexpr Precision kPrecisionOf =
    ftgemm::detail::EntryOf<T>::kPrecision;

/// Scalar (alpha, beta) and C element type of requests whose A/B are S:
/// the operands themselves for fp32/fp64, fp32 for the narrow and int8
/// paths.  No type for an unsupported S, so the builders below are not
/// viable for it.
template <typename S>
using RequestScalar =
    ftgemm::detail::ScalarOf<S, typename ftgemm::detail::EntryOf<S>::Compute>;

/// Admission-queue lane.  Higher lanes are always drained first; FIFO
/// within a lane (per shard).
enum class Priority { kLow = 0, kNormal = 1, kHigh = 2 };
inline constexpr int kPriorityLanes = 3;

/// Which resource a kRejected future ran out of (GemmResult::reject) —
/// the signal a load-shedding client needs to pick its reaction: back off
/// (kQueueFull), resume the service (kPaused), or stop retrying
/// (kShuttingDown / kInvalidRequest).
enum class RejectReason : std::uint8_t {
  kNone = 0,         ///< not rejected
  kInvalidRequest,   ///< failed validation at the door
  kQueueFull,        ///< the home shard's admission queue was full
  kPaused,           ///< queue full *and* dispatch is paused — resume() it
  kShuttingDown,     ///< service is stopping; no further admissions
};

/// One unit of work, covering every synchronous entry-point shape: every
/// precision, FT or Ori, single (batch == 1) or strided-batched (batch > 1,
/// with element strides between consecutive problems; stride 0 broadcasts
/// A/B).  Operand pointers are type-erased so one queue serves every
/// precision; build requests with the typed make_* helpers below.
/// `opts` is request-scoped: threads, ISA, tolerance, injectors and
/// correction log all apply to this request alone.
struct GemmRequest {
  Precision precision = Precision::kF64;
  bool ft = true;
  Layout layout = Layout::kColMajor;
  Trans ta = Trans::kNoTrans;
  Trans tb = Trans::kNoTrans;
  index_t m = 0, n = 0, k = 0;
  double alpha = 1.0, beta = 0.0;  ///< cast to the precision's scalar type
  const void* a = nullptr;
  index_t lda = 0, stride_a = 0;
  const void* b = nullptr;
  index_t ldb = 0, stride_b = 0;
  void* c = nullptr;
  index_t ldc = 0, stride_c = 0;
  index_t batch = 1;
  Options opts;
  /// Quantization parameters of a kI8 request (ignored otherwise): one
  /// per-tensor (scale, zero point) pair per operand, shared by every
  /// problem of a batched request.
  QuantParams qp;
  Priority priority = Priority::kNormal;
  /// Pin this request to shard `shard_hint % shards` instead of the
  /// submitting thread's round-robin home shard.  < 0 (default) = auto.
  /// Client-side partitioning knob.
  int shard_hint = -1;
};

namespace detail {

/// The one builder body behind every make_* helper below.
template <typename S>
GemmRequest build_request(bool ft, Layout layout, Trans ta, Trans tb,
                          index_t m, index_t n, index_t k,
                          RequestScalar<S> alpha, const S* a, index_t lda,
                          index_t stride_a, const S* b, index_t ldb,
                          index_t stride_b, RequestScalar<S> beta,
                          RequestScalar<S>* c, index_t ldc, index_t stride_c,
                          index_t batch, const QuantParams& qp,
                          const Options& opts, Priority priority) {
  GemmRequest r;
  r.precision = kPrecisionOf<S>;
  r.ft = ft;
  r.layout = layout;
  r.ta = ta;
  r.tb = tb;
  r.m = m;
  r.n = n;
  r.k = k;
  r.alpha = double(alpha);
  r.beta = double(beta);
  r.a = a;
  r.lda = lda;
  r.stride_a = stride_a;
  r.b = b;
  r.ldb = ldb;
  r.stride_b = stride_b;
  r.c = c;
  r.ldc = ldc;
  r.stride_c = stride_c;
  r.batch = batch;
  r.opts = opts;
  r.qp = qp;
  r.priority = priority;
  return r;
}

}  // namespace detail

/// Typed builder for a single-problem request over any supported storage
/// type S: fp32/fp64 (scalars and C of the same type), bf16_t/fp16_t
/// (fp32 scalars and C), or int8_t (fp32 scalars and C, default
/// QuantParams; make_gemm_request_i8 takes them explicitly).
template <typename S>
GemmRequest make_gemm_request(bool ft, Layout layout, Trans ta, Trans tb,
                              index_t m, index_t n, index_t k,
                              RequestScalar<S> alpha, const S* a, index_t lda,
                              const S* b, index_t ldb, RequestScalar<S> beta,
                              RequestScalar<S>* c, index_t ldc,
                              const Options& opts = {},
                              Priority priority = Priority::kNormal) {
  return detail::build_request<S>(ft, layout, ta, tb, m, n, k, alpha, a, lda,
                                  0, b, ldb, 0, beta, c, ldc, 0, 1, {}, opts,
                                  priority);
}

/// Typed builder for a strided-batched request (stride 0 broadcasts A/B).
template <typename S>
GemmRequest make_strided_batched_request(
    bool ft, Layout layout, Trans ta, Trans tb, index_t m, index_t n,
    index_t k, RequestScalar<S> alpha, const S* a, index_t lda,
    index_t stride_a, const S* b, index_t ldb, index_t stride_b,
    RequestScalar<S> beta, RequestScalar<S>* c, index_t ldc, index_t stride_c,
    index_t batch, const Options& opts = {},
    Priority priority = Priority::kNormal) {
  return detail::build_request<S>(ft, layout, ta, tb, m, n, k, alpha, a, lda,
                                  stride_a, b, ldb, stride_b, beta, c, ldc,
                                  stride_c, batch, {}, opts, priority);
}

/// Builder for a quantized int8 single-problem request: s8 A and B, fp32
/// scalars and C, QuantParams riding along (ahead of the Options, the
/// int8 entry points' argument order).
inline GemmRequest make_gemm_request_i8(
    bool ft, Layout layout, Trans ta, Trans tb, index_t m, index_t n,
    index_t k, float alpha, const std::int8_t* a, index_t lda,
    const std::int8_t* b, index_t ldb, float beta, float* c, index_t ldc,
    const QuantParams& qp = {}, const Options& opts = {},
    Priority priority = Priority::kNormal) {
  return detail::build_request<std::int8_t>(ft, layout, ta, tb, m, n, k,
                                            alpha, a, lda, 0, b, ldb, 0, beta,
                                            c, ldc, 0, 1, qp, opts, priority);
}

/// Quantized int8 strided-batched builder (stride 0 broadcasts A/B; one
/// QuantParams for the whole batch).
inline GemmRequest make_strided_batched_request_i8(
    bool ft, Layout layout, Trans ta, Trans tb, index_t m, index_t n,
    index_t k, float alpha, const std::int8_t* a, index_t lda,
    index_t stride_a, const std::int8_t* b, index_t ldb, index_t stride_b,
    float beta, float* c, index_t ldc, index_t stride_c, index_t batch,
    const QuantParams& qp = {}, const Options& opts = {},
    Priority priority = Priority::kNormal) {
  return detail::build_request<std::int8_t>(
      ft, layout, ta, tb, m, n, k, alpha, a, lda, stride_a, b, ldb, stride_b,
      beta, c, ldc, stride_c, batch, qp, opts, priority);
}

/// Lifecycle of one submitted request.
enum class RequestStatus {
  kQueued,     ///< admitted, awaiting dispatch
  kRunning,    ///< claimed — for execution (by a dispatcher or a waiting
               ///< client), or transiently by a winning cancel while it
               ///< publishes (no longer cancellable either way)
  kDone,       ///< executed; result fields are valid
  kCancelled,  ///< cancelled while queued; never executed, C untouched
  kRejected,   ///< refused at submit (see GemmResult::reject)
};

/// Outcome of one request.
struct GemmResult {
  RequestStatus status = RequestStatus::kQueued;
  /// Single-problem outcome: the FtReport of the call (default-initialized
  /// for Ori requests, which report nothing).  For a coalesced request this
  /// is the member's own report out of the batched call.
  FtReport report;
  /// Strided-batched (batch > 1) outcome, per_problem included.
  BatchReport batch;
  /// The request was executed via coalesced-into-batched routing.
  bool coalesced = false;
  /// The request was executed on the submitting thread (inline fast lane).
  bool inlined = false;
  /// For kRejected: which resource refused the request.
  RejectReason reject = RejectReason::kNone;

  /// Executed and trustworthy: done, accepted, and every panel clean.
  [[nodiscard]] bool ok() const {
    return status == RequestStatus::kDone && !report.invalid_args &&
           !batch.invalid_args && report.clean() && batch.clean();
  }
};

namespace detail {
struct RequestState;
struct Pending;

/// Shutdown handshake block, held by shared_ptr (by the service, by every
/// queued request's state, and by each client thread inside the service):
/// a client leaving the service can still be between its releasing
/// decrement (the one shutdown()'s wait is blocked on) and its notify when
/// the waiter observes zero, returns, and the service is destroyed.  The
/// block outlives the service for exactly that tail, and it is all a
/// waiting thread touches before it knows the service is still running.
struct ShutdownSync {
  std::atomic<bool> stopping{false};  ///< admission and help gate
  /// Client threads inside the service: submitters (incl. inline
  /// executions) and waiters helping their shard.  shutdown() waits for
  /// this to drain before arming the dispatchers' stop mode, so no request
  /// can slip in behind, or be claimed during, their final queue sweep.
  std::atomic<int> clients{0};
  std::mutex m;
  std::condition_variable cv;  ///< clients drained
};
}

class ServiceShard;

/// Completion handle for one submitted request.  Value semantics (shared
/// state); safe to wait/cancel/then from any thread.
class GemmFuture {
 public:
  GemmFuture() = default;

  /// True when this future refers to a submitted request.
  [[nodiscard]] bool valid() const { return st_ != nullptr; }

  /// Block until the request settles (done/cancelled/rejected); returns the
  /// result.  Returns immediately once settled.  While the request is still
  /// queued and the service is neither paused nor stopping, the calling
  /// thread first runs its shard's next groups itself (possibly other
  /// clients' requests, whose then() continuations then run here too)
  /// until this request has left the queue.  By value on purpose: the
  /// idiomatic `service.submit(req).wait()` destroys the temporary future
  /// (and possibly the last reference to the shared state) as the full
  /// expression ends, so a reference would dangle.
  GemmResult wait() const;

  /// Bounded wait; true when the request settled within the timeout.  Never
  /// runs queued work, so the timeout bounds it.
  [[nodiscard]] bool wait_for(double seconds) const;

  /// True when the request has settled.
  [[nodiscard]] bool settled() const;

  /// Snapshot of the current status (kQueued/kRunning are transient).
  [[nodiscard]] RequestStatus status() const;

  /// Cancel a still-queued request: it will never execute and its C is
  /// untouched.  Returns true when this call performed the cancellation;
  /// false when the request already ran, settled, or was claimed for
  /// execution.
  bool cancel();

  /// Attach a completion continuation, invoked exactly once with the final
  /// result — immediately (on the calling thread) if already settled,
  /// otherwise on the thread that settles the request.  One continuation
  /// per future chain; a second call replaces an un-fired one.
  void then(std::function<void(const GemmResult&)> fn);

 private:
  friend class GemmService;
  explicit GemmFuture(std::shared_ptr<detail::RequestState> st)
      : st_(std::move(st)) {}
  std::shared_ptr<detail::RequestState> st_;
};

/// Service tuning knobs.  queue_capacity is *per shard*: a shard is a
/// self-contained admission unit, and total service capacity scales with
/// the shard count.  Each shard's dispatcher runs one group at a time.
struct ServiceConfig {
  /// Admission shards.  0 = auto: FTGEMM_SERVICE_SHARDS, else the
  /// machine's hardware concurrency.  Explicit config beats the env var.
  int shards = 0;
  /// Bounded per-shard admission queue: requests queued across the shard's
  /// priority lanes before submit() blocks / try_submit() rejects.
  std::size_t queue_capacity = 256;
  /// Largest coalesced batch (members per merged batched call).
  index_t max_coalesce = 16;
  /// Merge same-fingerprint fast-path requests into batched calls.
  bool coalesce = true;
  /// Execute fast-path submit() requests inline on the submitting thread
  /// when the service is idle enough (see inline_inflight_limit).
  bool inline_fast_lane = true;
  /// Inline executes only while the number of queued-route groups in
  /// flight (dispatcher- or waiter-run) is below this.  0 = auto (shards):
  /// inline while some dispatcher could be idle, then queue so small
  /// requests coalesce behind the backlog instead of piling onto a busy
  /// machine.
  int inline_inflight_limit = 0;
  /// Start with dispatch paused (tests: lets a caller stage queues
  /// deterministically, then resume()).  Pausing also disables the inline
  /// fast lane, so staged requests queue in submission order.
  bool start_paused = false;
};

/// Per-shard monotonic counters (ServiceStats::shard).
struct ShardStats {
  std::uint64_t submitted = 0;   ///< requests admitted to this shard's queue
  std::uint64_t executed = 0;    ///< requests run off this shard's queue
  std::uint64_t helped = 0;      ///< of those, run by a waiting client
  std::uint64_t coalesced_batches = 0;  ///< merged calls it issued
  std::uint64_t coalesced_members = 0;  ///< requests folded into them
  std::uint64_t peak_queue_depth = 0;   ///< this shard's admission peak
};

/// Monotonic per-service counters (see stats()).
struct ServiceStats {
  std::uint64_t submitted = 0;   ///< requests accepted (queued or inline)
  std::uint64_t completed = 0;   ///< requests executed to kDone
  std::uint64_t cancelled = 0;   ///< requests cancelled while queued
  std::uint64_t rejected = 0;    ///< refused at submit
  std::uint64_t direct_calls = 0;     ///< single requests routed directly
  std::uint64_t batched_calls = 0;    ///< batch > 1 requests executed
  std::uint64_t coalesced_batches = 0;  ///< merged batched calls issued
  std::uint64_t coalesced_members = 0;  ///< requests folded into them
  std::uint64_t inline_executed = 0;  ///< requests run on the caller thread
  std::uint64_t helped = 0;  ///< queued requests run by a waiting client
  /// Always 0: shards do not take work from one another.  Kept while the
  /// benchmark suite still reports it as serve.steals.
  std::uint64_t steals = 0;
  std::int64_t errors_detected = 0;   ///< summed over all FT reports
  std::int64_t errors_corrected = 0;  ///< summed over all FT reports
  std::uint64_t dirty_results = 0;    ///< requests whose result was not clean
  /// Resident-weight serving (Options::resident_a): problems whose A came
  /// from the operand cache / had to be encoded there, and cached-panel
  /// integrity mismatches healed by re-encoding (batched requests count
  /// per member).
  std::uint64_t resident_hits = 0;
  std::uint64_t resident_misses = 0;
  std::int64_t resident_heals = 0;
  /// Resident-panel bits corrected in place by the SEC-DED syndrome sweep
  /// (FTGEMM_OPERAND_ECC) — corrections that did not need a re-encode heal.
  std::int64_t resident_ecc_corrected = 0;
  std::uint64_t peak_queue_depth = 0;  ///< max over shards
  /// Queued-route groups executing at once (dispatchers and helping
  /// waiters), all shards.
  std::uint64_t peak_inflight = 0;
  std::vector<ShardStats> shard;       ///< per-shard breakdown
};

class GemmService {
 public:
  explicit GemmService(ServiceConfig config = {});
  ~GemmService();  ///< shutdown(true)

  GemmService(const GemmService&) = delete;
  GemmService& operator=(const GemmService&) = delete;

  /// Admit a request.  Fast-path requests may execute inline on this
  /// thread (see the file comment); otherwise blocks while the home
  /// shard's queue is full (backpressure).  Returns an immediately-settled
  /// kRejected future for invalid requests or after shutdown.
  GemmFuture submit(const GemmRequest& req);

  /// Non-blocking admit: like submit(), but a full shard yields an
  /// immediately-settled kRejected future (GemmResult::reject says which
  /// resource was exhausted) instead of blocking.
  GemmFuture try_submit(const GemmRequest& req);

  /// Bulk admission: queue a window of requests in one pass and return
  /// their futures (index-aligned with the input) without running any of
  /// them.  Every request enters its home shard's rings before any
  /// dispatcher is woken, so a same-fingerprint run stays whole and
  /// coalesces into one batched call; each touched shard is woken once.
  /// Blocks for space like submit(); invalid members reject individually
  /// without poisoning the rest.  Waiting on a future runs the window
  /// (help-on-wait) beside the dispatcher.
  std::vector<GemmFuture> submit_all(const std::vector<GemmRequest>& reqs);

  /// Suspend / resume dispatch on every shard (admission stays open while
  /// paused; the inline fast lane closes so order is preserved).
  void pause();
  void resume();

  /// Stop the service.  drain == true executes everything still queued;
  /// drain == false cancels it.  Either way every in-flight request
  /// completes and every future settles before shutdown returns.  Further
  /// submits are rejected.  Idempotent.
  void shutdown(bool drain = true);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const;  ///< sum over shards
  /// Queued-route groups executing now (dispatchers and helping waiters).
  [[nodiscard]] int inflight() const;
  [[nodiscard]] int shards() const { return nshards_; }

 private:
  friend class ServiceShard;

  enum class StopMode : int { kNone = 0, kDrain = 1, kCancel = 2 };

  GemmFuture enqueue(const GemmRequest& req, bool blocking);
  detail::Pending make_pending(const GemmRequest& req,
                               std::shared_ptr<detail::RequestState> st);
  ServiceShard& shard_for(const GemmRequest& req);
  bool inline_open(const ServiceShard& home) const;
  /// Run a claimed group (direct or coalesced) off shard `shard_id`'s
  /// queue and settle every member, charging the shard's counters.
  void execute_group(std::vector<detail::Pending>& group, int shard_id);
  /// Run one claimed request and settle it; `inlined` = submit()'s inline
  /// lane on the submitting thread.
  void execute_direct(detail::Pending& p, bool inlined);
  template <typename S, typename C>
  void execute_coalesced(std::vector<detail::Pending>& group, int shard_id);
  void count_rejected(std::uint64_t n = 1);
  void count_cancelled(std::uint64_t n);
  void note_group_start();
  void note_group_end();

  ServiceConfig cfg_;
  int nshards_ = 1;
  std::vector<std::unique_ptr<ServiceShard>> shards_;

  /// stopping flag, client count, and the mutex/cv shutdown's wait and
  /// its notifiers share; see detail::ShutdownSync for why it is shared,
  /// not a member.
  std::shared_ptr<detail::ShutdownSync> sync_ =
      std::make_shared<detail::ShutdownSync>();
  std::atomic<int> stop_mode_{int(StopMode::kNone)};
  std::atomic<bool> paused_{false};
  std::atomic<int> inflight_{0};  ///< queued-route groups across shards

  std::mutex shutdown_m_;
  bool shards_joined_ = false;

  mutable std::mutex stats_m_;
  ServiceStats stats_;
};

}  // namespace ftgemm::serve
