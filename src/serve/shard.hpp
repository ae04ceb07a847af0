// One admission shard of the GemmService: a bounded lock-free submit ring
// per priority lane, plus the dispatcher thread that drains them and runs
// each group it builds on itself.
//
// The serving layer splits into N of these so that (a) producers on
// different client threads never contend on one queue lock — admission is
// a CAS-reservation against the shard's `queued_` counter followed by a
// lock-free ring push — and (b) dispatch parallelism scales with shards
// instead of funneling through a single dispatcher.  Client threads are
// round-robin affine to a home shard, so one client's pipelined window
// lands contiguously in one shard's rings and keeps its coalescing
// opportunity.
//
// Consumer side: the owning dispatcher and any *helping* waiter (a client
// blocked in GemmFuture::wait() on a request still in this shard's queue)
// serialize on `pop_m_` — a consumer-only mutex producers never touch.
// Serializing consumers buys two properties cheaply: a coalescable
// same-fingerprint run is always popped atomically as ONE group (never
// split between the dispatcher and a helper, so helped traffic coalesces
// exactly like dispatched traffic), and one `holdover_` slot *per priority
// lane* is enough to hold the popped-but-mismatched entry a coalescing
// sweep can end on (a ring, unlike the old deque, cannot skip an entry in
// place).  The slot must be per lane, not per shard: a sweep can park a
// mismatch from a higher lane while a lower lane's holdover is still
// waiting, and a single slot would overwrite — and thereby lose — the
// parked request.  Because take_next re-offers a lane's holdover before
// that lane's ring, a popped ring entry's own slot is provably empty, so a
// park can never clobber (asserted in put_holdover).  Re-offering the
// holdover first within its lane preserves per-lane FIFO; higher lanes
// still pre-empt it.
//
// Help protocol: a waiter whose request is still queued here takes pop_m_,
// re-checks that the request is still queued (claims happen under pop_m_,
// so the check is exact), builds the next group in priority order — its own
// request or one ahead of it — and runs it on its own thread, repeating
// until its request has left the queue.  It never helps while the service
// is paused or stopping; GemmService::shutdown() waits for helpers to leave
// before the final sweep.
//
// Park/wake: the dispatcher parks on `cv_` with `parked_` raised.  A
// producer pushes first and calls wake() after: wake() observes `parked_`
// (seq_cst, Dekker-style against the dispatcher's predicate re-check under
// the mutex), takes the shard mutex empty and notifies.  submit_all pushes
// its whole window before it wakes anyone, so a parked dispatcher first
// sees the window whole.  The common-case push — dispatcher running —
// stays lock-free end to end.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "serve/queue.hpp"
#include "serve/service.hpp"
#include "serve/state.hpp"

namespace ftgemm::serve {

namespace detail {

/// One admitted request in flight through the serving layer.
struct Pending {
  GemmRequest req;
  std::shared_ptr<RequestState> state;
  PlanKey key{};
  /// Resolved plan takes the fast path AND the request is mergeable into a
  /// batched call (single problem, no injector/memory injector/correction
  /// log/resident operand — see GemmService::make_pending).
  bool coalescible = false;
  /// Resolved plan takes the fast path (single problem): submit()'s
  /// inline fast lane may execute it on the submitting thread.
  bool inline_eligible = false;
};

}  // namespace detail

class ServiceShard {
 public:
  ServiceShard(GemmService* owner, int id, std::size_t capacity);
  ~ServiceShard();

  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Spawn the dispatcher.  Separate from construction so that every shard
  /// has allocated its rings before any dispatcher runs: a shard
  /// constructor that throws leaves no running dispatcher for the unwind
  /// to join (it would park forever, as nothing arms its stop mode).
  void start();
  void join();

  enum class Admit { kOk, kFull, kStopping };

  /// Lock-free admission: reserve a queue slot (CAS on queued_) and push
  /// to the request's priority ring.  kFull when the shard is at capacity;
  /// `p` is consumed only on kOk.  Wakes nobody: the producer calls wake()
  /// once its requests are in.
  Admit try_admit(detail::Pending& p);

  /// Blocking admission: waits for queue space (backpressure), waking the
  /// dispatcher first so a window still being admitted cannot wait on a
  /// parked one; kStopping when the service began shutdown while waiting.
  Admit admit_blocking(detail::Pending& p);

  /// Wake the dispatcher if it is parked: the producer's half of the
  /// parked_/queued_ handshake, called after its pushes.
  void wake();

  /// Wake dispatcher and any space-waiting producers (shutdown/resume).
  void wake_all();

  /// Requests admitted and not yet claimed into a group (approximate
  /// between quiescent points, like any concurrent counter).
  [[nodiscard]] std::size_t queued() const {
    return queued_.load(std::memory_order_seq_cst);
  }

  /// Run this shard's next group on the calling thread, a client waiting
  /// for `own` (see the help protocol above).  False, running nothing,
  /// when the service is paused, `own` has left the queue, or no group
  /// could be built.
  bool help(detail::RequestState& own);

  /// Per-shard counters (relaxed; snapshot via GemmService::stats).
  struct Counters {
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> helped{0};
    std::atomic<std::uint64_t> coalesced_batches{0};
    std::atomic<std::uint64_t> coalesced_members{0};
    std::atomic<std::uint64_t> peak_queue_depth{0};
  };
  Counters counters;

  [[nodiscard]] ShardStats snapshot() const;

 private:
  friend class GemmService;

  void dispatcher_main();
  /// Build one claimable group: holdover first (within its lane), then the
  /// rings highest lane first; extends a coalescible head with the
  /// contiguous same-fingerprint run up to max_coalesce.  pop_m_ held.
  void build_group_locked(std::vector<detail::Pending>& group,
                          std::uint64_t& cancelled);
  /// Next unclaimed entry in priority order (holdover-aware); pop_m_ held.
  bool take_next(detail::Pending& out);
  void put_holdover(detail::Pending&& p);
  /// An entry left the rings/holdover: drop the reservation and wake one
  /// space-waiting producer.
  void note_removed();
  /// Cancel-drain everything still queued (shutdown(drain=false)).
  void cancel_all();
  /// Run a claimed group on the calling thread (this shard's dispatcher
  /// or a helping waiter), counted in the service's in-flight groups.
  void run(std::vector<detail::Pending>& group);

  GemmService* owner_;
  int id_;
  std::size_t capacity_;

  /// One ring per priority lane, each sized to the full shard capacity so
  /// a reserved push can never fail.
  std::vector<std::unique_ptr<detail::SubmitRing<detail::Pending>>> lanes_;

  /// Admission reservations: entries in the rings plus the holdover slot.
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> parked_{false};
  std::atomic<int> space_waiters_{0};

  std::mutex m_;  ///< park/space condition handshakes (producers take it
                  ///< only when the dispatcher is parked or they must wait)
  std::condition_variable cv_;        ///< dispatcher park
  std::condition_variable space_cv_;  ///< blocked producers

  std::mutex pop_m_;  ///< consumer-side: dispatcher vs helping waiters
  /// One parked popped-but-mismatched entry per priority lane (see the
  /// file comment for why a single shared slot would lose requests);
  /// guarded by pop_m_ like the pops that fill and drain it.
  std::array<detail::Pending, kPriorityLanes> holdover_;
  std::array<bool, kPriorityLanes> has_holdover_{};

  std::thread dispatcher_;
};

}  // namespace ftgemm::serve
