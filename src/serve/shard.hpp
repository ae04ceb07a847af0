// One admission shard of the GemmService: a FIFO queue per priority lane
// under one mutex, plus the dispatcher thread that drains them and runs
// each group it builds on itself.
//
// The serving layer splits into N of these so that (a) clients with
// different home shards never contend on one queue lock and (b) dispatch
// parallelism scales with shards instead of funneling through a single
// dispatcher.  Client threads are round-robin affine to a home
// shard, so one client's pipelined window lands contiguously in one
// shard's lanes and keeps its coalescing opportunity.
//
// `m_` guards the lanes, and every producer and consumer of the shard
// takes it: admission, the dispatcher and any *helping* waiter (a client
// in GemmFuture::wait() on a request of this shard that has not settled).
// Building a group under it buys two properties: a coalescable
// same-fingerprint run is always taken atomically as ONE group (never
// split between the dispatcher and a helper, so helped traffic coalesces
// exactly like dispatched traffic), and the sweep looks at a lane's front
// before it pops, so the entry that ends a run stays at the head of its
// lane.  Nothing runs under `m_`: a group executes, and continuations and
// cancellations fire, after the builder has unlocked (a then()
// continuation may submit to its own shard).
//
// Help protocol: a waiter whose request has not settled takes m_,
// re-checks there that it has not, builds the next group in priority order
// and runs it on its own thread, repeating until its request settles or
// the shard has nothing left to run; only then does it park.  While the
// request is still queued (claims happen under m_, so that check is
// exact) the group is its own request's or one ahead of it; once the
// dispatcher or another helper has claimed it, the group is whatever the
// shard would run next (leapfrogging: the waiter runs queued work instead
// of sleeping on work another thread is running).  It never helps while
// the service is paused or stopping; GemmService::shutdown() waits for
// helpers to leave before the final sweep.
//
// Park/wake: the dispatcher checks stop mode, pause and the lanes under m_
// and parks on `cv_`.  A producer pushes under m_ and calls wake() after
// unlocking; submit_all pushes its whole window before it wakes anyone, so
// a parked dispatcher first sees the window whole.  On Linux the
// dispatcher runs in the SCHED_BATCH class, so the wake never preempts the
// producer, which is usually about to run that window itself in wait().
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/plan.hpp"
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
  /// is built before any dispatcher runs: a shard constructor that throws
  /// leaves no running dispatcher for the unwind to join (it would park
  /// forever, as nothing arms its stop mode).
  void start();
  void join();

  enum class Admit { kOk, kFull, kStopping };

  /// Push to the request's priority lane, or kFull when the shard is at
  /// capacity; `p` is consumed only on kOk.  Wakes nobody: the producer
  /// calls wake() once its requests are in.
  Admit try_admit(detail::Pending& p);

  /// Blocking admission: waits for queue space (backpressure), waking the
  /// dispatcher first so a window still being admitted cannot wait on a
  /// parked one; kStopping when the service began shutdown while waiting.
  Admit admit_blocking(detail::Pending& p);

  /// Wake the dispatcher if it is parked; called after the pushes.
  void wake();

  /// Wake dispatcher and any space-waiting producers (shutdown/resume).
  void wake_all();

  /// Requests admitted and not yet claimed into a group.  Written under m_
  /// and read unlocked, as a hint, by the inline lane.
  [[nodiscard]] std::size_t queued() const {
    return queued_.load(std::memory_order_acquire);
  }

  /// Run this shard's next group on the calling thread, a client waiting
  /// for `own` (see the help protocol above), whether `own` is still
  /// queued or already running elsewhere.  False, running nothing, when
  /// the service is paused, `own` has settled, or the shard has no group
  /// to run.
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

  using Lane = std::deque<detail::Pending>;

  void dispatcher_main();
  /// Push to the request's lane; m_ held and space checked.
  void push_locked(detail::Pending& p);
  /// The highest non-empty lane, or null; m_ held.
  Lane* next_lane_locked();
  /// Build one claimable group off the lanes' fronts, highest lane first;
  /// extends a coalescible head with the contiguous same-fingerprint run
  /// up to max_coalesce.  m_ held.
  void build_group_locked(std::vector<detail::Pending>& group,
                          std::uint64_t& cancelled);
  /// Build the next group under `lk` (holding m_), then unlock, wake the
  /// producers waiting for the space it freed and count its cancellations.
  void take_group(std::unique_lock<std::mutex>& lk,
                  std::vector<detail::Pending>& group);
  /// Cancel everything still queued (shutdown(drain=false)).
  void cancel_all();
  /// Run a claimed group on the calling thread (this shard's dispatcher
  /// or a helping waiter), counted in the service's in-flight groups.
  void run(std::vector<detail::Pending>& group);

  GemmService* owner_;
  int id_;
  std::size_t capacity_;

  std::mutex m_;  ///< the lanes, queued_ writes and both condition waits
  std::condition_variable cv_;        ///< dispatcher park
  std::condition_variable space_cv_;  ///< blocked producers
  std::array<Lane, kPriorityLanes> lanes_;  ///< FIFO per Priority
  std::atomic<std::size_t> queued_{0};      ///< entries across the lanes

  std::thread dispatcher_;
};

}  // namespace ftgemm::serve
