// ServiceShard implementation: admission to the per-lane queues, the
// per-shard dispatcher, group building and helping (see serve/shard.hpp
// for the protocols and serve/service.hpp for the service contracts).
//
// Locks: m_ is a leaf.  Under it run only lane operations, counter
// updates and the claim's bare CAS; groups execute, cancellations and
// continuations fire, and stats_m_ is taken only after it is released.
// GemmService::shutdown() calls wake_all() under its shutdown_m_.
#include "serve/shard.hpp"

#include <algorithm>
#include <utility>

#include "core/checksum_domain.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ftgemm::serve {

namespace {

int lane_of(Priority p) { return std::clamp(int(p), 0, kPriorityLanes - 1); }

/// Requests that may merge into one batched call: identical plan
/// fingerprint, scalars, leading dimensions and per-call quantization (the
/// batched entry point takes one set of each).
bool coalesce_match(const GemmRequest& x, const PlanKey& xkey,
                    const detail::Pending& y) {
  const GemmRequest& r = y.req;
  if (!(y.coalescible && x.precision == r.precision &&
        x.layout == r.layout && x.alpha == r.alpha && x.beta == r.beta &&
        x.lda == r.lda && x.ldb == r.ldb && x.ldc == r.ldc &&
        xkey == y.key)) {
    return false;
  }
  // Compared as the precision's domain reads it: the float domains drop
  // QuantParams (NoQuant is always equal), the exact domain keeps them.
  bool same_quant = false;
  ftgemm::detail::visit_precision(x.precision, [&](auto e) {
    using E = decltype(e);
    using Q = ftgemm::detail::QuantOf<typename E::Storage,
                                      typename E::Compute>;
    same_quant = Q(x.qp) == Q(r.qp);
  });
  return same_quant;
}

}  // namespace

ServiceShard::ServiceShard(GemmService* owner, int id, std::size_t capacity)
    : owner_(owner), id_(id), capacity_(std::max<std::size_t>(capacity, 1)) {}

ServiceShard::~ServiceShard() { join(); }

void ServiceShard::start() {
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

void ServiceShard::join() {
  if (dispatcher_.joinable()) dispatcher_.join();
}

// ---------------------------------------------------------------------------
// Admission (producer side)
// ---------------------------------------------------------------------------

void ServiceShard::push_locked(detail::Pending& p) {
  // What a waiter needs to help this shard (GemmFuture::wait), published
  // with the entry.
  p.state->shard = this;
  p.state->sync = owner_->sync_;
  lanes_[std::size_t(lane_of(p.req.priority))].push_back(std::move(p));
  const std::size_t depth = queued_.load(std::memory_order_relaxed) + 1;
  queued_.store(depth, std::memory_order_release);
  counters.submitted.fetch_add(1, std::memory_order_relaxed);
  if (depth > counters.peak_queue_depth.load(std::memory_order_relaxed)) {
    counters.peak_queue_depth.store(depth, std::memory_order_relaxed);
  }
}

ServiceShard::Admit ServiceShard::try_admit(detail::Pending& p) {
  const std::lock_guard<std::mutex> lk(m_);
  if (queued_.load(std::memory_order_relaxed) >= capacity_) {
    return Admit::kFull;
  }
  push_locked(p);
  return Admit::kOk;
}

ServiceShard::Admit ServiceShard::admit_blocking(detail::Pending& p) {
  std::unique_lock<std::mutex> lk(m_);
  if (queued_.load(std::memory_order_relaxed) >= capacity_) {
    // The window this push belongs to may not have woken the dispatcher
    // yet; parked, it would never free the space waited for below.
    cv_.notify_one();
    space_cv_.wait(lk, [&] {
      return owner_->sync_->stopping.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_relaxed) < capacity_;
    });
    if (owner_->sync_->stopping.load(std::memory_order_acquire)) {
      return Admit::kStopping;
    }
  }
  push_locked(p);
  return Admit::kOk;
}

void ServiceShard::wake() { cv_.notify_one(); }

void ServiceShard::wake_all() {
  // Stop mode, pause and stopping are written outside m_; the empty
  // critical section orders the notify after a waiter's predicate check.
  { const std::lock_guard<std::mutex> lk(m_); }
  cv_.notify_all();
  space_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Group building (consumer side — dispatcher and helpers, under m_)
// ---------------------------------------------------------------------------

ServiceShard::Lane* ServiceShard::next_lane_locked() {
  for (auto lane = lanes_.rbegin(); lane != lanes_.rend(); ++lane) {
    if (!lane->empty()) return &*lane;
  }
  return nullptr;
}

void ServiceShard::build_group_locked(std::vector<detail::Pending>& group,
                                      std::uint64_t& cancelled) {
  const auto take = [&](Lane& lane) {
    detail::Pending p = std::move(lane.front());
    lane.pop_front();
    queued_.store(queued_.load(std::memory_order_relaxed) - 1,
                  std::memory_order_release);
    if (detail::try_claim(*p.state)) {
      group.push_back(std::move(p));
    } else {
      ++cancelled;
    }
  };
  // Head: the first claimable entry in priority order; cancelled entries
  // drain (and are counted) on the way.
  while (group.empty()) {
    Lane* lane = next_lane_locked();
    if (lane == nullptr) break;
    take(*lane);
  }
  if (!group.empty() && group.front().coalescible) {
    // Copies, not references: push_back below reallocates the group.
    const GemmRequest head = group.front().req;
    const PlanKey head_key = group.front().key;
    while (index_t(group.size()) < owner_->cfg_.max_coalesce) {
      Lane* lane = next_lane_locked();
      // A mismatch ends the run and stays at the head of its lane.
      if (lane == nullptr || !coalesce_match(head, head_key, lane->front())) {
        break;
      }
      take(*lane);
    }
  }
}

void ServiceShard::take_group(std::unique_lock<std::mutex>& lk,
                              std::vector<detail::Pending>& group) {
  std::uint64_t cancelled = 0;
  build_group_locked(group, cancelled);
  lk.unlock();
  if (!group.empty() || cancelled > 0) space_cv_.notify_all();
  if (cancelled > 0) owner_->count_cancelled(cancelled);
}

bool ServiceShard::help(detail::RequestState& own) {
  if (owner_->paused_.load(std::memory_order_acquire)) return false;
  std::unique_lock<std::mutex> lk(m_);
  // Every claim of a queued entry happens under m_, so a request still
  // kQueued here is still in a lane: the group below is the one ahead of it
  // or contains it.  A request already claimed by the dispatcher or another
  // helper is running elsewhere; the group below is then simply the
  // shard's next one.
  if (detail::is_settled(detail::status_of(own))) return false;
  std::vector<detail::Pending> group;
  take_group(lk, group);
  if (group.empty()) return false;
  const std::size_t n = group.size();
  run(group);
  counters.helped.fetch_add(n, std::memory_order_relaxed);
  return true;
}

void ServiceShard::cancel_all() {
  std::array<Lane, kPriorityLanes> doomed;
  {
    const std::lock_guard<std::mutex> lk(m_);
    doomed.swap(lanes_);
    queued_.store(0, std::memory_order_release);
  }
  std::uint64_t cancelled = 0;
  for (auto lane = doomed.rbegin(); lane != doomed.rend(); ++lane) {
    for (detail::Pending& p : *lane) {
      // No dispatcher can claim these any more, so a failed cancel here can
      // only mean a client's cancel won the claim CAS (its status may
      // transiently read kRunning while it publishes); either way the
      // request ends cancelled — count them all.
      detail::try_cancel(*p.state);
      ++cancelled;
    }
  }
  if (cancelled > 0) owner_->count_cancelled(cancelled);
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

void ServiceShard::dispatcher_main() {
#if defined(__linux__)
  // Batch class for life: a woken batch-class thread never preempts the
  // running one, so submit_all's wake leaves the core to the client about
  // to run its own window.  If the call fails, the class stays as it was.
  const sched_param param{};
  pthread_setschedparam(pthread_self(), SCHED_BATCH, &param);
#endif
  std::vector<detail::Pending> group;
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_.wait(lk, [&] {
      return owner_->stop_mode_.load(std::memory_order_acquire) != 0 ||
             (!owner_->paused_.load(std::memory_order_acquire) &&
              queued_.load(std::memory_order_relaxed) > 0);
    });
    if (owner_->stop_mode_.load(std::memory_order_acquire) ==
        int(GemmService::StopMode::kCancel)) {
      lk.unlock();
      cancel_all();
      return;
    }
    // Drain mode runs the backlog paused or not, and admission is closed
    // once it is armed (shutdown drained the submitter window first), so
    // empty lanes are the end of the drain.
    if (queued_.load(std::memory_order_relaxed) == 0) return;
    take_group(lk, group);
    if (!group.empty()) run(group);
    group.clear();
    lk.lock();
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void ServiceShard::run(std::vector<detail::Pending>& group) {
  owner_->note_group_start();
  owner_->execute_group(group, id_);
  owner_->note_group_end();
}

ShardStats ServiceShard::snapshot() const {
  ShardStats s;
  s.submitted = counters.submitted.load(std::memory_order_relaxed);
  s.executed = counters.executed.load(std::memory_order_relaxed);
  s.helped = counters.helped.load(std::memory_order_relaxed);
  s.coalesced_batches =
      counters.coalesced_batches.load(std::memory_order_relaxed);
  s.coalesced_members =
      counters.coalesced_members.load(std::memory_order_relaxed);
  s.peak_queue_depth =
      counters.peak_queue_depth.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ftgemm::serve
