// ServiceShard implementation: lock-free admission, the per-shard
// dispatcher, group building with the per-lane holdover slots, and helping
// (see serve/shard.hpp for the protocols and serve/service.hpp for the
// service contracts).
//
// Lock order (never taken in reverse):
//   pop_m_          — consumer-side group building (the dispatcher's or a
//                     helping waiter's; no consumer holds it while
//                     executing);
//   RequestState::m — per-request settle/claim/cancel transitions;
//   m_              — park/space condition handshakes;
//   stats_m_        — service counters (leaf).
#include "serve/shard.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/checksum_domain.hpp"

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
    : owner_(owner), id_(id), capacity_(std::max<std::size_t>(capacity, 1)) {
  lanes_.reserve(kPriorityLanes);
  for (int i = 0; i < kPriorityLanes; ++i) {
    lanes_.push_back(
        std::make_unique<detail::SubmitRing<detail::Pending>>(capacity_));
  }
}

ServiceShard::~ServiceShard() { join(); }

void ServiceShard::start() {
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

void ServiceShard::join() {
  if (dispatcher_.joinable()) dispatcher_.join();
}

// ---------------------------------------------------------------------------
// Admission (producer side — lock-free unless parked/full)
// ---------------------------------------------------------------------------

ServiceShard::Admit ServiceShard::try_admit(detail::Pending& p) {
  // Reserve a slot against the shard capacity first; the rings are sized to
  // the full capacity per lane, so a reserved push below can never fail.
  std::size_t q = queued_.load(std::memory_order_relaxed);
  for (;;) {
    if (q >= capacity_) return Admit::kFull;
    if (queued_.compare_exchange_weak(q, q + 1, std::memory_order_seq_cst)) {
      break;
    }
  }
  const std::size_t depth = q + 1;
  // What a waiter needs to help this shard (GemmFuture::wait), published
  // with the entry.
  p.state->shard = this;
  p.state->sync = owner_->sync_;
  const bool pushed = lanes_[lane_of(p.req.priority)]->push(std::move(p));
  assert(pushed);
  (void)pushed;
  counters.submitted.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t peak = counters.peak_queue_depth.load(std::memory_order_relaxed);
  while (peak < depth &&
         !counters.peak_queue_depth.compare_exchange_weak(
             peak, depth, std::memory_order_relaxed)) {
  }
  return Admit::kOk;
}

ServiceShard::Admit ServiceShard::admit_blocking(detail::Pending& p) {
  for (;;) {
    const Admit a = try_admit(p);
    if (a != Admit::kFull) return a;
    // The window this push belongs to may not have woken the dispatcher
    // yet; parked, it would never free the space waited for below.
    wake();
    std::unique_lock<std::mutex> lk(m_);
    space_waiters_.fetch_add(1, std::memory_order_seq_cst);
    space_cv_.wait(lk, [&] {
      return owner_->sync_->stopping.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_seq_cst) < capacity_;
    });
    space_waiters_.fetch_sub(1, std::memory_order_seq_cst);
    if (owner_->sync_->stopping.load(std::memory_order_acquire)) {
      return Admit::kStopping;
    }
  }
}

void ServiceShard::wake() {
  // Dekker store-load: the producer's queued_ bumps (seq_cst) vs the
  // dispatcher's parked_ raise + predicate re-check under m_.  Either the
  // dispatcher's predicate sees the bumps, or we see parked_ == true and
  // deliver the wake through the mutex; the empty critical section orders
  // the notify after the dispatcher has atomically blocked.
  if (parked_.load(std::memory_order_seq_cst)) {
    { std::lock_guard<std::mutex> lk(m_); }
    cv_.notify_one();
  }
}

void ServiceShard::wake_all() {
  { std::lock_guard<std::mutex> lk(m_); }
  cv_.notify_all();
  space_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Group building (consumer side — pop_m_ serializes dispatcher vs helpers)
// ---------------------------------------------------------------------------

void ServiceShard::note_removed() {
  queued_.fetch_sub(1, std::memory_order_seq_cst);
  if (space_waiters_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard<std::mutex> lk(m_); }
    space_cv_.notify_all();
  }
}

void ServiceShard::put_holdover(detail::Pending&& p) {
  const int lane = lane_of(p.req.priority);
  // take_next offers a lane's holdover before that lane's ring, so an
  // entry we just popped (from ring `lane`, or the slot itself) can only
  // be parked into an empty slot; a full one here would lose a request.
  assert(!has_holdover_[lane]);
  holdover_[lane] = std::move(p);
  has_holdover_[lane] = true;
  queued_.fetch_add(1, std::memory_order_seq_cst);
}

bool ServiceShard::take_next(detail::Pending& out) {
  for (int lane = kPriorityLanes - 1; lane >= 0; --lane) {
    // The lane's holdover goes first: it was popped before the ring's
    // current head, so re-offering it first is FIFO, not a reorder.
    if (has_holdover_[lane]) {
      out = std::move(holdover_[lane]);
      holdover_[lane] = detail::Pending{};
      has_holdover_[lane] = false;
      note_removed();
      return true;
    }
    if (lanes_[lane]->pop(out)) {
      note_removed();
      return true;
    }
  }
  return false;
}

void ServiceShard::build_group_locked(std::vector<detail::Pending>& group,
                                      std::uint64_t& cancelled) {
  // Head: the first claimable entry in priority order; cancelled entries
  // drain (and are counted) on the way.
  for (;;) {
    detail::Pending p;
    if (!take_next(p)) return;
    if (detail::try_claim(*p.state)) {
      group.push_back(std::move(p));
      break;
    }
    ++cancelled;
  }
  if (!group.front().coalescible) return;
  // Copies, not references: push_back below reallocates the group.
  const GemmRequest head = group.front().req;
  const PlanKey head_key = group.front().key;
  const index_t max_c = std::max<index_t>(owner_->cfg_.max_coalesce, 1);
  while (index_t(group.size()) < max_c) {
    detail::Pending p;
    if (!take_next(p)) return;
    if (!coalesce_match(head, head_key, p)) {
      // A ring cannot skip an entry in place; park the mismatch in its
      // lane's holdover slot and stop the run.
      put_holdover(std::move(p));
      return;
    }
    if (detail::try_claim(*p.state)) {
      group.push_back(std::move(p));
    } else {
      ++cancelled;
    }
  }
}

bool ServiceShard::help(detail::RequestState& own) {
  if (owner_->paused_.load(std::memory_order_acquire)) return false;
  std::vector<detail::Pending> group;
  std::uint64_t cancelled = 0;
  {
    std::lock_guard<std::mutex> lk(pop_m_);
    // Every claim of a queued entry happens under pop_m_, so a request
    // still kQueued here is still in the rings or a holdover: the group
    // below is the one ahead of it or contains it.
    if (detail::status_of(own) != RequestStatus::kQueued) return false;
    build_group_locked(group, cancelled);
  }
  if (cancelled > 0) owner_->count_cancelled(cancelled);
  if (group.empty()) return false;
  const std::size_t n = group.size();
  run(group);
  counters.helped.fetch_add(n, std::memory_order_relaxed);
  return true;
}

void ServiceShard::cancel_all() {
  std::uint64_t cancelled = 0;
  {
    std::lock_guard<std::mutex> lk(pop_m_);
    detail::Pending p;
    while (take_next(p)) {
      // An entry we popped was never claimable by a dispatcher, so a
      // failed cancel here can only mean a client's cancel won the claim
      // CAS (its status may transiently read kRunning while it publishes);
      // either way the request ends cancelled — count them all.
      detail::try_cancel(*p.state);
      ++cancelled;
      p = detail::Pending{};
    }
  }
  if (cancelled > 0) owner_->count_cancelled(cancelled);
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

void ServiceShard::dispatcher_main() {
  std::vector<detail::Pending> group;
  for (;;) {
    group.clear();
    const int mode = owner_->stop_mode_.load(std::memory_order_acquire);
    if (mode == int(GemmService::StopMode::kCancel)) {
      cancel_all();
      return;
    }
    const bool draining = mode == int(GemmService::StopMode::kDrain);
    const bool paused =
        owner_->paused_.load(std::memory_order_acquire) && !draining;
    std::uint64_t cancelled = 0;
    if (!paused) {
      std::lock_guard<std::mutex> lk(pop_m_);
      build_group_locked(group, cancelled);
    }
    if (cancelled > 0) owner_->count_cancelled(cancelled);
    if (!group.empty()) {
      run(group);
      continue;
    }
    if (draining) {
      // Admission is closed (shutdown drained the submitter window before
      // arming drain mode), so a nonzero count can only be a last reserved
      // push landing.
      if (queued_.load(std::memory_order_seq_cst) == 0) return;
      std::this_thread::yield();
      continue;
    }
    if (!paused && queued_.load(std::memory_order_seq_cst) > 0) {
      // A producer holds a reservation but has not finished its push; it
      // is wait-free, so spin-yield rather than park.
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lk(m_);
    parked_.store(true, std::memory_order_seq_cst);
    cv_.wait(lk, [&] {
      return owner_->stop_mode_.load(std::memory_order_acquire) != 0 ||
             (!owner_->paused_.load(std::memory_order_acquire) &&
              queued_.load(std::memory_order_seq_cst) > 0);
    });
    parked_.store(false, std::memory_order_seq_cst);
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
