// Internal shared state behind GemmFuture, plus the settle/claim/cancel
// transitions every serving unit (inline fast lane, shard dispatchers,
// helping waiters, shutdown) arbitrates through.  Split out of
// service.cpp so the shard unit can operate on requests without a circular
// include.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "serve/service.hpp"

namespace ftgemm::serve::detail {

/// Shared state behind one GemmFuture.  `status` is the request's state
/// machine, kept in an atomic so the serving hot path stays lock-light:
/// a claim is a bare CAS, and a wait() on an already-settled future is a
/// single acquire load (the common case for a client draining a pipelined
/// window).  `result` is written exclusively by the settling thread
/// *before* the status release-store, so readers gated on the acquire load
/// see it complete.  The mutex guards the condition variable handshake and
/// the continuation slot.
struct RequestState {
  std::atomic<RequestStatus> status{RequestStatus::kQueued};
  std::mutex m;
  std::condition_variable cv;
  GemmResult result;
  std::function<void(const GemmResult&)> continuation;
  /// Set once, before a request enters a shard's queue (null otherwise):
  /// the shard a waiting thread helps, and the service's shutdown block,
  /// which tells the waiter whether that shard is still safe to touch.
  ServiceShard* shard = nullptr;
  std::shared_ptr<ShutdownSync> sync;
};

[[nodiscard]] inline bool is_settled(RequestStatus s) {
  return s == RequestStatus::kDone || s == RequestStatus::kCancelled ||
         s == RequestStatus::kRejected;
}

/// Settle a request with its final result and fire the continuation (once,
/// outside the state lock — settled results are immutable, so the unlocked
/// read is safe).
inline void settle(RequestState& st, GemmResult&& res) {
  std::function<void(const GemmResult&)> cont;
  const RequestStatus final_status = res.status;
  st.result = std::move(res);
  {
    std::lock_guard<std::mutex> lk(st.m);
    st.status.store(final_status, std::memory_order_release);
    cont = std::move(st.continuation);
    st.continuation = nullptr;
  }
  st.cv.notify_all();
  if (cont) cont(st.result);
}

/// kQueued -> kCancelled; false when the request was already claimed or
/// settled.  Claims through an intermediate kRunning first so `result` is
/// fully written before any settled status is publishable: wait()'s
/// lock-free fast path copies `result` after one acquire load of `status`,
/// so storing kCancelled directly in the CAS would race that copy against
/// the result write.  This mirrors settle(): result first, settled status
/// as the release-store last.
inline bool try_cancel(RequestState& st) {
  RequestStatus expect = RequestStatus::kQueued;
  if (!st.status.compare_exchange_strong(expect, RequestStatus::kRunning,
                                         std::memory_order_acq_rel)) {
    return false;
  }
  // The CAS is the arbiter against try_claim and racing cancellers: we own
  // the state now, and no dispatcher will execute or settle it.
  std::function<void(const GemmResult&)> cont;
  {
    std::lock_guard<std::mutex> lk(st.m);
    st.result.status = RequestStatus::kCancelled;
    st.status.store(RequestStatus::kCancelled, std::memory_order_release);
    cont = std::move(st.continuation);
    st.continuation = nullptr;
  }
  st.cv.notify_all();
  if (cont) cont(st.result);
  return true;
}

/// kQueued -> kRunning (a dispatcher's or helping waiter's claim); false
/// when a racing cancel won.  Lock-free: the CAS is the
/// arbiter against try_cancel.
inline bool try_claim(RequestState& st) {
  RequestStatus expect = RequestStatus::kQueued;
  return st.status.compare_exchange_strong(expect, RequestStatus::kRunning,
                                           std::memory_order_acq_rel);
}

[[nodiscard]] inline RequestStatus status_of(RequestState& st) {
  return st.status.load(std::memory_order_acquire);
}

/// Pre-publication rejection: no other thread can see the state yet, so
/// both status stores need no lock.
inline void reject_unpublished(RequestState& st, RejectReason why) {
  st.result.status = RequestStatus::kRejected;
  st.result.reject = why;
  st.status.store(RequestStatus::kRejected, std::memory_order_release);
}

}  // namespace ftgemm::serve::detail
