// Bounded lock-free submit ring — the serving layer's admission fast lane.
//
// One ring per priority lane per shard.  Producers are arbitrary client
// threads inside submit()/try_submit()/submit_all(); the consumers are the
// owning shard's dispatcher and any client helping it from
// GemmFuture::wait() (see serve/shard.hpp).  They pop from different
// threads, one at a time under the shard's pop mutex.
//
// The algorithm is Vyukov's bounded MPMC queue: every cell carries a
// sequence counter whose distance from the producer/consumer cursor encodes
// the cell's state (free / full / wrapped).  A push is one CAS on the tail
// cursor plus a release-store of the cell sequence; a pop mirrors it on the
// head cursor.  No mutex anywhere, no allocation after construction, and —
// unlike a mutex-guarded deque — a producer can never be descheduled while
// holding a lock that blocks every other submitter, which is exactly the
// tail-latency property a submit fast lane exists for.
//
// Capacity is rounded up to a power of two.  push() returning false means
// the ring itself is full; the serving layer sizes rings to the shard's
// admission capacity and reserves space with a separate counter first, so
// in practice a reserved push never fails (asserted by the caller).
//
// The value type must be movable.  A popped value is moved out before the
// cell is republished, so element lifetimes never overlap between a
// producer and a consumer; the seq acquire/release pair carries the
// happens-before edge for the moved bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

namespace ftgemm::serve::detail {

template <typename T>
class SubmitRing {
 public:
  explicit SubmitRing(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer push; false when the ring is full.
  bool push(T&& v) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t dif =
          std::ptrdiff_t(seq) - std::ptrdiff_t(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(v);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS updated pos to the current tail; retry with it.
      } else if (dif < 0) {
        return false;  // the cell still holds an unpopped value: full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Multi-consumer pop (dispatcher or a helping waiter); false when empty.
  bool pop(T& out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t dif =
          std::ptrdiff_t(seq) - std::ptrdiff_t(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = std::move(cell.value);
          cell.value = T{};  // drop payload refs before republishing
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty (or a racing push not yet published)
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Approximate: exact only when producers and consumers are quiescent.
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  // Separate cache lines: producers hammer tail_, consumers head_.
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

}  // namespace ftgemm::serve::detail
