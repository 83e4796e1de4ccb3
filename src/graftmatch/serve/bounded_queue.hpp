// Bounded MPMC task queue: the admission-control primitive of the
// serving layer.
//
// A matching request is heavy (a whole solver run), so an unbounded
// queue converts overload into unbounded latency. This queue rejects at
// the door instead: try_push() fails immediately when the queue holds
// `capacity` items, and the caller turns that into a "rejected" response
// (MatchServer) or backpressure (a closed-loop client retries later).
// Blocking semantics live only on the consumer side, where server
// workers wait for work.
//
// On top of the plain pop, extract_if() pulls every queued item
// matching a predicate while preserving the order of the rest: a
// MatchServer worker uses it to claim the queued requests that share
// its seed's key, so one solve answers them all (serve/server.hpp).
//
// Mutex + condition variable on purpose: requests are milliseconds of
// solver work, so queue overhead is noise, and the blocking pop gives
// workers a race-free shutdown path (close() wakes everyone and pop
// drains the backlog before reporting closed).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace graftmatch::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Admission control: enqueue unless the queue is at capacity or
  /// closed. Never blocks.
  bool try_push(T&& item) {
    {
      const std::scoped_lock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocking consume. Returns false only when the queue is closed AND
  /// drained -- items accepted before close() are still delivered.
  bool pop(T& out) {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Move every queued item satisfying `pred` into `out` (front-to-back,
  /// appended), preserving the relative order of the items left behind.
  /// Never blocks; returns the number extracted. This is how a worker
  /// claims every queued request sharing its seed's key without
  /// disturbing other keys' queue positions.
  template <typename Pred>
  std::size_t extract_if(Pred&& pred, std::vector<T>& out) {
    const std::scoped_lock lock(mutex_);
    std::size_t taken = 0;
    for (auto it = items_.begin(); it != items_.end();) {
      if (pred(*it)) {
        out.push_back(std::move(*it));
        it = items_.erase(it);
        ++taken;
      } else {
        ++it;
      }
    }
    return taken;
  }

  /// Stop admitting; wake every blocked pop() once the backlog drains.
  void close() {
    {
      const std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    const std::scoped_lock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    const std::scoped_lock lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace graftmatch::serve
