// A bounded multi-producer multi-consumer blocking queue, used by thread
// pools, message brokers, and the open-loop load generators. Items live in a
// ring over a vector that keeps its capacity, so a steady push/pop stream
// allocates nothing once the ring has grown to its peak depth (a std::deque
// frees and reallocates a block every few elements).

#ifndef SRC_COMMON_BLOCKING_QUEUE_H_
#define SRC_COMMON_BLOCKING_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/clock.h"

namespace antipode {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = SIZE_MAX) : capacity_(capacity) {}

  // Blocks while full. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || size_ < capacity_; });
    if (closed_) {
      return false;
    }
    PushLocked(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push; returns false when full or closed.
  bool TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || size_ >= capacity_) {
      return false;
    }
    PushLocked(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || size_ != 0; });
    return PopLocked();
  }

  // Waits up to `timeout`; returns nullopt on timeout or when closed+drained.
  std::optional<T> PopWithTimeout(Duration timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, timeout, [&] { return closed_ || size_ != 0; });
    return PopLocked();
  }

  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    return PopLocked();
  }

  // Wakes all waiters; subsequent pushes fail, pops drain remaining items.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  bool Closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  void PushLocked(T item) {
    if (size_ == ring_.size()) {
      // Full: unroll into a ring twice the size (the only allocation).
      std::vector<T> grown(std::max<size_t>(16, ring_.size() * 2));
      for (size_t i = 0; i < size_; ++i) {
        grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
      }
      ring_ = std::move(grown);
      head_ = 0;
    }
    ring_[(head_ + size_) % ring_.size()] = std::move(item);
    ++size_;
  }

  std::optional<T> PopLocked() {
    if (size_ == 0) {
      return std::nullopt;
    }
    std::optional<T> item(std::move(ring_[head_]));
    ring_[head_] = T();  // drop whatever the moved-from slot still holds
    head_ = (head_ + 1) % ring_.size();
    --size_;
    not_full_.notify_one();
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;  // slots [head_, head_ + size_) mod ring_.size() are live
  size_t head_ = 0;
  size_t size_ = 0;
  size_t capacity_;
  bool closed_ = false;
};

}  // namespace antipode

#endif  // SRC_COMMON_BLOCKING_QUEUE_H_
