// Bounded single-producer/single-consumer queue connecting the shard
// router (producer side of the streaming pipeline) to one engine-shard
// worker.
//
// Design: a fixed ring buffer with atomic head/tail indices.  The
// uncontended transfer path is a plain load/store pair — no lock, no
// notify.  The mutex + condition variables exist only for the
// *blocking* edges: a full queue parks the producer (backpressure:
// updates are never dropped, the source is throttled instead, matching
// how a BGP feed socket would push back) and an empty queue parks the
// consumer.  Each side advertises that it is about to park via a
// waiter flag, so the peer pays for the lock + notify only when
// someone may actually be asleep.  The flag store / index re-check on
// the parking side and the index publish / flag check on the waking
// side are separated by seq_cst fences (Dekker pattern): whichever
// fence comes first in the total order, either the parker sees the
// published index and never sleeps, or the waker sees the flag and
// notifies under the mutex — no lost wakeup.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "telemetry/metrics.h"

namespace bgpbh::stream {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity), buf_(capacity_) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Telemetry binding (src/telemetry/): stall counters tick once per
  // cv wait, wake counters once per claimed notify — all on the park/
  // wake slow paths, so the uncontended transfer path is untouched.
  // Bind before the queue carries traffic; pointers are borrowed.
  struct Instruments {
    telemetry::Counter* producer_stalls = nullptr;
    telemetry::Counter* producer_wakes = nullptr;
    telemetry::Counter* consumer_stalls = nullptr;
    telemetry::Counter* consumer_wakes = nullptr;
  };
  void bind_instruments(const Instruments& instruments) {
    instruments_ = instruments;
  }

  // Batch push: moves items[0..n) into the ring in FIFO order, blocking
  // while full.  The tail index is published once per chunk of free
  // space (one release store + at most one wake per chunk) instead of
  // once per element — the point of the batched pipeline edges.
  // Returns the number of items enqueued: items.size(), or fewer iff
  // the queue was closed mid-batch.  Producer thread only.
  std::size_t push_batch(std::span<T> items) {
    std::size_t pushed = 0;
    std::size_t tail = tail_.load(std::memory_order_relaxed);
    auto free = [&] {
      return capacity_ - (tail - head_.load(std::memory_order_acquire));
    };
    while (pushed < items.size()) {
      park(producer_waiting_, not_full_, instruments_.producer_stalls,
           [&] { return free() > 0; }, std::nullopt);
      if (closed()) return pushed;
      const std::size_t chunk = std::min(free(), items.size() - pushed);
      for (std::size_t i = 0; i < chunk; ++i) {
        buf_[(tail + i) % capacity_] = std::move(items[pushed + i]);
      }
      tail += chunk;
      pushed += chunk;
      tail_.store(tail, std::memory_order_release);
      std::size_t occupancy = tail - head_.load(std::memory_order_acquire);
      if (occupancy > peak_size_.load(std::memory_order_relaxed)) {
        peak_size_.store(occupancy, std::memory_order_relaxed);
      }
      wake(consumer_waiting_, not_empty_, instruments_.consumer_wakes);
    }
    return pushed;
  }

  // Batch pop: moves up to `max` immediately-available items into
  // `out` (appending) with a single head publish + at most one wake.
  // Blocks while the queue is empty; returns the number appended, 0
  // once closed AND fully drained or interrupted.  Consumer thread only.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    return pop_batch_within(out, max, std::nullopt);
  }

  // Timed batch pop: like pop_batch, but gives up after `timeout` when
  // no data arrives, returning 0 with the queue still open — callers
  // disambiguate timeout from end-of-stream via closed().  Shard
  // workers use this so an idle worker still surfaces for checkpoint
  // capture requests and heartbeat ticks (src/recovery/).  Consumer
  // thread only.
  template <typename Rep, typename Period>
  std::size_t pop_batch_for(std::vector<T>& out, std::size_t max,
                            std::chrono::duration<Rep, Period> timeout) {
    return pop_batch_within(
        out, max,
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout));
  }

  // Ends the consumer's current or next wait on the empty queue: that
  // pop returns 0 with the queue still open, as on a timeout.  Set under
  // mu_, so the parker's locked re-check cannot miss it.  Any thread.
  void interrupt_consumer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      interrupted_.store(true, std::memory_order_release);
    }
    not_empty_.notify_one();
  }

  // End of stream: pending items remain poppable, further pushes fail.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_release);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  std::size_t capacity() const { return capacity_; }

  // Approximate occupancy (exact when producer and consumer are idle).
  std::size_t size() const {
    std::size_t tail = tail_.load(std::memory_order_acquire);
    std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  // High-water mark of occupancy; proves the bound held under load.
  std::size_t peak_size() const {
    return peak_size_.load(std::memory_order_relaxed);
  }

 private:
  // The one park loop of both sides (Dekker pattern, see the top of the
  // file): returns at once while `ready()` holds or the queue is closed,
  // else advertises `waiting`, re-checks behind a seq_cst fence and
  // sleeps on `cv` — for at most `timeout` per sleep when one is given,
  // returning on its expiry.  The caller re-reads the indices.
  template <typename Ready>
  void park(std::atomic<bool>& waiting, std::condition_variable& cv,
            telemetry::Counter* stalls, Ready ready,
            std::optional<std::chrono::nanoseconds> timeout) {
    while (!ready() && !closed()) {
      std::unique_lock<std::mutex> lock(mu_);
      waiting.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (ready() || closed()) {
        waiting.store(false, std::memory_order_relaxed);
        return;
      }
      if (stalls) stalls->add();
      bool timed_out = false;
      if (timeout) {
        timed_out = cv.wait_for(lock, *timeout) == std::cv_status::timeout;
      } else {
        cv.wait(lock);
      }
      waiting.store(false, std::memory_order_relaxed);
      if (timed_out) return;
    }
  }

  std::size_t pop_batch_within(
      std::vector<T>& out, std::size_t max,
      std::optional<std::chrono::nanoseconds> timeout) {
    if (max == 0) return 0;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    auto avail = [&] { return tail_.load(std::memory_order_acquire) - head; };
    park(consumer_waiting_, not_empty_, instruments_.consumer_stalls,
         [&] {
           return avail() > 0 ||
                  interrupted_.exchange(false, std::memory_order_acq_rel);
         },
         timeout);
    const std::size_t chunk = std::min(avail(), max);
    if (chunk == 0) return 0;  // closed and drained, or timed out
    for (std::size_t i = 0; i < chunk; ++i) {
      out.push_back(std::move(buf_[(head + i) % capacity_]));
    }
    head_.store(head + chunk, std::memory_order_release);
    maybe_wake_producer(head + chunk);
    return chunk;
  }

  // Notify the peer only if it advertised that it may be parked.  The
  // fence pairs with the one the parking side executes between setting
  // its flag and re-checking the indices.  exchange() claims the wake:
  // repeated callers don't re-notify a peer that is already being
  // woken (the parker re-sets its flag if it needs to park again).
  void wake(std::atomic<bool>& waiting, std::condition_variable& cv,
            telemetry::Counter* wake_counter) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting.exchange(false, std::memory_order_relaxed)) {
      { std::lock_guard<std::mutex> lock(mu_); }
      cv.notify_one();
      if (wake_counter) wake_counter->add();
    }
  }

  // Backpressure hysteresis: a producer parked on a full queue is only
  // woken once at least half the ring is free, so one producer/consumer
  // round trip moves ~capacity/2 items instead of one consume batch —
  // on an oversubscribed host this is the difference between a context
  // switch per batch and one per half-ring.  Latency-neutral: the path
  // only runs while the queue is (near) full, where residency already
  // dominates, and a draining consumer always crosses the threshold
  // before it can park (it parks only on empty).  The parker's Dekker
  // re-check covers the park-after-drain race as before.
  void maybe_wake_producer(std::size_t new_head) {
    std::size_t occupancy = tail_.load(std::memory_order_acquire) - new_head;
    if (occupancy * 2 <= capacity_) {
      wake(producer_waiting_, not_full_, instruments_.producer_wakes);
    }
  }

  const std::size_t capacity_;
  std::vector<T> buf_;
  Instruments instruments_;
  std::atomic<std::size_t> head_{0};  // next slot to pop
  std::atomic<std::size_t> tail_{0};  // next slot to fill
  std::atomic<std::size_t> peak_size_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};
  std::atomic<bool> interrupted_{false};  // see interrupt_consumer()
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
};

}  // namespace bgpbh::stream
