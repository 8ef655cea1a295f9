// SinkDispatcher: bounded hand-off between the ingest hot path and the
// registered EventSinks.
//
// Shard workers seal closed-event chunks into EventStore lanes; the
// store's chunk listener hands this dispatcher the same immutable
// chunk the lane holds (core::SealedChunk) and returns — one queue
// push, no copy, is the entire hot-path cost of the subscription
// layer.  One dedicated dispatch thread drains the queue and, per
// event, calls every sink's on_event_closed, folds the event into the
// session's LiveGrouper, and fans the updated §9 group out through
// on_group_updated.  Callbacks therefore run strictly single-threaded,
// in per-lane ingest order.
//
// Backpressure, not loss: with the default OverloadPolicy::kBlock,
// submit() blocks while the queue is full, so a sink that falls
// arbitrarily far behind stalls the pipeline's ingest chain (queue ->
// worker -> producer) instead of dropping events.  Every closed event
// is delivered exactly once; stop() drains whatever is queued before
// joining.
//
// OverloadPolicy::kShed is the opt-in escape hatch for deployments
// where one stuck consumer must not stall ingest forever: submit()
// waits at most `shed_deadline` for room; on timeout the sink plane is
// QUARANTINED — the chunk and every subsequent one are dropped with an
// exact events_shed() count (never silently) until the dispatch thread
// has drained the backlog, at which point delivery resumes.  The
// session health plane reports the quarantine as kDegraded.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "api/live_grouper.h"
#include "api/sink.h"
#include "core/events.h"
#include "stream/event_store.h"
#include "telemetry/metrics.h"

namespace bgpbh::api {

// What submit() does when the dispatch queue stays full.
enum class OverloadPolicy : int {
  kBlock = 0,  // wait forever: backpressure, never loss (default)
  kShed = 1,   // wait shed_deadline, then quarantine + count-and-drop
};

class SinkDispatcher {
 public:
  // `sinks` are borrowed and must outlive the dispatcher; `grouper`
  // (optional) receives every event and powers on_group_updated.
  // `snapshot_fn` supplies the snapshot for on_snapshot deliveries;
  // `snapshot_every_events > 0` additionally publishes one every that
  // many delivered events.  `metrics` (optional, must outlive the
  // dispatcher) wires api.dispatch.* instruments: submit/deliver
  // counters, a per-chunk delivery-latency histogram, per-sink
  // delivered counters, and hook-sampled queue depth / delivery lag.
  // `overload` / `shed_deadline` pick the full-queue behavior (see the
  // file comment); the defaults preserve block-never-drop.
  SinkDispatcher(std::vector<EventSink*> sinks, LiveGrouper* grouper,
                 std::size_t capacity_chunks,
                 std::function<stream::EventStore::Snapshot()> snapshot_fn,
                 std::size_t snapshot_every_events,
                 telemetry::MetricsRegistry* metrics = nullptr,
                 OverloadPolicy overload = OverloadPolicy::kBlock,
                 std::chrono::nanoseconds shed_deadline =
                     std::chrono::milliseconds(100));
  ~SinkDispatcher();

  SinkDispatcher(const SinkDispatcher&) = delete;
  SinkDispatcher& operator=(const SinkDispatcher&) = delete;

  void start();

  // Enqueue a chunk for delivery; blocks while full (never drops).
  // Safe from any number of ingesting threads.  The queue shares the
  // chunk; it is released once every sink has seen it.
  void submit(core::SealedChunk events);

  // Queue an on_snapshot delivery: a submit_control() that publishes
  // the snapshot, so it is ordered with the event stream.  Returns
  // false — nothing queued — once stop() has begun; the caller
  // delivers inline instead (the dispatch thread is gone, so there is
  // nothing to race with).
  bool request_snapshot();

  // Queue an arbitrary control callback, ordered with the event
  // stream: it runs on the dispatch thread after every chunk submitted
  // before this call and before every one submitted after.  The
  // checkpoint coordinator uses it to capture the LiveGrouper exactly
  // at the cut (src/recovery/).  Returns false once stop() has begun —
  // the callback is then NOT queued and never runs.
  bool submit_control(std::function<void()> control);

  // Drain everything queued, deliver it, then join the thread.
  // Idempotent and safe to race: every caller blocks until the
  // dispatch thread has actually exited, so after stop() returns it is
  // safe to invoke the sinks from the calling thread.  submit() after
  // stop() is rejected (dropping nothing — callers stop ingesting
  // first by contract).
  void stop();

  std::uint64_t events_delivered() const;

  // Chunks waiting for the dispatch thread (telemetry sample).
  std::size_t queue_depth() const;

  // kShed accounting: events dropped while quarantined (exact), and
  // whether the sink plane is currently quarantined.  Always 0/false
  // under kBlock.
  std::uint64_t events_shed() const {
    return events_shed_.load(std::memory_order_relaxed);
  }
  bool quarantined() const {
    return quarantined_mirror_.load(std::memory_order_relaxed);
  }
  // Times the sink plane entered quarantine.
  std::uint64_t times_quarantined() const {
    return quarantines_.load(std::memory_order_relaxed);
  }

 private:
  struct Item {
    core::SealedChunk events;       // null => control
    std::function<void()> control;  // snapshot / checkpoint cut callback
  };

  void loop();
  void deliver(const Item& item);
  void publish_snapshot();

  std::vector<EventSink*> sinks_;
  LiveGrouper* grouper_;
  std::size_t capacity_;
  std::function<stream::EventStore::Snapshot()> snapshot_fn_;
  std::size_t snapshot_every_;
  OverloadPolicy overload_;
  std::chrono::nanoseconds shed_deadline_;

  mutable std::mutex mu_;
  std::condition_variable cv_space_;  // producers wait for room
  std::condition_variable cv_items_;  // dispatch thread waits for work
  std::deque<Item> queue_;
  bool stopping_ = false;
  bool quarantined_ = false;  // guarded by mu_; mirror below for readers
  std::atomic<bool> quarantined_mirror_{false};
  std::atomic<std::uint64_t> events_shed_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  // Counters touched by the dispatch thread without mu_ (producers may
  // be parked on the mutex; delivery must not contend per event).
  // delivered_ bumps per event so snapshot functions can read an
  // up-to-the-callback progress count.
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> submitted_{0};  // events accepted into the queue
  std::uint64_t since_snapshot_ = 0;  // dispatch thread only
  std::once_flag join_once_;          // concurrent stop() joins exactly once
  std::thread thread_;

  // Telemetry (borrowed from the registry at wiring time; all null
  // when the dispatcher was built without a registry).
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter* submitted_ctr_ = nullptr;
  telemetry::Counter* delivered_ctr_ = nullptr;
  telemetry::LatencyHistogram* deliver_hist_ = nullptr;
  telemetry::LatencyHistogram* e2e_delivery_hist_ = nullptr;
  telemetry::Gauge* queue_gauge_ = nullptr;
  telemetry::Gauge* lag_gauge_ = nullptr;
  telemetry::Counter* shed_ctr_ = nullptr;
  telemetry::Gauge* quarantined_gauge_ = nullptr;
  std::vector<telemetry::Counter*> sink_ctrs_;
  std::uint64_t hook_id_ = 0;
};

}  // namespace bgpbh::api
