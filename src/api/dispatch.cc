#include "api/dispatch.h"

#include "telemetry/trace.h"
#include "util/log.h"
#include "util/time.h"

namespace bgpbh::api {

SinkDispatcher::SinkDispatcher(
    std::vector<EventSink*> sinks, LiveGrouper* grouper,
    std::size_t capacity_chunks,
    std::function<stream::EventStore::Snapshot()> snapshot_fn,
    std::size_t snapshot_every_events, telemetry::MetricsRegistry* metrics,
    OverloadPolicy overload, std::chrono::nanoseconds shed_deadline)
    : sinks_(std::move(sinks)),
      grouper_(grouper),
      capacity_(capacity_chunks == 0 ? 1 : capacity_chunks),
      snapshot_fn_(std::move(snapshot_fn)),
      snapshot_every_(snapshot_every_events),
      overload_(overload),
      shed_deadline_(shed_deadline),
      metrics_(metrics) {
  if (!metrics_) return;
  metrics_->describe("api.dispatch.events_submitted",
                     "Closed events accepted into the dispatch queue");
  metrics_->describe("api.dispatch.events_delivered",
                     "Closed events fanned out to every sink");
  metrics_->describe("api.dispatch.deliver_ns",
                     "Sink fan-out latency per queued chunk (ns: all sinks, "
                     "grouper fold, group fan-out)");
  metrics_->describe("api.dispatch.queue_chunks",
                     "Chunks waiting for the dispatch thread");
  metrics_->describe("api.dispatch.lag_events",
                     "Events submitted but not yet delivered (sink lag)");
  metrics_->describe("api.dispatch.sink.events",
                     "Events delivered per registered sink");
  metrics_->describe("api.dispatch.events_shed",
                     "Events dropped while the sink plane was quarantined "
                     "(kShed overload policy only)");
  metrics_->describe("api.dispatch.quarantined",
                     "1 while the sink plane is quarantined for overload");
  metrics_->describe(
      "e2e.delivery_latency_ns",
      "End-to-end delivery latency: wall time from an update's ingest "
      "stamp at the producer edge to its closed event reaching every "
      "sink (ns; unstamped events excluded)");
  submitted_ctr_ = &metrics_->counter("api.dispatch.events_submitted");
  delivered_ctr_ = &metrics_->counter("api.dispatch.events_delivered");
  deliver_hist_ = &metrics_->histogram("api.dispatch.deliver_ns");
  e2e_delivery_hist_ = &metrics_->histogram("e2e.delivery_latency_ns");
  queue_gauge_ = &metrics_->gauge("api.dispatch.queue_chunks");
  lag_gauge_ = &metrics_->gauge("api.dispatch.lag_events");
  shed_ctr_ = &metrics_->counter("api.dispatch.events_shed");
  quarantined_gauge_ = &metrics_->gauge("api.dispatch.quarantined");
  sink_ctrs_.reserve(sinks_.size());
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    sink_ctrs_.push_back(&metrics_->shard_counter("api.dispatch.sink.events", i));
  }
  hook_id_ = metrics_->add_collection_hook([this] {
    const std::uint64_t submitted = submitted_.load(std::memory_order_relaxed);
    const std::uint64_t delivered = delivered_.load(std::memory_order_relaxed);
    submitted_ctr_->set_total(submitted);
    delivered_ctr_->set_total(delivered);
    queue_gauge_->set(static_cast<double>(queue_depth()));
    lag_gauge_->set(static_cast<double>(submitted - delivered));
    shed_ctr_->set_total(events_shed_.load(std::memory_order_relaxed));
    quarantined_gauge_->set(
        quarantined_mirror_.load(std::memory_order_relaxed) ? 1.0 : 0.0);
  });
}

SinkDispatcher::~SinkDispatcher() {
  // A session-owned registry can outlive this dispatcher; a late
  // snapshot must not run our hook against dead members.
  if (metrics_) metrics_->remove_collection_hook(hook_id_);
  stop();
}

void SinkDispatcher::start() {
  if (thread_.joinable()) return;
  thread_ = std::thread([this] { loop(); });
}

void SinkDispatcher::submit(core::SealedChunk events) {
  if (!events || events->empty()) return;
  const std::size_t count = events->size();
  std::unique_lock<std::mutex> lock(mu_);
  if (overload_ == OverloadPolicy::kShed) {
    const auto has_room = [this] {
      return queue_.size() < capacity_ || stopping_;
    };
    if (quarantined_) {
      // Already quarantined: shed immediately (no per-chunk deadline
      // stall — that is the whole point of quarantining).  The
      // dispatch thread lifts the quarantine once it drains the
      // backlog.
      events_shed_.fetch_add(count, std::memory_order_relaxed);
      return;
    }
    if (!cv_space_.wait_for(lock, shed_deadline_, has_room)) {
      quarantined_ = true;
      quarantined_mirror_.store(true, std::memory_order_relaxed);
      quarantines_.fetch_add(1, std::memory_order_relaxed);
      events_shed_.fetch_add(count, std::memory_order_relaxed);
      static util::LogRateLimiter limit(/*per_second=*/0.5, /*burst=*/3.0);
      if (limit.allow()) {
        util::Log(util::LogLevel::kWarn, "dispatch")
            .msg("sink overload deadline exceeded; quarantining sink plane")
            .kv("queue_chunks", queue_.size())
            .kv("events_shed",
                events_shed_.load(std::memory_order_relaxed))
            .kv("suppressed", limit.last_suppressed());
      }
      return;
    }
  } else {
    cv_space_.wait(lock,
                   [this] { return queue_.size() < capacity_ || stopping_; });
  }
  if (stopping_) return;  // ingest has stopped by contract; nothing to lose
  queue_.push_back(Item{.events = std::move(events), .control = {}});
  submitted_.fetch_add(count, std::memory_order_relaxed);
  cv_items_.notify_one();
}

bool SinkDispatcher::request_snapshot() {
  return submit_control([this] { publish_snapshot(); });
}

bool SinkDispatcher::submit_control(std::function<void()> control) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_space_.wait(lock,
                 [this] { return queue_.size() < capacity_ || stopping_; });
  if (stopping_) return false;
  queue_.push_back(Item{.events = {}, .control = std::move(control)});
  cv_items_.notify_one();
  return true;
}

void SinkDispatcher::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cv_items_.notify_all();
    cv_space_.notify_all();
  }
  // call_once: concurrent stoppers all block here until the one join
  // finished, so no caller can proceed while the thread still runs.
  std::call_once(join_once_, [this] {
    if (thread_.joinable()) thread_.join();
  });
}

std::uint64_t SinkDispatcher::events_delivered() const {
  return delivered_.load(std::memory_order_relaxed);
}

std::size_t SinkDispatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void SinkDispatcher::loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_items_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping and fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
      if (quarantined_ && queue_.empty()) {
        // Backlog drained: the slow sink caught up, lift the
        // quarantine and resume delivering new chunks.
        quarantined_ = false;
        quarantined_mirror_.store(false, std::memory_order_relaxed);
        util::Log(util::LogLevel::kInfo, "dispatch")
            .msg("sink backlog drained; quarantine lifted")
            .kv("events_shed",
                events_shed_.load(std::memory_order_relaxed));
      }
      cv_space_.notify_one();
    }
    deliver(item);
  }
}

void SinkDispatcher::deliver(const Item& item) {
  if (item.control) {
    // Snapshot or checkpoint cut: runs after every chunk queued before
    // it was delivered, so it observes the grouper exactly at the cut.
    item.control();
    return;
  }
  telemetry::ScopedSpan span(deliver_hist_,
                             metrics_ ? &metrics_->trace() : nullptr,
                             "dispatch.deliver");
  for (const core::PeerEvent& event : *item.events) {
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      sinks_[i]->on_event_closed(event);
      if (!sink_ctrs_.empty()) sink_ctrs_[i]->add();
    }
    if (e2e_delivery_hist_ && event.ingest_ns != 0) {
      const std::uint64_t now = util::wall_clock_ns();
      if (now > event.ingest_ns) {
        e2e_delivery_hist_->record(now - event.ingest_ns);
      }
    }
    if (grouper_) {
      core::PrefixEvent group = grouper_->add(event);
      for (EventSink* sink : sinks_) sink->on_group_updated(group);
    }
    delivered_.fetch_add(1, std::memory_order_relaxed);
    if (snapshot_every_ > 0 && ++since_snapshot_ >= snapshot_every_) {
      since_snapshot_ = 0;
      publish_snapshot();
    }
  }
}

void SinkDispatcher::publish_snapshot() {
  if (!snapshot_fn_) return;
  stream::EventStore::Snapshot snapshot = snapshot_fn_();
  for (EventSink* sink : sinks_) sink->on_snapshot(snapshot);
}

}  // namespace bgpbh::api
