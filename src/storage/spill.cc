#include "storage/spill.h"

#include <cstring>

#include "telemetry/trace.h"
#include "util/log.h"

namespace bgpbh::storage {

std::unique_ptr<SpillWriter> SpillWriter::open(SpillConfig config) {
  auto writer = SegmentWriter::open(config.dir, config.segment);
  if (!writer) return nullptr;
  if (config.queue_chunks == 0) config.queue_chunks = 1;
  return std::unique_ptr<SpillWriter>(
      new SpillWriter(std::move(config), std::move(writer)));
}

SpillWriter::SpillWriter(SpillConfig config,
                         std::unique_ptr<SegmentWriter> writer)
    : config_(std::move(config)), writer_(std::move(writer)) {
  if (telemetry::MetricsRegistry* metrics = config_.metrics) {
    metrics->describe("storage.spill.append_ns",
                      "Segment append latency per spilled chunk (ns, writer "
                      "thread)");
    metrics->describe("storage.spill.sync_ns",
                      "fsync latency per drain batch (ns, writer thread)");
    metrics->describe("storage.spill.queue_chunks",
                      "Chunks waiting for the spill writer thread");
    metrics->describe("storage.spill.events_spilled",
                      "Events durably appended (acked prefix)");
    metrics->describe("storage.spill.segments_sealed",
                      "Segments sealed by size/age roll");
    metrics->describe("storage.spill.segments_retired",
                      "Segments deleted by the retention policy");
    metrics->describe("storage.spill.bytes_on_disk",
                      "Bytes currently held by live segments");
    metrics->describe("storage.spill.degraded",
                      "Spill health: 0 ok, 1 degraded (memory-only), 2 failed "
                      "(events lost)");
    metrics->describe("storage.spill.parked_events",
                      "Events parked in memory awaiting a probe write");
    metrics->describe("storage.spill.events_lost",
                      "Parked events dropped because the disk fault persisted "
                      "through stop()");
    metrics->describe("storage.spill.retries",
                      "Write attempts beyond each first try (backoff retries "
                      "+ degraded-mode probes)");
    metrics->describe("storage.spill.degraded_entered",
                      "Times the writer fell into degraded mode");
    append_hist_ = &metrics->histogram("storage.spill.append_ns");
    sync_hist_ = &metrics->histogram("storage.spill.sync_ns");
    spilled_ctr_ = &metrics->counter("storage.spill.events_spilled");
    sealed_ctr_ = &metrics->counter("storage.spill.segments_sealed");
    retired_ctr_ = &metrics->counter("storage.spill.segments_retired");
    lost_ctr_ = &metrics->counter("storage.spill.events_lost");
    retries_ctr_ = &metrics->counter("storage.spill.retries");
    degraded_entered_ctr_ = &metrics->counter("storage.spill.degraded_entered");
    queue_gauge_ = &metrics->gauge("storage.spill.queue_chunks");
    bytes_gauge_ = &metrics->gauge("storage.spill.bytes_on_disk");
    degraded_gauge_ = &metrics->gauge("storage.spill.degraded");
    parked_gauge_ = &metrics->gauge("storage.spill.parked_events");
    // Recovery may have found pre-existing segments; seed the mirrors
    // before the writer thread takes ownership of the counters.
    sealed_mirror_.store(writer_->segments_sealed(),
                         std::memory_order_relaxed);
    retired_mirror_.store(writer_->segments_retired(),
                          std::memory_order_relaxed);
    bytes_mirror_.store(writer_->bytes_on_disk(), std::memory_order_relaxed);
    hook_id_ = metrics->add_collection_hook([this] {
      spilled_ctr_->set_total(events_spilled_.load(std::memory_order_relaxed));
      sealed_ctr_->set_total(sealed_mirror_.load(std::memory_order_relaxed));
      retired_ctr_->set_total(retired_mirror_.load(std::memory_order_relaxed));
      lost_ctr_->set_total(lost_events_.load(std::memory_order_relaxed));
      retries_ctr_->set_total(retries_.load(std::memory_order_relaxed));
      degraded_entered_ctr_->set_total(
          degraded_entered_.load(std::memory_order_relaxed));
      bytes_gauge_->set(static_cast<double>(
          bytes_mirror_.load(std::memory_order_relaxed)));
      degraded_gauge_->set(static_cast<double>(
          static_cast<int>(state_.load(std::memory_order_relaxed))));
      parked_gauge_->set(static_cast<double>(
          parked_events_.load(std::memory_order_relaxed)));
      std::size_t depth;
      {
        std::lock_guard<std::mutex> lock(mu_);
        depth = queue_.size();
      }
      queue_gauge_->set(static_cast<double>(depth));
    });
  }
  thread_ = std::thread([this] { run(); });
}

SpillWriter::~SpillWriter() {
  if (config_.metrics) config_.metrics->remove_collection_hook(hook_id_);
  stop();
}

bool SpillWriter::submit(core::SealedChunk chunk) {
  if (!chunk || chunk->empty()) return true;
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] {
      return queue_.size() < config_.queue_chunks || stopping_;
    });
    if (stopping_) return false;
    queue_.push_back(Item{std::move(chunk), nullptr});
  }
  not_empty_.notify_one();
  return true;
}

bool SpillWriter::barrier(BarrierResult& result) {
  BarrierTicket ticket;
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] {
      return queue_.size() < config_.queue_chunks || stopping_;
    });
    if (stopping_) return false;
    queue_.push_back(Item{{}, &ticket});
  }
  not_empty_.notify_one();
  std::unique_lock<std::mutex> lock(ticket.m);
  ticket.cv.wait(lock, [&ticket] { return ticket.done; });
  result = ticket.result;
  return true;
}

void SpillWriter::run() {
  for (;;) {
    std::vector<Item> incoming;
    bool final_drain = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (degraded_ && !parked_.empty()) {
        // Degraded: wake at the probe deadline even with no new
        // chunks, so spilling re-arms without fresh traffic.
        not_empty_.wait_until(lock, next_probe_, [this] {
          return !queue_.empty() || stopping_;
        });
      } else {
        not_empty_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      }
      while (!queue_.empty()) {
        incoming.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      final_drain = stopping_;
    }
    not_full_.notify_all();
    writer_->set_retention_floor(
        retention_floor_.load(std::memory_order_relaxed));
    for (auto& item : incoming) {
      if (!item.ticket) {
        parked_.push_back(std::move(item.chunk));
        continue;
      }
      // Barrier: land everything submitted before it, then report the
      // durable position.  A fault that keeps backlog parked (or a
      // degraded probe window) yields ok = false — the checkpoint is
      // abandoned, never stamped with a position it doesn't cover.
      process(/*final_drain=*/false);
      BarrierResult r;
      r.ok = parked_.empty() && !degraded_;
      r.pos = writer_->durable_pos();
      {
        // Notify under the lock: the ticket lives on barrier()'s stack
        // and dies as soon as its waiter sees done, so the cv must not
        // be touched once the lock is released.
        std::lock_guard<std::mutex> ticket_lock(item.ticket->m);
        item.ticket->result = r;
        item.ticket->done = true;
        item.ticket->cv.notify_all();
      }
    }
    process(final_drain);
    if (final_drain) {
      // Fault persisted through the final attempt: the parked tail is
      // lost, with exact accounting — never silently.
      const std::uint64_t durable =
          writer_->events_committed() - retired_events_;
      std::uint64_t total = 0;
      for (const auto& chunk : parked_) total += chunk->size();
      if (total > durable) {
        const std::uint64_t lost = total - durable;
        lost_events_.fetch_add(lost, std::memory_order_relaxed);
        state_.store(State::kFailed, std::memory_order_relaxed);
        io_error_.store(true, std::memory_order_relaxed);
        util::Log(util::LogLevel::kError, "spill")
            .msg("giving up on parked events; disk fault persisted")
            .kv("events_lost", lost)
            .kv("dir", writer_->dir())
            .kv("errno", writer_->last_errno());
      }
      parked_.clear();
      publish_parked_gauge();
      return;
    }
  }
}

bool SpillWriter::try_write_parked() {
  telemetry::TraceRing* ring =
      config_.metrics ? &config_.metrics->trace() : nullptr;
  // events_committed() only advances at a successful sync/seal, so
  // (committed - retired) is exactly the parked prefix a previous
  // partial attempt already made durable: skip it, append the rest,
  // ack everything with one sync.  Retrying after a failure can never
  // duplicate — the abandoned segment was truncated back to the same
  // watermark.
  const std::uint64_t committed =
      writer_->events_committed() - retired_events_;
  std::uint64_t cum = 0;
  bool ok = true;
  for (const auto& chunk : parked_) {
    const std::uint64_t begin = cum;
    cum += chunk->size();
    if (committed >= cum) continue;  // already durable
    const std::size_t from =
        committed > begin ? static_cast<std::size_t>(committed - begin) : 0;
    telemetry::ScopedSpan span(append_hist_, ring, "spill.append");
    if (!writer_->append(std::span(*chunk).subspan(from))) {
      ok = false;
      break;
    }
  }
  if (ok) {
    telemetry::ScopedSpan span(sync_hist_, ring, "spill.sync");
    ok = writer_->sync();
  }
  // Durability gauge: exactly what recovery would hand back, even
  // after a partial batch (a mid-batch seal commits its records).
  events_spilled_.store(writer_->events_committed(),
                        std::memory_order_relaxed);
  if (config_.metrics) {
    sealed_mirror_.store(writer_->segments_sealed(),
                         std::memory_order_relaxed);
    retired_mirror_.store(writer_->segments_retired(),
                          std::memory_order_relaxed);
    bytes_mirror_.store(writer_->bytes_on_disk(), std::memory_order_relaxed);
  }
  if (!ok) return false;
  for (const auto& chunk : parked_) retired_events_ += chunk->size();
  parked_.clear();
  return true;
}

void SpillWriter::process(bool final_drain) {
  if (parked_.empty()) {
    publish_parked_gauge();
    return;
  }
  if (degraded_ && !final_drain &&
      std::chrono::steady_clock::now() < next_probe_) {
    // Not probe time yet: just keep parking.
    publish_parked_gauge();
    return;
  }
  // Normal mode: a full retry ladder with backoff.  Degraded mode: one
  // probe per deadline (the ladder already ran; re-arming needs a
  // single success).  Final drain: no sleeps, but still try.
  const std::size_t attempts = degraded_ ? 1 : config_.retry.attempts();
  bool wrote = false;
  for (std::size_t attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1 || degraded_) {
      retries_.fetch_add(1, std::memory_order_relaxed);
    }
    if (try_write_parked()) {
      wrote = true;
      break;
    }
    if (attempt < attempts && !final_drain) {
      backoff(config_.retry.delay(attempt));
    }
  }
  if (wrote) {
    if (degraded_) {
      degraded_ = false;
      probe_attempt_ = 0;
      state_.store(State::kOk, std::memory_order_relaxed);
      util::Log(util::LogLevel::kInfo, "spill")
          .msg("disk fault cleared; spilling re-armed")
          .kv("dir", writer_->dir())
          .kv("events_spilled",
              events_spilled_.load(std::memory_order_relaxed));
    }
  } else {
    if (!degraded_) {
      degraded_ = true;
      degraded_entered_.fetch_add(1, std::memory_order_relaxed);
      state_.store(State::kDegraded, std::memory_order_relaxed);
      static util::LogRateLimiter limit(/*per_second=*/0.5, /*burst=*/3.0);
      if (limit.allow()) {
        util::Log(util::LogLevel::kWarn, "spill")
            .msg("persistent disk error; degrading to memory-only")
            .kv("dir", writer_->dir())
            .kv("errno", writer_->last_errno())
            .kv("error", std::strerror(writer_->last_errno()))
            .kv("suppressed", limit.last_suppressed());
      }
    }
    ++probe_attempt_;
    next_probe_ = std::chrono::steady_clock::now() +
                  config_.retry.delay(probe_attempt_);
  }
  publish_parked_gauge();
}

void SpillWriter::backoff(std::chrono::nanoseconds delay) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait_for(lock, delay, [this] { return stopping_; });
}

void SpillWriter::publish_parked_gauge() {
  std::uint64_t parked = 0;
  for (const auto& chunk : parked_) parked += chunk->size();
  const std::uint64_t durable = writer_->events_committed() - retired_events_;
  parked_events_.store(parked > durable ? parked - durable : 0,
                       std::memory_order_relaxed);
}

void SpillWriter::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  // Serialize concurrent stop() callers past the join + seal.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (thread_.joinable()) thread_.join();
  if (!joined_) {
    joined_ = true;
    if (!writer_->close()) io_error_.store(true, std::memory_order_relaxed);
    events_spilled_.store(writer_->events_committed(),
                          std::memory_order_relaxed);
    if (config_.metrics) {
      sealed_mirror_.store(writer_->segments_sealed(),
                           std::memory_order_relaxed);
      retired_mirror_.store(writer_->segments_retired(),
                            std::memory_order_relaxed);
      bytes_mirror_.store(writer_->bytes_on_disk(), std::memory_order_relaxed);
    }
  }
}

}  // namespace bgpbh::storage
