// SpillWriter: the bridge from the live pipeline's EventStore to the
// append-only segment log.
//
// Shard workers hand the store sealed chunks of closed events; a store
// chunk listener (stream::EventStore::add_chunk_listener) submits each
// chunk here, shared with the store lane, not copied.  Chunks cross a
// bounded MPMC queue to ONE writer thread that appends them to a
// SegmentWriter in submission order and sync()s after every drain — so
// disk I/O never runs on an ingesting thread, and everything appended
// before the queue emptied is the acked (recoverable) prefix.  A full
// queue blocks submit(): backpressure, never loss, the same contract as
// the rest of the pipeline.
//
// Disk faults degrade, they don't latch.  A failed append/sync is
// retried with the configured RetryPolicy backoff; if every attempt
// fails the writer enters DEGRADED mode: chunks park in memory (ingest
// keeps flowing), the storage.spill.degraded alarm gauge goes up, and
// probe writes at the backoff cadence re-arm spilling automatically
// once the fault clears — the parked backlog then lands on disk
// exactly once (SegmentWriter::events_committed() tells the writer
// precisely which suffix still needs retrying).  Only if the fault
// persists through stop() are the parked events dropped, with an exact
// events_lost() count — no silent loss.
//
// stop() drains the queue, makes a final write attempt, seals the
// active segment and joins the thread; after it returns, every
// submitted event is on disk except the events_lost() tail.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/events.h"
#include "storage/segment_writer.h"
#include "telemetry/metrics.h"
#include "util/retry.h"

namespace bgpbh::storage {

struct SpillConfig {
  std::string dir;
  SegmentConfig segment;
  // Bounded queue depth in chunks; a full queue blocks submit().
  std::size_t queue_chunks = 256;
  // Transient-I/O retry schedule: max_attempts tries with backoff
  // before degrading to memory-only; while degraded, delay(k) (k = the
  // k-th probe, capped by max_delay) paces the probe writes that
  // re-arm spilling.
  util::RetryPolicy retry;
  // Optional telemetry sink (must outlive the writer): storage.spill.*
  // append/sync latency histograms on the writer thread, hook-sampled
  // queue depth, and durability totals (events spilled, segments
  // sealed/retired, bytes on disk) mirrored through writer-thread
  // atomics so snapshots never race SegmentWriter's plain counters.
  telemetry::MetricsRegistry* metrics = nullptr;
};

class SpillWriter {
 public:
  enum class State : int {
    kOk = 0,        // spilling normally
    kDegraded = 1,  // disk failing; chunks parked in memory, probing
    kFailed = 2,    // stopped with parked events dropped (see events_lost)
  };

  // Opens the directory (recovering torn segments — SegmentWriter::
  // open) and starts the writer thread.  nullptr when the directory is
  // unusable.
  static std::unique_ptr<SpillWriter> open(SpillConfig config);
  ~SpillWriter();

  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  // Thread-safe; blocks while the queue is full.  Returns false (and
  // drops nothing — the chunk was never accepted) after stop().
  bool submit(core::SealedChunk chunk);

  // Checkpoint barrier (src/recovery/).  Enqueued IN ORDER with chunks:
  // the writer thread first lands every chunk submitted before this
  // call (flush parked backlog + sync), then reports the durable log
  // position.  `ok` is false when a disk fault kept part of the backlog
  // in memory — the coordinator then abandons the checkpoint.  Blocks
  // until the writer thread reaches the barrier; returns false after
  // stop() (result is then untouched).
  struct BarrierResult {
    bool ok = false;
    DurablePos pos;
  };
  bool barrier(BarrierResult& result);

  // Retention floor passthrough (thread-safe): the writer thread
  // forwards it to SegmentWriter::set_retention_floor before its next
  // drain.  Only ever advances the pin conservatively — a lagging
  // floor pins more than needed, never less.
  void set_retention_floor(std::uint64_t seq) {
    retention_floor_.store(seq, std::memory_order_relaxed);
  }

  // Drains the queue, makes a final write attempt for anything parked,
  // seals the active segment, joins the writer thread.  Idempotent;
  // the destructor calls it.  After it returns, every accepted event
  // is durably appended except the events_lost() tail (non-zero only
  // when the disk fault persisted through the final attempt).
  void stop();

  // ---- observability ----------------------------------------------------
  const std::string& dir() const { return writer_->dir(); }
  // Events durably on disk (past a successful sync or seal) — the
  // acked prefix recovery would hand back.
  std::uint64_t events_spilled() const {
    return events_spilled_.load(std::memory_order_relaxed);
  }
  std::uint64_t segments_sealed() const { return writer_->segments_sealed(); }
  std::uint64_t segments_retired() const { return writer_->segments_retired(); }
  std::uint64_t bytes_on_disk() const { return writer_->bytes_on_disk(); }
  // Thread-safe health probes (all atomics the writer thread publishes).
  State state() const { return state_.load(std::memory_order_relaxed); }
  // Events currently held in memory awaiting a successful probe write.
  std::uint64_t events_parked() const {
    return parked_events_.load(std::memory_order_relaxed);
  }
  // Parked events dropped because the fault persisted through stop().
  std::uint64_t events_lost() const {
    return lost_events_.load(std::memory_order_relaxed);
  }
  // Times the writer fell into degraded (memory-only) mode.
  std::uint64_t times_degraded() const {
    return degraded_entered_.load(std::memory_order_relaxed);
  }
  // Write attempts beyond each first try (backoff retries + probes).
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }
  // True once events were lost or the final seal failed; on-disk data
  // is then a prefix of what was submitted.  Transient faults that
  // recovered before stop() do NOT set this — check state() and
  // times_degraded() for those.
  bool io_error() const { return io_error_.load(std::memory_order_relaxed); }

 private:
  explicit SpillWriter(SpillConfig config,
                       std::unique_ptr<SegmentWriter> writer);

  // Barrier rendezvous between a blocked barrier() caller and the
  // writer thread; lives on the caller's stack for the duration.
  struct BarrierTicket {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    BarrierResult result;
  };

  // Queue element: a chunk of events, or a barrier marker (ticket set,
  // chunk null) — barriers stay ordered relative to the chunks around
  // them.
  struct Item {
    core::SealedChunk chunk;
    BarrierTicket* ticket = nullptr;
  };

  void run();
  // One write attempt over the parked backlog (append uncommitted
  // suffix + sync); retires the backlog on success.
  bool try_write_parked();
  // Retry / degrade / probe state machine around try_write_parked().
  void process(bool final_drain);
  // Interruptible backoff sleep (wakes early only to stop).
  void backoff(std::chrono::nanoseconds delay);
  void publish_parked_gauge();

  SpillConfig config_;
  std::unique_ptr<SegmentWriter> writer_;  // writer thread only, after start

  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Item> queue_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> retention_floor_{0};

  // Writer-thread-only recovery state: chunks staged for writing (in
  // normal operation transiently, in degraded mode until a probe
  // succeeds), the count already retired to disk from past parked
  // lists, and the probe schedule.
  std::deque<core::SealedChunk> parked_;
  std::uint64_t retired_events_ = 0;
  bool degraded_ = false;
  std::size_t probe_attempt_ = 0;
  std::chrono::steady_clock::time_point next_probe_{};

  std::thread thread_;
  std::mutex stop_mu_;
  std::atomic<std::uint64_t> events_spilled_{0};
  std::atomic<State> state_{State::kOk};
  std::atomic<std::uint64_t> parked_events_{0};
  std::atomic<std::uint64_t> lost_events_{0};
  std::atomic<std::uint64_t> degraded_entered_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<bool> io_error_{false};
  bool joined_ = false;  // guarded by stop_mu_

  // Telemetry (null without a registry).  The writer thread owns
  // SegmentWriter's plain counters; it republishes them into the
  // *_mirror_ atomics once per drain so the collection hook can read
  // them from the snapshotting thread race-free.
  telemetry::LatencyHistogram* append_hist_ = nullptr;
  telemetry::LatencyHistogram* sync_hist_ = nullptr;
  telemetry::Counter* spilled_ctr_ = nullptr;
  telemetry::Counter* sealed_ctr_ = nullptr;
  telemetry::Counter* retired_ctr_ = nullptr;
  telemetry::Counter* lost_ctr_ = nullptr;
  telemetry::Counter* retries_ctr_ = nullptr;
  telemetry::Counter* degraded_entered_ctr_ = nullptr;
  telemetry::Gauge* queue_gauge_ = nullptr;
  telemetry::Gauge* bytes_gauge_ = nullptr;
  telemetry::Gauge* degraded_gauge_ = nullptr;
  telemetry::Gauge* parked_gauge_ = nullptr;
  std::uint64_t hook_id_ = 0;
  std::atomic<std::uint64_t> sealed_mirror_{0};
  std::atomic<std::uint64_t> retired_mirror_{0};
  std::atomic<std::uint64_t> bytes_mirror_{0};
};

}  // namespace bgpbh::storage
