// Worker pool: N engine shards, each a thread consuming 16-byte
// SubUpdateRefs from its own bounded SPSC queue and running a private
// core::InferenceEngine over the (peer, prefix) keys it owns.
//
// The zero-copy data plane: each ref names a shared pooled UpdateBlock
// plus one prefix; the worker builds a borrowed core::UpdateView over
// the block (no materialization) and releases the block's reference
// after processing.  Refs move through the queues in batches
// (pop_batch/push_batch: one index publish and at most one wake per
// chunk instead of per element), bounded by `batch_size`.
//
// Multi-producer (MPMC) stage: with `serialize_producers`, several
// producer threads may submit concurrently — submission serializes on
// a per-shard mutex held once per submitted batch (once per push per
// touched shard), and the SPSC queue invariants still hold (the mutex
// orders the producer-side index accesses).
//
// Workers seal their engine's closed events whenever a consume batch
// leaves their queue empty — so a closed event never waits for more
// traffic — and at least every kDrainBatch sub-updates under
// saturation (and once more on exit).  The chunk goes to the shard's
// own EventStore lane — no shared store mutex on the hot path — and a
// per-shard open-event gauge is published after every batch for live
// snapshots.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "dictionary/compiled.h"
#include "stream/event_store.h"
#include "stream/spsc_queue.h"
#include "stream/update_block.h"
#include "telemetry/metrics.h"

namespace bgpbh::stream {

// One shard's contribution to a checkpoint cut (src/recovery/): the
// engine's open (peer, prefix) states plus per-producer ingest
// watermarks — how many sub-update refs from each producer this shard
// has processed since the stream began.  Routing is deterministic, so
// on recovery a producer re-feeding the same source drops exactly the
// first watermarks[p] refs destined to each shard.
struct ShardCapture {
  std::vector<core::OpenEventState> open_state;
  std::vector<std::uint64_t> watermarks;
};

class WorkerPool {
 public:
  // `metrics` wires the pool's telemetry: per-shard batch-processing
  // and drain latency histograms (stream.worker.batch_ns /
  // stream.worker.drain_ns, recorded once per consume batch — two
  // clock reads amortized over batch_size sub-updates), per-shard
  // queue stall/wake counters bound into the SPSC queues, and the
  // trace ring for slow-batch spans.  Must outlive the pool.  Every
  // count must be at least 1 (StreamPipeline normalizes its config).
  WorkerPool(const dictionary::BlackholeDictionary& dictionary,
             const topology::Registry& registry,
             core::EngineConfig engine_config, std::size_t num_shards,
             std::size_t num_producers, std::size_t queue_capacity,
             std::size_t batch_size, bool serialize_producers,
             BlockPool& blocks, EventStore& store,
             telemetry::MetricsRegistry& metrics);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t num_shards() const { return shards_.size(); }

  // The shard's private engine.  Before start() and after
  // close_and_join() the caller may use it freely (table-dump init,
  // finish, stats); while workers run, only the owning worker may.
  core::InferenceEngine& engine(std::size_t shard);
  const core::InferenceEngine& engine(std::size_t shard) const;

  // Idempotent and safe to race from multiple producer threads.
  void start();
  bool started() const { return started_.load(std::memory_order_acquire); }

  // Blocking batch enqueue.  Returns the number accepted —
  // refs.size(), or fewer iff the pool was shut down mid-batch; block
  // references of rejected refs stay with the caller.
  std::size_t submit_batch(std::size_t shard, std::span<SubUpdateRef> refs);

  // Close all queues, wait for every worker to drain and exit.
  void close_and_join();

  // Re-publish every shard's open-event gauge from its engine.  Only
  // legal while no worker can touch the engines (before start() or
  // after close_and_join()); the pipeline calls it after force-closing
  // the remainder in finish() so concurrent gauge readers see the
  // final count without ever touching engine state.
  void publish_open_gauges();

  // Live gauge: open events summed over shards (relaxed reads of the
  // per-shard gauges workers publish after each batch).
  std::size_t open_event_count() const;

  // Sub-updates consumed by all workers so far.
  std::uint64_t processed_count() const;

  // Per-shard samples for telemetry collection hooks (all relaxed
  // reads of values the worker/queue already publish — safe any time).
  std::size_t queue_depth(std::size_t shard) const;
  std::size_t queue_peak(std::size_t shard) const;
  std::size_t open_events(std::size_t shard) const;
  std::uint64_t processed(std::size_t shard) const;

  // Monotone liveness tick: bumps once per worker loop iteration (data
  // batch or idle poll), so a stuck worker is one whose heartbeat stops
  // while its queue depth stays positive (recovery::Watchdog).
  std::uint64_t heartbeat(std::size_t shard) const;

  // Checkpoint rendezvous (src/recovery/).  Quiesces every worker at a
  // batch boundary (a worker parked on an empty queue is interrupted,
  // not waited for until its idle poll): each worker force-drains its closed events into
  // the store (so every pre-cut chunk is downstream of the cut), dumps
  // its open engine state + watermarks into its capture slot, and
  // parks.  With all workers held — no in-flight chunks, none can be
  // submitted — `while_quiesced` runs (the coordinator enqueues its
  // spill barrier / dispatcher control item there; it must only
  // enqueue, never wait on downstream threads).  Workers then resume.
  // Fills `out` with one ShardCapture per shard.  Before start() this
  // reads the engines directly (bootstrap checkpoint); returns false
  // if the pool is shut down (or shuts down mid-capture).
  bool capture(const std::function<void()>& while_quiesced,
               std::vector<ShardCapture>& out);

  // Seed a shard's per-producer watermarks before start() — recovery
  // restores the absolute counts from the checkpoint so the next
  // checkpoint's watermarks remain absolute positions in each
  // producer's deterministic sub-update sequence.
  void seed_watermarks(std::size_t shard,
                       std::vector<std::uint64_t> watermarks);

 private:
  struct Shard {
    std::unique_ptr<core::InferenceEngine> engine;
    std::unique_ptr<SpscQueue<SubUpdateRef>> queue;
    // Taken per sealed batch when several producers feed this shard.
    std::mutex producer_mu;
    std::thread thread;
    std::size_t index = 0;
    std::atomic<std::size_t> open_gauge{0};
    std::atomic<std::uint64_t> processed{0};
    std::atomic<std::uint64_t> heartbeat{0};
    // Per-producer sub-update counts.  Plain (non-atomic): written only
    // by the owning worker between rendezvous points; read by the
    // capture coordinator only via the worker's own copy into its
    // capture slot (made under rendezvous_mu_), and directly only
    // before start().
    std::vector<std::uint64_t> watermarks;
    // Telemetry (borrowed from the registry; wiring-time only).
    telemetry::LatencyHistogram* batch_hist = nullptr;
    telemetry::LatencyHistogram* drain_hist = nullptr;
    telemetry::LatencyHistogram* detect_hist = nullptr;
  };

  void worker_loop(Shard& shard);
  void capture_rendezvous(Shard& shard);
  // Drain the shard engine's closed events into the store, recording
  // e2e.detect_latency_ns (ingest stamp -> engine close) for every
  // event that carries both stamps.
  void drain_into_store(Shard& shard);

  // One compiled dictionary shared by every shard engine (it is
  // immutable; per-shard copies would just multiply the pools).
  dictionary::CompiledDictionary compiled_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t num_producers_;
  std::size_t batch_size_;
  bool serialize_producers_;
  BlockPool& blocks_;
  EventStore& store_;
  telemetry::TraceRing* trace_;
  std::atomic<bool> started_{false};
  std::atomic<bool> joined_{false};      // shutdown initiated

  // Checkpoint rendezvous state.  capture_requested_ is the cheap flag
  // workers poll at batch boundaries; everything else is guarded by
  // rendezvous_mu_.  capture_serial_mu_ serializes whole captures.
  std::mutex capture_serial_mu_;
  std::mutex rendezvous_mu_;
  std::condition_variable rendezvous_cv_;
  std::vector<ShardCapture> capture_slots_;
  std::size_t arrived_ = 0;
  bool capture_active_ = false;
  // Bumped as each capture releases its workers.  A worker waits for
  // the number to move past the one it arrived under, so a capture
  // starting before it woke cannot hold it again.
  std::uint64_t release_epoch_ = 0;
  bool shutdown_ = false;
  std::atomic<bool> capture_requested_{false};
};

}  // namespace bgpbh::stream
