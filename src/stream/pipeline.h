// StreamPipeline: the live ingestion facade.
//
//   UpdateSource ──> Producer 0 ┐                ┌> shard worker 0
//    (per collector   ShardRouter├─ SubUpdateRef ─┤  (InferenceEngine)
//     platform)                  │   SpscQueue[i] │       │ drain_closed()
//   UpdateSource ──> Producer P-1┘   (16 B refs)  └> shard worker N-1
//                        │                                │ sealed chunks
//                        v                                v
//                   BlockPool <─── release ─────── EventStore lane[i]
//               (UpdateBlock: each parsed update stored once)
//
// Zero-copy data plane: a producer thread pulls FeedUpdates from a
// source (collector-fleet adapter, MRT archive replay, or an in-memory
// batch), parks each parsed update once in a pooled UpdateBlock, and
// the router emits 16-byte SubUpdateRefs — (block, prefix index, kind)
// — gathered per shard and moved onto the owning shard's bounded queue
// in batches (blocking when full: backpressure, never drops).  N
// workers pop in matching batches, run private engine shards straight
// over the shared blocks via core::UpdateView (no materialization),
// release the blocks back to the pool, and seal their closed events
// into per-shard EventStore lanes — merged and canonically ordered at
// finish().  In steady state the whole path from push() to the engine
// performs zero heap allocations per sub-update (bench/perf_stream
// asserts this with a counting allocator).
//
// Latency bound: neither stage holds work back for a batch — every
// push hands its refs to the shard queues before it returns, and a
// worker drains closed events whenever a batch leaves its queue empty.
// A producer's batch holds one update's refs for one shard; a worker
// that falls behind still pops up to `batch_size` refs at once.
//
// MPMC stage: `num_producers > 1` gives each producer thread its own
// Producer handle (router + per-shard ref buffers); shard submission
// then serializes on a per-shard mutex, held once per push per touched
// shard (and once per `batch_size` refs of one large update).  Per-key
// equivalence holds as long as all updates of one (peer, prefix) key
// flow through the same producer — true for one-producer-per-platform
// deployments (collector sessions are platform-disjoint) and for any
// peer-key-hash partition.
//
// Equivalence contract: after finish(), store().events() sorted
// canonically is identical to what one sequential InferenceEngine
// produces from the same update stream, for any shard count, batch
// size and producer count, and merged_stats() equals the sequential
// engine's stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "bgp/mrt.h"
#include "core/engine.h"
#include "stream/event_store.h"
#include "stream/shard_router.h"
#include "stream/source.h"
#include "stream/update_block.h"
#include "stream/worker_pool.h"
#include "telemetry/metrics.h"

namespace bgpbh::stream {

struct PipelineConfig {
  std::size_t num_shards = 4;
  // Bounded per-shard queue; a full queue blocks the producer.
  std::size_t queue_capacity = 4096;
  // Most sub-updates moved per queue transfer: a producer hands at most
  // this many refs of one shard to a push_batch, and workers pop up to
  // this many per pop_batch — one index publish per chunk instead of
  // per element.  It bounds transfers only: a push never returns with
  // refs still held back.
  std::size_t batch_size = 64;
  // MPMC stage: number of concurrent producer threads (e.g. one per
  // collector platform).  Each must use its own producer() handle.
  std::size_t num_producers = 1;
  // Telemetry sink (src/telemetry/).  When null the pipeline owns a
  // private registry — telemetry is always on; the instrumentation is
  // designed so the hot path stays allocation- and mutex-free (see
  // WorkerPool / SpscQueue docs).  When set (e.g. by AnalysisSession)
  // it must outlive the pipeline.
  telemetry::MetricsRegistry* metrics = nullptr;
  core::EngineConfig engine;
};

class StreamPipeline {
 public:
  // One per producer thread: routes updates into the shard queues
  // through its own router and per-shard ref buffers.  Obtain via
  // StreamPipeline::producer(i); never share a handle across threads.
  class Producer {
   public:
    // Route one update.  Returns false — without routing or counting
    // the update — once the pipeline has finished; nothing is ever
    // silently dropped.  Routed sub-updates are gathered per shard and
    // every non-empty shard is submitted, in shard order, before push
    // returns; a shard that reaches `batch_size` within one update is
    // submitted at once.
    bool push(const routing::FeedUpdate& update);

    // Original updates accepted via push() on this handle.
    std::uint64_t updates_pushed() const { return router_.updates_routed(); }

    // Sub-update refs this handle actually enqueued onto shard queues
    // (accepted by submit_batch; replay-skipped refs excluded).
    // Together with StreamPipeline::total_processed() this gives a
    // quiescence check: once pushes stop, equal totals mean the queues
    // are empty and the engines have consumed everything pushed.
    std::uint64_t refs_enqueued() const {
      return refs_enqueued_.load(std::memory_order_relaxed);
    }

    // Recovery replay cut (src/recovery/): drop the first counts[s]
    // sub-update refs this producer routes to each shard s — they were
    // already processed and made durable before the crash.  Routing is
    // deterministic, so re-feeding the same source with the same
    // producer partition skips exactly the pre-checkpoint prefix of
    // every per-shard stream.  Call before the first push().
    void set_replay_skip(std::vector<std::uint64_t> counts) {
      skip_ = std::move(counts);
    }

   private:
    friend class StreamPipeline;
    Producer(StreamPipeline& owner, std::size_t index, std::size_t num_shards,
             BlockPool& blocks, std::size_t batch_size);

    // Hand one shard's gathered refs to the workers, releasing any refs
    // a mid-shutdown rejection left with us.
    void submit_shard(std::size_t shard);

    StreamPipeline* owner_;
    ShardRouter router_;
    std::size_t batch_size_;
    // Refs routed by the current push, per shard; empty between pushes.
    std::vector<std::vector<SubUpdateRef>> pending_;
    // Per-shard refs still to drop during recovery replay; empty when
    // not replaying, so the hot path pays one branch.
    std::vector<std::uint64_t> skip_;
    // Relaxed: written by the producer thread, sampled by drain checks.
    std::atomic<std::uint64_t> refs_enqueued_{0};
  };

  StreamPipeline(const dictionary::BlackholeDictionary& dictionary,
                 const topology::Registry& registry,
                 PipelineConfig config = {});
  ~StreamPipeline();

  // §4.2 initialization from a RIB dump; must be called before start().
  // Entries are partitioned onto their owning shards.
  void init_from_table_dump(routing::Platform platform,
                            const bgp::mrt::TableDump& dump);

  // Idempotent; safe to race from multiple producer threads.
  void start();

  // ---- producing --------------------------------------------------------
  Producer& producer(std::size_t index) { return *producers_.at(index); }
  std::size_t num_producers() const { return producers_.size(); }

  // Single-producer facade: producer(0).
  bool push(const routing::FeedUpdate& update);

  // Drains an entire source through push(); returns updates consumed.
  std::uint64_t run(UpdateSource& source);

  // Close the queues, join the workers, close still-open events at
  // `end_time`, drain every shard into the store and canonical-sort it.
  // All producer threads must have stopped pushing before this call.
  void finish(util::SimTime end_time);
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  // ---- queries ----------------------------------------------------------
  EventStore& store() { return store_; }
  const EventStore& store() const { return store_; }

  // Live while running (relaxed gauges), exact after finish().
  std::size_t open_event_count() const;

  // PeerEvents emitted by finish() force-closing still-open state at
  // end_time — the "still active at archive cut-off" gauge, in the
  // same per-detection unit as the store's counters.
  std::size_t open_at_finish() const { return open_at_finish_; }

  // Original updates accepted via push()/run(), over all producers.
  std::uint64_t updates_pushed() const;

  // Quiescence totals (relaxed sums; see Producer::refs_enqueued).
  std::uint64_t total_refs_enqueued() const;
  std::uint64_t total_processed() const;

  // Shard stats folded into one EngineStats.  updates_processed counts
  // original (pre-split) updates so the result is comparable with a
  // sequential engine fed the same stream.  Valid after finish().
  core::EngineStats merged_stats() const;

  std::size_t num_shards() const { return workers_.num_shards(); }

  // Pool observability: every block acquired must come back; 0 after
  // finish() proves the refcounting closed the loop.
  std::size_t blocks_in_flight() const { return blocks_.in_flight(); }
  // Pool high-water mark; stops growing once the pipeline reaches
  // steady state (bounded by the queue capacities).
  std::size_t blocks_allocated() const { return blocks_.blocks_allocated(); }

  // ---- checkpoint/recovery surface (src/recovery/) ----------------------
  // Rendezvous capture of every shard's open state + watermarks; see
  // WorkerPool::capture for the protocol and its guarantees.
  bool capture(const std::function<void()>& while_quiesced,
               std::vector<ShardCapture>& out) {
    return workers_.capture(while_quiesced, out);
  }
  // Direct shard engine access — only legal before start() (recovery
  // imports checkpointed open state) or after finish().
  core::InferenceEngine& shard_engine(std::size_t shard) {
    return workers_.engine(shard);
  }
  void seed_watermarks(std::size_t shard, std::vector<std::uint64_t> counts) {
    workers_.seed_watermarks(shard, std::move(counts));
  }
  // Watchdog samples (relaxed reads; safe any time).
  std::uint64_t shard_heartbeat(std::size_t shard) const {
    return workers_.heartbeat(shard);
  }
  std::size_t shard_queue_depth(std::size_t shard) const {
    return workers_.queue_depth(shard);
  }
  std::uint64_t shard_processed(std::size_t shard) const {
    return workers_.processed(shard);
  }

  // The registry this pipeline records into: the one from
  // PipelineConfig::metrics, or the pipeline's own.  snapshot() folds
  // per-shard instruments and samples the live gauges (queue depth,
  // pool occupancy, open events) via a collection hook.
  telemetry::MetricsRegistry& metrics() { return *metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  // The constructor's config with every zero count raised to 1.
  const PipelineConfig config_;
  // Declared before workers_: the pool borrows instruments from the
  // registry for the lifetime of its shards.
  std::unique_ptr<telemetry::MetricsRegistry> owned_metrics_;
  telemetry::MetricsRegistry* metrics_;
  EventStore store_;
  BlockPool blocks_;
  WorkerPool workers_;
  std::vector<std::unique_ptr<Producer>> producers_;
  std::uint64_t metrics_hook_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
  std::size_t open_at_finish_ = 0;
};

}  // namespace bgpbh::stream
