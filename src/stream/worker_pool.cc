#include "stream/worker_pool.h"

#include "telemetry/trace.h"

namespace bgpbh::stream {

WorkerPool::WorkerPool(const dictionary::BlackholeDictionary& dictionary,
                       const topology::Registry& registry,
                       core::EngineConfig engine_config,
                       std::size_t num_shards, std::size_t num_producers,
                       std::size_t queue_capacity, std::size_t batch_size,
                       bool serialize_producers, BlockPool& blocks,
                       EventStore& store, telemetry::MetricsRegistry& metrics)
    : compiled_(dictionary),
      num_producers_(num_producers),
      batch_size_(batch_size),
      serialize_producers_(serialize_producers),
      blocks_(blocks),
      store_(store),
      trace_(&metrics.trace()) {
  metrics.describe("stream.worker.batch_ns",
                   "Shard worker consume-batch processing latency (ns, up to "
                   "batch_size sub-updates per record)");
  metrics.describe("stream.worker.drain_ns",
                   "Shard worker closed-event drain + store handoff latency "
                   "(ns per drain)");
  metrics.describe("stream.queue.producer_stalls",
                   "Times a producer parked on a full shard queue "
                   "(backpressure)");
  metrics.describe("stream.queue.consumer_stalls",
                   "Times a shard worker parked on an empty queue");
  metrics.describe("stream.queue.producer_wakes",
                   "Producer wakeups claimed by the backpressure hysteresis");
  metrics.describe("stream.queue.consumer_wakes",
                   "Worker wakeups claimed after an enqueue");
  metrics.describe("e2e.detect_latency_ns",
                   "End-to-end detection latency: wall time from an update's "
                   "ingest stamp at the producer edge to the engine closing "
                   "the blackhole event (ns; unstamped/force-closed events "
                   "excluded)");
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->engine = std::make_unique<core::InferenceEngine>(
        compiled_, registry, engine_config);
    shard->queue = std::make_unique<SpscQueue<SubUpdateRef>>(queue_capacity);
    shard->index = i;
    shard->watermarks.assign(num_producers_, 0);
    shard->batch_hist = &metrics.shard_histogram("stream.worker.batch_ns", i);
    shard->drain_hist = &metrics.shard_histogram("stream.worker.drain_ns", i);
    shard->detect_hist =
        &metrics.shard_histogram("e2e.detect_latency_ns", i);
    shard->queue->bind_instruments(SpscQueue<SubUpdateRef>::Instruments{
        .producer_stalls =
            &metrics.shard_counter("stream.queue.producer_stalls", i),
        .producer_wakes =
            &metrics.shard_counter("stream.queue.producer_wakes", i),
        .consumer_stalls =
            &metrics.shard_counter("stream.queue.consumer_stalls", i),
        .consumer_wakes =
            &metrics.shard_counter("stream.queue.consumer_wakes", i),
    });
    shards_.push_back(std::move(shard));
  }
  capture_slots_.resize(shards_.size());
}

WorkerPool::~WorkerPool() { close_and_join(); }

core::InferenceEngine& WorkerPool::engine(std::size_t shard) {
  return *shards_.at(shard)->engine;
}

const core::InferenceEngine& WorkerPool::engine(std::size_t shard) const {
  return *shards_.at(shard)->engine;
}

void WorkerPool::start() {
  // Refuse after shutdown: the queues are closed, and threads spawned
  // now could never be joined again.  exchange() makes concurrent
  // producer-triggered starts race-free: exactly one spawns.
  if (joined_.load(std::memory_order_acquire)) return;
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, &shard = *shard] { worker_loop(shard); });
  }
}

std::size_t WorkerPool::submit_batch(std::size_t shard,
                                     std::span<SubUpdateRef> refs) {
  Shard& s = *shards_.at(shard);
  if (!serialize_producers_) return s.queue->push_batch(refs);
  // One lock per sealed batch; a producer parked on a full queue keeps
  // the lock, but the worker never takes it, so drains still progress.
  std::lock_guard<std::mutex> lock(s.producer_mu);
  return s.queue->push_batch(refs);
}

void WorkerPool::worker_loop(Shard& shard) {
  // Idle poll interval: an empty-queue worker resurfaces this often to
  // tick its heartbeat (a capture request interrupts the wait).  Never
  // reached while traffic flows (the queue wakes the worker directly).
  constexpr auto kIdlePoll = std::chrono::milliseconds(5);
  // Most sub-updates between drains while the queue never runs dry.
  constexpr std::size_t kDrainBatch = 256;
  std::size_t since_drain = 0;
  std::vector<SubUpdateRef> batch;
  batch.reserve(batch_size_);
  // Blocks whose last reference this worker dropped; recycled with one
  // pool lock per consume batch instead of one per block.
  std::vector<UpdateBlock*> to_recycle;
  to_recycle.reserve(batch_size_);
  core::UpdateView view;
  for (;;) {
    shard.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (capture_requested_.load(std::memory_order_acquire)) {
      capture_rendezvous(shard);
    }
    batch.clear();
    std::size_t n = shard.queue->pop_batch_for(batch, batch_size_, kIdlePoll);
    if (n == 0) {
      // Idle timeout or capture interrupt.  Nothing waits to be
      // drained: the batch before it left the queue empty, so it drained.
      if (!shard.queue->closed()) continue;
      // Closed: grab any remainder racing the close, then exit.
      n = shard.queue->pop_batch(batch, batch_size_);
      if (n == 0) break;
    }
    telemetry::ScopedSpan span(shard.batch_hist, trace_, "worker.batch",
                               shard.index);
    for (const SubUpdateRef& ref : batch) {
      UpdateBlock* block = ref.block;
      ++shard.watermarks[block->producer];
      const routing::FeedUpdate& fu = block->update;
      const bool withdrawal = ref.kind == SubKind::kWithdraw;
      view.platform = fu.platform;
      view.time = fu.update.time;
      view.peer = bgp::PeerKey{fu.update.peer_ip, fu.update.peer_asn};
      view.is_withdrawal = withdrawal;
      view.prefix = withdrawal ? &fu.update.body.withdrawn[ref.prefix_index]
                               : &fu.update.body.announced[ref.prefix_index];
      view.as_path = &fu.update.body.as_path;
      view.communities = &fu.update.body.communities;
      view.ingest_ns = fu.ingest_ns;
      shard.engine->process(view);
      if (BlockPool::unref(block)) to_recycle.push_back(block);
    }
    blocks_.recycle_batch(to_recycle);
    to_recycle.clear();
    shard.open_gauge.store(shard.engine->open_event_count(),
                           std::memory_order_relaxed);
    shard.processed.fetch_add(batch.size(), std::memory_order_relaxed);
    since_drain += batch.size();
    // Batch drains only while that costs no latency: once a batch leaves
    // the queue empty, no later sub-update is there to share the drain.
    if (since_drain >= kDrainBatch || shard.queue->size() == 0) {
      telemetry::ScopedSpan drain_span(shard.drain_hist, trace_,
                                       "worker.drain", shard.index);
      drain_into_store(shard);
      since_drain = 0;
    }
  }
  {
    telemetry::ScopedSpan drain_span(shard.drain_hist, trace_, "worker.drain",
                                     shard.index);
    drain_into_store(shard);
  }
}

void WorkerPool::drain_into_store(Shard& shard) {
  std::vector<core::PeerEvent> chunk = shard.engine->drain_closed();
  if (shard.detect_hist) {
    for (const auto& e : chunk) {
      if (e.ingest_ns != 0 && e.detected_ns > e.ingest_ns) {
        shard.detect_hist->record(e.detected_ns - e.ingest_ns);
      }
    }
  }
  store_.ingest_chunk(shard.index, std::move(chunk));
}

void WorkerPool::capture_rendezvous(Shard& shard) {
  // Flush this shard's closed events downstream first: once every
  // worker has arrived, all pre-cut chunks are already in the store's
  // listener pipelines, and no post-cut chunk can be submitted while
  // the workers are held — that is what makes the coordinator's
  // while_quiesced enqueues an exact cut.
  drain_into_store(shard);
  std::unique_lock<std::mutex> lock(rendezvous_mu_);
  if (!capture_active_) return;  // stale flag: capture aborted/finished
  ShardCapture& slot = capture_slots_[shard.index];
  slot.open_state = shard.engine->export_open_state();
  slot.watermarks = shard.watermarks;
  ++arrived_;
  rendezvous_cv_.notify_all();
  const std::uint64_t epoch = release_epoch_;
  rendezvous_cv_.wait(
      lock, [&] { return release_epoch_ != epoch || shutdown_; });
}

bool WorkerPool::capture(const std::function<void()>& while_quiesced,
                         std::vector<ShardCapture>& out) {
  std::lock_guard<std::mutex> serial(capture_serial_mu_);
  if (joined_.load(std::memory_order_acquire)) return false;
  out.clear();
  if (!started_.load(std::memory_order_acquire)) {
    // No workers yet (bootstrap checkpoint): engines and watermarks
    // are directly readable, and nothing is in flight by definition.
    out.resize(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      out[i].open_state = shards_[i]->engine->export_open_state();
      out[i].watermarks = shards_[i]->watermarks;
    }
    if (while_quiesced) while_quiesced();
    return true;
  }
  std::unique_lock<std::mutex> lock(rendezvous_mu_);
  if (shutdown_) return false;
  capture_active_ = true;
  arrived_ = 0;
  capture_requested_.store(true, std::memory_order_release);
  // Wake workers parked on an empty queue now, not at their idle poll.
  for (auto& shard : shards_) shard->queue->interrupt_consumer();
  rendezvous_cv_.wait(
      lock, [&] { return arrived_ == shards_.size() || shutdown_; });
  const bool ok = !shutdown_;
  if (ok) {
    out.reserve(shards_.size());
    for (auto& slot : capture_slots_) out.push_back(std::move(slot));
    if (while_quiesced) while_quiesced();
  }
  capture_active_ = false;
  capture_requested_.store(false, std::memory_order_release);
  ++release_epoch_;
  rendezvous_cv_.notify_all();
  return ok;
}

void WorkerPool::seed_watermarks(std::size_t shard,
                                 std::vector<std::uint64_t> watermarks) {
  Shard& s = *shards_.at(shard);
  watermarks.resize(num_producers_, 0);
  s.watermarks = std::move(watermarks);
}

void WorkerPool::close_and_join() {
  if (joined_.exchange(true)) return;
  {
    // Abort any in-progress capture so parked workers (and a
    // coordinator waiting for arrivals) wake before we join.
    std::lock_guard<std::mutex> lock(rendezvous_mu_);
    shutdown_ = true;
  }
  rendezvous_cv_.notify_all();
  for (auto& shard : shards_) shard->queue->close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void WorkerPool::publish_open_gauges() {
  for (auto& shard : shards_) {
    shard->open_gauge.store(shard->engine->open_event_count(),
                            std::memory_order_relaxed);
  }
}

std::size_t WorkerPool::open_event_count() const {
  // Engines may only be read directly before start(), while no worker
  // (and no post-join force-close on another thread) can touch them.
  // Ever after, use the published gauges: workers refresh them after
  // every batch, and the pipeline's finish() re-publishes them once
  // the force-closed remainder is drained — so even mid-shutdown a
  // concurrent reader never races the engine hash tables.
  bool direct = !started_.load(std::memory_order_acquire);
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += direct ? shard->engine->open_event_count()
                    : shard->open_gauge.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t WorkerPool::processed_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->processed.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t WorkerPool::queue_depth(std::size_t shard) const {
  return shards_.at(shard)->queue->size();
}

std::size_t WorkerPool::queue_peak(std::size_t shard) const {
  return shards_.at(shard)->queue->peak_size();
}

std::size_t WorkerPool::open_events(std::size_t shard) const {
  return shards_.at(shard)->open_gauge.load(std::memory_order_relaxed);
}

std::uint64_t WorkerPool::processed(std::size_t shard) const {
  return shards_.at(shard)->processed.load(std::memory_order_relaxed);
}

std::uint64_t WorkerPool::heartbeat(std::size_t shard) const {
  return shards_.at(shard)->heartbeat.load(std::memory_order_relaxed);
}

}  // namespace bgpbh::stream
