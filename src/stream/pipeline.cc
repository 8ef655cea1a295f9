#include "stream/pipeline.h"

namespace bgpbh::stream {

StreamPipeline::Producer::Producer(StreamPipeline& owner, std::size_t index,
                                   std::size_t num_shards, BlockPool& blocks,
                                   std::size_t batch_size)
    : owner_(&owner),
      router_(num_shards, blocks, static_cast<std::uint32_t>(index)),
      batch_size_(batch_size), pending_(num_shards) {
  for (auto& buf : pending_) buf.reserve(batch_size);
}

bool StreamPipeline::Producer::push(const routing::FeedUpdate& update) {
  StreamPipeline& p = *owner_;
  if (p.finished()) return false;  // queues are closed; don't count or drop
  // Workers must be consuming before the bounded queues fill up, or a
  // pre-start push could block forever.  Read-only check first: an
  // unconditional start() would put an atomic RMW on every push,
  // ping-ponging the flag's cache line across producer threads.
  if (!p.started_.load(std::memory_order_acquire)) p.start();
  router_.route(update, [&](std::size_t shard, SubUpdateRef ref) {
    // Recovery replay: drop refs the checkpoint already covers.  One
    // branch on an empty vector when not replaying.
    if (!skip_.empty() && skip_[shard] > 0) {
      --skip_[shard];
      p.blocks_.release(ref.block);
      return;
    }
    auto& buf = pending_[shard];
    buf.push_back(ref);
    if (buf.size() >= batch_size_) submit_shard(shard);
  });
  // Nothing waits for a later push: every touched shard goes out now.
  for (std::size_t shard = 0; shard < pending_.size(); ++shard) {
    if (!pending_[shard].empty()) submit_shard(shard);
  }
  return true;
}

void StreamPipeline::Producer::submit_shard(std::size_t shard) {
  StreamPipeline& p = *owner_;
  auto& buf = pending_[shard];
  std::size_t accepted = p.workers_.submit_batch(shard, buf);
  refs_enqueued_.fetch_add(accepted, std::memory_order_relaxed);
  // Shutdown mid-batch: the caller keeps the rejected refs' block
  // references; release them so no block leaks.
  for (std::size_t i = accepted; i < buf.size(); ++i) {
    p.blocks_.release(buf[i].block);
  }
  buf.clear();
}

namespace {

// Every count the pipeline sizes something by is at least 1.
PipelineConfig normalized(PipelineConfig config) {
  for (std::size_t* n :
       {&config.num_shards, &config.num_producers, &config.batch_size}) {
    if (*n == 0) *n = 1;
  }
  return config;
}

}  // namespace

StreamPipeline::StreamPipeline(const dictionary::BlackholeDictionary& dictionary,
                               const topology::Registry& registry,
                               PipelineConfig config)
    : config_(normalized(config)),
      owned_metrics_(config_.metrics
                         ? nullptr
                         : std::make_unique<telemetry::MetricsRegistry>()),
      metrics_(config_.metrics ? config_.metrics : owned_metrics_.get()),
      store_(config_.num_shards),
      workers_(dictionary, registry, config_.engine, config_.num_shards,
               config_.num_producers, config_.queue_capacity,
               config_.batch_size,
               /*serialize_producers=*/config_.num_producers > 1, blocks_,
               store_, *metrics_) {
  producers_.reserve(config_.num_producers);
  for (std::size_t i = 0; i < config_.num_producers; ++i) {
    producers_.push_back(std::unique_ptr<Producer>(new Producer(
        *this, i, config_.num_shards, blocks_, config_.batch_size)));
  }
  // Live-state sampling: everything below is copied out of counters the
  // data plane already maintains, only when someone snapshots — zero
  // added work per routed sub-update.
  metrics_->describe("stream.queue.depth", "Shard queue occupancy (refs)");
  metrics_->describe("stream.queue.peak",
                     "Shard queue occupancy high-water mark (refs)");
  metrics_->describe("stream.shard.open_events",
                     "Open (unsealed) blackholing events per shard");
  metrics_->describe("stream.shard.processed",
                     "Sub-updates consumed per shard worker");
  metrics_->describe("stream.pool.blocks_allocated",
                     "UpdateBlocks ever allocated by the pool (high-water)");
  metrics_->describe("stream.pool.blocks_in_flight",
                     "UpdateBlocks currently outside the pool");
  metrics_->describe("stream.updates_pushed",
                     "Original updates accepted across all producers");
  metrics_hook_ = metrics_->add_collection_hook([this] {
    const std::size_t shards = workers_.num_shards();
    for (std::size_t i = 0; i < shards; ++i) {
      metrics_->shard_gauge("stream.queue.depth", i)
          .set(static_cast<double>(workers_.queue_depth(i)));
      metrics_->shard_gauge("stream.queue.peak", i)
          .set(static_cast<double>(workers_.queue_peak(i)));
      metrics_->shard_gauge("stream.shard.open_events", i)
          .set(static_cast<double>(workers_.open_events(i)));
      metrics_->shard_counter("stream.shard.processed", i)
          .set_total(workers_.processed(i));
    }
    metrics_->gauge("stream.pool.blocks_allocated")
        .set(static_cast<double>(blocks_.blocks_allocated()));
    metrics_->gauge("stream.pool.blocks_in_flight")
        .set(static_cast<double>(blocks_.in_flight()));
    metrics_->counter("stream.updates_pushed").set_total(updates_pushed());
  });
}

StreamPipeline::~StreamPipeline() {
  // Drop the hook before members die: a session-owned registry can
  // outlive this pipeline, and a late snapshot must not call into it.
  metrics_->remove_collection_hook(metrics_hook_);
  workers_.close_and_join();
}

void StreamPipeline::init_from_table_dump(routing::Platform platform,
                                          const bgp::mrt::TableDump& dump) {
  // Partition entries onto their owning shards; relative order within a
  // shard follows the dump (per-key state only depends on its own
  // entries, so cross-shard order is irrelevant).
  std::vector<bgp::mrt::TableDump> per_shard(workers_.num_shards());
  for (auto& sub : per_shard) {
    sub.time = dump.time;
    sub.collector_name = dump.collector_name;
  }
  for (const auto& entry : dump.entries) {
    std::size_t shard =
        shard_for(entry.peer, entry.prefix, workers_.num_shards());
    per_shard[shard].entries.push_back(entry);
  }
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    if (per_shard[i].entries.empty()) continue;
    workers_.engine(i).init_from_table_dump(platform, per_shard[i]);
  }
}

void StreamPipeline::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  workers_.start();
}

bool StreamPipeline::push(const routing::FeedUpdate& update) {
  return producers_[0]->push(update);
}

std::uint64_t StreamPipeline::run(UpdateSource& source) {
  start();
  std::uint64_t consumed = 0;
  while (const routing::FeedUpdate* update = source.next()) {
    if (!push(*update)) break;
    ++consumed;
  }
  return consumed;
}

void StreamPipeline::finish(util::SimTime end_time) {
  if (finished_.exchange(true, std::memory_order_acq_rel)) return;
  // Producer threads have stopped by contract, so their handles are
  // quiescent and every push has already reached the shard queues.
  for (auto& producer : producers_) producer->router_.release_cached_blocks();
  workers_.close_and_join();
  for (std::size_t i = 0; i < workers_.num_shards(); ++i) {
    // Workers drain on exit, so everything the engine holds after
    // finish() is exactly the force-closed remainder.
    workers_.engine(i).finish(end_time);
    auto forced = workers_.engine(i).drain_closed();
    open_at_finish_ += forced.size();
    store_.ingest_chunk(i, std::move(forced));
  }
  // Gauge readers (open_event_count(), telemetry hooks) never touch
  // the engines once started; publish the post-force-close state.
  workers_.publish_open_gauges();
  store_.finalize();
}

std::size_t StreamPipeline::open_event_count() const {
  return workers_.open_event_count();
}

std::uint64_t StreamPipeline::updates_pushed() const {
  std::uint64_t total = 0;
  for (const auto& producer : producers_) total += producer->updates_pushed();
  return total;
}

std::uint64_t StreamPipeline::total_refs_enqueued() const {
  std::uint64_t total = 0;
  for (const auto& producer : producers_) total += producer->refs_enqueued();
  return total;
}

std::uint64_t StreamPipeline::total_processed() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < workers_.num_shards(); ++i) {
    total += workers_.processed(i);
  }
  return total;
}

core::EngineStats StreamPipeline::merged_stats() const {
  core::EngineStats merged;
  for (std::size_t i = 0; i < workers_.num_shards(); ++i) {
    merged += workers_.engine(i).stats();
  }
  // Shards count split sub-updates; report original updates instead so
  // the number matches a sequential engine fed the same stream.
  merged.updates_processed = updates_pushed();
  return merged;
}

}  // namespace bgpbh::stream
