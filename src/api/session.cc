#include "api/session.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace bgpbh::api {

namespace {

stream::PipelineConfig pipeline_config(const SessionConfig& config) {
  stream::PipelineConfig pc;
  pc.num_shards = config.num_shards;
  pc.num_producers = config.num_producers;
  pc.queue_capacity = config.queue_capacity;
  pc.batch_size = config.batch_size;
  pc.engine = config.study.engine;
  return pc;
}

}  // namespace

AnalysisSession::AnalysisSession(SessionConfig config)
    : config_(std::move(config)),
      study_(config_.mode == SessionConfig::Mode::kReopen
                 ? nullptr
                 : std::make_unique<core::Study>(config_.study)),
      grouper_(config_.correlate_tolerance, config_.group_timeout) {
  assert((!reopen() || !config_.persist_dir.empty()) &&
         "kReopen requires persist_dir");
  // Health plane: one gauge refreshed on every telemetry snapshot.
  // Registered first so every mode (including kReopen's early return)
  // exports it; health() is safe before any wiring below exists.
  metrics_.describe("api.session.health",
                    "Worst component health: 0 healthy, 1 degraded, 2 halted");
  health_gauge_ = &metrics_.gauge("api.session.health");
  health_hook_ = metrics_.add_collection_hook([this] {
    health_gauge_->set(static_cast<double>(static_cast<int>(health().state)));
  });
  // Trace ring: configure before any wiring (including the fabric
  // early-return below) so every mode honors the session's knobs.
  metrics_.trace().configure(config_.trace);
  // Zero shards or producers mean one, normalized once here for every
  // later reader (pipeline, fabric, checkpoint shape, drain()).
  config_.num_shards = std::max<std::size_t>(config_.num_shards, 1);
  config_.num_producers = std::max<std::size_t>(config_.num_producers, 1);
  const std::size_t shards = config_.num_shards;
  const std::size_t producers = config_.num_producers;
  // Ingest validation, shared by the in-process and fabric planes.
  if (!reopen()) {
    recovery::QuarantineConfig qc;
    qc.max_as_path_hops = config_.max_as_path_hops;
    qc.max_communities = config_.max_communities;
    qc.error_budget = config_.poison_error_budget;
    qc.metrics = &metrics_;
    quarantine_ = std::make_unique<recovery::PoisonQuarantine>(producers, qc);
  }
  // Fabric client: the data plane is a FabricRouter instead of a local
  // pipeline; num_shards is the global slot count.  The incompatible
  // knobs below are programming errors, so they throw in release too.
  if (config_.fabric.enabled()) {
    if (config_.mode != SessionConfig::Mode::kLiveFeed) {
      throw std::logic_error(
          "bgpbh: fabric endpoints require kLiveFeed (the caller-fed "
          "shape; remote servers run the pipelines)");
    }
    if (!config_.persist_dir.empty() || config_.resume || config_.recover) {
      throw std::logic_error(
          "bgpbh: fabric clients do not persist or recover locally; "
          "each shard server owns its slot directories");
    }
    if (config_.study.table_dump_episodes != 0) {
      throw std::logic_error(
          "bgpbh: fabric mode requires study.table_dump_episodes == 0; a "
          "table dump would be folded once per remote slot session");
    }
    fabric_ = std::make_unique<fabric::FabricRouter>(config_.fabric, shards,
                                                     producers, &metrics_);
    return;
  }
  // Crash recovery, BEFORE the spill writer opens: load the newest
  // valid checkpoint and truncate the segment log to its durable
  // position — the writer's own open then recovers/reseals exactly the
  // boundary segment the truncation left footer-less.
  std::optional<recovery::LoadResult> loaded;
  if (!reopen() && config_.recover && !config_.persist_dir.empty()) {
    loaded = recovery::load_latest_checkpoint(config_.persist_dir);
    if (loaded) {
      const recovery::Checkpoint& cp = loaded->checkpoint;
      if (cp.num_shards != shards || cp.num_producers != producers) {
        // Routing is deterministic only for the SAME shard/producer
        // shape; replaying a checkpoint into a different one would
        // silently duplicate or drop sub-updates.
        throw std::runtime_error(
            "bgpbh: checkpoint shape mismatch: checkpoint has " +
            std::to_string(cp.num_shards) + " shard(s) x " +
            std::to_string(cp.num_producers) +
            " producer(s); session configured for " + std::to_string(shards) +
            " x " + std::to_string(producers));
      }
      if (!recovery::truncate_log(config_.persist_dir, cp.position)) {
        throw std::runtime_error(
            "bgpbh: segment log in '" + config_.persist_dir +
            "' holds fewer durable records than checkpoint " +
            std::to_string(cp.seq) + " claims; refusing silent loss");
      }
    }
  }
  // Persistence wiring order matters: the spill writer's open runs
  // crash recovery (resealing any torn segment), and must do so BEFORE
  // the disk snapshot is taken; the snapshot in turn must be taken
  // before this session appends anything, so the merged live+disk view
  // never double-counts this session's own output (the writer appends
  // only to segments numbered after the snapshot's).
  if (!config_.persist_dir.empty() && !reopen()) {
    storage::SpillConfig spill_config;
    spill_config.dir = config_.persist_dir;
    spill_config.segment = config_.segment;
    spill_config.queue_chunks = config_.spill_queue_chunks;
    spill_config.retry = config_.spill_retry;
    spill_config.metrics = &metrics_;
    spill_ = storage::SpillWriter::open(std::move(spill_config));
    if (!spill_) {
      // A session configured for persistence that silently runs
      // without it would lose its history with no signal — fail the
      // construction instead (an environmental error, so it must fire
      // in release builds too, not just as an assert).
      throw std::runtime_error("bgpbh: persist_dir '" + config_.persist_dir +
                               "' could not be opened for writing");
    }
  }
  // recover-with-checkpoint implies the resume-style merged view: the
  // truncated log serves every pre-cut closed event; the replayed
  // suffix regenerates exactly the post-cut ones live.
  if (reopen() ||
      ((config_.resume || loaded.has_value()) && !config_.persist_dir.empty())) {
    disk_ = storage::SegmentSet::open(config_.persist_dir);
    // Fold the disk summary streamingly — one segment block in memory
    // at a time, never the whole archive.
    disk_->for_each([this](const core::PeerEvent& e) {
      stream::EventStore::fold_event(disk_snapshot_, disk_has_any_, e);
    });
  }
  if (reopen()) {
    closed_ = true;  // an archive view is born closed
    return;
  }
  stream::PipelineConfig pc = pipeline_config(config_);
  pc.metrics = &metrics_;
  pipeline_ = std::make_unique<stream::StreamPipeline>(
      study_->dictionary(), study_->registry(), pc);
  // Spill listener before anything can ingest (the store's lifecycle
  // contract), and before start() adds the dispatcher's, so a chunk is
  // queued for disk before it is queued for the sinks: every sealed
  // chunk — including finish()'s force-closed remainder — crosses the
  // bounded queue to the segment writer.
  if (spill_) {
    pipeline_->store().add_chunk_listener(
        [this](std::size_t, const core::SealedChunk& chunk) {
          spill_->submit(chunk);
        });
  }
  // Restore the checkpointed cut into the not-yet-started pipeline:
  // open state into the shard engines, absolute watermarks into the
  // workers (so the NEXT checkpoint's watermarks stay absolute),
  // replay-skips into the producers, layers into the grouper.
  if (loaded) {
    recovery::Checkpoint& cp = loaded->checkpoint;
    recovered_totals_ = recovery::producer_totals(cp);
    for (std::size_t s = 0; s < cp.shards.size(); ++s) {
      pipeline_->seed_watermarks(s, cp.shards[s].watermarks);
      pipeline_->shard_engine(s).import_open_state(
          std::move(cp.shards[s].open_state));
    }
    // Suffix-feed recovery (fabric shard servers): the feeder resumes
    // each producer exactly past the recovered accepted count, so the
    // replay-skip arming below — which expects a full re-feed from
    // index zero — must be left off.
    if (!config_.recover_suffix_feed) {
      for (std::size_t p = 0; p < producers; ++p) {
        std::vector<std::uint64_t> skip(cp.shards.size(), 0);
        for (std::size_t s = 0; s < cp.shards.size(); ++s) {
          skip[s] = cp.shards[s].watermarks[p];
        }
        pipeline_->producer(p).set_replay_skip(std::move(skip));
      }
    }
    grouper_.restore_layers(cp.correlated, cp.grouped);
    recovered_ = true;
    recovered_seq_ = cp.seq;
  }
  // §4.2 initialization is part of the configured study in every
  // mode (study.table_dump_episodes == 0 disables it) — but a
  // checkpoint that already covers the dump's opens must not fold
  // them in twice.
  const bool dump_covered = loaded && loaded->checkpoint.includes_table_dump;
  bool has_dump = dump_covered;
  if (auto dump = study_->initial_table_dump()) {
    has_dump = true;
    if (!dump_covered) {
      pipeline_->init_from_table_dump(routing::Platform::kRis, *dump);
    }
  }
  // Supervision plane.
  if (config_.stall_deadline.count() > 0) {
    std::vector<recovery::WatchedShard> watched;
    watched.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      watched.push_back(recovery::WatchedShard{
          [this, i] { return pipeline_->shard_heartbeat(i); },
          [this, i] { return pipeline_->shard_queue_depth(i); }});
    }
    recovery::WatchdogConfig wc;
    wc.poll = config_.watchdog_poll;
    wc.stall_deadline = config_.stall_deadline;
    wc.metrics = &metrics_;
    watchdog_ = std::make_unique<recovery::Watchdog>(std::move(watched), wc);
  }
  // Checkpoint coordinator: wired whenever recovery could matter
  // (cadence configured, or this session recovers — its successor
  // will want a checkpoint too).
  if (spill_ && (config_.checkpoint_every > 0 || config_.recover)) {
    recovery::CoordinatorHooks hooks;
    hooks.capture = [this](const std::function<void()>& fn,
                           std::vector<stream::ShardCapture>& out) {
      return pipeline_->capture(fn, out);
    };
    hooks.barrier = [this](storage::SpillWriter::BarrierResult& r) {
      return spill_->barrier(r);
    };
    hooks.submit_control = [this](std::function<void()> fn) {
      return dispatching() && dispatcher_->submit_control(std::move(fn));
    };
    hooks.capture_grouper = [this](std::vector<core::PrefixEvent>& c,
                                   std::vector<core::PrefixEvent>& g) {
      grouper_.capture_layers(c, g);
    };
    hooks.set_retention_floor = [this](std::uint64_t seq) {
      spill_->set_retention_floor(seq);
    };
    hooks.updates_pushed = [this] { return pipeline_->updates_pushed(); };
    recovery::CoordinatorConfig cc;
    cc.dir = config_.persist_dir;
    cc.num_shards = static_cast<std::uint32_t>(shards);
    cc.num_producers = static_cast<std::uint32_t>(producers);
    cc.checkpoint_every = config_.checkpoint_every;
    cc.metrics = &metrics_;
    coordinator_ = std::make_unique<recovery::CheckpointCoordinator>(
        std::move(hooks), cc);
    coordinator_->set_includes_table_dump(has_dump);
    if (recovered_) coordinator_->set_next_seq(recovered_seq_ + 1);
    // Bootstrap cut: a recovery-enabled session killed before its
    // first cadence checkpoint still leaves a valid restore point
    // (covering the table-dump / recovered state it started from).
    coordinator_->checkpoint_now();
  }
}

AnalysisSession::~AnalysisSession() {
  // The health hook captures `this` and reads spill_/dispatcher_; pull
  // it before member destruction begins (a late telemetry snapshot
  // must never run it against dead members).
  metrics_.remove_collection_hook(health_hook_);
}

bool AnalysisSession::subscribe(EventSink& sink) {
  // Fabric clients have no local event stream to deliver from (events
  // close on the remote shard servers); refuse rather than silently
  // never deliver.
  if (fabric_) return false;
  // The dispatcher snapshots the sink list when delivery begins; a
  // late subscriber could never be delivered to, so refuse it loudly
  // rather than ignore it silently.
  bool late = started_.load(std::memory_order_acquire);
  assert(!late && "subscribe() must precede run()/start()");
  if (late) return false;
  sinks_.push_back(&sink);
  return true;
}

bool AnalysisSession::register_health(const HealthReporter& reporter) {
  // Same window as subscribe(): the reporter list is read lock-free by
  // the telemetry hook once delivery/ingest can run.
  bool late = started_.load(std::memory_order_acquire);
  assert(!late && "register_health() must precede run()/start()");
  if (late) return false;
  health_reporters_.push_back(&reporter);
  return true;
}

SessionHealth AnalysisSession::health() const {
  SessionHealth overall;
  if (spill_) {
    ComponentHealth c;
    c.component = "spill";
    switch (spill_->state()) {
      case storage::SpillWriter::State::kOk:
        if (spill_->io_error()) {
          c.state = HealthState::kDegraded;
          c.reason = "final seal failed; on-disk log is a durable prefix";
        }
        break;
      case storage::SpillWriter::State::kDegraded:
        c.state = HealthState::kDegraded;
        c.reason = "transient disk I/O failure; " +
                   std::to_string(spill_->events_parked()) +
                   " event(s) parked in memory";
        break;
      case storage::SpillWriter::State::kFailed:
        c.state = HealthState::kHalted;
        c.reason = "persistent disk failure; " +
                   std::to_string(spill_->events_lost()) + " event(s) lost";
        break;
    }
    overall.components.push_back(std::move(c));
  }
  if (dispatching()) {
    ComponentHealth c;
    c.component = "dispatch";
    const std::uint64_t shed = dispatcher_->events_shed();
    if (dispatcher_->quarantined()) {
      c.state = HealthState::kDegraded;
      c.reason = "sink plane quarantined for overload; " +
                 std::to_string(shed) + " event(s) shed";
    } else if (shed > 0) {
      // Recovered, but the loss is part of this session's record.
      c.reason = std::to_string(shed) + " event(s) shed in " +
                 std::to_string(dispatcher_->times_quarantined()) +
                 " past quarantine(s)";
    }
    overall.components.push_back(std::move(c));
  }
  if (fabric_) {
    ComponentHealth c;
    c.component = "fabric";
    const std::uint64_t reconnects = fabric_->reconnects();
    if (reconnects > 0) {
      // Recovered (replay made the lanes whole), but worth surfacing.
      c.reason = std::to_string(reconnects) + " lane reconnect(s)";
    }
    overall.components.push_back(std::move(c));
  }
  if (quarantine_) overall.components.push_back(quarantine_->component_health());
  if (watchdog_) overall.components.push_back(watchdog_->component_health());
  if (coordinator_) {
    overall.components.push_back(coordinator_->component_health());
  }
  for (const HealthReporter* reporter : health_reporters_) {
    overall.components.push_back(reporter->component_health());
  }
  for (const ComponentHealth& c : overall.components) {
    overall.state = worse(overall.state, c.state);
  }
  return overall;
}

std::uint64_t AnalysisSession::events_shed() const {
  return dispatcher_ ? dispatcher_->events_shed() : 0;
}

std::uint64_t AnalysisSession::events_lost() const {
  return spill_ ? spill_->events_lost() : 0;
}

void AnalysisSession::start_dispatcher() {
  // Zero sinks: no dispatcher, no store listener — the ingest hot path
  // is exactly the bare pipeline's (queries compute §9 layers on
  // demand instead; the two paths are equivalence-tested).
  if (sinks_.empty() || dispatcher_) return;
  dispatcher_ = std::make_unique<SinkDispatcher>(
      sinks_, &grouper_, config_.sink_queue_chunks,
      [this] { return snapshot(); }, config_.snapshot_every_events, &metrics_,
      config_.sink_overload, config_.sink_shed_deadline);
  dispatcher_->start();
  pipeline_->store().add_chunk_listener(
      [this](std::size_t, const core::SealedChunk& chunk) {
        dispatcher_->submit(chunk);
      });
}

void AnalysisSession::require_live(const char* what) const {
  if (reopen()) {
    throw std::logic_error(std::string("bgpbh: ") + what +
                           " is not valid on a kReopen session, which "
                           "ingests nothing and only serves queries");
  }
}

void AnalysisSession::start() {
  require_live("start()");
  if (closed_) return;  // a closed session quietly refuses to restart
  if (fabric_) {
    // Lanes dial lazily on the first push; nothing to wire locally.
    started_.store(true, std::memory_order_release);
    return;
  }
  // call_once blocks concurrent callers until the winner has wired the
  // dispatcher and store listener AND started the pipeline — a racing
  // first push can therefore never reach a shard worker (whose drains
  // invoke the listener) before the subscription layer exists.
  std::call_once(start_once_, [this] {
    start_dispatcher();
    pipeline_->start();
    if (watchdog_) watchdog_->start();
    if (coordinator_) coordinator_->start();
    started_.store(true, std::memory_order_release);
  });
}

bool AnalysisSession::push(const routing::FeedUpdate& update,
                          std::size_t producer) {
  require_live("push()");
  if (closed_) return false;  // defined: nothing accepted, nothing started
  if (!started_.load(std::memory_order_acquire)) start();
  // Poison quarantine: reject absurd updates before they can reach a
  // shard worker (an adversarial feed must degrade health, not state).
  // Fabric mode runs the SAME quarantine client-side (the shard
  // servers admit everything), so accept/reject decisions — and hence
  // the per-lane sub-update index spaces — match the in-process plane.
  if (quarantine_ && !quarantine_->admit(update, producer)) return false;
  if (fabric_) return fabric_->push(producer, update);
  return pipeline_->producer(producer).push(update);
}

void AnalysisSession::flush(std::size_t producer) {
  require_live("flush()");
  if (closed_ || !started_.load(std::memory_order_acquire)) return;
  // Only fabric lanes stage: an in-process push publishes on return.
  if (fabric_) fabric_->flush(producer);
}

std::uint64_t AnalysisSession::feed(stream::UpdateSource& source) {
  require_live("feed()");
  if (closed_) return 0;  // defined: nothing consumed
  if (!started_.load(std::memory_order_acquire)) start();
  if (fabric_) {
    std::uint64_t accepted = 0;
    while (const routing::FeedUpdate* update = source.next()) {
      if (push(*update, 0)) ++accepted;
    }
    return accepted;
  }
  return pipeline_->run(source);
}

void AnalysisSession::drain() {
  require_live("drain()");
  if (closed_ || !started_.load(std::memory_order_acquire)) return;
  if (fabric_) {
    for (std::size_t p = 0; p < config_.num_producers; ++p) fabric_->flush(p);
    return;
  }
  // Producers count accepted refs at push, workers count them at
  // drain; equality means every queue is empty and every sub-update
  // has reached its shard engine — the drained-cut invariant.
  while (pipeline_->total_processed() < pipeline_->total_refs_enqueued()) {
    std::this_thread::yield();
  }
}

void AnalysisSession::close(util::SimTime end_time) {
  require_live("close()");
  if (closed_) return;
  // close() before any push: start first so the shutdown below runs
  // against a started pipeline — the one lifecycle finish() defines —
  // and subscribers still get their final snapshot.
  if (!started_.load(std::memory_order_acquire)) start();
  closed_ = true;
  if (fabric_) {
    // Drains every lane, then force-closes each remote slot session at
    // the cut-off (the distributed finish()).
    fabric_->close(end_time);
    return;
  }
  // Supervision planes stop first: a checkpoint cut racing finish()'s
  // worker join would only ever abandon, and the watchdog would read
  // heartbeats from joining workers.
  if (coordinator_) coordinator_->stop();
  if (watchdog_) watchdog_->stop();
  // finish() joins the workers (every push already reached the shard
  // queues) and force-closes still-open events — every resulting chunk
  // still flows through the store listener into the dispatcher before
  // the queue stops.
  pipeline_->finish(end_time);
  if (dispatcher_) {
    dispatcher_->request_snapshot();  // final counters, after every event
    dispatcher_->stop();
  }
  // Seal the segment log last: every chunk has been submitted by
  // finish(), so stop() drains the queue and leaves the full event set
  // durably on disk before close() returns.
  if (spill_) spill_->stop();
}

void AnalysisSession::run() {
  if (config_.mode == SessionConfig::Mode::kLiveFeed) {
    throw std::logic_error(
        "bgpbh: run() is not valid for kLiveFeed; drive the session with "
        "start()/push()/close()");
  }
  // kReopen: documented no-op — an archive view is born closed and
  // queryable, there is nothing to run.  A second run() (or a run()
  // after close()) is also a no-op (idempotent by contract).
  if (closed_) return;
  start();
  stream::VectorSource source(study_->replay_updates());
  pipeline_->run(source);
  close(config_.study.window_end);
}

std::vector<core::PeerEvent> AnalysisSession::events(
    const EventQuery& query) const {
  std::vector<core::PeerEvent> out;
  if (fabric_) {
    // Scatter-gather returns the merged remote set already canonically
    // sorted; filtering preserves that order.
    for (auto& e : fabric_->query_events()) {
      if (query.matches(e)) out.push_back(std::move(e));
    }
    return out;
  }
  if (pipeline_) {
    out = pipeline_->store().query(
        [&query](const core::PeerEvent& e) { return query.matches(e); });
  }
  // Disk half of the merged view: the directory's pre-session segments
  // (all of them for kReopen).  Window-only queries could seek via the
  // sparse index; the general filter decodes every record, so route
  // through the one predicate path and let query.matches() — which
  // uses core::overlaps_window for its window term — decide.
  if (disk_) {
    auto from_disk = disk_->query(
        [&query](const core::PeerEvent& e) { return query.matches(e); });
    out.insert(out.end(), std::make_move_iterator(from_disk.begin()),
               std::make_move_iterator(from_disk.end()));
  }
  core::canonical_sort(out);
  return out;
}

std::size_t AnalysisSession::count(const EventQuery& query) const {
  if (fabric_) return events(query).size();
  std::size_t n = 0;
  if (pipeline_) {
    n = pipeline_->store().count(
        [&query](const core::PeerEvent& e) { return query.matches(e); });
  }
  if (disk_) {
    n += disk_->count(
        [&query](const core::PeerEvent& e) { return query.matches(e); });
  }
  return n;
}

bool AnalysisSession::dispatching() const {
  // dispatcher_ is written inside the one-shot start and never again;
  // started_ == true (acquire) therefore makes the pointer safe to
  // read even while other threads are pushing.
  return started_.load(std::memory_order_acquire) && dispatcher_ != nullptr;
}

std::vector<core::PrefixEvent> AnalysisSession::prefix_events() const {
  // A merged live+disk (or kReopen) view must group over events(): a
  // resume session's dispatching grouper only saw this session's
  // stream, so fall through to the recompute when a disk half exists.
  if (dispatching() && !disk_) return grouper_.correlated();
  core::IncrementalGrouper grouper(config_.correlate_tolerance,
                                   config_.group_timeout);
  for (const auto& e : events()) grouper.add(e);
  return grouper.correlated();
}

std::vector<core::PrefixEvent> AnalysisSession::grouped_events() const {
  if (dispatching() && !disk_) return grouper_.grouped();
  core::IncrementalGrouper grouper(config_.correlate_tolerance,
                                   config_.group_timeout);
  for (const auto& e : events()) grouper.add(e);
  return grouper.grouped();
}

stream::EventStore::Snapshot AnalysisSession::snapshot() const {
  stream::EventStore::Snapshot snap;
  bool has_any = false;
  if (fabric_) {
    // Fold the scatter-gathered remote event set.
    for (const auto& e : events()) {
      stream::EventStore::fold_event(snap, has_any, e);
    }
    return snap;
  }
  // This session's half: the live store's counters.
  if (pipeline_) {
    snap = pipeline_->store().snapshot();
    has_any = snap.total_events > 0;
  }
  // Disk half from the summary cached at open — the segment snapshot
  // is immutable, so merging never rescans the log.
  if (disk_) {
    stream::EventStore::fold(snap, has_any, disk_snapshot_, disk_has_any_);
  }
  return snap;
}

void AnalysisSession::publish_snapshot() {
  // Through the dispatch thread while it runs (ordered with the event
  // stream).  If the dispatcher is already stopping it may still be
  // draining — wait for stop() to finish (idempotent, joins the
  // thread) so the inline delivery below can never run concurrently
  // with dispatch-thread callbacks.
  if (dispatching()) {
    if (dispatcher_->request_snapshot()) return;
    dispatcher_->stop();
  }
  stream::EventStore::Snapshot snap = snapshot();
  for (EventSink* sink : sinks_) sink->on_snapshot(snap);
}

core::EngineStats AnalysisSession::stats() const {
  assert(!reopen() && "kReopen has no engine: the segment log persists "
                      "events, not engine state");
  if (reopen()) return {};
  if (fabric_) return {};  // engines live on the shard servers
  assert(closed_ && "stats() requires close(): shard engines are "
                    "readable only after the workers joined");
  return pipeline_->merged_stats();
}

// Fabric clients keep open state on the shard servers: 0 locally.
std::size_t AnalysisSession::open_event_count() const {
  return pipeline_ ? pipeline_->open_event_count() : 0;
}

std::size_t AnalysisSession::open_at_close() const {
  return pipeline_ ? pipeline_->open_at_finish() : 0;
}

std::uint64_t AnalysisSession::updates_pushed() const {
  if (fabric_) return fabric_->updates_pushed();
  return pipeline_ ? pipeline_->updates_pushed() : 0;
}

std::size_t AnalysisSession::num_shards() const {
  if (fabric_) return fabric_->num_slots();
  return pipeline_ ? pipeline_->num_shards() : 0;
}

bool AnalysisSession::checkpoint_now() {
  require_live("checkpoint_now()");
  // Fabric: a drained remote cut per slot (every shard server's
  // durable totals advance to its accepted totals).
  if (fabric_) return fabric_->checkpoint_all();
  return coordinator_ && coordinator_->checkpoint_now();
}

std::uint64_t AnalysisSession::checkpoints_written() const {
  return coordinator_ ? coordinator_->checkpoints_written() : 0;
}

std::uint64_t AnalysisSession::poison_rejected() const {
  return quarantine_ ? quarantine_->total_poisoned() : 0;
}

std::uint64_t AnalysisSession::events_persisted() const {
  return spill_ ? spill_->events_spilled() : 0;
}

std::uint64_t AnalysisSession::segments_sealed() const {
  return spill_ ? spill_->segments_sealed() : 0;
}

std::uint64_t AnalysisSession::persisted_bytes() const {
  return spill_ ? spill_->bytes_on_disk() : 0;
}

}  // namespace bgpbh::api
