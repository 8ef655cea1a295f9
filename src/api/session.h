// AnalysisSession: the one consumer surface of the library.
//
// The paper's measurement loop (GiotsasRSFDB17 §4–§9) — ingest updates,
// infer per-peer events, correlate them into §9 prefix-event groups,
// query the result — behind one object model and one data plane, the
// sharded stream::StreamPipeline.  core::Study supplies the substrates
// and the replay workload; its sequential run() is only the reference
// the equivalence tests compare sessions against.
//
//   api::SessionConfig cfg;                 // source + shards + dictionary
//   cfg.study.window_start = ...;
//   api::AnalysisSession session(cfg);
//   session.subscribe(my_sink);             // EventSink callbacks
//   session.run();                          // replay the study window
//   auto events = session.events(api::EventQuery().between(t0, t1));
//   auto groups = session.grouped_events(); // §9, incremental
//
// Three source modes, one interaction model:
//   * kLiveReplay — the study workload streamed through the sharded
//                   zero-copy pipeline; sinks fire while the shard
//                   workers ingest.  run() = start + feed + close.
//   * kLiveFeed   — the caller pushes updates (or drains an
//                   UpdateSource) and closes explicitly: the
//                   production monitoring shape.
//   * kReopen     — no ingestion at all: queries served from the
//                   persistent segment log a previous session wrote to
//                   `persist_dir` (src/storage/) — the restart-
//                   survival half of the persistence story.  Both
//                   ingesting modes spill their closed events to a set
//                   `persist_dir`; `resume` additionally merges the
//                   directory's prior contents into every query (the
//                   live+disk view).
//
// Whatever the mode, the consumer surface is identical: EventSink
// subscriptions (delivered off the hot path through a bounded
// SinkDispatcher — zero sinks means the pipeline hot path is
// untouched), EventQuery reads (identical results from live per-shard
// lanes or the finalized event set, canonically sorted), and the
// incremental §9 layers (prefix_events()/grouped_events(), maintained
// by the built-in LiveGrouper and byte-equivalent to batch
// correlate()+group_events() on the same stream).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "api/dispatch.h"
#include "api/health.h"
#include "fabric/router.h"
#include "api/live_grouper.h"
#include "api/query.h"
#include "api/sink.h"
#include "core/study.h"
#include "recovery/coordinator.h"
#include "recovery/quarantine.h"
#include "recovery/watchdog.h"
#include "storage/segment_reader.h"
#include "storage/spill.h"
#include "stream/pipeline.h"
#include "stream/source.h"
#include "telemetry/metrics.h"
#include "util/retry.h"

namespace bgpbh::api {

struct SessionConfig {
  enum class Mode {
    kLiveReplay,  // study workload through the sharded live pipeline
    kLiveFeed,    // caller-fed live pipeline: start()/push()/close()
    kReopen,      // serve queries from persist_dir's segment log only
  };
  Mode mode = Mode::kLiveReplay;

  // Substrates + workload + window + engine ablations.  The study's
  // table-dump episodes seed §4.2 initialization in every mode.
  core::StudyConfig study;

  // Data plane shape; forwarded to stream::PipelineConfig.  Zero
  // shards or producers mean one.  batch_size bounds queue transfers,
  // not latency: every push hands its refs to the workers on return.
  std::size_t num_shards = 4;
  std::size_t num_producers = 1;
  std::size_t queue_capacity = 4096;
  std::size_t batch_size = 64;

  // §9 grouping parameters (LiveGrouper; the correlate tolerance must
  // not exceed the grouping timeout — a shorter timeout is raised to
  // the tolerance, and debug builds assert).
  util::SimTime correlate_tolerance = core::kCorrelateTolerance;
  util::SimTime group_timeout = core::kGroupTimeout;

  // Sink dispatch: bounded queue depth in sealed chunks (a full queue
  // blocks ingest — backpressure, never loss), and an optional
  // snapshot cadence (every N delivered events; 0 = only final/manual).
  std::size_t sink_queue_chunks = 256;
  std::size_t snapshot_every_events = 0;

  // ---- persistence (src/storage/) --------------------------------------
  // Non-empty: closed events are spilled to an append-only segment log
  // in this directory.  Live modes spill every sealed store chunk
  // through a storage::SpillWriter (bounded queue + one writer thread,
  // so segment I/O never runs on an ingesting thread); kReopen serves
  // queries from the directory without running anything.  Opening
  // recovers and reseals any torn segment a crashed writer left behind;
  // a directory that cannot be created/written throws
  // std::runtime_error from the constructor (silently running a
  // persistence-configured monitor without persistence is the one
  // unacceptable failure mode).
  std::string persist_dir;
  // Live modes with persist_dir: also open the segments already
  // in the directory (prior sessions') and serve events()/count()/
  // snapshot() as the MERGED live+disk view.  The disk snapshot is
  // taken at construction, before this session writes anything, so its
  // own spill output is never double-counted.
  bool resume = false;
  // Segment roll / sparse-index / fsync / retention knobs.
  storage::SegmentConfig segment;
  // Bounded spill queue depth in chunks (full = ingest blocks:
  // backpressure, never loss — the pipeline-wide contract).
  std::size_t spill_queue_chunks = 256;

  // ---- fault tolerance (src/fault/ exercises these) --------------------
  // Spill-writer disk-fault handling: transient append/sync failures
  // retry `spill_retry.max_attempts` times with backoff; past that the
  // writer degrades to memory-only (health() reports kDegraded, the
  // storage.spill.degraded gauge alarms) and probe writes at the same
  // backoff cadence re-arm it automatically when the disk recovers.
  util::RetryPolicy spill_retry;
  // Sink overload policy.  kBlock (default) keeps the session-wide
  // backpressure-never-drop contract; kShed bounds how long ingest can
  // stall on a stuck sink to `sink_shed_deadline`, then quarantines
  // the sink plane with exact shed accounting (dispatch events_shed).
  OverloadPolicy sink_overload = OverloadPolicy::kBlock;
  std::chrono::nanoseconds sink_shed_deadline = std::chrono::milliseconds(100);

  // ---- crash recovery & supervision (src/recovery/) --------------------
  // > 0 (live modes with persist_dir): cut a crash-consistent
  // checkpoint of all open state — per-shard ActiveState tables,
  // per-producer ingest watermarks, §9 grouper layers, the durable log
  // position — every this many accepted updates.  Cuts happen at a
  // worker rendezvous off the hot path; a SIGKILL between cuts loses
  // no durable state (see `recover`).  0 disables the cadence;
  // checkpoint_now() still works when persist_dir is set.
  std::uint64_t checkpoint_every = 0;
  // Live modes with persist_dir: on construction, load the newest
  // valid checkpoint from persist_dir (torn/corrupt files fall back to
  // the previous one), truncate the segment log to the checkpoint's
  // durable position, restore every shard's open state + the grouper
  // layers, and arm each producer to skip its already-processed
  // sub-update prefix.  The caller must then re-feed the SAME source
  // with the SAME producer partition; routing determinism makes the
  // replay exactly-once.  Implies the resume-style merged live+disk
  // query view (pre-crash closed events are served from the log).
  // Shard/producer counts must match the checkpoint's or the
  // constructor throws.  No checkpoint in the directory = fresh start.
  bool recover = false;
  // Watchdog (supervision plane): a shard whose heartbeat freezes for
  // `stall_deadline` while its queue holds work degrades health() and
  // raises the recovery.watchdog.stalled_shards alarm gauge.  0
  // disables the watchdog thread.
  std::chrono::milliseconds stall_deadline = std::chrono::seconds(2);
  std::chrono::milliseconds watchdog_poll = std::chrono::milliseconds(50);
  // Poison-update quarantine: push() rejects announcements whose AS
  // path / community attribute exceeds these (counted per producer,
  // never silent; see recovery::PoisonQuarantine).  A producer
  // exceeding `poison_error_budget` rejections degrades health().
  std::size_t max_as_path_hops = 1024;
  std::size_t max_communities = 4096;
  std::uint64_t poison_error_budget = 100;

  // ---- multi-process shard fabric (src/fabric/) -------------------------
  // Non-empty endpoint list + kLiveFeed: this session becomes a fabric
  // CLIENT.  num_shards is reinterpreted as the global slot count,
  // every push is split/routed to the slot's shard server
  // (fabric::FabricRouter), and queries scatter-gather the remote
  // event sets — byte-identical to the in-process plane.  Fabric mode
  // requires persist_dir empty (persistence happens server-side),
  // recover false, and study.table_dump_episodes == 0 (a table dump
  // would be folded once per remote slot session); violations throw
  // std::logic_error from the constructor.  The in-process hot path is
  // untouched when this is empty.
  fabric::FabricConfig fabric;
  // Server-side recovery variant (fabric::ShardServer slot sessions):
  // restore the checkpoint as `recover` does, but do NOT arm producer
  // replay-skips — the feeder sends only the post-cut suffix (the
  // fabric client resumes each lane from the recovered accepted
  // index), so skipping would drop real updates.
  bool recover_suffix_feed = false;

  // ---- tracing (telemetry/trace.h) --------------------------------------
  // Slow-span trace ring configuration, applied to this session's
  // registry at construction: off by default with a 1 ms threshold and
  // 256-record capacity (the historical hardcoded values).  Enable it
  // to capture slow-batch/slow-RPC forensics; fabric clients and shard
  // servers additionally use the ring for cross-process trace-id
  // stitching (fleet_telemetry()).
  telemetry::TraceConfig trace;
};

class AnalysisSession {
 public:
  explicit AnalysisSession(SessionConfig config = {});
  ~AnalysisSession();

  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  // ---- substrates (every mode except kReopen) --------------------------
  // A kReopen session reads events straight off the segment log and
  // never builds the study substrates (no graph, no dictionary, no
  // workload) — that is what makes reopening an archive cheap.  These
  // accessors assert on it.
  const core::Study& study() const {
    assert(study_ && "kReopen sessions build no study substrates");
    return *study_;
  }
  const topology::AsGraph& graph() const { return study().graph(); }
  const topology::Registry& registry() const { return study().registry(); }
  const topology::CustomerCones& cones() const { return study().cones(); }
  const dictionary::Corpus& corpus() const { return study().corpus(); }
  const dictionary::BlackholeDictionary& dictionary() const {
    return study().dictionary();
  }
  const routing::CollectorFleet& fleet() const { return study().fleet(); }
  routing::PropagationEngine& propagation() {
    assert(study_ && "kReopen sessions build no study substrates");
    return study_->propagation();
  }
  const SessionConfig& config() const { return config_; }

  // ---- subscriptions ---------------------------------------------------
  // Borrowed; must outlive the session.  Register before run()/start():
  // the dispatcher snapshots the sink list when delivery begins, so a
  // late subscribe is refused — false is returned (and debug builds
  // assert) instead of silently never delivering.
  bool subscribe(EventSink& sink);

  // Add an external component (e.g. a fault::ReconnectingSource
  // feeding this session) to the health() view.  Same rules as
  // subscribe(): borrowed, must outlive the session, register before
  // run()/start() — late registration is refused with false.
  bool register_health(const HealthReporter& reporter);

  // ---- execution -------------------------------------------------------
  // Lifecycle misuse is DEFINED, not undefined: calling a live-mode
  // entry point (start/push/flush/feed/close) on a kReopen session, or
  // run() on a kLiveFeed session, throws std::logic_error — a
  // programming error, loud in release builds too.  After close(),
  // push()/feed() return false/0 (nothing accepted), flush()/close()
  // are no-ops, and a second run() or start() is a no-op: a closed
  // session quietly refuses work instead of corrupting state.

  // kLiveReplay: start, feed study().replay_updates(), and close at the
  // window end (sinks fire during the replay).  No-op once closed, so
  // idempotent.  kReopen: no-op (an archive view is born closed and
  // queryable).
  void run();

  // kLiveFeed: start the pipeline (idempotent and safe to race —
  // implied by the first push, concurrent first pushes from several
  // producer threads block until one of them finished the start), feed
  // updates, close at the archive cut-off.
  void start();
  bool push(const routing::FeedUpdate& update, std::size_t producer = 0);
  // Fabric mode: send `producer`'s staged sub-updates to the shard
  // servers now.  A later push sends anything staged for
  // stream::kMaxStaging, so only a feed that stops in the middle of a
  // burst needs this.  In-process there is nothing to publish: each
  // push hands its refs to the shard workers before it returns.
  void flush(std::size_t producer = 0);
  std::uint64_t feed(stream::UpdateSource& source);
  void close(util::SimTime end_time);
  bool closed() const { return closed_; }

  // ---- crash recovery & supervision (src/recovery/) --------------------
  // Cut one checkpoint now (live modes with persist_dir).  False when
  // checkpointing is not wired or the cut was abandoned (shutdown
  // race, degraded disk, failed write) — the previous checkpoint then
  // remains authoritative.
  bool checkpoint_now();
  // Block until every update accepted so far is fully processed (live:
  // shard queues drained; fabric: every lane flushed and its APPEND
  // acked by its shard server).  At a drained point the
  // per-producer checkpoint watermark sums are exact accepted counts —
  // the invariant the fabric's exactly-once accounting rests on.
  void drain();
  // True when this session restored state from a checkpoint, and the
  // seq of the checkpoint it restored (0 otherwise).
  bool recovered() const { return recovered_; }
  std::uint64_t recovered_checkpoint_seq() const { return recovered_seq_; }
  // Per-producer sub-update counts the restored checkpoint covers
  // (empty when recovered() is false).  A fabric shard server reports
  // these in HELLO so clients resume each lane exactly past them.
  const std::vector<std::uint64_t>& recovered_updates_accepted() const {
    return recovered_totals_;
  }
  std::uint64_t checkpoints_written() const;
  // Updates rejected by the poison quarantine, across all producers.
  std::uint64_t poison_rejected() const;

  // ---- health (api/health.h) -------------------------------------------
  // Point-in-time health of every component: the spill writer
  // ("spill"), the sink dispatcher ("dispatch"), and every registered
  // HealthReporter.  Overall state is the worst component's.  Also
  // exported as the api.session.health gauge (0/1/2) on every
  // telemetry snapshot.  Callable from any thread, any time.
  SessionHealth health() const;
  // Exact-loss accounting shortcuts (0 when the component is absent):
  // events dropped by a quarantined sink plane, and spill events lost
  // to a disk fault that persisted through close().
  std::uint64_t events_shed() const;
  std::uint64_t events_lost() const;

  // ---- queries ---------------------------------------------------------
  // Peer-granularity events matching `query`, canonically sorted.
  // Identical result sets from live lanes (mid-run) and the finalized
  // store.
  std::vector<core::PeerEvent> events(const EventQuery& query = {}) const;
  std::size_t count(const EventQuery& query = {}) const;

  // §9 layers.  Live modes with sinks: the incremental LiveGrouper
  // state (what subscribers have been told so far).  Otherwise:
  // computed from the events ingested so far — same result, the two
  // paths are equivalence-tested.
  std::vector<core::PrefixEvent> prefix_events() const;
  std::vector<core::PrefixEvent> grouped_events() const;

  // Aggregate counters now (live: lane-consistent store snapshot).
  stream::EventStore::Snapshot snapshot() const;
  // Queue an on_snapshot delivery to the sinks, ordered with the event
  // stream (delivered inline when no dispatch thread is running).
  void publish_snapshot();

  // Engine statistics; valid after close() (or run(), which closes).
  core::EngineStats stats() const;

  // Live gauges.
  std::size_t open_event_count() const;
  // Events force-closed at the close() cut-off — "still active at the
  // end of the archive".
  std::size_t open_at_close() const;
  std::uint64_t updates_pushed() const;
  std::size_t num_shards() const;

  // The fabric router when this session is a fabric client (null
  // otherwise): rebalance (migrate/add_endpoint) and fleet shutdown
  // live here.
  fabric::FabricRouter* fabric() { return fabric_.get(); }

  // ---- persistence gauges (zero / null without persist_dir) ------------
  // Events durably appended to the segment log so far.
  std::uint64_t events_persisted() const;
  std::uint64_t segments_sealed() const;
  std::uint64_t persisted_bytes() const;
  // The disk snapshot a resume/kReopen session opened (null otherwise).
  const storage::SegmentSet* disk() const { return disk_.get(); }

  // ---- telemetry (src/telemetry/) --------------------------------------
  // The session-wide metrics registry: every layer this session owns
  // (pipeline, shard workers, queues, sink dispatcher, spill writer)
  // records into it.  snapshot() it at any time — recording proceeds
  // concurrently — and render with telemetry::to_prometheus() /
  // telemetry::to_json_object().  The trace ring
  // (telemetry().trace().configure(...)) is off by default.
  // (Fully qualified types: the accessor name shadows the namespace
  // inside this class scope.)
  bgpbh::telemetry::MetricsRegistry& telemetry() { return metrics_; }
  const bgpbh::telemetry::MetricsRegistry& telemetry() const {
    return metrics_;
  }

 private:
  bool reopen() const { return config_.mode == SessionConfig::Mode::kReopen; }
  // True when the dispatch thread owns sink delivery and grouper_ is
  // being fed.  Races with a concurrent lazy start are resolved by
  // reading started_ (release-stored after the dispatcher is fully
  // wired) before touching dispatcher_.
  bool dispatching() const;
  void start_dispatcher();
  // Throws std::logic_error naming `what` on a kReopen session.
  void require_live(const char* what) const;

  SessionConfig config_;
  // Declared before every component that registers instruments or
  // collection hooks (pipeline, dispatcher, spill writer): destruction
  // runs in reverse order, so the registry outlives them all and their
  // hook removal in ~StreamPipeline/~SinkDispatcher/~SpillWriter always
  // targets a live registry.
  bgpbh::telemetry::MetricsRegistry metrics_;
  std::unique_ptr<core::Study> study_;
  LiveGrouper grouper_;
  std::vector<EventSink*> sinks_;
  std::vector<const HealthReporter*> health_reporters_;
  bgpbh::telemetry::Gauge* health_gauge_ = nullptr;
  std::uint64_t health_hook_ = 0;
  // Persistence: the spill writer receives every sealed store chunk;
  // disk_ is the point-in-time snapshot of the directory's pre-existing
  // segments that resume / kReopen queries merge in.
  std::unique_ptr<storage::SpillWriter> spill_;
  std::unique_ptr<storage::SegmentSet> disk_;
  stream::EventStore::Snapshot disk_snapshot_;  // folded once at open
  bool disk_has_any_ = false;
  // Dispatcher before pipeline: the pipeline's destructor joins shard
  // workers that may be parked in the dispatcher's bounded queue, so
  // the dispatcher must be destroyed (stopped) after the pipeline.
  std::unique_ptr<SinkDispatcher> dispatcher_;
  std::unique_ptr<stream::StreamPipeline> pipeline_;
  // Recovery plane, declared after pipeline_ so destruction stops the
  // coordinator/watchdog threads (whose hooks read pipeline_, spill_,
  // dispatcher_) while those members are still alive.
  std::unique_ptr<recovery::PoisonQuarantine> quarantine_;
  std::unique_ptr<recovery::Watchdog> watchdog_;
  std::unique_ptr<recovery::CheckpointCoordinator> coordinator_;
  // Fabric client plane (replaces pipeline_/spill_/dispatcher_ when
  // config_.fabric.enabled()).
  std::unique_ptr<fabric::FabricRouter> fabric_;
  bool recovered_ = false;
  std::uint64_t recovered_seq_ = 0;
  std::vector<std::uint64_t> recovered_totals_;
  // One-shot start: call_once makes racing first pushes block until
  // the winner has installed the dispatcher + store listener, so no
  // update can reach a worker before the subscription layer is wired.
  std::once_flag start_once_;
  std::atomic<bool> started_{false};
  bool closed_ = false;
};

}  // namespace bgpbh::api
