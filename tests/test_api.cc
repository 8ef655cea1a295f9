// Tests for the public AnalysisSession API (src/api/):
//   * EventQuery filter semantics and composition,
//   * replay sessions (kLiveReplay run()) match core::Study exactly,
//   * the flagship equivalence contract: LiveGrouper's incremental §9
//     groups are byte-identical to batch correlate()+group_events()
//     across shard counts {1,3,8} x producer counts {1,3},
//   * subscription semantics under sharding: per-key delivery order,
//     no event dropped under sink backpressure, snapshot cadence,
//   * lane-consistent queries: identical result sets from live
//     per-shard lanes and the finalized store.
#include "api/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/study.h"
#include "stream/source.h"

namespace bgpbh::api {
namespace {

using core::PeerEvent;
using core::PrefixEvent;
using routing::FeedUpdate;
using routing::Platform;

// ---- EventQuery -------------------------------------------------------

PeerEvent make_event(const char* prefix, util::SimTime start, util::SimTime end,
                     bgp::Asn provider = 200, Platform platform = Platform::kRis,
                     bgp::Asn user = 400) {
  PeerEvent e;
  e.platform = platform;
  e.peer.peer_ip = *net::IpAddr::parse("198.51.100.1");
  e.peer.peer_asn = 100;
  e.prefix = *net::Prefix::parse(prefix);
  e.provider = core::ProviderRef{.is_ixp = false, .asn = provider, .ixp_id = 0};
  e.user = user;
  e.start = start;
  e.end = end;
  e.open = false;
  return e;
}

TEST(EventQuery, EmptyQueryMatchesEverything) {
  EXPECT_TRUE(EventQuery().matches(make_event("20.0.1.1/32", 100, 200)));
}

TEST(EventQuery, WindowUsesSharedOverlapRule) {
  PeerEvent e = make_event("20.0.1.1/32", 100, 200);
  EXPECT_TRUE(EventQuery().between(150, 160).matches(e));   // inside
  EXPECT_TRUE(EventQuery().between(200, 300).matches(e));   // end inclusive
  EXPECT_TRUE(EventQuery().between(0, 101).matches(e));     // start edge
  EXPECT_FALSE(EventQuery().between(0, 100).matches(e));    // t1 exclusive
  EXPECT_FALSE(EventQuery().between(201, 300).matches(e));  // after
  // Exactly the helper both EventStore::events_in and
  // SegmentSet::events_in filter through.
  EXPECT_EQ(EventQuery().between(0, 100).matches(e),
            core::overlaps_window(e.start, e.end, 0, 100));
}

TEST(EventQuery, ProviderPlatformPrefixUserFilters) {
  PeerEvent e = make_event("20.0.1.1/32", 100, 200, 200, Platform::kRouteViews, 400);
  EXPECT_TRUE(EventQuery().provider_asn(200).matches(e));
  EXPECT_FALSE(EventQuery().provider_asn(300).matches(e));
  EXPECT_TRUE(EventQuery().platform(Platform::kRouteViews).matches(e));
  EXPECT_FALSE(EventQuery().platform(Platform::kRis).matches(e));
  EXPECT_TRUE(EventQuery().prefix(*net::Prefix::parse("20.0.1.1/32")).matches(e));
  EXPECT_FALSE(EventQuery().prefix(*net::Prefix::parse("20.0.1.2/32")).matches(e));
  EXPECT_TRUE(EventQuery().user(400).matches(e));
  EXPECT_FALSE(EventQuery().user(500).matches(e));
}

TEST(EventQuery, SupernetAndIxpAndPredicate) {
  PeerEvent e = make_event("20.0.1.1/32", 100, 200);
  EXPECT_TRUE(EventQuery().within(*net::Prefix::parse("20.0.0.0/16")).matches(e));
  EXPECT_FALSE(EventQuery().within(*net::Prefix::parse("21.0.0.0/16")).matches(e));
  // A /32 supernet only covers itself.
  EXPECT_TRUE(EventQuery().within(*net::Prefix::parse("20.0.1.1/32")).matches(e));
  EXPECT_FALSE(EventQuery().within(*net::Prefix::parse("20.0.1.2/32")).matches(e));

  PeerEvent ixp_event = e;
  ixp_event.provider = core::ProviderRef{.is_ixp = true, .asn = 65000,
                                         .ixp_id = 7};
  EXPECT_TRUE(EventQuery().ixp(7).matches(ixp_event));
  EXPECT_FALSE(EventQuery().ixp(8).matches(ixp_event));
  EXPECT_FALSE(EventQuery().ixp(7).matches(e));  // ISP provider

  EXPECT_TRUE(EventQuery()
                  .where([](const PeerEvent& ev) { return ev.user == 400; })
                  .where([](const PeerEvent& ev) { return ev.start == 100; })
                  .matches(e));
  EXPECT_FALSE(EventQuery()
                   .where([](const PeerEvent& ev) { return ev.user == 400; })
                   .where([](const PeerEvent& ev) { return ev.start == 999; })
                   .matches(e));
}

TEST(EventQuery, FiltersCompose) {
  PeerEvent e = make_event("20.0.1.1/32", 100, 200, 200, Platform::kRouteViews);
  auto q = EventQuery()
               .between(0, 1000)
               .provider_asn(200)
               .platform(Platform::kRouteViews)
               .within(*net::Prefix::parse("20.0.0.0/8"));
  EXPECT_TRUE(q.matches(e));
  EXPECT_FALSE(q.platform(Platform::kPch).matches(e));  // one mismatch kills
}

// ---- lane-consistent store queries ------------------------------------

TEST(StoreQuery, LiveLanesAndFinalizedStoreYieldIdenticalResults) {
  stream::EventStore store(3);
  store.ingest_chunk(0, {make_event("20.0.1.1/32", 100, 200),
                         make_event("20.0.1.2/32", 150, 300)});
  store.ingest_chunk(1, {make_event("20.0.1.1/32", 400, 500, 300)});
  store.ingest_chunk(2, {make_event("20.0.1.3/32", 50, 120)});

  // [130, 400) keeps (100,200) and (150,300), drops (400,500) (t1
  // exclusive) and (50,120) (ends before t0).
  auto pred = [](const PeerEvent& e) {
    return EventQuery().between(130, 400).matches(e);
  };
  auto live = store.query(pred);
  core::canonical_sort(live);
  EXPECT_EQ(live.size(), 2u);
  EXPECT_EQ(store.count(pred), 2u);

  store.finalize();
  auto merged = store.query(pred);
  core::canonical_sort(merged);
  EXPECT_TRUE(live == merged);
  EXPECT_EQ(store.count(pred), 2u);
  // events() is legal now that finalize() ran.
  EXPECT_EQ(store.events().size(), 4u);
}

TEST(StoreQuery, ChunkListenerObservesEveryChunkInLaneOrder) {
  stream::EventStore store(2);
  // Both listeners log into one sequence, so install order shows up as
  // (first, second) pairs per chunk.
  struct Seen {
    int listener;
    std::size_t lane;
    core::SealedChunk chunk;
  };
  std::vector<Seen> seen;
  for (int listener : {1, 2}) {
    store.add_chunk_listener(
        [&seen, listener](std::size_t lane, const core::SealedChunk& chunk) {
          seen.push_back({listener, lane, chunk});
        });
  }
  store.ingest_chunk(0, {make_event("20.0.1.1/32", 100, 200)});
  store.ingest_chunk(1, {make_event("20.0.1.2/32", 100, 200),
                         make_event("20.0.1.3/32", 100, 200)});
  store.ingest_chunk(0, {make_event("20.0.1.4/32", 100, 200)});
  store.ingest_chunk(0, {});  // empty chunks are not observed
  ASSERT_EQ(seen.size(), 6u);
  const std::pair<std::size_t, std::size_t> expect[] = {{0, 1}, {1, 2}, {0, 1}};
  for (std::size_t c = 0; c < 3; ++c) {
    const Seen& first = seen[2 * c];
    const Seen& second = seen[2 * c + 1];
    EXPECT_EQ(first.listener, 1) << "chunk " << c;
    EXPECT_EQ(second.listener, 2) << "chunk " << c;
    EXPECT_EQ(first.chunk, second.chunk) << "chunk " << c << " was copied";
    for (const Seen* s : {&first, &second}) {
      EXPECT_EQ(s->lane, expect[c].first);
      EXPECT_EQ(s->chunk->size(), expect[c].second);
    }
  }
  // The listeners' references are not what keeps the events alive: the
  // store still serves them once both are gone.
  seen.clear();
  EXPECT_EQ(store.query([](const PeerEvent&) { return true; }).size(), 4u);
  EXPECT_EQ(store.count_in(100, 101), 4u);
}

// ---- session fixtures -------------------------------------------------

core::StudyConfig study_config() {
  core::StudyConfig config;
  config.window_start = util::from_date(2017, 3, 1);
  config.window_end = util::from_date(2017, 3, 4);
  config.workload.intensity_scale = 0.05;
  config.table_dump_episodes = 10;
  return config;
}

// Batch reference, computed once: the sequential study plus its batch
// §9 layers.
struct BatchReference {
  std::unique_ptr<core::Study> study;
  std::vector<PeerEvent> events;  // canonical order
  std::vector<PrefixEvent> prefix_events;
  std::vector<PrefixEvent> grouped;

  BatchReference() {
    study = std::make_unique<core::Study>(study_config());
    study->run();
    events = study->events();
    core::canonical_sort(events);
    prefix_events = core::correlate(study->events());
    grouped = core::group_events(prefix_events);
  }
};

const BatchReference& reference() {
  static BatchReference ref;
  return ref;
}

// Counting sink: keeps the dispatcher path active and records totals.
class CountingSink : public EventSink {
 public:
  void on_event_closed(const PeerEvent&) override { ++events_; }
  void on_group_updated(const PrefixEvent&) override { ++groups_; }
  void on_snapshot(const stream::EventStore::Snapshot& snap) override {
    ++snapshots_;
    last_snapshot_total_ = snap.total_events;
  }
  std::size_t events() const { return events_; }
  std::size_t groups() const { return groups_; }
  std::size_t snapshots() const { return snapshots_; }
  std::size_t last_snapshot_total() const { return last_snapshot_total_; }

 private:
  std::size_t events_ = 0;
  std::size_t groups_ = 0;
  std::size_t snapshots_ = 0;
  std::size_t last_snapshot_total_ = 0;
};

// ---- replay mode ------------------------------------------------------

TEST(AnalysisSession, ReplaySessionMatchesStudy) {
  const auto& ref = reference();
  SessionConfig config;
  config.mode = SessionConfig::Mode::kLiveReplay;
  config.study = study_config();
  AnalysisSession session(config);
  CountingSink sink;
  session.subscribe(sink);
  session.run();

  EXPECT_TRUE(session.events() == ref.events);
  EXPECT_TRUE(session.prefix_events() == ref.prefix_events);
  EXPECT_TRUE(session.grouped_events() == ref.grouped);
  EXPECT_EQ(session.stats(), ref.study->engine_stats());

  // The sink saw every closed event, every group update, and a final
  // snapshot carrying the full totals.
  EXPECT_EQ(sink.events(), ref.events.size());
  EXPECT_EQ(sink.groups(), ref.events.size());
  EXPECT_GE(sink.snapshots(), 1u);
  EXPECT_EQ(sink.last_snapshot_total(), ref.events.size());
  EXPECT_EQ(session.snapshot().total_events, ref.events.size());
}

// ---- the flagship equivalence contract --------------------------------

// Runs a live-feed session over the study replay stream with the given
// shard/producer counts (peer-key-hash partition across producer
// threads, the order-preserving MPMC shape) and returns it closed.
std::unique_ptr<AnalysisSession> run_live(std::size_t shards,
                                          std::size_t producers,
                                          EventSink* sink,
                                          SessionConfig base = {}) {
  base.mode = SessionConfig::Mode::kLiveFeed;
  base.study = study_config();
  base.num_shards = shards;
  base.num_producers = producers;
  base.queue_capacity = 64;  // small bound: exercises backpressure
  auto session = std::make_unique<AnalysisSession>(base);
  if (sink) session->subscribe(*sink);
  auto updates = session->study().replay_updates();
  if (producers <= 1) {
    stream::VectorSource source(updates);
    session->feed(source);
  } else {
    session->start();
    std::vector<std::vector<FeedUpdate>> parts(producers);
    for (const auto& u : updates) {
      bgp::PeerKey peer{u.update.peer_ip, u.update.peer_asn};
      parts[bgp::PeerKeyHash{}(peer) % producers].push_back(u);
    }
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&session, &parts, p] {
        for (const auto& u : parts[p]) session->push(u, p);
        session->flush(p);
      });
    }
    for (auto& t : threads) t.join();
  }
  session->close(study_config().window_end);
  return session;
}

TEST(AnalysisSession, LiveGrouperMatchesBatchGroupingAcrossShardsAndProducers) {
  const auto& ref = reference();
  for (std::size_t shards : {1u, 3u, 8u}) {
    for (std::size_t producers : {1u, 3u}) {
      CountingSink sink;
      auto session = run_live(shards, producers, &sink);
      // Incremental §9 layers == batch correlate()+group_events(),
      // byte for byte (field-wise PrefixEvent equality).
      EXPECT_TRUE(session->prefix_events() == ref.prefix_events)
          << "shards=" << shards << " producers=" << producers;
      EXPECT_TRUE(session->grouped_events() == ref.grouped)
          << "shards=" << shards << " producers=" << producers;
      // And the same peer-event set + engine stats underneath.
      EXPECT_TRUE(session->events() == ref.events)
          << "shards=" << shards << " producers=" << producers;
      EXPECT_EQ(session->stats(), ref.study->engine_stats());
      EXPECT_EQ(sink.events(), ref.events.size());
    }
  }
}

TEST(AnalysisSession, ZeroSinkSessionServesIdenticalQueriesAndGroups) {
  const auto& ref = reference();
  // No sinks: no dispatcher, no store listener — §9 layers computed on
  // demand from the lane-consistent store scan instead.
  auto session = run_live(3, 1, nullptr);
  EXPECT_TRUE(session->events() == ref.events);
  EXPECT_TRUE(session->prefix_events() == ref.prefix_events);
  EXPECT_TRUE(session->grouped_events() == ref.grouped);

  // Queries serve identical results to a replay session over the same
  // config (the one-surface contract).
  SessionConfig replay_config;
  replay_config.mode = SessionConfig::Mode::kLiveReplay;
  replay_config.study = study_config();
  AnalysisSession replay(replay_config);
  replay.run();
  auto window = EventQuery().between(study_config().window_start + util::kDay,
                                     study_config().window_start + 2 * util::kDay);
  EXPECT_TRUE(session->events(window) == replay.events(window));
  EXPECT_EQ(session->count(window), replay.count(window));
  auto ris = EventQuery().platform(Platform::kRis);
  EXPECT_TRUE(session->events(ris) == replay.events(ris));
}

// ---- subscription semantics under sharding ----------------------------

// Slow sink with a tiny dispatch queue: ingest must stall, not drop.
class SlowRecordingSink : public EventSink {
 public:
  void on_event_closed(const PeerEvent& e) override {
    recorded_.push_back(e);
    if (recorded_.size() % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  const std::vector<PeerEvent>& recorded() const { return recorded_; }

 private:
  std::vector<PeerEvent> recorded_;  // dispatch thread only
};

TEST(AnalysisSession, NoDropUnderBackpressureAndPerKeyDeliveryOrder) {
  const auto& ref = reference();
  SessionConfig config;
  config.sink_queue_chunks = 2;  // force dispatch backpressure
  SlowRecordingSink sink;
  auto session = run_live(3, 1, &sink, config);

  // Exactly the full event set arrived — nothing dropped, nothing
  // duplicated — despite the sink stalling the dispatch queue.
  std::vector<PeerEvent> recorded = sink.recorded();
  core::canonical_sort(recorded);
  EXPECT_TRUE(recorded == ref.events);

  // Per (peer, prefix) key, delivery follows close order: one key is
  // owned by one shard, whose lane preserves drain order end to end.
  std::map<std::tuple<std::string, bgp::Asn, std::string>, util::SimTime> last;
  for (const auto& e : sink.recorded()) {
    auto key = std::make_tuple(e.peer.peer_ip.to_string(), e.peer.peer_asn,
                               e.prefix.to_string());
    auto it = last.find(key);
    if (it != last.end()) {
      EXPECT_LE(it->second, e.end) << "out-of-order delivery within a key";
    }
    last[key] = e.end;
  }
}

// ---- detection latency ------------------------------------------------

// Counts closed events atomically, so the test may poll while the
// dispatcher delivers.
class PolledSink : public EventSink {
 public:
  void on_event_closed(const PeerEvent&) override { events_.fetch_add(1); }
  std::size_t events() const { return events_.load(); }

 private:
  std::atomic<std::size_t> events_{0};
};

// Pushes the opening announcement of a single-detection event, waits
// `gap`, pushes its closing withdrawal, and then pushes nothing more
// and never flushes: the sink must still count the closed event, with
// one detection-latency sample.
void expect_close_reaches_sink_without_flush(std::chrono::milliseconds gap) {
  const auto& ref = reference();
  const auto updates = ref.study->replay_updates();
  // An event of its own (peer, prefix, start): one detection, so one
  // closed event.  Its opening announcement comes from the replay.
  auto detections = [&](const PeerEvent& e) {
    return std::count_if(
        ref.events.begin(), ref.events.end(), [&](const PeerEvent& o) {
          return o.peer == e.peer && o.prefix == e.prefix && o.start == e.start;
        });
  };
  FeedUpdate open, close;
  for (const PeerEvent& e : ref.events) {
    if (e.started_in_table_dump || detections(e) != 1) continue;
    auto opens = [&](const FeedUpdate& u) {
      const auto& a = u.update.body.announced;
      return u.platform == e.platform && u.update.time == e.start &&
             bgp::PeerKey{u.update.peer_ip, u.update.peer_asn} == e.peer &&
             std::find(a.begin(), a.end(), e.prefix) != a.end();
    };
    auto it = std::find_if(updates.begin(), updates.end(), opens);
    if (it == updates.end()) continue;
    open = *it;
    open.update.body.announced = {e.prefix};
    open.update.body.withdrawn.clear();
    close.platform = open.platform;
    close.update.time = e.start + 60;
    close.update.peer_ip = open.update.peer_ip;
    close.update.peer_asn = open.update.peer_asn;
    close.update.body.withdrawn = {e.prefix};
    break;
  }
  ASSERT_FALSE(close.update.body.withdrawn.empty());

  SessionConfig config;
  config.mode = SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.study.table_dump_episodes = 0;  // the key starts without state
  AnalysisSession session(config);
  PolledSink sink;
  session.subscribe(sink);
  ASSERT_TRUE(session.push(open));
  if (gap.count() > 0) std::this_thread::sleep_for(gap);
  ASSERT_TRUE(session.push(close));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sink.events() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sink.events(), 1u);
  const auto snap = session.telemetry().snapshot();
  const auto* detect = snap.find("e2e.detect_latency_ns");
  ASSERT_NE(detect, nullptr);
  EXPECT_EQ(detect->hist.count, 1u);
  session.close(config.study.window_end);
  EXPECT_EQ(sink.events(), 1u);
}

// A live monitor sees an event close without flush() or close(): the
// closing withdrawal is neither held in a producer's buffer until a
// batch fills nor held by its worker until a drain is due.
TEST(AnalysisSession, ClosedEventReachesSinkWithoutFlush) {
  expect_close_reaches_sink_without_flush(std::chrono::milliseconds(2));
}

// The closing withdrawal follows the opening announcement back to back,
// well within stream::kMaxStaging, and nothing follows it: the push
// itself must hand it to the worker.
TEST(AnalysisSession, BackToBackClosingUpdateReachesSinkWithoutFlush) {
  expect_close_reaches_sink_without_flush(std::chrono::milliseconds(0));
}

// ---- persistence: the segment-log equivalence grid --------------------

// For every (shards, producers) cell, EventQuery results must be
// byte-identical from (a) the in-memory finalized store of a live
// session that spilled to disk, (b) a kReopen session serving the same
// directory, and (c) a merged live+disk view: a resume session over
// the same directory ingesting a second, time-shifted stream.
TEST(AnalysisSession, PersistenceGridMemoryDiskAndMergedViewsIdentical) {
  namespace fs = std::filesystem;
  const auto& ref = reference();

  // The shifted second stream's expected event set, computed once from
  // a non-persisting live session (the event set is shard-invariant —
  // the grid test above proves that).
  const util::SimTime kShift = 40 * util::kDay;
  std::vector<PeerEvent> shifted_ref;
  {
    SessionConfig config;
    config.mode = SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 2;
    AnalysisSession session(config);
    auto updates = session.study().replay_updates();
    for (auto& u : updates) u.update.time += kShift;
    stream::VectorSource source(updates);
    session.feed(source);
    session.close(study_config().window_end + kShift);
    shifted_ref = session.events();
  }
  ASSERT_FALSE(shifted_ref.empty());

  for (std::size_t shards : {1u, 3u, 8u}) {
    for (std::size_t producers : {1u, 3u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      std::string dir =
          (fs::temp_directory_path() /
           ("bgpbh_api_persist_" + std::to_string(shards) + "_" +
            std::to_string(producers)))
              .string();
      fs::remove_all(dir);

      // (a) live session spilling every sealed chunk to the log.
      SessionConfig base;
      base.persist_dir = dir;
      base.segment.max_segment_bytes = 32 * 1024;  // force several segments
      auto session = run_live(shards, producers, nullptr, base);
      auto mem = session->events();
      EXPECT_TRUE(mem == ref.events);
      EXPECT_EQ(session->events_persisted(), mem.size());
      EXPECT_GE(session->segments_sealed(), 2u);

      // (b) reopened from disk: identical full and filtered queries.
      SessionConfig reopen_config;
      reopen_config.mode = SessionConfig::Mode::kReopen;
      reopen_config.persist_dir = dir;
      AnalysisSession reopened(reopen_config);
      EXPECT_TRUE(reopened.events() == mem);
      auto window =
          EventQuery().between(study_config().window_start + util::kDay,
                               study_config().window_start + 2 * util::kDay);
      EXPECT_TRUE(reopened.events(window) == session->events(window));
      EXPECT_EQ(reopened.count(window), session->count(window));
      auto ris = EventQuery().platform(Platform::kRis);
      EXPECT_TRUE(reopened.events(ris) == session->events(ris));
      EXPECT_EQ(reopened.snapshot().total_events, mem.size());
      EXPECT_TRUE(reopened.grouped_events() == session->grouped_events());

      // (c) merged live+disk: a resume session over the same directory
      // ingests the shifted stream; queries span both halves.
      SessionConfig resume_config;
      resume_config.mode = SessionConfig::Mode::kLiveFeed;
      resume_config.study = study_config();
      resume_config.num_shards = shards;
      resume_config.persist_dir = dir;
      resume_config.resume = true;
      resume_config.segment.max_segment_bytes = 32 * 1024;
      AnalysisSession resumed(resume_config);
      auto updates = resumed.study().replay_updates();
      for (auto& u : updates) u.update.time += kShift;
      stream::VectorSource source(updates);
      resumed.feed(source);
      resumed.close(study_config().window_end + kShift);

      std::vector<PeerEvent> expect = mem;
      expect.insert(expect.end(), shifted_ref.begin(), shifted_ref.end());
      core::canonical_sort(expect);
      EXPECT_TRUE(resumed.events() == expect);
      EXPECT_EQ(resumed.snapshot().total_events, expect.size());
      // Filtered merged queries == the same filter over the merged
      // set (both windows straddle the disk/live boundary: table-dump
      // events carry start == 0 and overlap every window, from either
      // half — the shared overlap rule must treat both halves alike).
      for (const auto& q :
           {window, EventQuery().between(study_config().window_start + kShift,
                                         study_config().window_end + kShift)}) {
        std::vector<PeerEvent> expect_match;
        for (const auto& e : expect) {
          if (q.matches(e)) expect_match.push_back(e);
        }
        EXPECT_TRUE(resumed.events(q) == expect_match);
        EXPECT_EQ(resumed.count(q), expect_match.size());
      }

      // Restart-survival across BOTH sessions: a final reopen sees the
      // union, because the resume session appended its own segments.
      AnalysisSession reopened_again(reopen_config);
      EXPECT_TRUE(reopened_again.events() == expect);

      fs::remove_all(dir);
    }
  }
}

TEST(AnalysisSession, SnapshotCadenceAndFinalSnapshot) {
  const auto& ref = reference();
  SessionConfig config;
  config.snapshot_every_events = 16;
  CountingSink sink;
  auto session = run_live(2, 1, &sink, config);
  // Cadence snapshots during the run plus the final one at close().
  EXPECT_GE(sink.snapshots(), 1 + ref.events.size() / 16);
  EXPECT_EQ(sink.last_snapshot_total(), ref.events.size());
}

// ---- lifecycle hardening ----------------------------------------------
// Misuse is defined behavior: wrong-mode entry points throw
// std::logic_error (loud in release builds too), while a closed
// session quietly refuses work.

TEST(AnalysisSessionLifecycle, WrongModeEntryPointsThrow) {
  namespace fs = std::filesystem;
  std::string dir =
      (fs::temp_directory_path() / "bgpbh_api_lifecycle_wrong_mode").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  SessionConfig reopen_config;
  reopen_config.mode = SessionConfig::Mode::kReopen;
  reopen_config.persist_dir = dir;
  AnalysisSession reopened(reopen_config);
  FeedUpdate update;
  EXPECT_THROW(reopened.start(), std::logic_error);
  EXPECT_THROW(reopened.push(update), std::logic_error);
  EXPECT_THROW(reopened.flush(), std::logic_error);
  EXPECT_THROW(reopened.close(0), std::logic_error);
  stream::VectorSource empty_source(std::vector<FeedUpdate>{});
  EXPECT_THROW(reopened.feed(empty_source), std::logic_error);
  reopened.run();  // still a no-op after the rejected calls
  EXPECT_TRUE(reopened.closed());
  EXPECT_TRUE(reopened.events().empty());
  fs::remove_all(dir);

  SessionConfig live_config;
  live_config.mode = SessionConfig::Mode::kLiveFeed;
  live_config.study = study_config();
  AnalysisSession live(live_config);
  EXPECT_THROW(live.run(), std::logic_error);
  live.close(study_config().window_end);  // still closeable
}

TEST(AnalysisSessionLifecycle, DoubleStartAndDoubleCloseAreNoOps) {
  SessionConfig config;
  config.mode = SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 2;
  AnalysisSession session(config);
  session.start();
  session.start();  // idempotent
  auto updates = session.study().replay_updates();
  stream::VectorSource source(updates);
  session.feed(source);
  session.close(study_config().window_end);
  std::size_t events = session.events().size();
  session.close(study_config().window_end);  // idempotent
  EXPECT_TRUE(session.closed());
  EXPECT_EQ(session.events().size(), events);
}

TEST(AnalysisSessionLifecycle, ClosedSessionRefusesWorkQuietly) {
  SessionConfig config;
  config.mode = SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 2;
  AnalysisSession session(config);
  auto updates = session.study().replay_updates();
  {
    stream::VectorSource source(updates);
    session.feed(source);
  }
  session.close(study_config().window_end);
  std::size_t events = session.events().size();

  // push()/feed() after close: nothing accepted, nothing restarted.
  EXPECT_FALSE(session.push(updates.front()));
  stream::VectorSource again(updates);
  EXPECT_EQ(session.feed(again), 0u);
  session.flush();   // no-op
  session.start();   // no-op
  EXPECT_EQ(session.events().size(), events);
  EXPECT_EQ(session.updates_pushed(), updates.size());
}

TEST(AnalysisSessionLifecycle, CloseBeforeAnyPushYieldsAnEmptyCleanSession) {
  SessionConfig config;
  config.mode = SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  // No initial table dump: its §4.2 episodes would close events of
  // their own, and this test wants a genuinely empty session.
  config.study.table_dump_episodes = 0;
  config.num_shards = 2;
  CountingSink sink;
  AnalysisSession session(config);
  session.subscribe(sink);
  session.close(study_config().window_end);
  EXPECT_TRUE(session.closed());
  EXPECT_TRUE(session.events().empty());
  // The subscriber still got its final (empty) snapshot.
  EXPECT_GE(sink.snapshots(), 1u);
  EXPECT_EQ(sink.last_snapshot_total(), 0u);
  EXPECT_EQ(session.health().state, HealthState::kHealthy);
}

TEST(AnalysisSessionLifecycle, ReopenRunIsANoOp) {
  namespace fs = std::filesystem;
  const auto& ref = reference();
  std::string dir =
      (fs::temp_directory_path() / "bgpbh_api_lifecycle_reopen").string();
  fs::remove_all(dir);
  {
    SessionConfig config;
    config.mode = SessionConfig::Mode::kLiveReplay;
    config.study = study_config();
    config.persist_dir = dir;
    AnalysisSession session(config);
    session.run();
  }
  SessionConfig reopen_config;
  reopen_config.mode = SessionConfig::Mode::kReopen;
  reopen_config.persist_dir = dir;
  AnalysisSession reopened(reopen_config);
  reopened.run();  // documented no-op: born closed and queryable
  EXPECT_TRUE(reopened.closed());
  EXPECT_TRUE(reopened.events() == ref.events);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bgpbh::api
