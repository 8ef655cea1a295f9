// Fault-tolerance suite (src/fault/ + the recovery machinery it
// exercises):
//   * RetryPolicy: deterministic backoff, caps, jitter bounds,
//   * util::LogRateLimiter token bucket,
//   * FaultPlan/FaultInjector schedules (incl. seeded determinism),
//   * FaultySource outages + ReconnectingSource rejoin/gap accounting,
//   * SegmentWriter exactly-once durability across injected write /
//     flush / sync / short-write failures,
//   * SpillWriter retry -> degrade -> probe -> re-arm, and exact
//     events_lost() when the fault persists,
//   * SinkDispatcher kShed quarantine with exact shed counts,
//   * the AnalysisSession health plane, and
//   * the headline equivalence grid: recoverable fault schedules yield
//     the byte-identical event set of a fault-free run across shard
//     counts {1,3,8} x producer counts {1,3}; lossy schedules account
//     for every missing update exactly — no silent loss anywhere.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "fault/file_faults.h"
#include "fault/source_faults.h"
#include "storage/segment_reader.h"
#include "storage/segment_writer.h"
#include "storage/spill.h"
#include "util/log.h"
#include "util/retry.h"

namespace bgpbh::fault {
namespace {

namespace fs = std::filesystem;
using core::PeerEvent;
using routing::FeedUpdate;
using routing::Platform;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// Fast, deterministic policy for tests: real backoff shape, tiny real
// delays, no jitter unless a test wants it.
util::RetryPolicy fast_policy(std::size_t attempts = 3) {
  util::RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.base_delay = std::chrono::microseconds(200);
  policy.max_delay = milliseconds(2);
  policy.jitter = 0.0;
  return policy;
}

PeerEvent make_event(std::uint32_t n) {
  PeerEvent e;
  e.platform = Platform::kRis;
  e.peer.peer_ip = *net::IpAddr::parse("198.51.100.7");
  e.peer.peer_asn = 100 + (n % 7);
  e.prefix = *net::Prefix::parse(
      (std::to_string(10 + n % 200) + "." + std::to_string(n / 200 % 256) +
       ".0.1/32"));
  e.provider = core::ProviderRef{.is_ixp = false, .asn = 200, .ixp_id = 0};
  e.user = 400 + n;
  e.start = 1000 + n;
  e.end = 2000 + n;
  e.open = false;
  return e;
}

std::vector<PeerEvent> make_events(std::uint32_t count, std::uint32_t from = 0) {
  std::vector<PeerEvent> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(make_event(from + i));
  return out;
}

// Seals events the way stream::EventStore::ingest_chunk does.
core::SealedChunk sealed(std::vector<PeerEvent> events) {
  return std::make_shared<const std::vector<PeerEvent>>(std::move(events));
}

// All events a directory's segments hold, canonical order.
std::vector<PeerEvent> disk_events(const std::string& dir) {
  auto set = storage::SegmentSet::open(dir);
  std::vector<PeerEvent> out;
  if (set) {
    set->for_each([&out](const PeerEvent& e) { out.push_back(e); });
  }
  core::canonical_sort(out);
  return out;
}

std::string temp_dir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

// ---- RetryPolicy ------------------------------------------------------

TEST(RetryPolicy, DoublesFromBaseAndSaturatesAtMax) {
  util::RetryPolicy policy = fast_policy(10);
  policy.base_delay = milliseconds(10);
  policy.max_delay = milliseconds(45);
  EXPECT_EQ(policy.delay(1), milliseconds(10));
  EXPECT_EQ(policy.delay(2), milliseconds(20));
  EXPECT_EQ(policy.delay(3), milliseconds(40));
  EXPECT_EQ(policy.delay(4), milliseconds(45));    // capped
  EXPECT_EQ(policy.delay(100), milliseconds(45));  // shift-safe far out
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded) {
  util::RetryPolicy policy;
  policy.base_delay = milliseconds(100);
  policy.max_delay = std::chrono::seconds(10);
  policy.jitter = 0.25;
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    nanoseconds d1 = policy.delay(attempt);
    nanoseconds d2 = policy.delay(attempt);
    EXPECT_EQ(d1, d2) << "same (policy, attempt) must be bit-reproducible";
    nanoseconds nominal = milliseconds(100) * (1 << (attempt - 1));
    EXPECT_GE(d1.count(), nominal.count() * 0.75 - 1);
    EXPECT_LE(d1.count(), nominal.count() * 1.25 + 1);
  }
  // Distinct seeds decorrelate (no thundering herd).
  util::RetryPolicy other = policy;
  other.seed = policy.seed + 1;
  bool any_different = false;
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    any_different |= other.delay(attempt) != policy.delay(attempt);
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryPolicy, ZeroAttemptsStillMeansOneTry) {
  util::RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_EQ(policy.attempts(), 1u);
}

// ---- LogRateLimiter ---------------------------------------------------

TEST(LogRateLimiter, TokenBucketPermitsBurstThenSuppresses) {
  util::LogRateLimiter limiter(/*per_second=*/1.0, /*burst=*/2.0);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(limiter.allow(t0));
  EXPECT_TRUE(limiter.allow(t0));   // burst capacity
  EXPECT_FALSE(limiter.allow(t0));  // bucket empty
  EXPECT_FALSE(limiter.allow(t0));
  // One second refills one token; the permit reports the run of
  // suppressed calls it ends.
  EXPECT_TRUE(limiter.allow(t0 + std::chrono::seconds(1)));
  EXPECT_EQ(limiter.last_suppressed(), 2u);
  EXPECT_EQ(limiter.total_suppressed(), 2u);
}

TEST(LogRateLimiter, RefillNeverExceedsBurstCapacity) {
  util::LogRateLimiter limiter(/*per_second=*/10.0, /*burst=*/3.0);
  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(limiter.allow(t0));
  // A long quiet period must cap at `burst` tokens, not accumulate.
  auto later = t0 + std::chrono::hours(1);
  int permitted = 0;
  for (int i = 0; i < 10; ++i) permitted += limiter.allow(later) ? 1 : 0;
  EXPECT_EQ(permitted, 3);
}

// ---- FaultPlan / FaultInjector ----------------------------------------

TEST(FaultInjector, WindowsFireAtExactOpCountsPerSeam) {
  FaultPlan plan;
  plan.disconnect(/*at=*/2, /*length=*/2).fail_writes(/*at=*/1, /*length=*/1,
                                                      ENOSPC);
  FaultInjector injector(plan);

  // Source seam: ops 0,1 clean; 2,3 faulted; 4 clean.
  EXPECT_EQ(injector.on_op(Seam::kSource), nullptr);
  EXPECT_EQ(injector.on_op(Seam::kSource), nullptr);
  const FaultSpec* spec = injector.on_op(Seam::kSource);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->seam, Seam::kSource);
  EXPECT_NE(injector.on_op(Seam::kSource), nullptr);
  EXPECT_EQ(injector.on_op(Seam::kSource), nullptr);

  // Write seam counts independently: op 0 clean, op 1 ENOSPC.
  EXPECT_EQ(injector.on_op(Seam::kFileWrite), nullptr);
  const FaultSpec* write_spec = injector.on_op(Seam::kFileWrite);
  ASSERT_NE(write_spec, nullptr);
  EXPECT_EQ(write_spec->error, ENOSPC);

  EXPECT_EQ(injector.ops(Seam::kSource), 5u);
  EXPECT_EQ(injector.injected(Seam::kSource), 2u);
  EXPECT_EQ(injector.ops(Seam::kFileWrite), 2u);
  EXPECT_EQ(injector.injected(Seam::kFileWrite), 1u);
  EXPECT_EQ(injector.ops(Seam::kFileFlush), 0u);
}

TEST(FaultPlan, ScatteredOutagesIsDeterministicAndDisjoint) {
  FaultPlan a = FaultPlan::scattered_outages(/*seed=*/7, /*stream_length=*/500,
                                             /*n_outages=*/6, /*max_outage=*/9,
                                             /*drop_each=*/2);
  FaultPlan b = FaultPlan::scattered_outages(7, 500, 6, 9, 2);
  ASSERT_EQ(a.faults.size(), 6u);
  ASSERT_EQ(b.faults.size(), 6u);
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].at, b.faults[i].at);
    EXPECT_EQ(a.faults[i].length, b.faults[i].length);
    EXPECT_EQ(a.faults[i].drop, 2u);
    EXPECT_GE(a.faults[i].length, 1u);
    EXPECT_LE(a.faults[i].length, 9u);
    if (i > 0) {  // disjoint, ordered windows
      EXPECT_GT(a.faults[i].at,
                a.faults[i - 1].at + a.faults[i - 1].length);
    }
  }
  FaultPlan c = FaultPlan::scattered_outages(8, 500, 6, 9, 2);
  bool differs = false;
  for (std::size_t i = 0; i < c.faults.size(); ++i) {
    differs |= c.faults[i].at != a.faults[i].at;
  }
  EXPECT_TRUE(differs) << "different seeds must give different schedules";
}

// ---- FaultySource / ReconnectingSource --------------------------------

std::vector<FeedUpdate> make_updates(std::size_t count) {
  std::vector<FeedUpdate> updates;
  updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FeedUpdate fu;
    fu.platform = Platform::kRis;
    fu.update.time = 1000 + static_cast<util::SimTime>(i) * 10;
    fu.update.peer_ip = *net::IpAddr::parse("198.51.100.9");
    fu.update.peer_asn = 64500;
    fu.update.body.withdrawn.push_back(
        *net::Prefix::parse(std::to_string(10 + i % 200) + ".1.0.1/32"));
    updates.push_back(fu);
  }
  return updates;
}

TEST(FaultySource, OutageWindowDisconnectsAndDropsExactly) {
  auto updates = make_updates(10);
  stream::VectorSource inner(updates);
  FaultInjector injector(FaultPlan{}.disconnect(/*at=*/3, /*length=*/2,
                                                /*drop=*/2));
  FaultySource faulty(inner, injector);

  std::size_t delivered = 0;
  std::size_t nulls = 0;
  while (delivered + injector.injected(Seam::kSource) < 20) {
    const FeedUpdate* u = faulty.next();
    if (u) {
      ++delivered;
      EXPECT_EQ(faulty.status(), stream::SourceStatus::kActive);
    } else if (faulty.status() == stream::SourceStatus::kDisconnected) {
      ++nulls;
    } else {
      break;  // kEnd
    }
  }
  EXPECT_EQ(faulty.status(), stream::SourceStatus::kEnd);
  EXPECT_EQ(nulls, 2u);                       // the outage window
  EXPECT_EQ(faulty.updates_dropped(), 2u);    // lost while dark
  EXPECT_EQ(faulty.outages(), 1u);
  EXPECT_EQ(delivered, updates.size() - 2);   // everything else arrived
}

TEST(ReconnectingSource, RidesOutOutageAndAccountsTheGap) {
  auto updates = make_updates(12);
  stream::VectorSource inner(updates);
  // Outage at pull 4 for 3 pulls, dropping 3 updates (30s of stream).
  FaultInjector injector(FaultPlan{}.disconnect(4, 3, 3));
  FaultySource faulty(inner, injector);
  ReconnectingSource source(faulty, fast_policy(8), "rrc00",
                            [](nanoseconds) {});

  std::vector<FeedUpdate> received;
  while (const FeedUpdate* u = source.next()) received.push_back(*u);

  EXPECT_EQ(source.status(), stream::SourceStatus::kEnd);
  EXPECT_EQ(source.outages(), 1u);
  EXPECT_EQ(source.rejoins(), 1u);
  EXPECT_GE(source.retries(), 3u);
  EXPECT_FALSE(source.gave_up());
  EXPECT_EQ(received.size(), updates.size() - 3);
  // The observation-time hole the outage left: 3 dropped updates, 10s
  // apart, plus the normal 10s step = 40s between the updates
  // bracketing the outage.
  EXPECT_EQ(source.total_gap(), 40);
  EXPECT_EQ(source.component_health().state, api::HealthState::kHealthy);
}

TEST(ReconnectingSource, GivesUpAfterExhaustingAttemptsAndReportsHalted) {
  auto updates = make_updates(6);
  stream::VectorSource inner(updates);
  // An outage longer than the retry budget (2 attempts, window of 50).
  FaultInjector injector(FaultPlan{}.disconnect(2, 50));
  FaultySource faulty(inner, injector);
  ReconnectingSource source(faulty, fast_policy(2), "rrc01",
                            [](nanoseconds) {});

  std::size_t delivered = 0;
  while (source.next()) ++delivered;

  EXPECT_EQ(delivered, 2u);
  EXPECT_TRUE(source.gave_up());
  EXPECT_EQ(source.status(), stream::SourceStatus::kFailed);
  api::ComponentHealth health = source.component_health();
  EXPECT_EQ(health.state, api::HealthState::kHalted);
  EXPECT_EQ(health.component, "source:rrc01");
  EXPECT_FALSE(health.reason.empty());
}

TEST(ReconnectingSource, ScatteredOutagesDeliverEverythingWithDropZero) {
  auto updates = make_updates(400);
  stream::VectorSource inner(updates);
  FaultInjector injector(FaultPlan::scattered_outages(
      /*seed=*/42, /*stream_length=*/400, /*n_outages=*/5, /*max_outage=*/6));
  FaultySource faulty(inner, injector);
  ReconnectingSource source(faulty, fast_policy(10), "rrc02",
                            [](nanoseconds) {});

  std::size_t delivered = 0;
  while (source.next()) ++delivered;

  // drop=0 outages only delay the stream; every update survives.
  EXPECT_EQ(delivered, updates.size());
  EXPECT_EQ(source.outages(), 5u);
  EXPECT_EQ(source.rejoins(), 5u);
  // The delta across a lossless rejoin is just the normal 10s
  // inter-update spacing — one per outage.
  EXPECT_EQ(source.total_gap(), 50);
  EXPECT_FALSE(source.gave_up());
}

// ---- SegmentWriter: exactly-once under injected disk faults -----------

// The core retry invariant: after any injected failure, retrying
// everything past events_committed() leaves the disk holding the full
// event sequence exactly once.
void write_with_retries(storage::SegmentWriter& writer,
                        const std::vector<PeerEvent>& events) {
  std::size_t cursor = 0;
  int guard = 0;
  while (cursor < events.size()) {
    ASSERT_LT(guard++, 300) << "retry loop failed to converge";
    std::span<const PeerEvent> suffix(events.data() + cursor,
                                      events.size() - cursor);
    if (writer.append(suffix)) {
      if (writer.sync()) {
        cursor = events.size();
        continue;
      }
    }
    // Failure: the durable prefix is exactly events_committed().
    cursor = static_cast<std::size_t>(writer.events_committed());
  }
}

void check_exactly_once(const FaultPlan& plan, const std::string& tag,
                        bool fsync_on_seal = false) {
  SCOPED_TRACE(tag);
  std::string dir = temp_dir("bgpbh_fault_seg_" + tag);
  FaultInjector injector(plan);
  FaultyFileOps faulty_ops(injector);
  storage::SegmentConfig config;
  config.max_segment_bytes = 2048;  // several segments over the run
  config.fsync_on_seal = fsync_on_seal;
  config.file_ops = &faulty_ops;
  auto events = make_events(150);
  {
    auto writer = storage::SegmentWriter::open(dir, config);
    ASSERT_NE(writer, nullptr);
    write_with_retries(*writer, events);
    // close() can also fail on an injected footer fault; the committed
    // suffix retry below covers it.
    int guard = 0;
    while (!writer->close()) {
      ASSERT_LT(guard++, 300);
      std::size_t cursor =
          static_cast<std::size_t>(writer->events_committed());
      write_with_retries(*writer, {events.begin() +
                                       static_cast<std::ptrdiff_t>(cursor),
                                   events.end()});
    }
    EXPECT_EQ(writer->events_committed(), events.size());
    EXPECT_GT(writer->segments_abandoned(), 0u) << "plan injected nothing";
    EXPECT_NE(writer->last_errno(), 0);
  }
  ASSERT_GT(injector.injected(Seam::kFileWrite) +
                injector.injected(Seam::kFileFlush) +
                injector.injected(Seam::kFileSync),
            0u);
  std::vector<PeerEvent> expected = events;
  core::canonical_sort(expected);
  EXPECT_TRUE(disk_events(dir) == expected)
      << "disk must hold every event exactly once";
  fs::remove_all(dir);
}

TEST(SegmentWriterFaults, ExactlyOnceAcrossWriteFailures) {
  check_exactly_once(FaultPlan{}
                         .fail_writes(5, 2)
                         .fail_writes(40, 1, ENOSPC)
                         .fail_writes(90, 3),
                     "writes");
}

TEST(SegmentWriterFaults, ExactlyOnceAcrossShortWrites) {
  // Torn records on disk: recovery must truncate them, the retry must
  // restore them.
  check_exactly_once(FaultPlan{}
                         .fail_writes(7, 1, EIO, /*short_write=*/true)
                         .fail_writes(60, 1, EIO, /*short_write=*/true),
                     "short_writes");
}

TEST(SegmentWriterFaults, ExactlyOnceAcrossFlushFailures) {
  check_exactly_once(FaultPlan{}.fail_flushes(2, 1).fail_flushes(9, 2),
                     "flushes");
}

TEST(SegmentWriterFaults, ExactlyOnceAcrossSyncFailures) {
  check_exactly_once(FaultPlan{}.fail_syncs(1, 1).fail_syncs(5, 1), "syncs",
                     /*fsync_on_seal=*/true);
}

TEST(SegmentWriterFaults, AbandonKeepsDurablePrefixOnly) {
  std::string dir = temp_dir("bgpbh_fault_seg_prefix");
  // Everything fails from write op 30 onwards: the tail of the stream
  // can never land.
  FaultInjector injector(FaultPlan{}.fail_writes(30, 1u << 20));
  FaultyFileOps faulty_ops(injector);
  storage::SegmentConfig config;
  config.file_ops = &faulty_ops;
  auto events = make_events(100);
  std::uint64_t committed = 0;
  {
    auto writer = storage::SegmentWriter::open(dir, config);
    ASSERT_NE(writer, nullptr);
    std::size_t cursor = 0;
    for (int attempt = 0; attempt < 5 && cursor < events.size(); ++attempt) {
      std::span<const PeerEvent> suffix(events.data() + cursor,
                                        events.size() - cursor);
      if (writer->append(suffix) && writer->sync()) cursor = events.size();
      cursor = std::max(
          cursor, static_cast<std::size_t>(writer->events_committed()));
    }
    writer->close();
    committed = writer->events_committed();
    EXPECT_LT(committed, events.size());
  }
  // The disk holds exactly the committed prefix — nothing torn, nothing
  // duplicated, nothing silently beyond the watermark.
  std::vector<PeerEvent> expected(events.begin(),
                                  events.begin() +
                                      static_cast<std::ptrdiff_t>(committed));
  core::canonical_sort(expected);
  EXPECT_TRUE(disk_events(dir) == expected);
  fs::remove_all(dir);
}

// ---- SpillWriter: retry -> degrade -> probe -> re-arm -----------------

std::unique_ptr<storage::SpillWriter> open_spill(const std::string& dir,
                                                 storage::FileOps* ops,
                                                 std::size_t attempts = 2) {
  storage::SpillConfig config;
  config.dir = dir;
  config.segment.file_ops = ops;
  config.retry = fast_policy(attempts);
  return storage::SpillWriter::open(std::move(config));
}

TEST(SpillWriterFaults, TransientFaultIsRetriedWithoutDegrading) {
  std::string dir = temp_dir("bgpbh_fault_spill_transient");
  // One failing write; the retry ladder (2 attempts) absorbs it.
  FaultInjector injector(FaultPlan{}.fail_writes(2, 1));
  FaultyFileOps faulty_ops(injector);
  auto spill = open_spill(dir, &faulty_ops);
  ASSERT_NE(spill, nullptr);
  auto events = make_events(64);
  for (std::size_t i = 0; i < events.size(); i += 16) {
    ASSERT_TRUE(spill->submit(sealed(std::vector<PeerEvent>(
        events.begin() + static_cast<std::ptrdiff_t>(i),
        events.begin() + static_cast<std::ptrdiff_t>(i + 16)))));
  }
  spill->stop();
  EXPECT_EQ(spill->state(), storage::SpillWriter::State::kOk);
  EXPECT_FALSE(spill->io_error());
  EXPECT_EQ(spill->events_lost(), 0u);
  EXPECT_EQ(spill->times_degraded(), 0u);
  EXPECT_GT(spill->retries(), 0u);
  EXPECT_EQ(spill->events_spilled(), events.size());
  std::vector<PeerEvent> expected = events;
  core::canonical_sort(expected);
  EXPECT_TRUE(disk_events(dir) == expected);
  fs::remove_all(dir);
}

TEST(SpillWriterFaults, DegradesParksAndReArmsWithoutLoss) {
  std::string dir = temp_dir("bgpbh_fault_spill_rearm");
  // A fault window wide enough to exhaust the 2-attempt ladder and a
  // few probes, then clear.  Each failed attempt burns one write op.
  FaultInjector injector(FaultPlan{}.fail_writes(1, 8));
  FaultyFileOps faulty_ops(injector);
  auto spill = open_spill(dir, &faulty_ops);
  ASSERT_NE(spill, nullptr);
  auto events = make_events(120);
  for (std::size_t i = 0; i < events.size(); i += 8) {
    ASSERT_TRUE(spill->submit(sealed(std::vector<PeerEvent>(
        events.begin() + static_cast<std::ptrdiff_t>(i),
        events.begin() + static_cast<std::ptrdiff_t>(i + 8)))));
  }
  // The writer must pass through degraded (alarm up, events parked,
  // ingest still accepted) and then re-arm once the window clears —
  // wait for the probe cadence to work through the fault window before
  // stopping, so this exercises the probe path rather than stop()'s
  // final attempt.
  bool rearmed = false;
  for (int i = 0; i < 20000 && !rearmed; ++i) {
    rearmed = spill->times_degraded() > 0 &&
              spill->state() == storage::SpillWriter::State::kOk &&
              spill->events_parked() == 0;
    if (!rearmed) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_TRUE(rearmed) << "probe writes never re-armed the spill";
  spill->stop();
  EXPECT_EQ(spill->state(), storage::SpillWriter::State::kOk);
  EXPECT_EQ(spill->times_degraded(), 1u);
  EXPECT_EQ(spill->events_lost(), 0u);
  EXPECT_EQ(spill->events_parked(), 0u);
  EXPECT_FALSE(spill->io_error());
  EXPECT_EQ(spill->events_spilled(), events.size());
  // Exactly once on disk despite the failures mid-stream.
  std::vector<PeerEvent> expected = events;
  core::canonical_sort(expected);
  EXPECT_TRUE(disk_events(dir) == expected);
  fs::remove_all(dir);
}

TEST(SpillWriterFaults, PersistentFaultLosesExactlyTheUncommittedTail) {
  std::string dir = temp_dir("bgpbh_fault_spill_lost");
  // Disk dies at write op 40 and never recovers.
  FaultInjector injector(FaultPlan{}.fail_writes(40, 1u << 30));
  FaultyFileOps faulty_ops(injector);
  auto spill = open_spill(dir, &faulty_ops);
  ASSERT_NE(spill, nullptr);
  auto events = make_events(200);
  for (std::size_t i = 0; i < events.size(); i += 10) {
    ASSERT_TRUE(spill->submit(sealed(std::vector<PeerEvent>(
        events.begin() + static_cast<std::ptrdiff_t>(i),
        events.begin() + static_cast<std::ptrdiff_t>(i + 10)))));
  }
  spill->stop();
  EXPECT_EQ(spill->state(), storage::SpillWriter::State::kFailed);
  EXPECT_TRUE(spill->io_error());
  EXPECT_GT(spill->events_lost(), 0u);
  EXPECT_GE(spill->times_degraded(), 1u);
  // Exact accounting: durable + lost covers every submitted event, and
  // the disk holds exactly the durable prefix of the submission order.
  EXPECT_EQ(spill->events_spilled() + spill->events_lost(), events.size());
  std::vector<PeerEvent> expected(
      events.begin(),
      events.begin() + static_cast<std::ptrdiff_t>(spill->events_spilled()));
  core::canonical_sort(expected);
  EXPECT_TRUE(disk_events(dir) == expected);
  fs::remove_all(dir);
}

// ---- SinkDispatcher kShed ---------------------------------------------

class BlockingSink : public api::EventSink {
 public:
  void on_event_closed(const PeerEvent&) override {
    ++events_;
    std::this_thread::sleep_for(std::chrono::microseconds(stall_us_));
  }
  void set_stall(int us) { stall_us_ = us; }
  std::size_t events() const { return events_; }

 private:
  std::atomic<int> stall_us_{3000};
  std::size_t events_ = 0;  // dispatch thread only
};

TEST(SinkDispatcherShed, QuarantinesAfterDeadlineWithExactShedCounts) {
  BlockingSink sink;
  api::SinkDispatcher dispatcher({&sink}, nullptr, /*capacity_chunks=*/1, {},
                                 0, nullptr, api::OverloadPolicy::kShed,
                                 /*shed_deadline=*/milliseconds(5));
  dispatcher.start();
  const std::size_t kChunks = 40;
  const std::size_t kPerChunk = 4;
  for (std::size_t i = 0; i < kChunks; ++i) {
    dispatcher.submit(sealed(make_events(kPerChunk)));
  }
  // A 3ms-per-event sink against a 5ms deadline must overflow the
  // 1-chunk queue and trip the quarantine.
  EXPECT_GT(dispatcher.events_shed(), 0u);
  EXPECT_GE(dispatcher.times_quarantined(), 1u);
  sink.set_stall(0);
  dispatcher.stop();
  // Conservation: every submitted event was either delivered or shed —
  // counted, never silently dropped.
  EXPECT_EQ(dispatcher.events_delivered() + dispatcher.events_shed(),
            kChunks * kPerChunk);
  EXPECT_EQ(sink.events(), dispatcher.events_delivered());
  // Quarantine lifted once the backlog drained.
  EXPECT_FALSE(dispatcher.quarantined());
}

TEST(SinkDispatcherShed, BlockPolicyNeverSheds) {
  BlockingSink sink;
  sink.set_stall(100);
  api::SinkDispatcher dispatcher({&sink}, nullptr, /*capacity_chunks=*/1, {},
                                 0, nullptr, api::OverloadPolicy::kBlock);
  dispatcher.start();
  for (std::size_t i = 0; i < 30; ++i) {
    dispatcher.submit(sealed(make_events(4)));
  }
  dispatcher.stop();
  EXPECT_EQ(dispatcher.events_shed(), 0u);
  EXPECT_EQ(dispatcher.times_quarantined(), 0u);
  EXPECT_EQ(sink.events(), 120u);
}

// ---- session fixtures for the equivalence grid ------------------------

core::StudyConfig study_config() {
  core::StudyConfig config;
  config.window_start = util::from_date(2017, 3, 1);
  config.window_end = util::from_date(2017, 3, 3);
  config.workload.intensity_scale = 0.05;
  config.table_dump_episodes = 0;
  return config;
}

struct Baseline {
  std::vector<FeedUpdate> updates;
  std::vector<PeerEvent> events;  // canonical order, fault-free

  Baseline() {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 2;
    api::AnalysisSession session(config);
    updates = session.study().replay_updates();
    stream::VectorSource source(updates);
    session.feed(source);
    session.close(study_config().window_end);
    events = session.events();
  }
};

const Baseline& baseline() {
  static Baseline base;
  return base;
}

// Partition the replay stream by peer key (the order-preserving MPMC
// shape test_api.cc uses).
std::vector<std::vector<FeedUpdate>> partition(
    const std::vector<FeedUpdate>& updates, std::size_t producers) {
  std::vector<std::vector<FeedUpdate>> parts(producers);
  for (const auto& u : updates) {
    bgp::PeerKey peer{u.update.peer_ip, u.update.peer_asn};
    parts[bgp::PeerKeyHash{}(peer) % producers].push_back(u);
  }
  return parts;
}

// ---- the headline invariant -------------------------------------------
// Recoverable fault schedules — collector outages ridden out by
// ReconnectingSource, a transient disk-fault window absorbed by the
// spill retry/re-arm machinery — yield the byte-identical event set of
// a fault-free run, across the full shard x producer grid, with the
// persisted log equally identical.

TEST(FaultEquivalenceGrid, RecoverableSchedulesAreByteIdenticalToFaultFree) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  for (std::size_t shards : {1u, 3u, 8u}) {
    for (std::size_t producers : {1u, 3u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      std::string dir = temp_dir("bgpbh_fault_grid_" + std::to_string(shards) +
                                 "_" + std::to_string(producers));
      // Transient disk fault: a bounded window the probe machinery
      // clears long before close().
      FaultInjector disk_injector(FaultPlan{}.fail_writes(3, 6));
      FaultyFileOps faulty_ops(disk_injector);

      api::SessionConfig config;
      config.mode = api::SessionConfig::Mode::kLiveFeed;
      config.study = study_config();
      config.num_shards = shards;
      config.num_producers = producers;
      config.queue_capacity = 64;
      config.persist_dir = dir;
      config.segment.file_ops = &faulty_ops;
      config.spill_retry = fast_policy(2);
      api::AnalysisSession session(config);

      // Every producer's partition flows through its own faulty
      // collector that disconnects on a seeded schedule (drop=0:
      // outages delay, the reconnect layer recovers every update).
      auto parts = partition(base.updates, producers);
      std::vector<std::unique_ptr<FaultInjector>> injectors;
      std::vector<std::unique_ptr<stream::VectorSource>> inners;
      std::vector<std::unique_ptr<FaultySource>> faulties;
      std::vector<std::unique_ptr<ReconnectingSource>> sources;
      for (std::size_t p = 0; p < producers; ++p) {
        injectors.push_back(
            std::make_unique<FaultInjector>(FaultPlan::scattered_outages(
                /*seed=*/100 + p, parts[p].size(), 4, 5)));
        inners.push_back(std::make_unique<stream::VectorSource>(parts[p]));
        faulties.push_back(
            std::make_unique<FaultySource>(*inners[p], *injectors[p]));
        sources.push_back(std::make_unique<ReconnectingSource>(
            *faulties[p], fast_policy(8), "rrc" + std::to_string(p),
            [](nanoseconds) {}));
        session.register_health(*sources[p]);
      }
      session.start();
      std::vector<std::thread> threads;
      for (std::size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&session, &sources, p] {
          while (const FeedUpdate* u = sources[p]->next()) {
            session.push(*u, p);
          }
          session.flush(p);
        });
      }
      for (auto& t : threads) t.join();
      session.close(study_config().window_end);

      // Byte-identical event set, exact zero-loss accounting, healthy.
      EXPECT_TRUE(session.events() == base.events);
      EXPECT_EQ(session.events_lost(), 0u);
      EXPECT_EQ(session.events_shed(), 0u);
      for (std::size_t p = 0; p < producers; ++p) {
        EXPECT_FALSE(sources[p]->gave_up());
        EXPECT_EQ(sources[p]->rejoins(), sources[p]->outages());
      }
      api::SessionHealth health = session.health();
      EXPECT_EQ(health.state, api::HealthState::kHealthy)
          << "component 0: " << (health.components.empty()
                                     ? ""
                                     : health.components[0].reason);
      // The disk survived its transient window: the reopened log
      // serves the identical set.
      EXPECT_EQ(session.events_persisted(), base.events.size());
      api::SessionConfig reopen_config;
      reopen_config.mode = api::SessionConfig::Mode::kReopen;
      reopen_config.persist_dir = dir;
      api::AnalysisSession reopened(reopen_config);
      EXPECT_TRUE(reopened.events() == base.events);
      fs::remove_all(dir);
    }
  }
}

// Lossy schedules don't reproduce the baseline — they must account for
// every missing update exactly instead.
TEST(FaultEquivalenceGrid, LossySchedulesAccountForEveryMissingUpdate) {
  const Baseline& base = baseline();
  for (std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = shards;
    api::AnalysisSession session(config);

    FaultInjector injector(FaultPlan::scattered_outages(
        /*seed=*/9, base.updates.size(), 4, 5, /*drop_each=*/7));
    stream::VectorSource inner(base.updates);
    FaultySource faulty(inner, injector);
    ReconnectingSource source(faulty, fast_policy(8), "rrc-lossy",
                              [](nanoseconds) {});
    session.register_health(source);
    std::uint64_t fed = session.feed(source);
    session.close(study_config().window_end);

    // Conservation at the source: delivered + dropped == total, with
    // the drop count exact (4 outages x 7 updates).
    EXPECT_EQ(faulty.updates_dropped(), 28u);
    EXPECT_EQ(fed, base.updates.size() - 28);
    EXPECT_EQ(faulty.updates_delivered(), fed);
    EXPECT_EQ(session.updates_pushed(), fed);
    // The outage-blinded observation time is visible, not silent.
    EXPECT_GT(source.total_gap(), 0);
    EXPECT_EQ(source.rejoins(), source.outages());
  }
}

// ---- the session health plane -----------------------------------------

TEST(SessionHealth, HealthyWhenNothingIsWrong) {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 2;
  api::AnalysisSession session(config);
  EXPECT_EQ(session.health().state, api::HealthState::kHealthy);
  stream::VectorSource source(baseline().updates);
  session.feed(source);
  session.close(study_config().window_end);
  api::SessionHealth health = session.health();
  EXPECT_EQ(health.state, api::HealthState::kHealthy);
  EXPECT_EQ(session.events_lost(), 0u);
  EXPECT_EQ(session.events_shed(), 0u);
}

TEST(SessionHealth, PersistentDiskFaultReportsHaltedSpillWithExactLoss) {
  std::string dir = temp_dir("bgpbh_fault_health_disk");
  // The disk dies early and never recovers.
  FaultInjector injector(FaultPlan{}.fail_writes(5, 1u << 30));
  FaultyFileOps faulty_ops(injector);
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 2;
  config.persist_dir = dir;
  config.segment.file_ops = &faulty_ops;
  config.spill_retry = fast_policy(2);
  api::AnalysisSession session(config);
  stream::VectorSource source(baseline().updates);
  session.feed(source);
  session.close(study_config().window_end);

  // In-memory results are untouched by the disk fault (degradation,
  // not failure: the session keeps analyzing).
  EXPECT_TRUE(session.events() == baseline().events);

  api::SessionHealth health = session.health();
  EXPECT_EQ(health.state, api::HealthState::kHalted);
  const api::ComponentHealth* spill = health.find("spill");
  ASSERT_NE(spill, nullptr);
  EXPECT_EQ(spill->state, api::HealthState::kHalted);
  EXPECT_FALSE(spill->reason.empty());
  // Exact durable-prefix accounting at the session surface (the
  // SpillWriter io_error contract): persisted + lost == every closed
  // event, and the reopened log serves exactly the durable events.
  EXPECT_GT(session.events_lost(), 0u);
  EXPECT_EQ(session.events_persisted() + session.events_lost(),
            baseline().events.size());
  api::SessionConfig reopen_config;
  reopen_config.mode = api::SessionConfig::Mode::kReopen;
  reopen_config.persist_dir = dir;
  api::AnalysisSession reopened(reopen_config);
  auto durable = reopened.events();
  EXPECT_EQ(durable.size(), session.events_persisted());
  // Every durable event is one the session produced (a true prefix of
  // the submission stream, re-sorted canonically here).
  auto all = session.events();
  for (const auto& e : durable) {
    EXPECT_TRUE(std::binary_search(all.begin(), all.end(), e,
                                   [](const PeerEvent& a, const PeerEvent& b) {
                                     return core::canonical_less(a, b);
                                   }));
  }
  fs::remove_all(dir);
}

TEST(SessionHealth, ShedSinkPlaneReportsDegradedDispatch) {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 2;
  config.sink_queue_chunks = 1;
  config.sink_overload = api::OverloadPolicy::kShed;
  config.sink_shed_deadline = milliseconds(2);
  api::AnalysisSession session(config);
  BlockingSink sink;
  session.subscribe(sink);
  stream::VectorSource source(baseline().updates);
  session.feed(source);
  session.close(study_config().window_end);

  // The stalling sink tripped the quarantine: the shed count is exact
  // (delivered + shed == all closed events) and surfaced in health.
  ASSERT_GT(session.events_shed(), 0u);
  EXPECT_EQ(sink.events() + session.events_shed(), baseline().events.size());
  api::SessionHealth health = session.health();
  const api::ComponentHealth* dispatch = health.find("dispatch");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_FALSE(dispatch->reason.empty());
  // In-memory analysis is unaffected by sink shedding.
  EXPECT_TRUE(session.events() == baseline().events);
}

TEST(SessionHealth, RegisteredReporterFeedsOverallState) {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 1;
  api::AnalysisSession session(config);

  auto updates = make_updates(6);
  stream::VectorSource inner(updates);
  FaultInjector injector(FaultPlan{}.disconnect(2, 50));
  FaultySource faulty(inner, injector);
  ReconnectingSource source(faulty, fast_policy(2), "rrc-down",
                            [](nanoseconds) {});
  ASSERT_TRUE(session.register_health(source));
  session.feed(source);  // gives up mid-stream

  api::SessionHealth health = session.health();
  EXPECT_EQ(health.state, api::HealthState::kHalted);
  const api::ComponentHealth* component = health.find("source:rrc-down");
  ASSERT_NE(component, nullptr);
  EXPECT_EQ(component->state, api::HealthState::kHalted);
  session.close(study_config().window_end);

  // Late registration is refused, like a late subscribe.
  // (Session already started: register_health must return false.)
#ifdef NDEBUG
  ReconnectingSource late(faulty, fast_policy(1), "late", [](nanoseconds) {});
  EXPECT_FALSE(session.register_health(late));
#endif
}

}  // namespace
}  // namespace bgpbh::fault
