// Heap allocations on the producers' per-sub-update paths and on the
// closed-event hand-off, counted by a replacement global operator new.
// The counter is thread-local, so only the calling thread counts: shard
// workers, the spill writer and the checkpoint coordinator allocate on
// their own threads.
//
// This is its own executable because the replacement allocator applies
// to the whole binary, and sanitizer builds (BGPBH_ASAN / BGPBH_TSAN),
// which bring their own operator new, leave it out.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include <unistd.h>

#include "api/session.h"
#include "fabric/protocol.h"
#include "stream/event_store.h"
#include "stream/shard_router.h"

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bgpbh {
namespace {

net::Prefix P(const char* s) { return *net::Prefix::parse(s); }

// Steady-state in-process routing, with spill and checkpoint cadence
// cuts running: the producer thread allocates nothing per update.
// Probes go in cycles of ShardRouter::kBlockCacheSize, each followed by
// drain(), so every block of a cycle is back in the pool before the
// next cycle and the cycles keep reusing the same few blocks, whose
// vectors fit the probe once each has held it; a pool block last
// written by a shorter update would otherwise have to grow.
TEST(ZeroAlloc, SteadyStateRoutingWithSpillAndCheckpoints) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bgpbh_test_alloc_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study.window_start = util::from_date(2017, 3, 1);
  config.study.window_end = util::from_date(2017, 3, 4);
  config.study.workload.intensity_scale = 0.05;
  config.study.table_dump_episodes = 10;
  config.persist_dir = dir.string();
  config.checkpoint_every = 4000;  // cuts land while the probes run
  {
    api::AnalysisSession session(config);
    session.start();
    // Real engine state first, so the cuts serialize open events.
    core::Study study(config.study);
    for (const auto& u : study.replay_updates()) session.push(u);

    routing::FeedUpdate probe;
    probe.platform = routing::Platform::kRis;
    probe.update.time = config.study.window_start;
    probe.update.peer_ip = *net::IpAddr::parse("198.51.100.9");
    probe.update.peer_asn = 3356;
    probe.update.body.as_path = bgp::AsPath::of({3356, 1299, 2914, 64500});
    probe.update.body.communities.add(bgp::Community(3356, 120));
    probe.update.body.communities.add(bgp::Community(1299, 3000));
    probe.update.body.announced.push_back(P("20.7.0.0/16"));
    constexpr std::uint64_t kCycle = stream::ShardRouter::kBlockCacheSize;
    auto push_cycles = [&](std::uint64_t cycles) {
      for (std::uint64_t c = 0; c < cycles; ++c) {
        for (std::uint64_t i = 0; i < kCycle; ++i) {
          probe.update.time += 1;
          ASSERT_TRUE(session.push(probe));
        }
        session.drain();
      }
    };
    push_cycles(200);
    // Count over at least 200 cycles and until two more cuts have
    // completed, so at least one ran wholly inside the count (the
    // coordinator polls every 20 ms).
    const std::uint64_t cuts_before = session.checkpoints_written();
    const std::uint64_t before = t_allocs;
    std::uint64_t cycles = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (cycles < 200 ||
           (session.checkpoints_written() < cuts_before + 2 &&
            std::chrono::steady_clock::now() < deadline)) {
      push_cycles(1);
      ++cycles;
    }
    const std::uint64_t allocs = t_allocs - before;
    EXPECT_EQ(allocs, 0u) << "over " << cycles * kCycle << " routed updates";
    EXPECT_GE(session.checkpoints_written(), cuts_before + 2)
        << "cadence checkpoints stopped landing while allocations were "
           "counted";
    session.close(config.study.window_end);
  }
  std::filesystem::remove_all(dir);
}

// The fabric lane path: every sub-update of a multi-prefix update —
// IPv4 and IPv6 withdrawals and announcements, with classic and large
// communities — encoded into a warmed APPEND body straight from the
// original update, as FabricRouter::push stages each one.
TEST(ZeroAlloc, SubUpdateEncodingIntoAWarmedLaneBuffer) {
  routing::FeedUpdate update;
  update.platform = routing::Platform::kRouteViews;
  update.update.time = 1488326400;
  update.update.peer_ip = *net::IpAddr::parse("2001:7f8::1299");
  update.update.peer_asn = 1299;
  bgp::UpdateBody& body = update.update.body;
  body.withdrawn = {P("20.2.0.0/24"), P("2a00:2::/32")};
  body.announced = {P("130.149.7.0/24"), P("2a00:1::dead:beef/128")};
  body.as_path = bgp::AsPath::of({1299, 3356, 64500});
  body.next_hop = *net::IpAddr::parse("2001:7f8::66");
  body.communities.add(bgp::Community(65535, 666));
  body.communities.add(bgp::LargeCommunity(64500, 666, 0));

  net::BufWriter lane;
  std::size_t subs = 0;
  auto stage_frame = [&] {
    lane.clear();
    fabric::begin_append(lane, 0, 0);
    stream::for_each_sub_update(
        update, 4,
        [&](std::size_t, stream::SubKind kind, std::uint32_t index) {
          fabric::encode_sub_update(update, kind, index, 42, lane);
          ++subs;
        });
  };
  stage_frame();  // grows the lane buffer once
  subs = 0;
  const std::uint64_t before = t_allocs;
  for (int i = 0; i < 1000; ++i) stage_frame();
  EXPECT_EQ(t_allocs - before, 0u) << "over " << subs << " sub-updates";
  EXPECT_EQ(subs, 4000u);
}

// The closed-event hand-off, as a shard worker's drain makes it: each
// chunk is sealed once and the store lane and both listeners (spill and
// dispatch, in a session) share it.  Allocations per chunk are a
// constant, whatever the chunk's event count: the sealed chunk's one
// block, plus the lane's chunk list growing geometrically.
std::uint64_t hand_off_allocs(std::size_t events_per_chunk,
                              std::size_t chunks) {
  stream::EventStore store(1);
  std::vector<core::SealedChunk> spilled, dispatched;
  spilled.reserve(chunks + 1);
  dispatched.reserve(chunks + 1);
  store.add_chunk_listener([&](std::size_t, const core::SealedChunk& c) {
    spilled.push_back(c);
  });
  store.add_chunk_listener([&](std::size_t, const core::SealedChunk& c) {
    dispatched.push_back(c);
  });
  core::PeerEvent event;
  event.prefix = P("20.7.0.0/24");
  event.provider = core::ProviderRef{.is_ixp = false, .asn = 3356, .ixp_id = 0};
  event.start = 100;
  event.end = 200;
  event.open = false;
  event.communities.add(bgp::Community(3356, 9999));
  event.communities.add(bgp::Community(65535, 666));
  std::vector<std::vector<core::PeerEvent>> drained(
      chunks + 1, std::vector<core::PeerEvent>(events_per_chunk, event));
  store.ingest_chunk(0, std::move(drained[0]));  // warms the lane counters
  const std::uint64_t before = t_allocs;
  for (std::size_t i = 1; i <= chunks; ++i) {
    store.ingest_chunk(0, std::move(drained[i]));
  }
  const std::uint64_t allocs = t_allocs - before;
  EXPECT_EQ(spilled.size(), chunks + 1);
  EXPECT_TRUE(spilled == dispatched) << "listeners got different chunks";
  return allocs;
}

TEST(ZeroAlloc, SealedChunkHandOffIsAConstantPerChunk) {
  constexpr std::size_t kChunks = 512;
  const std::uint64_t small = hand_off_allocs(16, kChunks);
  const std::uint64_t large = hand_off_allocs(256, kChunks);
  EXPECT_EQ(large, small) << "the hand-off allocates per event";
  // One sealed block per chunk; the lane's list regrows log2 times.
  EXPECT_GE(large, kChunks);
  EXPECT_LE(large, kChunks + std::bit_width(kChunks) + 1)
      << "over " << kChunks << " chunks of 256 events";
}

}  // namespace
}  // namespace bgpbh
