// Persistent event store (src/storage/): record codec round trips,
// segment roll + sparse-index seeks, retention, torn-tail crash
// recovery (the acked prefix survives byte-wise), and the SpillWriter
// bridge under concurrent submitters (the TSan-gated piece).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "storage/record_codec.h"
#include "storage/recovery.h"
#include "storage/segment_reader.h"
#include "storage/segment_writer.h"
#include "storage/spill.h"
#include "util/rng.h"

namespace bgpbh::storage {
namespace {

namespace fs = std::filesystem;

using core::PeerEvent;

// Fresh scratch directory per test.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("bgpbh_storage_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

PeerEvent make_event(std::uint32_t i, util::SimTime start, util::SimTime end) {
  PeerEvent e;
  e.platform = static_cast<routing::Platform>(i % routing::kNumPlatforms);
  e.peer.peer_ip = net::IpAddr(net::Ipv4Addr(0xC6336400u + (i % 200)));
  e.peer.peer_asn = 100 + i % 7;
  e.prefix = net::Prefix(net::IpAddr(net::Ipv4Addr(0x14000000u + i)), 32);
  e.provider = core::ProviderRef{.is_ixp = (i % 5 == 0),
                                 .asn = 3000 + i % 11,
                                 .ixp_id = i % 5 == 0 ? 7 + i % 3 : 0};
  e.user = 64500 + i % 13;
  e.kind = static_cast<core::DetectionKind>(i % 4);
  e.as_distance = (i % 3 == 0) ? core::kNoPathDistance : static_cast<int>(i % 6);
  e.start = start;
  e.end = end;
  e.open = false;
  e.explicit_withdrawal = i % 2 == 0;
  e.started_in_table_dump = i % 17 == 0;
  e.communities.add(bgp::Community(static_cast<std::uint16_t>(3000 + i % 11),
                                   666));
  if (i % 4 == 0) {
    e.communities.add(bgp::LargeCommunity(64500 + i, 666, i));
  }
  return e;
}

std::vector<PeerEvent> make_events(std::size_t n, util::SimTime t0 = 1000,
                                   util::SimTime spacing = 10) {
  std::vector<PeerEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::SimTime start = t0 + static_cast<util::SimTime>(i) * spacing;
    events.push_back(make_event(static_cast<std::uint32_t>(i), start,
                                start + 50));
  }
  return events;
}

// ---- record codec ------------------------------------------------------

TEST_F(StorageTest, RecordRoundTripsAllFieldShapes) {
  for (std::uint32_t i = 0; i < 64; ++i) {
    PeerEvent original = make_event(i, 1000 + i, 2000 + i);
    net::BufWriter w;
    encode_record(original, w);
    EXPECT_EQ(w.size(), encoded_record_size(original));
    net::BufReader r(w.data());
    auto decoded = decode_record(r);
    ASSERT_TRUE(decoded.has_value()) << "i=" << i;
    EXPECT_TRUE(*decoded == original) << "i=" << i;
    EXPECT_TRUE(r.at_end());
  }
}

TEST_F(StorageTest, RecordRoundTripsIpv6AndNegativeDistance) {
  PeerEvent e = make_event(1, -50, 100);  // pre-epoch start survives
  e.peer.peer_ip = *net::IpAddr::parse("2001:db8::42");
  e.prefix = *net::Prefix::parse("2a00:1:2::/48");
  e.as_distance = core::kNoPathDistance;
  e.open = true;
  net::BufWriter w;
  encode_record(e, w);
  net::BufReader r(w.data());
  auto decoded = decode_record(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == e);
}

TEST_F(StorageTest, RecordRejectsCorruptionAndTruncation) {
  PeerEvent e = make_event(3, 100, 200);
  net::BufWriter w;
  encode_record(e, w);
  auto bytes = w.take();
  // Any single flipped bit must be rejected by the CRC (or framing).
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    auto mutated = bytes;
    mutated[byte] ^= 0x10;
    net::BufReader r(mutated);
    auto decoded = decode_record(r);
    if (decoded) {
      // CRC-32 detects every 1-bit error; a successful decode would be
      // a codec bug.
      ADD_FAILURE() << "1-bit corruption at byte " << byte << " decoded";
    }
  }
  // Every truncation point fails cleanly.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> t(bytes.begin(),
                                bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    net::BufReader r(t);
    EXPECT_FALSE(decode_record(r).has_value()) << "cut=" << cut;
  }
}

// ---- segment writer / reader ------------------------------------------

TEST_F(StorageTest, WriteReopenRoundTripsEventSetBytewise) {
  auto events = make_events(500);
  {
    auto writer = SegmentWriter::open(dir_);
    ASSERT_TRUE(writer);
    ASSERT_TRUE(writer->append(std::span(events)));
    ASSERT_TRUE(writer->close());
  }
  auto set = SegmentSet::open(dir_);
  ASSERT_TRUE(set);
  EXPECT_EQ(set->num_segments(), 1u);
  EXPECT_TRUE(set->segments()[0]->meta().sealed);
  // Arrival order is append order, so the round trip is byte-wise
  // without any sorting.
  EXPECT_TRUE(set->events() == events);
}

TEST_F(StorageTest, RollsBySizeAndServesAcrossSegments) {
  SegmentConfig config;
  config.max_segment_bytes = 4096;  // force many rolls
  auto events = make_events(1000);
  {
    auto writer = SegmentWriter::open(dir_, config);
    ASSERT_TRUE(writer);
    ASSERT_TRUE(writer->append(std::span(events)));
    ASSERT_TRUE(writer->close());
    EXPECT_GT(writer->segments_sealed(), 5u);
  }
  auto set = SegmentSet::open(dir_);
  EXPECT_GT(set->num_segments(), 5u);
  EXPECT_EQ(set->size(), events.size());
  EXPECT_TRUE(set->events() == events);
}

TEST_F(StorageTest, RollsByTimeSpan) {
  SegmentConfig config;
  config.max_segment_span = 100;  // events span 10s apart, 50s long
  auto events = make_events(100);
  {
    auto writer = SegmentWriter::open(dir_, config);
    ASSERT_TRUE(writer);
    ASSERT_TRUE(writer->append(std::span(events)));
    ASSERT_TRUE(writer->close());
    EXPECT_GT(writer->segments_sealed(), 3u);
  }
  EXPECT_GT(SegmentSet::open(dir_)->num_segments(), 3u);
}

TEST_F(StorageTest, TimeWindowQueriesMatchFullScanAndUseTheIndex) {
  SegmentConfig config;
  config.max_segment_bytes = 16384;
  config.index_block_records = 16;
  auto events = make_events(2000);
  {
    auto writer = SegmentWriter::open(dir_, config);
    ASSERT_TRUE(writer->append(std::span(events)));
    ASSERT_TRUE(writer->close());
  }
  auto set = SegmentSet::open(dir_);
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    util::SimTime t0 = 900 + static_cast<util::SimTime>(rng.uniform(21000));
    util::SimTime t1 = t0 + 1 + static_cast<util::SimTime>(rng.uniform(4000));
    // Reference: the shared overlap rule over a full scan.
    std::vector<PeerEvent> expect;
    for (const auto& e : events) {
      if (core::overlaps_window(e.start, e.end, t0, t1)) expect.push_back(e);
    }
    auto got = set->events_in(t0, t1);
    core::canonical_sort(expect);
    core::canonical_sort(got);
    EXPECT_TRUE(got == expect) << "window [" << t0 << "," << t1 << ")";
  }
  // A narrow window decodes only a few of the many index blocks.
  ASSERT_GT(set->num_segments(), 1u);
  (void)set->events_in(1000, 1011);
  std::size_t decoded = 0, total_blocks = 0;
  for (const auto& seg : set->segments()) {
    decoded += seg->last_scan_blocks_decoded();
    total_blocks += seg->meta().index.size();
  }
  EXPECT_LT(decoded, total_blocks / 4)
      << "narrow window should seek via the sparse index, not scan";
}

TEST_F(StorageTest, RetentionDropsOldestSegments) {
  SegmentConfig config;
  config.max_segment_bytes = 4096;
  config.retain_max_segments = 3;
  auto events = make_events(1000);
  auto writer = SegmentWriter::open(dir_, config);
  ASSERT_TRUE(writer->append(std::span(events)));
  ASSERT_TRUE(writer->close());
  EXPECT_GT(writer->segments_retired(), 0u);
  auto set = SegmentSet::open(dir_);
  EXPECT_LE(set->num_segments(), 3u);
  // What survives is a suffix of the appended stream (oldest dropped).
  auto kept = set->events();
  ASSERT_FALSE(kept.empty());
  std::vector<PeerEvent> tail(events.end() - static_cast<std::ptrdiff_t>(kept.size()),
                              events.end());
  EXPECT_TRUE(kept == tail);
}

// ---- crash recovery ----------------------------------------------------

// Simulates a writer killed mid-append: flush (ack) a prefix, append
// more bytes including a final torn record, never seal.
std::string write_torn_segment(const std::string& dir,
                               const std::vector<PeerEvent>& acked,
                               std::size_t torn_tail_bytes) {
  fs::create_directories(dir);
  std::string path = (fs::path(dir) / segment_file_name(1)).string();
  net::BufWriter content;
  encode_segment_header(content);
  for (const auto& e : acked) encode_record(e, content);
  net::BufWriter torn;
  encode_record(make_event(9999, 1, 2), torn);
  std::size_t keep = std::min(torn_tail_bytes, torn.size());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_EQ(std::fwrite(content.data().data(), 1, content.size(), f),
            content.size());
  EXPECT_EQ(std::fwrite(torn.data().data(), 1, keep, f), keep);
  std::fclose(f);
  return path;
}

TEST_F(StorageTest, TornTailRecoveryKeepsExactlyTheAckedPrefix) {
  auto acked = make_events(100);
  // Sweep torn-tail lengths: 0 (clean unsealed), mid-header, mid-
  // payload, one byte short of complete.
  net::BufWriter probe;
  encode_record(make_event(9999, 1, 2), probe);
  for (std::size_t tail : {std::size_t{0}, std::size_t{3}, std::size_t{20},
                           probe.size() - 1}) {
    fs::remove_all(dir_);
    std::string path = write_torn_segment(dir_, acked, tail);
    RecoveryResult result = recover_segment(path);
    ASSERT_TRUE(result.ok) << "tail=" << tail;
    EXPECT_FALSE(result.was_sealed);
    EXPECT_EQ(result.records, acked.size());
    EXPECT_EQ(result.truncated_bytes, tail);
    // The recovered segment now reads like any sealed one, and its
    // event set equals the acked prefix byte-wise.
    auto reader = SegmentReader::open(path);
    ASSERT_TRUE(reader);
    EXPECT_TRUE(reader->meta().sealed);
    EXPECT_TRUE(reader->events() == acked);
    // Recovery is idempotent.
    RecoveryResult again = recover_segment(path);
    EXPECT_TRUE(again.ok);
    EXPECT_TRUE(again.was_sealed);
  }
}

TEST_F(StorageTest, ReadOnlyOpenServesAckedPrefixWithoutMutating) {
  auto acked = make_events(50);
  std::string path = write_torn_segment(dir_, acked, 17);
  auto before = fs::file_size(path);
  auto reader = SegmentReader::open(path);
  ASSERT_TRUE(reader);
  EXPECT_FALSE(reader->meta().sealed);
  EXPECT_TRUE(reader->events() == acked);
  EXPECT_EQ(fs::file_size(path), before) << "read path must not mutate";
  // SegmentSet (the kReopen read path) serves it too.
  auto set = SegmentSet::open(dir_);
  EXPECT_TRUE(set->events() == acked);
}

TEST_F(StorageTest, WriterOpenHealsTornSegmentAndContinuesAfterIt) {
  auto acked = make_events(60);
  write_torn_segment(dir_, acked, 25);
  auto more = make_events(40, /*t0=*/5000);
  {
    auto writer = SegmentWriter::open(dir_);  // recovery runs here
    ASSERT_TRUE(writer);
    EXPECT_EQ(writer->active_seq(), 2u) << "continue after the healed segment";
    ASSERT_TRUE(writer->append(std::span(more)));
    ASSERT_TRUE(writer->close());
  }
  auto set = SegmentSet::open(dir_);
  ASSERT_EQ(set->num_segments(), 2u);
  EXPECT_TRUE(set->segments()[0]->meta().sealed) << "healed in place";
  std::vector<PeerEvent> expect = acked;
  expect.insert(expect.end(), more.begin(), more.end());
  EXPECT_TRUE(set->events() == expect);
}

TEST_F(StorageTest, GarbageAndForeignFilesAreSkippedNotFatal) {
  fs::create_directories(dir_);
  // A foreign file and a garbage "segment".
  { std::FILE* f = std::fopen((fs::path(dir_) / "notes.txt").string().c_str(), "wb");
    std::fputs("hello", f);
    std::fclose(f); }
  { std::FILE* f = std::fopen(
        (fs::path(dir_) / segment_file_name(7)).string().c_str(), "wb");
    std::fputs("not a segment at all", f);
    std::fclose(f); }
  auto events = make_events(10);
  {
    auto writer = SegmentWriter::open(dir_);
    ASSERT_TRUE(writer);
    EXPECT_EQ(writer->active_seq(), 8u) << "never reuse a claimed seq";
    ASSERT_TRUE(writer->append(std::span(events)));
    ASSERT_TRUE(writer->close());
  }
  auto set = SegmentSet::open(dir_);
  EXPECT_EQ(set->num_segments(), 1u);
  EXPECT_EQ(set->skipped_files(), 1u);
  EXPECT_TRUE(set->events() == events);
}

// ---- spill writer ------------------------------------------------------

TEST_F(StorageTest, SpillWriterPersistsConcurrentSubmissionsLosslessly) {
  SpillConfig config;
  config.dir = dir_;
  config.segment.max_segment_bytes = 64 * 1024;
  config.queue_chunks = 4;  // small bound: exercises submit backpressure
  auto spill = SpillWriter::open(config);
  ASSERT_TRUE(spill);

  constexpr std::size_t kThreads = 3, kChunksPerThread = 40, kChunkLen = 25;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&spill, t] {
      for (std::size_t c = 0; c < kChunksPerThread; ++c) {
        std::vector<PeerEvent> chunk;
        for (std::size_t i = 0; i < kChunkLen; ++i) {
          auto id = static_cast<std::uint32_t>(
              (t * kChunksPerThread + c) * kChunkLen + i);
          chunk.push_back(make_event(id, 1000 + id, 1050 + id));
        }
        ASSERT_TRUE(spill->submit(
            std::make_shared<const std::vector<PeerEvent>>(std::move(chunk))));
      }
    });
  }
  for (auto& t : threads) t.join();
  spill->stop();
  EXPECT_FALSE(spill->io_error());
  EXPECT_EQ(spill->events_spilled(), kThreads * kChunksPerThread * kChunkLen);

  // Everything submitted is on disk exactly once (chunk interleaving
  // across threads is arbitrary, so compare canonically).
  auto set = SegmentSet::open(dir_);
  auto on_disk = set->events();
  ASSERT_EQ(on_disk.size(), kThreads * kChunksPerThread * kChunkLen);
  std::vector<PeerEvent> expect;
  for (std::uint32_t id = 0;
       id < kThreads * kChunksPerThread * kChunkLen; ++id) {
    expect.push_back(make_event(id, 1000 + id, 1050 + id));
  }
  core::canonical_sort(expect);
  core::canonical_sort(on_disk);
  EXPECT_TRUE(on_disk == expect);
  EXPECT_FALSE(spill->submit(std::make_shared<const std::vector<PeerEvent>>(
      1, make_event(1, 1, 2))))
      << "stopped: refused";
}

}  // namespace
}  // namespace bgpbh::storage
