// Robustness sweeps for the wire codecs: random and mutated inputs must
// never crash, hang, or read out of bounds — they either decode cleanly
// or return nullopt.  (The collectors in the paper parse untrusted
// multi-origin feeds; decoder robustness is a load-bearing property.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "bgp/mrt.h"
#include "bgp/update.h"
#include "fabric/protocol.h"
#include "flows/ipfix.h"
#include "recovery/checkpoint.h"
#include "routing/collectors.h"
#include "storage/record_codec.h"
#include "stream/shard_router.h"
#include "telemetry/fleet.h"
#include "util/rng.h"

namespace bgpbh {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.uniform(max_len));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, UpdateBodyDecoderSurvivesRandomInput) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    auto bytes = random_bytes(rng, 512);
    net::BufReader r(bytes);
    auto decoded = bgp::decode_update_body(r);
    if (decoded) {
      // Whatever decodes must re-encode without crashing.
      net::BufWriter w;
      bgp::encode_update_body(*decoded, w);
    }
  }
}

TEST_P(FuzzSeedTest, MrtDecoderSurvivesRandomInput) {
  util::Rng rng(GetParam() ^ 0xF00D);
  for (int i = 0; i < 2000; ++i) {
    auto bytes = random_bytes(rng, 768);
    (void)bgp::mrt::decode_updates(bytes);
    (void)bgp::mrt::decode_table_dump(bytes);
  }
}

TEST_P(FuzzSeedTest, IpfixDecoderSurvivesRandomInput) {
  util::Rng rng(GetParam() ^ 0x1BF1);
  for (int i = 0; i < 3000; ++i) {
    auto bytes = random_bytes(rng, 512);
    (void)flows::decode_message(bytes);
  }
}

TEST_P(FuzzSeedTest, MutatedValidUpdateNeverCrashes) {
  util::Rng rng(GetParam() ^ 0x5EED);
  // Start from a valid encoding and flip bytes.
  bgp::UpdateBody body;
  body.announced.push_back(*net::Prefix::parse("130.149.1.1/32"));
  body.announced.push_back(*net::Prefix::parse("2a00:1::1/128"));
  body.withdrawn.push_back(*net::Prefix::parse("20.0.0.0/16"));
  body.as_path = bgp::AsPath::of({3356, 1299, 64500});
  body.next_hop = *net::IpAddr::parse("198.51.100.1");
  body.communities.add(bgp::Community(65535, 666));
  body.communities.add(bgp::LargeCommunity(64500, 666, 0));
  net::BufWriter w;
  bgp::encode_update_body(body, w);
  auto original = w.take();

  for (int i = 0; i < 4000; ++i) {
    auto mutated = original;
    std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    net::BufReader r(mutated);
    (void)bgp::decode_update_body(r);
  }
}

TEST_P(FuzzSeedTest, MutatedValidMrtNeverCrashes) {
  util::Rng rng(GetParam() ^ 0xC0DE);
  bgp::ObservedUpdate u;
  u.time = 1488326400;
  u.peer_ip = *net::IpAddr::parse("198.51.100.7");
  u.peer_asn = 3356;
  u.body.announced.push_back(*net::Prefix::parse("130.149.1.1/32"));
  u.body.as_path = bgp::AsPath::of({3356, 64500});
  u.body.communities.add(bgp::Community(3356, 9999));
  net::BufWriter w;
  bgp::mrt::encode_update(u, w);
  bgp::mrt::encode_update(u, w);
  auto original = w.take();

  for (int i = 0; i < 4000; ++i) {
    auto mutated = original;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
    (void)bgp::mrt::decode_updates(mutated);
  }
}

TEST_P(FuzzSeedTest, TruncationSweepUpdate) {
  util::Rng rng(GetParam());
  bgp::UpdateBody body;
  body.announced.push_back(*net::Prefix::parse("130.149.1.1/32"));
  body.as_path = bgp::AsPath::of({100, 200, 300});
  body.next_hop = *net::IpAddr::parse("198.51.100.1");
  body.communities.add(bgp::Community(100, 666));
  net::BufWriter w;
  bgp::encode_update_body(body, w);
  const auto& full = w.data();
  // Every possible truncation point must fail cleanly (or be the full
  // message).
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> t(full.begin(), full.begin() + cut);
    net::BufReader r(t);
    auto decoded = bgp::decode_update_body(r);
    if (cut < full.size()) {
      // Shorter inputs can still parse if they form a degenerate valid
      // body (e.g. empty), but must never equal the original.
      if (decoded) EXPECT_NE(*decoded, body) << "cut=" << cut;
    }
  }
}

// ---- persistent event store record codec (src/storage/) ---------------

core::PeerEvent random_event(util::Rng& rng) {
  core::PeerEvent e;
  e.platform = static_cast<routing::Platform>(rng.uniform(4));
  if (rng.uniform(4) == 0) {
    net::Ipv6Addr::Bytes b;
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
    e.peer.peer_ip = net::IpAddr(net::Ipv6Addr(b));
    e.prefix = net::Prefix(e.peer.peer_ip, 128);
  } else {
    e.peer.peer_ip = net::IpAddr(
        net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())));
    e.prefix = net::Prefix(
        net::IpAddr(net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64()))),
        static_cast<std::uint8_t>(rng.uniform(33)));
  }
  e.peer.peer_asn = static_cast<std::uint32_t>(rng.next_u64());
  e.provider.is_ixp = rng.uniform(2) == 1;
  e.provider.asn = static_cast<std::uint32_t>(rng.next_u64());
  e.provider.ixp_id = static_cast<std::uint32_t>(rng.uniform(100));
  e.user = static_cast<std::uint32_t>(rng.next_u64());
  e.kind = static_cast<core::DetectionKind>(rng.uniform(4));
  e.as_distance = static_cast<int>(rng.uniform(10)) - 1;
  e.start = static_cast<util::SimTime>(rng.next_u64() % (1ull << 40)) - 1000;
  e.end = e.start + static_cast<util::SimTime>(rng.uniform(1 << 20));
  e.open = rng.uniform(2) == 1;
  e.explicit_withdrawal = rng.uniform(2) == 1;
  e.started_in_table_dump = rng.uniform(2) == 1;
  for (std::size_t i = rng.uniform(5); i > 0; --i) {
    e.communities.add(bgp::Community(static_cast<std::uint32_t>(rng.next_u64())));
  }
  for (std::size_t i = rng.uniform(3); i > 0; --i) {
    e.communities.add(
        bgp::LargeCommunity(static_cast<std::uint32_t>(rng.next_u64()),
                            static_cast<std::uint32_t>(rng.next_u64()),
                            static_cast<std::uint32_t>(rng.next_u64())));
  }
  return e;
}

TEST_P(FuzzSeedTest, EventRecordRoundTripsRandomEvents) {
  util::Rng rng(GetParam() ^ 0xE7E7);
  for (int i = 0; i < 2000; ++i) {
    core::PeerEvent e = random_event(rng);
    net::BufWriter w;
    storage::encode_record(e, w);
    EXPECT_EQ(w.size(), storage::encoded_record_size(e));
    net::BufReader r(w.data());
    auto decoded = storage::decode_record(r);
    ASSERT_TRUE(decoded.has_value()) << "i=" << i;
    EXPECT_TRUE(*decoded == e) << "i=" << i;
    EXPECT_TRUE(r.at_end());
  }
}

TEST_P(FuzzSeedTest, EventRecordDecoderSurvivesRandomInput) {
  util::Rng rng(GetParam() ^ 0x57A6);
  for (int i = 0; i < 3000; ++i) {
    auto bytes = random_bytes(rng, 512);
    net::BufReader r(bytes);
    // Random input essentially never carries a valid CRC, so decode
    // must reject (and above all never crash or over-read).
    (void)storage::decode_record(r);
  }
}

TEST_P(FuzzSeedTest, MutatedEventRecordStreamNeverCrashesAndCrcRejects) {
  util::Rng rng(GetParam() ^ 0xD15C);
  // A stream of several valid records, including a duplicated one (a
  // crash-retry artifact a reopened log may legitimately contain).
  util::Rng gen(7);
  net::BufWriter w;
  core::PeerEvent dup = random_event(gen);
  storage::encode_record(dup, w);
  storage::encode_record(dup, w);
  for (int i = 0; i < 6; ++i) storage::encode_record(random_event(gen), w);
  auto original = w.take();

  // Unmutated: every record decodes, the duplicate decodes twice.
  {
    net::BufReader r(original);
    std::size_t n = 0;
    while (r.remaining() > 0) {
      auto e = storage::decode_record(r);
      ASSERT_TRUE(e.has_value());
      if (n < 2) EXPECT_TRUE(*e == dup);
      ++n;
    }
    EXPECT_EQ(n, 8u);
  }

  for (int i = 0; i < 4000; ++i) {
    auto mutated = original;
    std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    // Decode records until the first rejection (how the recovery scan
    // consumes a segment): no crash, no over-read, and any record the
    // CRC accepts before the mutation point is byte-identical to the
    // original stream's.
    net::BufReader r(mutated);
    while (r.remaining() > 0) {
      if (!storage::decode_record(r)) break;
    }
  }

  // Single-bit flips specifically: CRC-32 detects all of them — a
  // record whose bytes changed may never decode successfully.
  net::BufWriter one;
  storage::encode_record(dup, one);
  auto single = one.take();
  for (int i = 0; i < 2000; ++i) {
    auto mutated = single;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
    net::BufReader r(mutated);
    EXPECT_FALSE(storage::decode_record(r).has_value()) << "i=" << i;
  }
}

TEST_P(FuzzSeedTest, TruncationSweepEventRecord) {
  util::Rng rng(GetParam() ^ 0x7C47);
  core::PeerEvent e = random_event(rng);
  net::BufWriter w;
  storage::encode_record(e, w);
  const auto& full = w.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> t(full.begin(), full.begin() + cut);
    net::BufReader r(t);
    EXPECT_FALSE(storage::decode_record(r).has_value()) << "cut=" << cut;
  }
}

// ---- checkpoint codec (src/recovery/) ---------------------------------

core::OpenEventState random_open_state(util::Rng& rng) {
  core::OpenEventState open;
  core::PeerEvent seed = random_event(rng);
  open.peer = seed.peer;
  open.prefix = seed.prefix;
  open.start = seed.start;
  open.platform = seed.platform;
  open.from_table_dump = rng.uniform(2) == 1;
  for (std::size_t i = rng.uniform(4); i > 0; --i) {
    core::OpenDetection det;
    det.provider.is_ixp = rng.uniform(2) == 1;
    det.provider.asn = static_cast<std::uint32_t>(rng.next_u64());
    det.provider.ixp_id = static_cast<std::uint32_t>(rng.uniform(100));
    det.user = static_cast<std::uint32_t>(rng.next_u64());
    det.kind = static_cast<core::DetectionKind>(rng.uniform(4));
    det.as_distance = static_cast<int>(rng.uniform(10)) - 1;
    open.detections.push_back(det);
  }
  open.communities = seed.communities;
  return open;
}

recovery::Checkpoint random_checkpoint(util::Rng& rng) {
  recovery::Checkpoint cp;
  cp.seq = rng.next_u64() % 100000 + 1;
  cp.num_shards = static_cast<std::uint32_t>(rng.uniform(4)) + 1;
  cp.num_producers = static_cast<std::uint32_t>(rng.uniform(3)) + 1;
  cp.includes_table_dump = rng.uniform(2) == 1;
  cp.position.seq = rng.next_u64() % 10000;
  cp.position.records = rng.next_u64() % 100000;
  for (std::uint32_t s = 0; s < cp.num_shards; ++s) {
    recovery::ShardCheckpoint shard;
    for (std::uint32_t p = 0; p < cp.num_producers; ++p) {
      shard.watermarks.push_back(rng.next_u64() % (1ull << 40));
    }
    for (std::size_t i = rng.uniform(6); i > 0; --i) {
      shard.open_state.push_back(random_open_state(rng));
    }
    cp.shards.push_back(std::move(shard));
  }
  auto random_prefix_event = [&rng] {
    core::PrefixEvent pe;
    core::PeerEvent seed = random_event(rng);
    pe.prefix = seed.prefix;
    pe.start = seed.start;
    pe.end = seed.end;
    pe.providers.insert(seed.provider);
    pe.users.insert(seed.user);
    pe.num_peer_events = rng.uniform(16);
    pe.includes_table_dump_start = rng.uniform(2) == 1;
    return pe;
  };
  for (std::size_t i = rng.uniform(4); i > 0; --i) {
    cp.correlated.push_back(random_prefix_event());
  }
  for (std::size_t i = rng.uniform(4); i > 0; --i) {
    cp.grouped.push_back(random_prefix_event());
  }
  return cp;
}

TEST_P(FuzzSeedTest, CheckpointRoundTripsRandomCheckpoints) {
  util::Rng rng(GetParam() ^ 0xC4EC);
  for (int i = 0; i < 300; ++i) {
    recovery::Checkpoint cp = random_checkpoint(rng);
    auto file = recovery::encode_checkpoint_file(cp);
    auto decoded = recovery::decode_checkpoint_file(file);
    ASSERT_TRUE(decoded.has_value()) << "i=" << i;
    EXPECT_TRUE(*decoded == cp) << "i=" << i;
  }
}

TEST_P(FuzzSeedTest, CheckpointDecoderSurvivesRandomInput) {
  util::Rng rng(GetParam() ^ 0xCF02);
  for (int i = 0; i < 3000; ++i) {
    auto bytes = random_bytes(rng, 1024);
    (void)recovery::decode_checkpoint_file(bytes);
  }
}

TEST_P(FuzzSeedTest, CheckpointBitFlipsAlwaysRejected) {
  util::Rng rng(GetParam() ^ 0xB17F);
  util::Rng gen(11);
  auto file = recovery::encode_checkpoint_file(random_checkpoint(gen));
  // The whole-file CRC covers the payload; the framing fields are
  // validated structurally — ANY single-bit flip must reject.
  for (int i = 0; i < 3000; ++i) {
    auto mutated = file;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
    EXPECT_FALSE(recovery::decode_checkpoint_file(mutated).has_value())
        << "i=" << i;
  }
  // Multi-bit scatter: never crashes, never mis-loads as equal-but-
  // different (decode success would require the CRC to collide AND the
  // payload to stay structurally valid; reject is the only outcome we
  // assert, crash-freedom the property we sweep).
  for (int i = 0; i < 2000; ++i) {
    auto mutated = file;
    std::size_t flips = 2 + rng.uniform(6);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    (void)recovery::decode_checkpoint_file(mutated);
  }
}

TEST_P(FuzzSeedTest, CheckpointTruncationSweepNeverLoadsTorn) {
  util::Rng gen(GetParam());
  auto cp = random_checkpoint(gen);
  auto full = recovery::encode_checkpoint_file(cp);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::span<const std::uint8_t> t(full.data(), cut);
    EXPECT_FALSE(recovery::decode_checkpoint_file(t).has_value())
        << "cut=" << cut;
  }
}

TEST_P(FuzzSeedTest, TornNewestCheckpointFileFallsBackToPreviousOnDisk) {
  namespace fs = std::filesystem;
  util::Rng rng(GetParam() ^ 0xFA11);
  std::string dir =
      (fs::temp_directory_path() /
       ("bgpbh_fuzz_ckpt_" + std::to_string(GetParam()))).string();
  fs::remove_all(dir);
  util::Rng gen(5);
  recovery::Checkpoint cp1 = random_checkpoint(gen);
  recovery::Checkpoint cp2 = random_checkpoint(gen);
  cp1.seq = 1;
  cp2.seq = 2;
  ASSERT_TRUE(recovery::write_checkpoint(dir, cp1));
  auto cp2_bytes = recovery::encode_checkpoint_file(cp2);
  fs::path newest = fs::path(dir) / recovery::checkpoint_file_name(2);
  // Sweep torn-write lengths of the newest file (a crash landing mid-
  // write past the rename barrier): the loader must fall back to cp1
  // for every cut, and never return a mangled cp2.
  for (int i = 0; i < 50; ++i) {
    std::size_t cut = rng.uniform(cp2_bytes.size());
    std::ofstream f(newest, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(cp2_bytes.data()),
            static_cast<std::streamsize>(cut));
    f.close();
    auto loaded = recovery::load_latest_checkpoint(dir);
    ASSERT_TRUE(loaded.has_value()) << "cut=" << cut;
    EXPECT_TRUE(loaded->checkpoint == cp1) << "cut=" << cut;
    EXPECT_EQ(loaded->skipped_corrupt, 1u) << "cut=" << cut;
  }
  // The intact file, for contrast, wins.
  {
    std::ofstream f(newest, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(cp2_bytes.data()),
            static_cast<std::streamsize>(cp2_bytes.size()));
  }
  auto loaded = recovery::load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->checkpoint == cp2);
  fs::remove_all(dir);
}

// ---- fleet telemetry codecs (src/telemetry/fleet.h) -------------------
// These ride inside CRC-framed fabric frames, so the decoders validate
// structure only — the sweeps below prove they do it without crashing
// or over-reading on arbitrary input.

std::string random_label(util::Rng& rng, std::size_t max_len) {
  std::string s(1 + rng.uniform(max_len), '\0');
  for (auto& c : s) {
    c = static_cast<char>('a' + rng.uniform(26));
  }
  return s;
}

telemetry::MetricsRegistry::Snapshot random_fleet_snapshot(util::Rng& rng) {
  telemetry::MetricsRegistry::Snapshot snap;
  const std::size_t n = 1 + rng.uniform(8);
  for (std::size_t i = 0; i < n; ++i) {
    telemetry::MetricsRegistry::Metric m;
    m.name = random_label(rng, 24) + "." + std::to_string(i);
    m.kind = static_cast<telemetry::MetricKind>(rng.uniform(3));
    if (rng.uniform(3) != 0) m.help = random_label(rng, 40);
    // Values come from integer draws: bit-exact through the u64
    // encoding and never NaN (NaN would break the == comparisons).
    m.value = static_cast<double>(rng.next_u64() % (1ull << 40));
    for (std::size_t s = rng.uniform(4); s > 0; --s) {
      m.per_shard.emplace_back(rng.uniform(64),
                               static_cast<double>(rng.uniform(1 << 20)));
    }
    if (m.kind == telemetry::MetricKind::kHistogram) {
      m.hist.count = rng.uniform(1 << 16);
      m.hist.sum = rng.next_u64() % (1ull << 40);
      m.hist.min = rng.uniform(1 << 10);
      m.hist.max = m.hist.min + rng.uniform(1 << 10);
      // Decoder contract: strictly increasing uppers, non-decreasing
      // cumulatives (cumulative totals need NOT equal count — live
      // registries fold racy relaxed atomics).
      std::uint64_t upper = 0, cumulative = 0;
      for (std::size_t b = rng.uniform(6); b > 0; --b) {
        upper += 1 + rng.uniform(1 << 12);
        cumulative += rng.uniform(1 << 10);
        m.hist.buckets.emplace_back(upper, cumulative);
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

std::vector<telemetry::FleetSpan> random_fleet_spans(util::Rng& rng) {
  std::vector<telemetry::FleetSpan> spans(rng.uniform(6));
  for (auto& s : spans) {
    s.label = random_label(rng, 32);
    s.shard = static_cast<std::uint32_t>(rng.uniform(64));
    s.duration_ns = rng.next_u64() % (1ull << 40);
    s.seq = rng.next_u64() % (1ull << 30);
    s.trace_id = rng.next_u64();
  }
  return spans;
}

void expect_snapshot_eq(const telemetry::MetricsRegistry::Snapshot& a,
                        const telemetry::MetricsRegistry::Snapshot& b) {
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    const auto& ma = a.metrics[i];
    const auto& mb = b.metrics[i];
    EXPECT_EQ(ma.name, mb.name);
    EXPECT_EQ(ma.kind, mb.kind);
    EXPECT_EQ(ma.help, mb.help);
    EXPECT_EQ(ma.value, mb.value);
    EXPECT_EQ(ma.per_shard, mb.per_shard);
    EXPECT_EQ(ma.hist.count, mb.hist.count);
    EXPECT_EQ(ma.hist.sum, mb.hist.sum);
    EXPECT_EQ(ma.hist.min, mb.hist.min);
    EXPECT_EQ(ma.hist.max, mb.hist.max);
    EXPECT_EQ(ma.hist.buckets, mb.hist.buckets);
  }
}

TEST_P(FuzzSeedTest, FleetSlotTelemetryRoundTripsRandomInstances) {
  util::Rng rng(GetParam() ^ 0xF1EE);
  for (int i = 0; i < 300; ++i) {
    telemetry::SlotTelemetry slot;
    slot.slot = static_cast<std::uint32_t>(rng.uniform(1 << 16));
    slot.metrics = random_fleet_snapshot(rng);
    slot.spans = random_fleet_spans(rng);
    net::BufWriter w;
    telemetry::encode_slot_telemetry(slot, w);
    net::BufReader r(w.data());
    auto decoded = telemetry::decode_slot_telemetry(r);
    ASSERT_TRUE(decoded.has_value()) << "i=" << i;
    EXPECT_TRUE(r.at_end()) << "i=" << i;
    EXPECT_EQ(decoded->slot, slot.slot);
    expect_snapshot_eq(slot.metrics, decoded->metrics);
    EXPECT_EQ(decoded->spans, slot.spans);
  }
}

TEST_P(FuzzSeedTest, FleetCodecsSurviveRandomInput) {
  util::Rng rng(GetParam() ^ 0xF1E7);
  for (int i = 0; i < 3000; ++i) {
    auto bytes = random_bytes(rng, 768);
    {
      net::BufReader r(bytes);
      (void)telemetry::decode_snapshot(r);
    }
    {
      net::BufReader r(bytes);
      (void)telemetry::decode_spans(r);
    }
    {
      net::BufReader r(bytes);
      (void)telemetry::decode_slot_telemetry(r);
    }
  }
}

TEST_P(FuzzSeedTest, MutatedFleetTelemetryNeverCrashes) {
  util::Rng rng(GetParam() ^ 0xF11B);
  util::Rng gen(13);
  telemetry::SlotTelemetry slot;
  slot.slot = 7;
  slot.metrics = random_fleet_snapshot(gen);
  slot.spans = random_fleet_spans(gen);
  net::BufWriter w;
  telemetry::encode_slot_telemetry(slot, w);
  auto original = w.take();

  // The fabric frame's CRC guards integrity; inside the frame the
  // decoder only promises structural sanity.  Whatever a mutation
  // still decodes into must itself re-encode without crashing.
  for (int i = 0; i < 4000; ++i) {
    auto mutated = original;
    std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    net::BufReader r(mutated);
    auto decoded = telemetry::decode_slot_telemetry(r);
    if (decoded) {
      net::BufWriter out;
      telemetry::encode_slot_telemetry(*decoded, out);
    }
  }
}

TEST_P(FuzzSeedTest, TruncationSweepFleetTelemetry) {
  util::Rng gen(GetParam() ^ 0x7F1E);
  telemetry::SlotTelemetry slot;
  slot.slot = 3;
  slot.metrics = random_fleet_snapshot(gen);
  slot.spans = random_fleet_spans(gen);
  net::BufWriter w;
  telemetry::encode_slot_telemetry(slot, w);
  const auto& full = w.data();
  // Counts lead every section, so any strict prefix starves a read
  // and must reject cleanly — never crash, never decode torn.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> t(full.begin(), full.begin() + cut);
    net::BufReader r(t);
    EXPECT_FALSE(telemetry::decode_slot_telemetry(r).has_value())
        << "cut=" << cut;
  }
}

// ---- fabric sub-update codec: the ingest trailer ----------------------

routing::FeedUpdate stamped_sub_update() {
  routing::FeedUpdate fu;
  fu.platform = routing::Platform::kRouteViews;
  fu.update.time = 1488326400;
  fu.update.peer_ip = *net::IpAddr::parse("198.51.100.9");
  fu.update.peer_asn = 1299;
  fu.update.body.announced.push_back(*net::Prefix::parse("130.149.7.0/24"));
  fu.update.body.as_path = bgp::AsPath::of({1299, 64500});
  fu.update.body.next_hop = *net::IpAddr::parse("198.51.100.1");
  fu.update.body.communities.add(bgp::Community(65535, 666));
  fu.ingest_ns = 0x0123456789ABCDEFull;
  return fu;
}

TEST_P(FuzzSeedTest, SubUpdateRoundTripsIngestStamp) {
  routing::FeedUpdate fu = stamped_sub_update();
  net::BufWriter w;
  fabric::encode_sub_update(fu, stream::SubKind::kAnnounce, 0, fu.ingest_ns,
                            w);
  net::BufReader r(w.data());
  auto decoded = fabric::decode_sub_update(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(*decoded == fu);
  EXPECT_EQ(decoded->ingest_ns, fu.ingest_ns);
}

// The sub-update bytes, captured before the body was encoded in place
// behind a patched length: the in-place patch must change no byte.
TEST(SubUpdateWire, EncodingMatchesGoldenBytes) {
  net::BufWriter w;
  const routing::FeedUpdate fu = stamped_sub_update();
  fabric::encode_sub_update(fu, stream::SubKind::kAnnounce, 0, fu.ingest_ns,
                            w);
  std::string hex;
  for (std::uint8_t b : w.data()) {
    hex.push_back("0123456789abcdef"[b >> 4]);
    hex.push_back("0123456789abcdef"[b & 0xF]);
  }
  EXPECT_EQ(hex,
            "010000000058b60f0004c63364090000051300000000000000270000001f"
            "4001010040020a0202000005130000fbf4400304c6336401c00804ffff02"
            "9a188295070123456789abcdef");
}

// Each sub-update of a multi-prefix update, encoded straight from the
// original, decodes to the one-prefix update the split stands for: an
// announcement keeps the route attributes, a withdrawal carries none.
TEST(SubUpdateWire, SplitSubUpdatesDecodeToOnePrefixUpdates) {
  routing::FeedUpdate fu = stamped_sub_update();
  bgp::UpdateBody& body = fu.update.body;
  body.announced.push_back(*net::Prefix::parse("2a00:1::dead:beef/128"));
  body.withdrawn.push_back(*net::Prefix::parse("20.2.0.0/24"));
  body.withdrawn.push_back(*net::Prefix::parse("2a00:2::/32"));
  body.communities.add(bgp::LargeCommunity(64500, 666, 0));
  const std::uint64_t stamp = 42;
  net::BufWriter w;
  std::size_t subs = 0;
  stream::for_each_sub_update(
      fu, 1, [&](std::size_t, stream::SubKind kind, std::uint32_t index) {
        routing::FeedUpdate want = fu;
        want.ingest_ns = stamp;
        if (kind == stream::SubKind::kWithdraw) {
          want.update.body = bgp::UpdateBody{};
          want.update.body.withdrawn = {body.withdrawn[index]};
        } else {
          want.update.body.withdrawn.clear();
          want.update.body.announced = {body.announced[index]};
        }
        w.clear();
        fabric::encode_sub_update(fu, kind, index, stamp, w);
        net::BufReader r(w.data());
        auto got = fabric::decode_sub_update(r);
        ASSERT_TRUE(got.has_value()) << "sub " << subs;
        EXPECT_TRUE(r.at_end());
        EXPECT_TRUE(*got == want) << "sub " << subs;
        EXPECT_EQ(got->ingest_ns, stamp);
        ++subs;
      });
  EXPECT_EQ(subs, 4u);
}

TEST_P(FuzzSeedTest, SubUpdateDecoderSurvivesRandomInput) {
  util::Rng rng(GetParam() ^ 0x5B02);
  for (int i = 0; i < 3000; ++i) {
    auto bytes = random_bytes(rng, 512);
    net::BufReader r(bytes);
    (void)fabric::decode_sub_update(r);
  }
}

TEST_P(FuzzSeedTest, TruncationSweepSubUpdateV2) {
  routing::FeedUpdate fu = stamped_sub_update();
  net::BufWriter w;
  fabric::encode_sub_update(fu, stream::SubKind::kAnnounce, 0, fu.ingest_ns,
                            w);
  const auto& full = w.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> t(full.begin(), full.begin() + cut);
    net::BufReader r(t);
    auto decoded = fabric::decode_sub_update(r);
    // A shorter input may still parse as a degenerate sub-update, but
    // never as the original (the trailer alone guarantees that for the
    // last 8 cuts).
    if (decoded) {
      EXPECT_FALSE(*decoded == fu && decoded->ingest_ns == fu.ingest_ns)
          << "cut=" << cut;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace bgpbh
