#include "bgp/update.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fabric/protocol.h"
#include "util/rng.h"

namespace bgpbh::bgp {
namespace {

net::Prefix P(const char* s) { return *net::Prefix::parse(s); }

UpdateBody sample_body() {
  UpdateBody body;
  body.announced.push_back(P("130.149.1.1/32"));
  body.announced.push_back(P("20.1.0.0/16"));
  body.withdrawn.push_back(P("20.2.0.0/24"));
  body.as_path = AsPath::of({3356, 64500});
  body.next_hop = *net::IpAddr::parse("198.51.100.1");
  body.communities.add(Community(65535, 666));
  body.communities.add(Community(3356, 9999));
  body.origin = Origin::kIgp;
  return body;
}

TEST(UpdateCodec, RoundTripBody) {
  UpdateBody body = sample_body();
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, body);
}

TEST(UpdateCodec, RoundTripMessage) {
  UpdateBody body = sample_body();
  net::BufWriter w;
  encode_update_message(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_message(r);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, body);
}

TEST(UpdateCodec, WithdrawalOnly) {
  UpdateBody body;
  body.withdrawn.push_back(P("130.149.1.1/32"));
  EXPECT_TRUE(body.is_withdrawal_only());
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->is_withdrawal_only());
  EXPECT_EQ(decoded->withdrawn, body.withdrawn);
}

TEST(UpdateCodec, LargeCommunities) {
  UpdateBody body;
  body.announced.push_back(P("20.0.0.1/32"));
  body.as_path = AsPath::of({64500});
  body.communities.add(LargeCommunity(64500, 666, 0));
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(decoded->communities.contains(LargeCommunity(64500, 666, 0)));
}

TEST(UpdateCodec, Ipv6ViaMpReach) {
  UpdateBody body;
  body.announced.push_back(P("2a00:1::dead:beef/128"));
  body.as_path = AsPath::of({64500});
  body.next_hop = *net::IpAddr::parse("2001:7f8::66");
  body.communities.add(Community(65535, 666));
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, body);
}

TEST(UpdateCodec, Ipv6Withdrawal) {
  UpdateBody body;
  body.withdrawn.push_back(P("2a00:1::/32"));
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->withdrawn.size(), 1u);
  EXPECT_EQ(decoded->withdrawn[0], body.withdrawn[0]);
}

TEST(UpdateCodec, MixedFamilies) {
  UpdateBody body;
  body.announced.push_back(P("20.0.0.1/32"));
  body.announced.push_back(P("2a00:1::1/128"));
  body.as_path = AsPath::of({100, 200});
  body.next_hop = *net::IpAddr::parse("20.0.0.254");
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded);
  // Both families present; order may interleave (v4 NLRI after attrs).
  ASSERT_EQ(decoded->announced.size(), 2u);
}

TEST(UpdateCodec, TruncatedInputFails) {
  UpdateBody body = sample_body();
  net::BufWriter w;
  encode_update_body(body, w);
  for (std::size_t cut : {1ul, 5ul, 10ul, w.size() - 1}) {
    std::vector<std::uint8_t> truncated(w.data().begin(),
                                        w.data().begin() + cut);
    net::BufReader r(truncated);
    EXPECT_FALSE(decode_update_body(r)) << "cut=" << cut;
  }
}

TEST(UpdateCodec, BadMarkerRejected) {
  UpdateBody body = sample_body();
  net::BufWriter w;
  encode_update_message(body, w);
  auto bytes = w.take();
  bytes[0] = 0x00;
  net::BufReader r(bytes);
  EXPECT_FALSE(decode_update_message(r));
}

TEST(UpdateCodec, PrefixLenOver32Rejected) {
  // Hand-craft: withdrawn len 0, attrs len 0, NLRI with len byte 40.
  net::BufWriter w;
  w.u16(0);
  w.u16(0);
  w.u8(40);
  w.u32(0x01020304);
  net::BufReader r(w.data());
  EXPECT_FALSE(decode_update_body(r));
}

// ---- golden bytes -----------------------------------------------------
// encode_update_message output pinned byte for byte.  The bytes were
// captured from the encoder that built each section in a scratch writer;
// the encoder now writes every attribute in place behind a length it
// knows up front, and these catch a length, flag or ordering change
// that a round trip through the matching decoder would not.

std::string message_hex(const UpdateBody& body) {
  net::BufWriter w;
  encode_update_message(body, w);
  std::string hex;
  for (std::uint8_t b : w.data()) {
    hex.push_back("0123456789abcdef"[b >> 4]);
    hex.push_back("0123456789abcdef"[b & 0xF]);
  }
  return hex;
}

TEST(UpdateCodecGolden, Ipv6AnnouncementAndWithdrawal) {
  UpdateBody body;
  body.announced.push_back(P("2a00:1::dead:beef/128"));
  body.announced.push_back(P("2001:db8:1::/48"));
  body.withdrawn.push_back(P("2a00:2::/32"));
  body.as_path = AsPath::of({64500, 3356});
  body.next_hop = *net::IpAddr::parse("2001:7f8::66");
  EXPECT_EQ(message_hex(body),
            "ffffffffffffffffffffffffffffffff0063020000004c4001010040020a"
            "02020000fbf400000d1c800e2d00020110200107f8000000000000000000"
            "00006600802a0000010000000000000000deadbeef3020010db80001800f"
            "08000201202a000002");
}

TEST(UpdateCodecGolden, ClassicAndLargeCommunities) {
  UpdateBody body;
  body.announced.push_back(P("20.0.0.1/32"));
  body.as_path = AsPath::of({64500});
  body.next_hop = *net::IpAddr::parse("20.0.0.254");
  body.origin = Origin::kIncomplete;
  body.communities.add(Community(65535, 666));
  body.communities.add(Community(3356, 9999));
  body.communities.add(LargeCommunity(64500, 666, 0));
  body.communities.add(LargeCommunity(64500, 667, 1));
  EXPECT_EQ(message_hex(body),
            "ffffffffffffffffffffffffffffffff0056020000003a40010102400206"
            "02010000fbf4400304140000fec008080d1c270fffff029ac020180000fb"
            "f40000029a000000000000fbf40000029b000000012014000001");
}

TEST(UpdateCodecGolden, LongAsPathTakesExtendedLength) {
  std::vector<Asn> hops;
  for (Asn a = 1; a <= 64; ++a) hops.push_back(64500 + a);
  UpdateBody body;
  body.announced.push_back(P("130.149.7.0/24"));
  body.as_path = AsPath(std::move(hops));  // 2 + 4 * 64 = 258 bytes
  body.next_hop = *net::IpAddr::parse("198.51.100.1");
  EXPECT_EQ(message_hex(body),
            "ffffffffffffffffffffffffffffffff012c020000011140010100500201"
            "0202400000fbf50000fbf60000fbf70000fbf80000fbf90000fbfa0000fb"
            "fb0000fbfc0000fbfd0000fbfe0000fbff0000fc000000fc010000fc0200"
            "00fc030000fc040000fc050000fc060000fc070000fc080000fc090000fc"
            "0a0000fc0b0000fc0c0000fc0d0000fc0e0000fc0f0000fc100000fc1100"
            "00fc120000fc130000fc140000fc150000fc160000fc170000fc180000fc"
            "190000fc1a0000fc1b0000fc1c0000fc1d0000fc1e0000fc1f0000fc2000"
            "00fc210000fc220000fc230000fc240000fc250000fc260000fc270000fc"
            "280000fc290000fc2a0000fc2b0000fc2c0000fc2d0000fc2e0000fc2f00"
            "00fc300000fc310000fc320000fc330000fc34400304c633640118829507");
}

TEST(UpdateCodecGolden, WithdrawalOnlyCarriesCommunities) {
  UpdateBody body;
  body.withdrawn.push_back(P("20.2.0.0/24"));
  body.withdrawn.push_back(P("2a00:3::/48"));
  body.communities.add(Community(65535, 666));
  body.communities.add(LargeCommunity(64500, 666, 0));
  EXPECT_EQ(message_hex(body),
            "ffffffffffffffffffffffffffffffff003e020004181402000023c00804"
            "ffff029ac0200c0000fbf40000029a00000000800f0a000201302a000003"
            "0000");
}

// ---- AS paths longer than one segment ----------------------------------
// An AS_SEQUENCE's hop count is one byte, so a longer path spans
// several segments; the decoder joins them back into one path.

AsPath path_of(std::size_t hops) {
  std::vector<Asn> asns;
  for (std::size_t i = 0; i < hops; ++i) {
    asns.push_back(static_cast<Asn>(64500 + i));
  }
  return AsPath(std::move(asns));
}

class LongAsPath : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LongAsPath, RoundTripsThroughTheBodyCodec) {
  UpdateBody body = sample_body();
  body.as_path = path_of(GetParam());
  net::BufWriter w;
  encode_update_body(body, w);
  net::BufReader r(w.data());
  auto decoded = decode_update_body(r);
  ASSERT_TRUE(decoded) << GetParam() << " hops";
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(decoded->as_path.hops(), body.as_path.hops());
  EXPECT_EQ(*decoded, body);
}

INSTANTIATE_TEST_SUITE_P(Hops, LongAsPath, ::testing::Values(255, 256, 300));

TEST(LongAsPath, RoundTripsAsAFabricSubUpdate) {
  routing::FeedUpdate fu;
  fu.platform = routing::Platform::kRis;
  fu.update.time = 1488326400;
  fu.update.peer_ip = *net::IpAddr::parse("198.51.100.9");
  fu.update.peer_asn = 64500;
  fu.update.body.announced.push_back(P("130.149.7.0/24"));
  fu.update.body.as_path = path_of(300);
  fu.update.body.next_hop = *net::IpAddr::parse("198.51.100.1");
  fu.update.body.communities.add(Community(65535, 666));
  fu.ingest_ns = 42;
  net::BufWriter w;
  fabric::encode_sub_update(fu, stream::SubKind::kAnnounce, 0, fu.ingest_ns,
                            w);
  net::BufReader r(w.data());
  auto decoded = fabric::decode_sub_update(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(decoded->update.body.as_path.length(), 300u);
  EXPECT_TRUE(*decoded == fu);
}

// Property: random bodies survive the codec byte-exactly.
class UpdateCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpdateCodecProperty, RandomRoundTrip) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    UpdateBody body;
    std::size_t n_ann = rng.uniform(4);
    for (std::size_t i = 0; i < n_ann; ++i) {
      std::uint32_t addr = static_cast<std::uint32_t>(rng.next_u64());
      std::uint8_t len = static_cast<std::uint8_t>(rng.uniform(33));
      body.announced.emplace_back(net::IpAddr(net::Ipv4Addr(addr)), len);
    }
    std::size_t n_wd = rng.uniform(3);
    for (std::size_t i = 0; i < n_wd; ++i) {
      std::uint32_t addr = static_cast<std::uint32_t>(rng.next_u64());
      body.withdrawn.emplace_back(net::IpAddr(net::Ipv4Addr(addr)),
                                  static_cast<std::uint8_t>(rng.uniform(33)));
    }
    if (!body.announced.empty()) {
      std::vector<Asn> hops;
      std::size_t n_hops = 1 + rng.uniform(6);
      for (std::size_t i = 0; i < n_hops; ++i) {
        hops.push_back(static_cast<Asn>(1 + rng.uniform(1 << 20)));
      }
      body.as_path = AsPath(std::move(hops));
      body.next_hop =
          net::IpAddr(net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())));
      body.origin = static_cast<Origin>(rng.uniform(3));
    }
    std::size_t n_comm = rng.uniform(5);
    for (std::size_t i = 0; i < n_comm; ++i) {
      body.communities.add(Community(static_cast<std::uint32_t>(rng.next_u64())));
    }
    if (rng.bernoulli(0.3)) {
      body.communities.add(LargeCommunity(
          static_cast<std::uint32_t>(rng.next_u64()),
          static_cast<std::uint32_t>(rng.next_u64()),
          static_cast<std::uint32_t>(rng.next_u64())));
    }

    net::BufWriter w;
    encode_update_body(body, w);
    net::BufReader r(w.data());
    auto decoded = decode_update_body(r);
    ASSERT_TRUE(decoded);
    // Announced prefixes may reorder across v4/v6 attribute boundaries,
    // but here everything is v4, so exact equality must hold.
    EXPECT_EQ(*decoded, body);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateCodecProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace bgpbh::bgp
