// Unit tests for the inference engine against a hand-built miniature
// topology: user AS 400 -> providers AS 200 (comm 200:666) and AS 300
// (comm 300:666); AS 0:666 shared by 201+202; one IXP (id 0, RS 59000,
// LAN 185.1.0.0/24, community 65535:666).
#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "topology/generator.h"

namespace bgpbh::core {
namespace {

using bgp::Community;
using bgp::CommunitySet;

struct MiniWorld {
  topology::AsGraph graph;
  topology::Registry registry;
  dictionary::BlackholeDictionary dict;

  MiniWorld() : registry(build_registry()) {
    dict.add_provider(Community(200, 666), 200, dictionary::DictSource::kIrr);
    dict.add_provider(Community(300, 666), 300, dictionary::DictSource::kIrr);
    dict.add_provider(Community(0, 666), 201, dictionary::DictSource::kIrr);
    dict.add_provider(Community(0, 666), 202, dictionary::DictSource::kIrr);
    dict.add_ixp(Community::rfc7999_blackhole(), 0, dictionary::DictSource::kWebPage);
    dict.add_large(bgp::LargeCommunity(200, 666, 0), 200,
                   dictionary::DictSource::kIrr);
  }

  topology::Registry build_registry() {
    for (bgp::Asn asn : {200u, 201u, 202u, 300u, 400u, 500u}) {
      auto& node = graph.add_as(asn);
      node.type = topology::NetworkType::kTransitAccess;
      node.country = "DE";
      node.v4_block = *net::Prefix::parse("20.0.0.0/16");
      node.originated_v4.push_back(node.v4_block);
    }
    auto& ixp = graph.add_ixp(0);
    ixp.name = "TEST-IX";
    ixp.country = "DE";
    ixp.route_server_asn = 59000;
    ixp.peering_lan = *net::Prefix::parse("185.1.0.0/24");
    ixp.blackhole_ip_v4 = *net::IpAddr::parse("185.1.0.66");
    ixp.offers_blackholing = true;
    ixp.blackhole_community = Community::rfc7999_blackhole();
    ixp.members = {400, 500};
    graph.finalize();
    return topology::Registry::build(graph, 1.0, 1.0, 1);
  }
};

MiniWorld& world() {
  static MiniWorld w;
  return w;
}

bgp::ObservedUpdate announce(const char* prefix, const char* peer_ip,
                             bgp::Asn peer_asn,
                             std::initializer_list<bgp::Asn> path,
                             std::initializer_list<Community> comms,
                             util::SimTime t = 100) {
  bgp::ObservedUpdate u;
  u.time = t;
  u.peer_ip = *net::IpAddr::parse(peer_ip);
  u.peer_asn = peer_asn;
  u.body.announced.push_back(*net::Prefix::parse(prefix));
  u.body.as_path = bgp::AsPath(std::vector<bgp::Asn>(path));
  for (auto c : comms) u.body.communities.add(c);
  return u;
}

bgp::ObservedUpdate withdraw(const char* prefix, const char* peer_ip,
                             bgp::Asn peer_asn, util::SimTime t) {
  bgp::ObservedUpdate u;
  u.time = t;
  u.peer_ip = *net::IpAddr::parse(peer_ip);
  u.peer_asn = peer_asn;
  u.body.withdrawn.push_back(*net::Prefix::parse(prefix));
  return u;
}

using P = routing::Platform;

TEST(Engine, ProviderOnPathDetection) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 200, 160));
  ASSERT_EQ(engine.events().size(), 1u);
  const PeerEvent& e = engine.events()[0];
  EXPECT_FALSE(e.provider.is_ixp);
  EXPECT_EQ(e.provider.asn, 200u);
  EXPECT_EQ(e.user, 400u);
  EXPECT_EQ(e.kind, DetectionKind::kProviderOnPath);
  EXPECT_EQ(e.as_distance, 1);  // collector peers directly with provider
  EXPECT_EQ(e.start, 100);
  EXPECT_EQ(e.end, 160);
  EXPECT_TRUE(e.explicit_withdrawal);
}

TEST(Engine, DistanceCountsPathPosition) {
  InferenceEngine engine(world().dict, world().registry);
  // Collector peer 500, then 200 (the provider), then user 400.
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.2", 500,
                                   {500, 200, 400}, {Community(200, 666)}, 100));
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.2", 500, 150));
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_EQ(engine.events()[0].as_distance, 2);
  EXPECT_EQ(engine.events()[0].user, 400u);
}

TEST(Engine, PrependingRemovedBeforeUserInference) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis,
                 announce("20.0.1.1/32", "198.51.100.1", 200,
                          {200, 200, 200, 400, 400}, {Community(200, 666)}, 100));
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 200, 150));
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_EQ(engine.events()[0].user, 400u);
  EXPECT_EQ(engine.events()[0].as_distance, 1);
}

TEST(Engine, BundledDetectionOffPath) {
  InferenceEngine engine(world().dict, world().registry);
  // Peer 500 exports the user's announcement carrying 300:666 although
  // AS 300 is nowhere on the path (Fig 3).
  engine.process(P::kCdn, announce("20.0.1.1/32", "198.51.100.3", 500,
                                   {500, 400}, {Community(300, 666)}, 100));
  engine.process(P::kCdn, withdraw("20.0.1.1/32", "198.51.100.3", 500, 150));
  ASSERT_EQ(engine.events().size(), 1u);
  const PeerEvent& e = engine.events()[0];
  EXPECT_EQ(e.provider.asn, 300u);
  EXPECT_EQ(e.kind, DetectionKind::kBundled);
  EXPECT_EQ(e.as_distance, kNoPathDistance);
  EXPECT_EQ(e.user, 400u);  // origin of the announcement
}

TEST(Engine, BundledDetectionDisabledByAblation) {
  EngineConfig config;
  config.detect_bundled = false;
  InferenceEngine engine(world().dict, world().registry, config);
  engine.process(P::kCdn, announce("20.0.1.1/32", "198.51.100.3", 500,
                                   {500, 400}, {Community(300, 666)}, 100));
  engine.finish(200);
  EXPECT_TRUE(engine.events().empty());
}

TEST(Engine, AmbiguousCommunityRequiresPathEvidence) {
  InferenceEngine engine(world().dict, world().registry);
  // 0:666 is shared by 201 and 202; neither on path => rejected.
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 500,
                                   {500, 400}, {Community(0, 666)}, 100));
  engine.finish(200);
  EXPECT_TRUE(engine.events().empty());
  EXPECT_EQ(engine.stats().ambiguous_rejected, 1u);
}

TEST(Engine, AmbiguousCommunityAcceptedWithPathEvidence) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 201,
                                   {201, 400}, {Community(0, 666)}, 100));
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 201, 150));
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_EQ(engine.events()[0].provider.asn, 201u);
  EXPECT_EQ(engine.events()[0].user, 400u);
}

TEST(Engine, AmbiguousAblationAcceptsBlindly) {
  EngineConfig config;
  config.require_path_evidence_for_ambiguous = false;
  InferenceEngine engine(world().dict, world().registry, config);
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 500,
                                   {500, 400}, {Community(0, 666)}, 100));
  engine.finish(200);
  // Without the evidence check both candidate providers are credited —
  // the false-positive mode the paper's check prevents.
  EXPECT_EQ(engine.events().size(), 2u);
}

TEST(Engine, IxpRouteServerAsnOnPath) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kPch, announce("20.0.1.1/32", "198.51.100.9", 500,
                                   {500, 59000, 400},
                                   {Community::rfc7999_blackhole()}, 100));
  engine.process(P::kPch, withdraw("20.0.1.1/32", "198.51.100.9", 500, 150));
  ASSERT_EQ(engine.events().size(), 1u);
  const PeerEvent& e = engine.events()[0];
  EXPECT_TRUE(e.provider.is_ixp);
  EXPECT_EQ(e.provider.ixp_id, 0u);
  EXPECT_EQ(e.kind, DetectionKind::kIxpRouteServer);
  EXPECT_EQ(e.user, 400u);  // hop behind the RS
}

TEST(Engine, IxpPeerIpInLan) {
  InferenceEngine engine(world().dict, world().registry);
  // Peer IP inside 185.1.0.0/24; transparent RS => path has no RS ASN.
  engine.process(P::kPch, announce("20.0.1.1/32", "185.1.0.23", 400, {400},
                                   {Community::rfc7999_blackhole()}, 100));
  engine.process(P::kPch, withdraw("20.0.1.1/32", "185.1.0.23", 400, 150));
  ASSERT_EQ(engine.events().size(), 1u);
  const PeerEvent& e = engine.events()[0];
  EXPECT_TRUE(e.provider.is_ixp);
  EXPECT_EQ(e.kind, DetectionKind::kIxpPeerIp);
  EXPECT_EQ(e.as_distance, 0);
  EXPECT_EQ(e.user, 400u);  // the peer-as attribute
}

TEST(Engine, IxpCommunityWithoutEvidenceRejected) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kCdn, announce("20.0.1.1/32", "198.51.100.4", 500,
                                   {500, 400},
                                   {Community::rfc7999_blackhole()}, 100));
  engine.finish(200);
  EXPECT_TRUE(engine.events().empty());
  EXPECT_EQ(engine.stats().ixp_rejected, 1u);
}

TEST(Engine, LargeCommunityDetection) {
  InferenceEngine engine(world().dict, world().registry);
  bgp::ObservedUpdate u = announce("20.0.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {}, 100);
  u.body.communities.add(bgp::LargeCommunity(200, 666, 0));
  engine.process(P::kRis, u);
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 200, 150));
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_EQ(engine.events()[0].provider.asn, 200u);
}

TEST(Engine, ImplicitWithdrawal) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  // Re-announcement of the same prefix WITHOUT blackhole communities.
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 120)}, 170));
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_FALSE(engine.events()[0].explicit_withdrawal);
  EXPECT_EQ(engine.events()[0].end, 170);
  EXPECT_EQ(engine.stats().events_closed_implicit, 1u);
}

TEST(Engine, PerPeerStateIsolation) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  engine.process(P::kRouteViews, announce("20.0.1.1/32", "198.51.100.2", 300,
                                  {300, 400}, {Community(300, 666)}, 101));
  // Withdraw at only one peer.
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 200, 150));
  EXPECT_EQ(engine.events().size(), 1u);
  EXPECT_EQ(engine.open_event_count(), 1u);
  engine.finish(300);
  EXPECT_EQ(engine.events().size(), 2u);
}

// The bgp::PeerKey uses both IP and ASN; same ASN different IP is a
// different peer (multi-session peers at different collectors).
TEST(Engine, PeerKeyIncludesIp) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.9", 200, 150));
  engine.finish(400);
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_EQ(engine.events()[0].end, 400);  // only finish() closed it
}

TEST(Engine, RepeatedAnnouncementKeepsStart) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  engine.process(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 130));
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 200, 160));
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_EQ(engine.events()[0].start, 100);
  EXPECT_EQ(engine.stats().events_opened, 1u);
}

TEST(Engine, MultiProviderBundleOneStateTwoEvents) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis,
                 announce("20.0.1.1/32", "198.51.100.1", 200, {200, 400},
                          {Community(200, 666), Community(300, 666)}, 100));
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 200, 150));
  ASSERT_EQ(engine.events().size(), 2u);
  std::set<bgp::Asn> providers;
  for (const auto& e : engine.events()) providers.insert(e.provider.asn);
  EXPECT_EQ(providers, (std::set<bgp::Asn>{200, 300}));
  // One on-path (200), one bundled (300).
}

TEST(Engine, TableDumpInitializationStartsAtZero) {
  InferenceEngine engine(world().dict, world().registry);
  bgp::mrt::TableDump dump;
  dump.time = 5000;
  dump.collector_name = "rrc00";
  bgp::mrt::TableDump::Entry entry;
  entry.peer.peer_ip = *net::IpAddr::parse("198.51.100.1");
  entry.peer.peer_asn = 200;
  entry.prefix = *net::Prefix::parse("20.0.1.1/32");
  entry.as_path = bgp::AsPath::of({200, 400});
  entry.communities.add(Community(200, 666));
  dump.entries.push_back(entry);
  engine.init_from_table_dump(P::kRis, dump);
  EXPECT_EQ(engine.open_event_count(), 1u);
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 200, 6000));
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_EQ(engine.events()[0].start, 0);  // unknown start => zero (§4.2)
  EXPECT_TRUE(engine.events()[0].started_in_table_dump);
}

TEST(Engine, BogonAnnouncementsFiltered) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("10.1.2.3/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  engine.process(P::kRis, announce("192.168.1.1/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  // Less specific than /8.
  engine.process(P::kRis, announce("32.0.0.0/6", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  engine.finish(200);
  EXPECT_TRUE(engine.events().empty());
  EXPECT_EQ(engine.stats().bogons_filtered, 3u);
}

TEST(Engine, CleaningDisabledAblation) {
  EngineConfig config;
  config.clean_input = false;
  InferenceEngine engine(world().dict, world().registry, config);
  engine.process(P::kRis, announce("10.1.2.3/32", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  engine.finish(200);
  EXPECT_EQ(engine.events().size(), 1u);
}

TEST(Engine, NonBlackholeAnnouncementNoEvent) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("20.0.0.0/16", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 120)}, 100));
  engine.finish(200);
  EXPECT_TRUE(engine.events().empty());
  EXPECT_EQ(engine.stats().announcements_seen, 1u);
}

TEST(Engine, WithdrawWithoutStateIsNoop) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, withdraw("20.0.1.1/32", "198.51.100.1", 200, 100));
  EXPECT_TRUE(engine.events().empty());
  EXPECT_EQ(engine.stats().withdrawals_seen, 1u);
}

TEST(Engine, Ipv6BlackholeDetection) {
  InferenceEngine engine(world().dict, world().registry);
  engine.process(P::kRis, announce("2a00:1::1/128", "198.51.100.1", 200,
                                   {200, 400}, {Community(200, 666)}, 100));
  engine.process(P::kRis, withdraw("2a00:1::1/128", "198.51.100.1", 200, 150));
  ASSERT_EQ(engine.events().size(), 1u);
  EXPECT_FALSE(engine.events()[0].prefix.is_v4());
}

TEST(BgpCleanerTest, KnownBogons) {
  BgpCleaner cleaner;
  EXPECT_TRUE(cleaner.is_bogus(*net::Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(cleaner.is_bogus(*net::Prefix::parse("192.168.5.0/24")));
  EXPECT_TRUE(cleaner.is_bogus(*net::Prefix::parse("224.1.2.3/32")));
  EXPECT_TRUE(cleaner.is_bogus(*net::Prefix::parse("fe80::/64")));
  EXPECT_TRUE(cleaner.is_bogus(*net::Prefix::parse("0.0.0.0/0")));   // < /8
  EXPECT_TRUE(cleaner.is_bogus(*net::Prefix::parse("16.0.0.0/6")));  // < /8
  EXPECT_FALSE(cleaner.is_bogus(*net::Prefix::parse("20.0.0.0/16")));
  EXPECT_FALSE(cleaner.is_bogus(*net::Prefix::parse("130.149.1.1/32")));
  EXPECT_FALSE(cleaner.is_bogus(*net::Prefix::parse("2a00:1::/32")));
}

// A 16-update workload covering every detection kind, ablation,
// rejection path and close mode, plus three cases no other engine test
// reaches: a prefilter false positive (999:666 shares the value half
// of a blackhole community), an unknown large community, and the
// single-community shortcut that skips the per-community bitset probe.
// The expected stats and (prefix, provider, kind, user, as_distance,
// explicit_withdrawal) tuples were produced by running it through the
// engine's former std::map dictionary path, once per ablation
// combination; the engine reads only the compiled dictionary, which
// must reproduce them exactly.
TEST(Engine, DetectionWorkloadMatchesPinnedResults) {
  using EventTuple =
      std::tuple<std::string, std::string, DetectionKind, bgp::Asn, int, bool>;
  struct Case {
    bool detect_bundled;
    bool require_evidence;
    // updates, announcements, withdrawals, bogons, opened,
    // closed_explicit, closed_implicit, ambiguous_rejected, ixp_rejected
    EngineStats stats;
    std::vector<EventTuple> events;
  };
  using K = DetectionKind;
  constexpr int kNone = kNoPathDistance;
  const std::vector<Case> cases = {
      {true, true, {16, 15, 1, 1, 7, 1, 6, 1, 1},
       {{"20.0.1.1/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.2/32", "AS300", K::kBundled, 400, kNone, true},
        {"20.0.1.4/32", "AS201", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.5/32", "IXP#0", K::kIxpRouteServer, 400, 1, false},
        {"20.0.1.6/32", "IXP#0", K::kIxpPeerIp, 400, 0, false},
        {"20.0.1.8/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.10/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.10/32", "AS300", K::kBundled, 400, kNone, false}}},
      {true, false, {16, 15, 1, 1, 8, 1, 7, 0, 1},
       {{"20.0.1.1/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.2/32", "AS300", K::kBundled, 400, kNone, true},
        {"20.0.1.3/32", "AS201", K::kBundled, 400, kNone, false},
        {"20.0.1.3/32", "AS202", K::kBundled, 400, kNone, false},
        {"20.0.1.4/32", "AS201", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.4/32", "AS202", K::kBundled, 400, kNone, false},
        {"20.0.1.5/32", "IXP#0", K::kIxpRouteServer, 400, 1, false},
        {"20.0.1.6/32", "IXP#0", K::kIxpPeerIp, 400, 0, false},
        {"20.0.1.8/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.10/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.10/32", "AS300", K::kBundled, 400, kNone, false}}},
      {false, true, {16, 15, 1, 1, 6, 0, 6, 1, 1},
       {{"20.0.1.1/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.4/32", "AS201", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.5/32", "IXP#0", K::kIxpRouteServer, 400, 1, false},
        {"20.0.1.6/32", "IXP#0", K::kIxpPeerIp, 400, 0, false},
        {"20.0.1.8/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.10/32", "AS200", K::kProviderOnPath, 400, 1, false}}},
      {false, false, {16, 15, 1, 1, 6, 0, 6, 0, 1},
       {{"20.0.1.1/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.4/32", "AS201", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.5/32", "IXP#0", K::kIxpRouteServer, 400, 1, false},
        {"20.0.1.6/32", "IXP#0", K::kIxpPeerIp, 400, 0, false},
        {"20.0.1.8/32", "AS200", K::kProviderOnPath, 400, 1, false},
        {"20.0.1.10/32", "AS200", K::kProviderOnPath, 400, 1, false}}},
  };

  std::size_t next_case = 0;
  for (bool detect_bundled : {true, false}) {
    for (bool require_evidence : {true, false}) {
      const Case& want = cases[next_case++];
      ASSERT_EQ(want.detect_bundled, detect_bundled);
      ASSERT_EQ(want.require_evidence, require_evidence);
      SCOPED_TRACE(::testing::Message() << "detect_bundled=" << detect_bundled
                                        << " require_evidence="
                                        << require_evidence);
      EngineConfig config;
      config.detect_bundled = detect_bundled;
      config.require_path_evidence_for_ambiguous = require_evidence;
      InferenceEngine engine(world().dict, world().registry, config);

      std::vector<std::pair<routing::Platform, bgp::ObservedUpdate>> workload;
      auto add = [&](routing::Platform p, bgp::ObservedUpdate u) {
        workload.emplace_back(p, std::move(u));
      };
      // Provider on path, with prepending.
      add(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200,
                            {200, 200, 400, 400}, {Community(200, 666)}, 100));
      // Bundled (provider 300 not on path).
      add(P::kCdn, announce("20.0.1.2/32", "198.51.100.3", 500, {500, 400},
                            {Community(300, 666)}, 101));
      // Ambiguous without path evidence (rejected unless ablated).
      add(P::kRis, announce("20.0.1.3/32", "198.51.100.1", 500, {500, 400},
                            {Community(0, 666)}, 102));
      // Ambiguous with path evidence.
      add(P::kRis, announce("20.0.1.4/32", "198.51.100.1", 201, {201, 400},
                            {Community(0, 666)}, 103));
      // IXP route-server ASN on path.
      add(P::kPch, announce("20.0.1.5/32", "198.51.100.9", 500,
                            {500, 59000, 400},
                            {Community::rfc7999_blackhole()}, 104));
      // IXP peer-ip in LAN (transparent RS).
      add(P::kPch, announce("20.0.1.6/32", "185.1.0.23", 400, {400},
                            {Community::rfc7999_blackhole()}, 105));
      // IXP community without evidence (ixp_rejected).
      add(P::kCdn, announce("20.0.1.7/32", "198.51.100.4", 500, {500, 400},
                            {Community::rfc7999_blackhole()}, 106));
      // Large community.
      {
        auto u = announce("20.0.1.8/32", "198.51.100.1", 200, {200, 400}, {},
                          107);
        u.body.communities.add(bgp::LargeCommunity(200, 666, 0));
        add(P::kRis, u);
      }
      // Unknown large community (negative).
      {
        auto u = announce("20.0.1.9/32", "198.51.100.1", 200, {200, 400}, {},
                          108);
        u.body.communities.add(bgp::LargeCommunity(999, 1, 2));
        add(P::kRis, u);
      }
      // Tag-less noise: service community sharing the 666 value half
      // (prefilter false positive), plain service community, and no
      // communities at all.
      add(P::kRis, announce("20.0.2.1/32", "198.51.100.1", 200, {200, 400},
                            {Community(999, 666)}, 109));
      add(P::kRis, announce("20.0.2.2/32", "198.51.100.1", 200, {200, 400},
                            {Community(200, 120)}, 110));
      add(P::kRis, announce("20.0.2.3/32", "198.51.100.1", 200, {200, 400}, {},
                            111));
      // Bogon (filtered).
      add(P::kRis, announce("10.1.2.3/32", "198.51.100.1", 200, {200, 400},
                            {Community(200, 666)}, 112));
      // Implicit withdrawal (tag-less re-announcement) + explicit one.
      add(P::kRis, announce("20.0.1.1/32", "198.51.100.1", 200, {200, 400},
                            {Community(200, 120)}, 120));
      add(P::kCdn, withdraw("20.0.1.2/32", "198.51.100.3", 500, 121));
      // Multi-provider bundle.
      add(P::kRis, announce("20.0.1.10/32", "198.51.100.1", 200, {200, 400},
                            {Community(200, 666), Community(300, 666)}, 122));

      for (const auto& [p, u] : workload) engine.process(p, u);
      engine.finish(1000);
      EXPECT_EQ(engine.stats(), want.stats);
      std::vector<EventTuple> got;
      for (const PeerEvent& e : engine.events()) {
        got.emplace_back(e.prefix.to_string(), e.provider.to_string(), e.kind,
                         e.user, e.as_distance, e.explicit_withdrawal);
      }
      std::vector<EventTuple> expected = want.events;
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(got, expected);
    }
  }
}

// The zero-copy UpdateView entry point must produce byte-identical
// events and stats to the owning ObservedUpdate overload when fed the
// same stream split into single-prefix sub-updates (withdrawals
// first) — the contract the streaming data plane relies on.
TEST(Engine, ViewPathMatchesOwningPath) {
  InferenceEngine owning(world().dict, world().registry);
  InferenceEngine viewing(world().dict, world().registry);

  std::vector<std::pair<routing::Platform, bgp::ObservedUpdate>> workload;
  // Provider on path + bundled + IXP + large + noise + closes, and one
  // update mixing a withdrawal with two announcements.
  workload.emplace_back(P::kRis,
                        announce("20.0.1.1/32", "198.51.100.1", 200,
                                 {200, 400}, {Community(200, 666)}, 100));
  workload.emplace_back(P::kPch,
                        announce("20.0.1.2/32", "185.1.0.23", 400, {400},
                                 {Community::rfc7999_blackhole()}, 101));
  {
    auto u = announce("20.0.1.3/32", "198.51.100.1", 200, {200, 400}, {}, 102);
    u.body.communities.add(bgp::LargeCommunity(200, 666, 0));
    workload.emplace_back(P::kRis, u);
  }
  workload.emplace_back(P::kRis,
                        announce("20.0.2.1/32", "198.51.100.1", 200,
                                 {200, 400}, {Community(200, 120)}, 103));
  workload.emplace_back(P::kRis,
                        announce("10.1.2.3/32", "198.51.100.1", 200,
                                 {200, 400}, {Community(200, 666)}, 104));
  {
    // Withdraw 20.0.1.1 and announce two more prefixes in one UPDATE.
    auto u = announce("20.0.1.4/32", "198.51.100.1", 200, {200, 400},
                      {Community(200, 666)}, 105);
    u.body.announced.push_back(*net::Prefix::parse("20.0.1.5/32"));
    u.body.withdrawn.push_back(*net::Prefix::parse("20.0.1.1/32"));
    workload.emplace_back(P::kRis, u);
  }
  workload.emplace_back(P::kCdn,
                        withdraw("20.0.1.2/32", "185.1.0.23", 400, 106));

  std::uint64_t views_processed = 0;
  for (const auto& [platform, update] : workload) {
    owning.process(platform, update);
    // The view path sees the same update as single-prefix sub-updates,
    // withdrawals before announcements (the router's emission order).
    bgp::PeerKey peer{update.peer_ip, update.peer_asn};
    UpdateView view;
    view.platform = platform;
    view.time = update.time;
    view.peer = peer;
    view.as_path = &update.body.as_path;
    view.communities = &update.body.communities;
    for (const auto& prefix : update.body.withdrawn) {
      view.is_withdrawal = true;
      view.prefix = &prefix;
      viewing.process(view);
      ++views_processed;
    }
    for (const auto& prefix : update.body.announced) {
      view.is_withdrawal = false;
      view.prefix = &prefix;
      viewing.process(view);
      ++views_processed;
    }
  }
  owning.finish(1000);
  viewing.finish(1000);
  EXPECT_EQ(owning.events(), viewing.events());
  EXPECT_FALSE(owning.events().empty());

  // Stats match except updates_processed, which counts sub-updates on
  // the view path (the pipeline folds it back to original updates).
  EngineStats expect = owning.stats();
  expect.updates_processed = views_processed;
  EXPECT_EQ(expect, viewing.stats());
}

TEST(ProviderRefTest, OrderingAndToString) {
  ProviderRef isp{.is_ixp = false, .asn = 200, .ixp_id = 0};
  ProviderRef ixp{.is_ixp = true, .asn = 59000, .ixp_id = 3};
  EXPECT_LT(isp, ixp);
  EXPECT_EQ(isp.to_string(), "AS200");
  EXPECT_EQ(ixp.to_string(), "IXP#3");
}

TEST(DetectionKindTest, Names) {
  EXPECT_EQ(to_string(DetectionKind::kBundled), "bundled");
  EXPECT_EQ(to_string(DetectionKind::kIxpPeerIp), "ixp-peer-ip");
}

}  // namespace
}  // namespace bgpbh::core
