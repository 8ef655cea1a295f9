// Event types produced by the blackholing inference engine (§4.2).
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bgp/community.h"
#include "bgp/rib.h"
#include "net/prefix.h"
#include "routing/collectors.h"
#include "util/time.h"

namespace bgpbh::core {

using bgp::Asn;
using routing::Platform;

// A blackholing provider is either an ISP (identified by ASN) or an IXP.
struct ProviderRef {
  bool is_ixp = false;
  Asn asn = 0;           // ISP ASN, or the IXP's route-server ASN
  std::uint32_t ixp_id = 0;

  friend auto operator<=>(const ProviderRef&, const ProviderRef&) = default;
  std::string to_string() const;
};

// How the provider was identified from the update (§4.2; the ablation
// benches break inferences down by kind).
enum class DetectionKind : std::uint8_t {
  kProviderOnPath,   // provider ASN on the AS path
  kBundled,          // community of a provider NOT on the path (Fig 3)
  kIxpRouteServer,   // IXP route-server ASN on the AS path
  kIxpPeerIp,        // peer-ip inside an IXP peering LAN
};

std::string to_string(DetectionKind k);

// AS distance between collector peer and provider (Fig 7c).
inline constexpr int kNoPathDistance = -1;  // provider not on path

// One blackholing event as tracked at the granularity of an individual
// BGP peer (the paper's unit of tracking).
struct PeerEvent {
  Platform platform = Platform::kRis;
  bgp::PeerKey peer;
  net::Prefix prefix;
  ProviderRef provider;
  Asn user = 0;
  DetectionKind kind = DetectionKind::kProviderOnPath;
  int as_distance = kNoPathDistance;  // 0 = at the collector's IXP
  util::SimTime start = 0;
  util::SimTime end = 0;
  bool open = true;                 // not yet ended
  bool explicit_withdrawal = false; // end came from a WITHDRAW message
  bool started_in_table_dump = false;  // start time unknown (== 0, §4.2)
  bgp::CommunitySet communities;

  // e2e latency stamps (util::wall_clock_ns()), set when the closing
  // update carried an ingest stamp: when the update that closed this
  // event entered the system, and when the engine emitted the closed
  // event.  Transient observability data — excluded from equality and
  // from the storage record codec (replays and recovered streams
  // legitimately produce different wall times for identical events).
  std::uint64_t ingest_ns = 0;
  std::uint64_t detected_ns = 0;

  util::SimTime duration() const { return end - start; }

  friend bool operator==(const PeerEvent& a, const PeerEvent& b) {
    return a.platform == b.platform && a.peer == b.peer &&
           a.prefix == b.prefix && a.provider == b.provider &&
           a.user == b.user && a.kind == b.kind &&
           a.as_distance == b.as_distance && a.start == b.start &&
           a.end == b.end && a.open == b.open &&
           a.explicit_withdrawal == b.explicit_withdrawal &&
           a.started_in_table_dump == b.started_in_table_dump &&
           a.communities == b.communities;
  }
};

// A drained batch of closed events, sealed once by stream::EventStore
// and shared read-only by every consumer of it: the store's lane, the
// spill writer and the sink dispatcher hold the same chunk.  Declared
// here so storage:: can take one without depending on stream::.
using SealedChunk = std::shared_ptr<const std::vector<PeerEvent>>;

// Canonical total order over peer events: (start, end, prefix, peer,
// provider, platform, kind, user, ...).  Sorting two event sets with
// this comparator makes them directly comparable regardless of the
// emission order — the equivalence contract between the sequential
// engine and the sharded streaming pipeline (src/stream/).
bool canonical_less(const PeerEvent& a, const PeerEvent& b);
void canonical_sort(std::vector<PeerEvent>& events);

// A blackholing event correlated across peers: the blackholing of one
// prefix at one or more providers concurrently (§9).
struct PrefixEvent {
  net::Prefix prefix;
  util::SimTime start = 0;
  util::SimTime end = 0;
  std::set<ProviderRef> providers;
  std::set<Asn> users;
  std::size_t num_peer_events = 0;
  bool includes_table_dump_start = false;

  util::SimTime duration() const { return end - start; }

  friend bool operator==(const PrefixEvent&, const PrefixEvent&) = default;
};

// The one [t0, t1) window-overlap rule every event query uses —
// Study's table aggregates, stream::EventStore::events_in and
// api::EventQuery all filter through this helper, so "overlaps the
// window" can never drift between the batch and live surfaces.
constexpr bool overlaps_window(util::SimTime start, util::SimTime end,
                               util::SimTime t0, util::SimTime t1) {
  return end >= t0 && start < t1;
}

}  // namespace bgpbh::core
