// BGP UPDATE messages as observed at a collector, plus the BGP wire
// codec for the UPDATE body (used by the MRT-subset encoder).
//
// An observed update carries collector-side metadata — the peer that
// sent it (peer IP + peer AS, §4.2 uses both for IXP detection) and the
// receive timestamp — in addition to the protocol payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/aspath.h"
#include "bgp/community.h"
#include "net/bytes.h"
#include "net/prefix.h"
#include "util/time.h"

namespace bgpbh::bgp {

enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

// Protocol payload of one UPDATE.
struct UpdateBody {
  std::vector<net::Prefix> announced;
  std::vector<net::Prefix> withdrawn;
  AsPath as_path;                 // empty for pure withdrawals
  std::optional<net::IpAddr> next_hop;
  CommunitySet communities;
  Origin origin = Origin::kIgp;

  bool is_withdrawal_only() const { return announced.empty() && !withdrawn.empty(); }

  friend bool operator==(const UpdateBody&, const UpdateBody&) = default;
};

// One update as recorded by a collector.
struct ObservedUpdate {
  util::SimTime time = 0;
  net::IpAddr peer_ip;   // BGP session peer address at the collector
  Asn peer_asn = 0;      // peer-as attribute
  std::uint32_t collector_id = 0;  // which collector of the platform
  UpdateBody body;

  friend bool operator==(const ObservedUpdate&, const ObservedUpdate&) = default;
};

// ---- BGP-4 wire codec (RFC 4271 + RFC 1997/8092 attributes) ----------
//
// Encodes the UPDATE *body* (from "Withdrawn Routes Length" onward,
// without the 19-byte message header, which MRT BGP4MP records include
// separately).  IPv4 NLRI lives in the top-level fields; IPv6 is carried
// in MP_REACH/MP_UNREACH attributes (RFC 4760), which we implement in
// the reduced form used by route collectors.

// The overload writes `announced` and `withdrawn` with the route
// attributes of `attrs` (not its prefixes): a split-off sub-update.
void encode_update_body(std::span<const net::Prefix> announced,
                        std::span<const net::Prefix> withdrawn,
                        const UpdateBody& attrs, net::BufWriter& w);
inline void encode_update_body(const UpdateBody& body, net::BufWriter& w) {
  encode_update_body(body.announced, body.withdrawn, body, w);
}

// Returns nullopt on malformed input. Strict about attribute lengths.
std::optional<UpdateBody> decode_update_body(net::BufReader& r);

// Full BGP message: 16-byte marker, length, type(2=UPDATE), body.
void encode_update_message(const UpdateBody& body, net::BufWriter& w);
std::optional<UpdateBody> decode_update_message(net::BufReader& r);

// Attribute type codes (subset).
inline constexpr std::uint8_t kAttrOrigin = 1;
inline constexpr std::uint8_t kAttrAsPath = 2;
inline constexpr std::uint8_t kAttrNextHop = 3;
inline constexpr std::uint8_t kAttrCommunities = 8;
inline constexpr std::uint8_t kAttrMpReachNlri = 14;
inline constexpr std::uint8_t kAttrMpUnreachNlri = 15;
inline constexpr std::uint8_t kAttrLargeCommunities = 32;

}  // namespace bgpbh::bgp
