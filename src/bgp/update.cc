#include "bgp/update.h"

#include <algorithm>

namespace bgpbh::bgp {

namespace {

// NLRI encoding of the IPv4 (`v4`) or IPv6 prefixes among `prefixes`,
// in order: length octet + ceil(len/8) address bytes each.
void encode_nlri(std::span<const net::Prefix> prefixes, bool v4,
                 net::BufWriter& w) {
  for (const auto& p : prefixes) {
    if (p.is_v4() != v4) continue;
    w.u8(p.len());
    const unsigned nbytes = (p.len() + 7) / 8;
    if (v4) {
      const std::uint32_t v = p.addr().v4().value();
      for (unsigned i = 0; i < nbytes; ++i) {
        w.u8(static_cast<std::uint8_t>(v >> (24 - 8 * i)));
      }
    } else {
      w.bytes(std::span(p.addr().v6().bytes()).first(nbytes));
    }
  }
}

// The size encode_nlri writes.
std::size_t nlri_bytes(std::span<const net::Prefix> prefixes, bool v4) {
  std::size_t n = 0;
  for (const auto& p : prefixes) {
    if (p.is_v4() == v4) n += 1 + (p.len() + 7) / 8;
  }
  return n;
}

std::optional<net::Prefix> decode_nlri_v4(net::BufReader& r) {
  std::uint8_t len = r.u8();
  if (len > 32) return std::nullopt;
  unsigned nbytes = (len + 7u) / 8u;
  auto b = r.bytes(nbytes);
  if (!r.ok()) return std::nullopt;
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i) {
    v = (v << 8) | (i < nbytes ? b[i] : 0);
  }
  return net::Prefix(net::Ipv4Addr(v), len);
}

std::optional<net::Prefix> decode_nlri_v6(net::BufReader& r) {
  std::uint8_t len = r.u8();
  if (len > 128) return std::nullopt;
  unsigned nbytes = (len + 7u) / 8u;
  auto b = r.bytes(nbytes);
  if (!r.ok()) return std::nullopt;
  net::Ipv6Addr::Bytes bytes{};
  for (unsigned i = 0; i < nbytes; ++i) bytes[i] = b[i];
  return net::Prefix(net::Ipv6Addr(bytes), len);
}

// Path attribute header: flags, type, length (1 or 2 bytes).
void attr_header(net::BufWriter& w, std::uint8_t flags, std::uint8_t type,
                 std::size_t length) {
  bool extended = length > 255;
  if (extended) flags |= 0x10;
  w.u8(flags);
  w.u8(type);
  if (extended) {
    w.u16(static_cast<std::uint16_t>(length));
  } else {
    w.u8(static_cast<std::uint8_t>(length));
  }
}

constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagOptTransitive = 0xC0;
constexpr std::uint8_t kFlagOptional = 0x80;

}  // namespace

void encode_update_body(std::span<const net::Prefix> announced,
                        std::span<const net::Prefix> withdrawn,
                        const UpdateBody& attrs, net::BufWriter& w) {
  // Written in place: every length but the attribute section's is known
  // up front, and that one is a placeholder patched at the end.
  // Withdrawn routes (IPv4 only at top level).
  w.u16(static_cast<std::uint16_t>(nlri_bytes(withdrawn, true)));
  encode_nlri(withdrawn, true, w);

  // Path attributes.
  const std::size_t attrs_pos = w.size();
  w.u16(0);
  if (!announced.empty()) {
    w.u8(kFlagTransitive);
    w.u8(kAttrOrigin);
    w.u8(1);
    w.u8(static_cast<std::uint8_t>(attrs.origin));

    // AS_PATH: AS_SEQUENCE segments of at most 255 hops (the count is
    // one byte), 4-byte ASNs (AS4 capable peers).
    const auto& hops = attrs.as_path.hops();
    constexpr std::size_t kMaxSegmentHops = 255;
    const std::size_t segments =
        (hops.size() + kMaxSegmentHops - 1) / kMaxSegmentHops;
    attr_header(w, kFlagTransitive, kAttrAsPath,
                2 * segments + 4 * hops.size());
    for (std::size_t from = 0; from < hops.size(); from += kMaxSegmentHops) {
      const std::size_t n = std::min(kMaxSegmentHops, hops.size() - from);
      w.u8(2);  // AS_SEQUENCE
      w.u8(static_cast<std::uint8_t>(n));
      for (std::size_t i = from; i < from + n; ++i) w.u32(hops[i]);
    }

    if (attrs.next_hop && attrs.next_hop->is_v4()) {
      attr_header(w, kFlagTransitive, kAttrNextHop, 4);
      w.u32(attrs.next_hop->v4().value());
    }
  }
  if (!attrs.communities.classic().empty()) {
    attr_header(w, kFlagOptTransitive, kAttrCommunities,
                attrs.communities.classic().size() * 4);
    for (auto c : attrs.communities.classic()) w.u32(c.raw());
  }
  if (!attrs.communities.large().empty()) {
    attr_header(w, kFlagOptTransitive, kAttrLargeCommunities,
                attrs.communities.large().size() * 12);
    for (auto c : attrs.communities.large()) {
      w.u32(c.global_admin());
      w.u32(c.local1());
      w.u32(c.local2());
    }
  }
  // MP_REACH / MP_UNREACH for IPv6: AFI(2)=IPv6, SAFI(1)=unicast, then
  // (MP_REACH only) next-hop length, next hop and a reserved byte.
  if (const std::size_t nlri = nlri_bytes(announced, false); nlri > 0) {
    const bool v6_hop = attrs.next_hop && attrs.next_hop->is_v6();
    attr_header(w, kFlagOptional, kAttrMpReachNlri,
                2 + 1 + 1 + (v6_hop ? 16 : 0) + 1 + nlri);
    w.u16(2);
    w.u8(1);
    if (v6_hop) {
      w.u8(16);
      w.bytes(attrs.next_hop->v6().bytes());
    } else {
      w.u8(0);
    }
    w.u8(0);  // reserved
    encode_nlri(announced, false, w);
  }
  if (const std::size_t nlri = nlri_bytes(withdrawn, false); nlri > 0) {
    attr_header(w, kFlagOptional, kAttrMpUnreachNlri, 2 + 1 + nlri);
    w.u16(2);
    w.u8(1);
    encode_nlri(withdrawn, false, w);
  }
  w.patch_u16(attrs_pos, static_cast<std::uint16_t>(w.size() - attrs_pos - 2));

  encode_nlri(announced, true, w);  // IPv4 NLRI
}

std::optional<UpdateBody> decode_update_body(net::BufReader& r) {
  UpdateBody body;

  std::uint16_t wd_len = r.u16();
  {
    net::BufReader wd = r.sub(wd_len);
    while (wd.ok() && wd.remaining() > 0) {
      auto p = decode_nlri_v4(wd);
      if (!p) return std::nullopt;
      body.withdrawn.push_back(*p);
    }
    if (!wd.ok()) return std::nullopt;
  }

  std::uint16_t attr_len = r.u16();
  {
    net::BufReader ar = r.sub(attr_len);
    while (ar.ok() && ar.remaining() > 0) {
      std::uint8_t flags = ar.u8();
      std::uint8_t type = ar.u8();
      std::size_t len = (flags & 0x10) ? ar.u16() : ar.u8();
      net::BufReader av = ar.sub(len);
      if (!ar.ok()) return std::nullopt;
      switch (type) {
        case kAttrOrigin: {
          std::uint8_t o = av.u8();
          if (o > 2) return std::nullopt;
          body.origin = static_cast<Origin>(o);
          break;
        }
        case kAttrAsPath: {
          std::vector<Asn> hops;
          while (av.ok() && av.remaining() > 0) {
            std::uint8_t seg_type = av.u8();
            std::uint8_t count = av.u8();
            if (seg_type != 2) return std::nullopt;  // AS_SEQUENCE only
            for (unsigned i = 0; i < count; ++i) hops.push_back(av.u32());
          }
          if (!av.ok()) return std::nullopt;
          body.as_path = AsPath(std::move(hops));
          break;
        }
        case kAttrNextHop: {
          if (len != 4) return std::nullopt;
          body.next_hop = net::IpAddr(net::Ipv4Addr(av.u32()));
          break;
        }
        case kAttrCommunities: {
          if (len % 4 != 0) return std::nullopt;
          for (std::size_t i = 0; i < len / 4; ++i) {
            body.communities.add(Community(av.u32()));
          }
          break;
        }
        case kAttrLargeCommunities: {
          if (len % 12 != 0) return std::nullopt;
          for (std::size_t i = 0; i < len / 12; ++i) {
            std::uint32_t g = av.u32(), l1 = av.u32(), l2 = av.u32();
            body.communities.add(LargeCommunity(g, l1, l2));
          }
          break;
        }
        case kAttrMpReachNlri: {
          std::uint16_t afi = av.u16();
          std::uint8_t safi = av.u8();
          std::uint8_t nh_len = av.u8();
          if (afi != 2 || safi != 1) return std::nullopt;
          if (nh_len == 16) {
            auto nh = av.bytes(16);
            if (!av.ok()) return std::nullopt;
            net::Ipv6Addr::Bytes b{};
            for (unsigned i = 0; i < 16; ++i) b[i] = nh[i];
            body.next_hop = net::IpAddr(net::Ipv6Addr(b));
          } else if (nh_len != 0) {
            av.skip(nh_len);
          }
          av.skip(1);  // reserved
          while (av.ok() && av.remaining() > 0) {
            auto p = decode_nlri_v6(av);
            if (!p) return std::nullopt;
            body.announced.push_back(*p);
          }
          if (!av.ok()) return std::nullopt;
          break;
        }
        case kAttrMpUnreachNlri: {
          std::uint16_t afi = av.u16();
          std::uint8_t safi = av.u8();
          if (afi != 2 || safi != 1) return std::nullopt;
          while (av.ok() && av.remaining() > 0) {
            auto p = decode_nlri_v6(av);
            if (!p) return std::nullopt;
            body.withdrawn.push_back(*p);
          }
          if (!av.ok()) return std::nullopt;
          break;
        }
        default:
          break;  // tolerate unknown attributes (forward compat)
      }
      if (!av.ok()) return std::nullopt;
    }
    if (!ar.ok()) return std::nullopt;
  }

  // Remaining bytes: IPv4 NLRI.
  while (r.ok() && r.remaining() > 0) {
    auto p = decode_nlri_v4(r);
    if (!p) return std::nullopt;
    body.announced.push_back(*p);
  }
  if (!r.ok()) return std::nullopt;
  return body;
}

void encode_update_message(const UpdateBody& body, net::BufWriter& w) {
  std::size_t start = w.size();
  for (int i = 0; i < 16; ++i) w.u8(0xFF);  // marker
  std::size_t len_pos = w.size();
  w.u16(0);  // length, patched below
  w.u8(2);   // type = UPDATE
  encode_update_body(body, w);
  w.patch_u16(len_pos, static_cast<std::uint16_t>(w.size() - start));
}

std::optional<UpdateBody> decode_update_message(net::BufReader& r) {
  auto marker = r.bytes(16);
  if (!r.ok()) return std::nullopt;
  for (auto b : marker) {
    if (b != 0xFF) return std::nullopt;
  }
  std::uint16_t len = r.u16();
  std::uint8_t type = r.u8();
  if (!r.ok() || type != 2 || len < 19) return std::nullopt;
  net::BufReader body = r.sub(len - 19);
  if (!r.ok()) return std::nullopt;
  return decode_update_body(body);
}

}  // namespace bgpbh::bgp
