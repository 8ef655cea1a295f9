#include "fabric/protocol.h"

#include "bgp/update.h"
#include "storage/record_codec.h"

namespace bgpbh::fabric {

void encode_sub_update(const routing::FeedUpdate& update,
                       stream::SubKind kind, std::uint32_t index,
                       std::uint64_t ingest_ns, net::BufWriter& out) {
  out.u8(static_cast<std::uint8_t>(update.platform));
  out.u64(static_cast<std::uint64_t>(update.update.time));
  storage::encode_ip(update.update.peer_ip, out);
  out.u32(update.update.peer_asn);
  out.u32(update.update.collector_id);
  // The UPDATE body codec treats "rest of input" as NLRI, so it needs
  // an explicit length prefix to know where this sub-update ends: the
  // body is encoded in place behind a placeholder that is patched after.
  const std::size_t len_pos = out.size();
  out.u32(0);
  const bgp::UpdateBody& body = update.update.body;
  if (kind == stream::SubKind::kWithdraw) {
    static const bgp::UpdateBody kNoAttributes;
    bgp::encode_update_body({}, std::span(&body.withdrawn[index], 1),
                            kNoAttributes, out);
  } else {
    bgp::encode_update_body(std::span(&body.announced[index], 1), {}, body,
                            out);
  }
  out.patch_u32(len_pos,
                static_cast<std::uint32_t>(out.size() - len_pos - 4));
  out.u64(ingest_ns);
}

std::optional<routing::FeedUpdate> decode_sub_update(net::BufReader& in) {
  routing::FeedUpdate fu;
  std::uint8_t platform = in.u8();
  if (platform >= routing::kNumPlatforms) return std::nullopt;
  fu.platform = static_cast<routing::Platform>(platform);
  fu.update.time = static_cast<util::SimTime>(in.u64());
  auto peer_ip = storage::decode_ip(in);
  if (!peer_ip) return std::nullopt;
  fu.update.peer_ip = *peer_ip;
  fu.update.peer_asn = in.u32();
  fu.update.collector_id = in.u32();
  std::uint32_t body_len = in.u32();
  if (!in.ok() || body_len > in.remaining()) return std::nullopt;
  net::BufReader body = in.sub(body_len);
  auto decoded = bgp::decode_update_body(body);
  if (!decoded || !body.ok() || !body.at_end()) return std::nullopt;
  fu.update.body = std::move(*decoded);
  fu.ingest_ns = in.u64();
  if (!in.ok()) return std::nullopt;
  return fu;
}

namespace {

void patch_u64(net::BufWriter& w, std::size_t pos, std::uint64_t v) {
  w.patch_u32(pos, static_cast<std::uint32_t>(v >> 32));
  w.patch_u32(pos + 4, static_cast<std::uint32_t>(v));
}

}  // namespace

void begin_append(net::BufWriter& out, std::uint32_t slot,
                  std::uint32_t producer) {
  out.u32(slot);
  out.u32(producer);
  out.u64(0);  // trace_id
  out.u64(0);  // origin_ns
  out.u64(0);  // base
  out.u32(0);  // count
}

void seal_append(net::BufWriter& body, std::uint64_t trace_id,
                 std::uint64_t origin_ns, std::uint64_t base,
                 std::uint32_t count) {
  patch_u64(body, 8, trace_id);
  patch_u64(body, 16, origin_ns);
  patch_u64(body, 24, base);
  body.patch_u32(32, count);
}

void encode_files(const std::vector<HandoffFile>& files, net::BufWriter& out) {
  out.u32(static_cast<std::uint32_t>(files.size()));
  for (const auto& f : files) {
    out.u16(static_cast<std::uint16_t>(f.name.size()));
    out.str(f.name);
    out.u32(static_cast<std::uint32_t>(f.bytes.size()));
    out.bytes(f.bytes);
  }
}

std::optional<std::vector<HandoffFile>> decode_files(net::BufReader& in) {
  std::uint32_t n = in.u32();
  if (!in.ok() || n > 100000) return std::nullopt;
  std::vector<HandoffFile> files;
  files.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    HandoffFile f;
    std::uint16_t name_len = in.u16();
    auto name = in.bytes(name_len);
    if (!in.ok()) return std::nullopt;
    f.name.assign(name.begin(), name.end());
    // Reject path separators: a handoff file name is installed verbatim
    // under the target's slot directory and must never escape it.
    if (f.name.empty() || f.name.find('/') != std::string::npos ||
        f.name.find("..") != std::string::npos) {
      return std::nullopt;
    }
    std::uint32_t len = in.u32();
    if (!in.ok() || len > in.remaining()) return std::nullopt;
    auto bytes = in.bytes(len);
    f.bytes.assign(bytes.begin(), bytes.end());
    files.push_back(std::move(f));
  }
  return files;
}

}  // namespace bgpbh::fabric
