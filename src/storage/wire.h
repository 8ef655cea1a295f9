// Shared wire framing: the length-prefixed, versioned, CRC-checked
// frame used by both the on-disk record codec (record_codec.cc) and
// the fabric TCP protocol (src/fabric/protocol.h).
//
//   u16 magic | u8 version | u32 payload_len | payload | u32 crc
//
// with crc = crc32(version byte ++ payload).  Keeping one encoder
// guarantees the segment log and the socket protocol can never drift:
// a fabric APPEND payload is byte-identical to the record payload the
// receiving shard spills to disk.
//
// Frames carry a version byte so a reader can refuse a layout it does
// not speak: decode_frame rejects versions outside its readable range.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/bytes.h"
#include "util/crc32.h"

namespace bgpbh::storage::wire {

// magic(2) + version(1) + payload_len(4) ... crc(4).
inline constexpr std::size_t kFrameOverheadBytes = 11;

struct Frame {
  std::uint8_t version = 0;
  std::span<const std::uint8_t> payload;
};

// Appends one framed payload.  The CRC covers the version byte and the
// payload, so a frame truncated or bit-flipped anywhere past the magic
// fails verification.
inline void encode_frame(net::BufWriter& out, std::uint16_t magic,
                         std::uint8_t version,
                         std::span<const std::uint8_t> payload) {
  out.u16(magic);
  out.u8(version);
  out.u32(static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = util::crc32(std::span(&version, 1));
  crc = util::crc32(payload, crc);
  out.bytes(payload);
  out.u32(crc);
}

// Decodes one frame, advancing `in` past it on success.  Rejects bad
// magic, versions outside [min_version, max_version], payloads larger
// than `max_payload` (so a corrupt length field can never drive a
// giant allocation), truncation, and CRC mismatch.  On failure the
// reader position is unspecified — callers resync by re-seeking.
inline std::optional<Frame> decode_frame(net::BufReader& in,
                                         std::uint16_t magic,
                                         std::uint8_t min_version,
                                         std::uint8_t max_version,
                                         std::uint32_t max_payload) {
  if (in.u16() != magic) return std::nullopt;
  std::uint8_t version = in.u8();
  std::uint32_t payload_len = in.u32();
  if (!in.ok() || version < min_version || version > max_version ||
      payload_len > max_payload) {
    return std::nullopt;
  }
  auto payload = in.bytes(payload_len);
  std::uint32_t crc = in.u32();
  if (!in.ok()) return std::nullopt;
  std::uint32_t expect = util::crc32(std::span(&version, 1));
  expect = util::crc32(payload, expect);
  if (crc != expect) return std::nullopt;
  return Frame{version, payload};
}

}  // namespace bgpbh::storage::wire
