// Fabric wire protocol: the message layer of the multi-process shard
// fabric (src/fabric/).
//
// Every message is one storage::wire frame (the SAME length-prefixed,
// versioned, CRC-checked framing the segment log's record codec uses —
// src/storage/wire.h), with a fabric magic and a one-byte frame type
// leading the payload:
//
//   u16 0xFAB1 | u8 version | u32 payload_len | payload | u32 crc
//   payload = u8 FrameType | type-specific body
//
// Composite bodies reuse existing codecs verbatim: APPEND carries
// single-prefix sub-updates encoded with bgp::encode_update_body, and
// QUERY results carry storage record payloads
// (storage::encode_event_payload) — so what crosses the socket is
// byte-identical to what a shard spills to its segment log.
//
// One wire version: the client and the server are built from the same
// tree, so every frame carries kFabricVersion.  HELLO still advertises
// a [min, max] range, and the server answers a range that excludes
// kFabricVersion with an ERROR frame and drops the connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/bytes.h"
#include "routing/collectors.h"
#include "stream/update_block.h"

namespace bgpbh::fabric {

inline constexpr std::uint16_t kFabricMagic = 0xFAB1;
// APPEND/QUERY/CHECKPOINT bodies carry a trace-context header
// (u64 trace_id | u64 origin_ns), and every sub-update a trailing u64
// ingest stamp.
inline constexpr std::uint8_t kFabricVersion = 2;
// HANDOFF ships whole checkpoint + segment files in one frame; records
// are ~66 B each, so this comfortably covers a shard's working set.
inline constexpr std::uint32_t kMaxFabricPayload = 64u << 20;

// Slot/producer value a control connection's HELLO carries (control
// lanes append nothing; they issue QUERY/CHECKPOINT/HANDOFF/... RPCs).
inline constexpr std::uint32_t kControlLane = 0xFFFFFFFFu;

enum class FrameType : std::uint8_t {
  kHello = 1,        // u8 min_ver | u8 max_ver | u32 slot | u32 producer
  kHelloAck,         // u8 version | u64 accepted (sub-updates, data lanes)
  kAppend,           // u32 slot | u32 producer | u64 trace_id |
                     //   u64 origin_ns | u64 base | u32 n | n subs
  kAppendAck,        // u64 accepted_total | u64 durable_total
  kQuery,            // u32 slot | u64 trace_id | u64 origin_ns
  kQueryResult,      // u32 n | n event payloads (each u32-length-prefixed)
  kCheckpoint,       // u32 slot | u64 trace_id | u64 origin_ns
  kCheckpointAck,    // u8 ok | u32 p | p x u64 durable
  kClose,            // u32 slot | u64 end_time
  kCloseAck,         // (empty)
  kHealth,           // (empty)
  kHealthAck,        // u32 slots_hosted | u8 worst_state
  kHandoffFetch,     // u32 slot
  kHandoffState,     // file set (encode_files)
  kHandoffInstall,   // u32 slot | file set
  kHandoffAck,       // u8 ok | u32 p | p x u64 accepted
  kRelease,          // u32 slot
  kReleaseAck,       // (empty)
  kShutdown,         // (empty)
  kShutdownAck,      // (empty)
  kError,            // utf-8 message (rest of payload)
  kStats,            // u64 trace_id | u64 origin_ns | u32 max_spans
  kStatsAck,         // u32 n_slots | n x slot telemetry
                     //   (telemetry::encode_slot_telemetry)
};

// ---- sub-update codec -------------------------------------------------
// The single-prefix sub-update (kind, index) of `update`, as
// stream::for_each_sub_update yields it, encoded in place (withdrawals
// carry no route attributes) and decoded as a one-prefix FeedUpdate.
// The body reuses the BGP UPDATE codec, so path attributes round-trip
// through the same fuzz-hardened decoder the MRT replay path uses.
//
// Layout: u8 platform | u64 time | ip peer | u32 peer_asn |
// u32 collector_id | u32 body_len | UPDATE body | u64 ingest_ns.
void encode_sub_update(const routing::FeedUpdate& update,
                       stream::SubKind kind, std::uint32_t index,
                       std::uint64_t ingest_ns, net::BufWriter& out);
std::optional<routing::FeedUpdate> decode_sub_update(net::BufReader& in);

// ---- APPEND body ------------------------------------------------------
// A lane stages sub-updates behind a zeroed kAppend header
// (begin_append) and fills it in place when it cuts the frame
// (seal_append).  A resent frame is resealed with a fresh trace context.
void begin_append(net::BufWriter& out, std::uint32_t slot,
                  std::uint32_t producer);
void seal_append(net::BufWriter& body, std::uint64_t trace_id,
                 std::uint64_t origin_ns, std::uint64_t base,
                 std::uint32_t count);

// ---- handoff file set -------------------------------------------------
// The shard-migration payload: every file of a quiesced slot's
// directory (checkpoint-*.ckpt + events-*.seg), name + raw bytes.
struct HandoffFile {
  std::string name;
  std::vector<std::uint8_t> bytes;
};
void encode_files(const std::vector<HandoffFile>& files, net::BufWriter& out);
std::optional<std::vector<HandoffFile>> decode_files(net::BufReader& in);

}  // namespace bgpbh::fabric
