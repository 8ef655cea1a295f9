// FabricRouter: the client half of the multi-process shard fabric.
//
// A fabric session partitions the (peer, prefix) key space into
// `num_slots` global slots (stream::shard_for — the SAME deterministic
// hash the in-process pipeline shards by) and places each slot on a
// remote shard server (fabric/placement.h).  The router:
//
//   * splits every pushed update into single-prefix sub-updates with
//     stream::for_each_sub_update — the in-process router's own split
//     (withdrawals first), so per-key transition order is identical to
//     the in-process plane by construction,
//   * encodes each sub-update straight from the pushed update into its
//     (slot, producer) lane's APPEND frame, with a bounded in-flight
//     window (at most `max_inflight` unacked frames per lane; a full
//     window blocks the producer — backpressure, never loss).  A frame
//     goes out full, or early by the lanes' StagingRule
//     (stream/staging.h) into a window with room, so a slow feed is
//     never held back,
//   * survives connection loss ReconnectingSource-style: redial with
//     util::RetryPolicy backoff, HELLO returns the server's accepted
//     sub-update count for the lane, and every retained APPEND frame
//     that reaches past it is resent whole — exactly-once across server
//     SIGKILL + recovery,
//   * serves scatter-gather queries: one thread per slot fans the
//     query out, results merge in canonical event order, and
//   * rebalances live (migrate): quiesce a slot, have the source
//     server cut a drained checkpoint (PR 8 codec), ship the
//     checkpoint + pinned segment files, install + recover on the
//     target, flip the placement route, and resume — zero loss, zero
//     duplication (the replay buffer is empty at the flip because the
//     checkpoint made everything durable).
//
// Exactly-once accounting: a lane's sub-updates are indexed from 0 in
// send order, and each APPEND frame covers [base, base + count).  The
// server acks every APPEND with (accepted_total, durable_total);
// `durable` advances only at drained checkpoint cuts, and the router
// drops a retained frame once it is wholly durable.  After a server
// crash, HELLO reports the recovered accepted count (== the newest
// durable cut, which write_checkpoint's atomic rename guarantees is
// >= anything the client was ever told).  Resending a frame that
// straddles that count is safe: the server skips indices below it, so
// the resend can neither skip nor duplicate a sub-update.
//
// Threading: one lane belongs to one producer thread.  Producers take
// their slot's lock shared; control operations (checkpoint_all,
// migrate, close) take it unique — so a rebalance blocks pushes only
// for the slot being moved.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/events.h"
#include "fabric/placement.h"
#include "fabric/protocol.h"
#include "fabric/socket.h"
#include "stream/staging.h"
#include "telemetry/fleet.h"
#include "telemetry/metrics.h"
#include "util/retry.h"
#include "util/time.h"

namespace bgpbh::fabric {

struct FabricEndpoint {
  std::string host;  // dotted-quad IPv4
  std::uint16_t port = 0;
};

struct FabricConfig {
  // Non-empty switches api::AnalysisSession (kLiveFeed) into fabric
  // mode: SessionConfig::num_shards becomes the global slot count and
  // every push is routed to the slot's shard server.
  std::vector<FabricEndpoint> endpoints;
  // Unacked APPEND frames per lane before the producer blocks on acks.
  std::size_t max_inflight = 4;
  // Sub-updates per full APPEND frame (a lane also sends by age).
  std::size_t batch_subs = 64;
  // Redial backoff on connection loss.  More patient than the default
  // policy: a crashed shard server needs time to recover its slots.
  util::RetryPolicy reconnect{
      .max_attempts = 40,
      .base_delay = std::chrono::milliseconds(10),
      .max_delay = std::chrono::milliseconds(500),
  };

  bool enabled() const { return !endpoints.empty(); }
};

class FabricRouter {
 public:
  FabricRouter(FabricConfig config, std::size_t num_slots,
               std::size_t num_producers,
               telemetry::MetricsRegistry* metrics);
  ~FabricRouter();

  FabricRouter(const FabricRouter&) = delete;
  FabricRouter& operator=(const FabricRouter&) = delete;

  // Split + batch + send one update on producer `p`'s lanes.  Returns
  // false after close().  Throws std::runtime_error when an endpoint
  // stays unreachable past the reconnect budget (never silent loss).
  bool push(std::size_t p, const routing::FeedUpdate& update);
  // Send partial batches and drain every outstanding ack on `p`'s
  // lanes (on return, everything pushed so far is server-accepted).
  void flush(std::size_t p);

  // Drain all lanes, then close every slot's remote session at
  // `end_time` (force-closing still-open events, as the in-process
  // pipeline's finish() does).  Idempotent.
  void close(util::SimTime end_time);

  // Drained checkpoint on every slot; prunes replay buffers to the new
  // durable totals.  False if any slot's cut failed.
  bool checkpoint_all();

  // Scatter-gather: fan one QUERY per slot (a thread each), decode the
  // remote lanes' event sets, merge in canonical order.
  std::vector<core::PeerEvent> query_events();

  // Live rebalance of `slot` onto endpoints()[target] (see file
  // comment for the protocol).  False if any step fails; the slot then
  // stays where it was.
  bool migrate(std::size_t slot, std::size_t target_endpoint);

  // Register a new shard server (e.g. freshly spawned capacity) as a
  // migrate() target.  Returns its endpoint index.  Existing slots do
  // not move automatically.
  std::size_t add_endpoint(const std::string& host, std::uint16_t port);

  // Graceful fleet shutdown: one SHUTDOWN frame per endpoint (servers
  // stop accepting and exit their run loop).  Best-effort.
  void shutdown_endpoints();

  // Fleet-wide observability: one STATS RPC per endpoint (unreachable
  // endpoints are skipped) gathers every
  // hosted slot's full registry snapshot + recent slow spans, folds
  // them into a single Snapshot (counters/gauges sum, histograms merge
  // bucket-exactly, per_shard re-keyed by global slot id), and
  // stitches remote server-side spans against this router's local ring
  // records that share a trace id — attributing slow RPC time to
  // wire/queue vs. remote engine.  The folded view feeds the existing
  // Prometheus / BENCH-JSON exporters unchanged.
  telemetry::FleetTelemetry fleet_telemetry();

  std::size_t num_slots() const { return num_slots_; }
  std::size_t num_producers() const { return num_producers_; }
  std::uint64_t updates_pushed() const {
    return updates_pushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t reconnects() const {
    return reconnects_count_.load(std::memory_order_relaxed);
  }
  std::size_t endpoint_of(std::size_t slot) const { return placement_[slot]; }

 private:
  // One sealed APPEND frame, retained until every sub-update in
  // [base, base + count) is durable on the server.
  struct ReplayFrame {
    std::uint64_t base = 0;
    std::uint32_t count = 0;
    net::BufWriter body;
  };

  struct Lane {
    TcpConn conn;
    bool connected = false;
    std::uint64_t sent = 0;     // next sub-update index to assign
    std::uint64_t durable = 0;  // highest durable_total the server acked
    // The next APPEND body: a zeroed header (begin_append) followed by
    // `staged` encoded sub-updates, not yet indexed.  Reused frame after
    // frame, so staging allocates nothing once it has grown.
    net::BufWriter staging;
    std::uint32_t staged = 0;
    // Sealed frames, oldest first, covering at least [durable, sent):
    // the resend source after a reconnect.
    std::deque<ReplayFrame> replay;
    std::size_t unacked = 0;  // APPEND frames sent, acks not read
    // (trace_id, send time) per unacked APPEND, FIFO — acks come back
    // in send order on a lane, so the front entry times the ack being
    // read.  Cleared on reconnect (the replay path re-times resends).
    std::deque<std::pair<std::uint64_t, std::chrono::steady_clock::time_point>>
        inflight_meta;
  };

  Lane& lane(std::size_t slot, std::size_t p) {
    return *lanes_[slot * num_producers_ + p];
  }
  FabricEndpoint endpoint(std::size_t index) const;

  // All lane operations require the caller to hold slot's lock (shared
  // for the owning producer, unique for control paths).
  // Seals and sends the staged batch once the window has room.
  void send_batch(Lane& ln, std::size_t slot, std::size_t p);
  // Sends one APPEND body and counts it in flight; false (and the lane
  // marked disconnected) when the send fails.
  bool send_append(Lane& ln, const net::BufWriter& body);
  // Reads one APPEND ack: times it, retires it from the window and
  // prunes the replay buffer.  False (and the lane marked disconnected)
  // on connection loss or a malformed ack.
  bool read_ack(Lane& ln, std::size_t slot);
  void drain_lane(Lane& ln, std::size_t slot, std::size_t p);
  static void prune_replay(Lane& ln, std::uint64_t durable);
  // Moves the fleet-wide unacked-frame count and its gauge by `delta`.
  void add_inflight(std::int64_t delta);
  void ensure_connected(Lane& ln, std::size_t slot, std::size_t p);
  bool try_connect(Lane& ln, std::size_t slot, std::size_t p);

  // Records an RPC's round trip since `t0` in fabric.rpc_ns and, when
  // label and trace_id are set, offers it to the local TraceRing so
  // fleet_telemetry() can stitch it against the server-side span bound
  // to the same id.
  void record_rpc(std::chrono::steady_clock::time_point t0,
                  const char* label, std::uint32_t shard,
                  std::uint64_t trace_id);
  // Optional trace attribution for a control RPC (see record_rpc).
  struct ControlSpan {
    const char* label = nullptr;
    std::uint32_t shard = 0;
    std::uint64_t trace_id = 0;
  };

  // Fresh control connection RPC with retry; nullopt past the budget
  // or on an ERROR reply of the wrong type.  The body is built per
  // attempt by `build_body`, so a traced body stamps a fresh origin.
  std::optional<TcpConn::FramePayload> control_rpc(
      std::size_t endpoint_index, FrameType type,
      const std::function<void(net::BufWriter&)>& build_body,
      FrameType expect, const ControlSpan& span);
  bool checkpoint_slot_locked(std::size_t slot);
  void drain_slot_locked(std::size_t slot);

  FabricConfig config_;
  std::size_t num_slots_;
  std::size_t num_producers_;
  mutable std::mutex endpoints_mu_;
  std::vector<FabricEndpoint> endpoints_;
  std::vector<std::size_t> placement_;  // slot -> endpoint index
  std::vector<std::unique_ptr<std::shared_mutex>> slot_mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  // One per producer, over its lanes; touched only by its own thread.
  std::vector<stream::StagingRule> staging_;
  std::atomic<std::uint64_t> updates_pushed_{0};
  std::atomic<std::uint64_t> reconnects_count_{0};
  std::atomic<std::int64_t> inflight_total_{0};
  std::atomic<bool> closed_{false};
  // Distributed trace-id generator: one id per RPC, stamped into frame
  // headers and echoed by server-side spans.  0 means untraced.
  std::atomic<std::uint64_t> next_trace_id_{1};

  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter* batches_ = nullptr;
  telemetry::Counter* bytes_ = nullptr;
  telemetry::Counter* reconnects_ = nullptr;
  telemetry::Gauge* inflight_ = nullptr;
  telemetry::LatencyHistogram* rpc_ns_ = nullptr;
};

}  // namespace bgpbh::fabric
