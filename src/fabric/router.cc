#include "fabric/router.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bgp/rib.h"
#include "storage/record_codec.h"
#include "storage/wire.h"
#include "stream/shard_router.h"

namespace bgpbh::fabric {

namespace {

std::string describe_endpoint(const FabricEndpoint& ep) {
  return ep.host + ":" + std::to_string(ep.port);
}

// HELLO handshake on a fresh connection: the server's accepted count
// for the lane (0 on a control lane), or nullopt on failure or refusal.
std::optional<std::uint64_t> hello(TcpConn& conn, std::uint32_t slot,
                                   std::uint32_t producer) {
  net::BufWriter w;
  w.u8(kFabricVersion);  // readable range [min, max]
  w.u8(kFabricVersion);
  w.u32(slot);
  w.u32(producer);
  if (!conn.send_frame(FrameType::kHello, w.data())) return std::nullopt;
  auto ack = conn.recv_frame();
  if (!ack || ack->type != FrameType::kHelloAck) return std::nullopt;
  net::BufReader r(ack->body);
  const std::uint8_t version = r.u8();
  const std::uint64_t accepted = r.u64();
  if (!r.ok() || version != kFabricVersion) return std::nullopt;
  return accepted;
}

// Parses one kAppendAck body; false on malformed input.
bool parse_append_ack(std::span<const std::uint8_t> body,
                      std::uint64_t& accepted, std::uint64_t& durable) {
  net::BufReader r(body);
  accepted = r.u64();
  durable = r.u64();
  return r.ok();
}

}  // namespace

FabricRouter::FabricRouter(FabricConfig config, std::size_t num_slots,
                           std::size_t num_producers,
                           telemetry::MetricsRegistry* metrics)
    : config_(std::move(config)),
      num_slots_(num_slots == 0 ? 1 : num_slots),
      num_producers_(num_producers == 0 ? 1 : num_producers),
      endpoints_(config_.endpoints),
      placement_(place_slots(num_slots_, endpoints_.size())) {
  if (endpoints_.empty()) {
    throw std::invalid_argument("fabric: FabricRouter needs >= 1 endpoint");
  }
  if (config_.batch_subs == 0) config_.batch_subs = 1;
  if (config_.max_inflight == 0) config_.max_inflight = 1;
  slot_mu_.reserve(num_slots_);
  lanes_.reserve(num_slots_ * num_producers_);
  for (std::size_t s = 0; s < num_slots_; ++s) {
    slot_mu_.push_back(std::make_unique<std::shared_mutex>());
  }
  for (std::size_t i = 0; i < num_slots_ * num_producers_; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  staging_.assign(num_producers_, stream::StagingRule(num_slots_));
  metrics_ = metrics;
  if (metrics) {
    metrics->describe("fabric.router.batches",
                      "APPEND frames sent to shard servers");
    metrics->describe("fabric.router.bytes",
                      "Bytes sent in APPEND frames (incl. framing)");
    metrics->describe("fabric.router.reconnects",
                      "Lane reconnects after connection loss");
    metrics->describe("fabric.router.inflight",
                      "Unacked APPEND frames across all lanes");
    metrics->describe("fabric.rpc_ns", "Fabric RPC round-trip latency");
    batches_ = &metrics->counter("fabric.router.batches");
    bytes_ = &metrics->counter("fabric.router.bytes");
    reconnects_ = &metrics->counter("fabric.router.reconnects");
    inflight_ = &metrics->gauge("fabric.router.inflight");
    rpc_ns_ = &metrics->histogram("fabric.rpc_ns");
  }
}

FabricRouter::~FabricRouter() = default;

FabricEndpoint FabricRouter::endpoint(std::size_t index) const {
  std::lock_guard lock(endpoints_mu_);
  return endpoints_.at(index);
}

std::size_t FabricRouter::add_endpoint(const std::string& host,
                                       std::uint16_t port) {
  std::lock_guard lock(endpoints_mu_);
  endpoints_.push_back(FabricEndpoint{host, port});
  return endpoints_.size() - 1;
}

// ---- lane plumbing ----------------------------------------------------

void FabricRouter::add_inflight(std::int64_t delta) {
  const std::int64_t total =
      inflight_total_.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (inflight_) inflight_->set(static_cast<double>(total));
}

void FabricRouter::prune_replay(Lane& ln, std::uint64_t durable) {
  ln.durable = std::max(ln.durable, durable);
  while (!ln.replay.empty() &&
         ln.replay.front().base + ln.replay.front().count <= ln.durable) {
    ln.replay.pop_front();
  }
}

bool FabricRouter::send_append(Lane& ln, const net::BufWriter& body) {
  if (!ln.conn.send_frame(FrameType::kAppend, body.data())) {
    ln.connected = false;
    return false;
  }
  if (batches_) batches_->add();
  if (bytes_) bytes_->add(body.size() + storage::wire::kFrameOverheadBytes + 1);
  ++ln.unacked;
  add_inflight(1);
  return true;
}

bool FabricRouter::read_ack(Lane& ln, std::size_t slot) {
  auto frame = ln.conn.recv_frame();
  std::uint64_t accepted = 0, durable = 0;
  if (!frame || frame->type != FrameType::kAppendAck ||
      !parse_append_ack(frame->body, accepted, durable)) {
    ln.connected = false;
    return false;
  }
  // Acks return in send order, so the front in-flight entry is the
  // frame this ack answers: its send timestamp gives the full RPC
  // round trip (queue + wire + server), its trace id lets
  // fleet_telemetry() stitch this span against the server-side half.
  if (!ln.inflight_meta.empty()) {
    const auto [trace_id, t0] = ln.inflight_meta.front();
    ln.inflight_meta.pop_front();
    record_rpc(t0, "fabric.append", static_cast<std::uint32_t>(slot),
               trace_id);
  }
  --ln.unacked;
  add_inflight(-1);
  prune_replay(ln, durable);
  return true;
}

bool FabricRouter::try_connect(Lane& ln, std::size_t slot, std::size_t p) {
  add_inflight(-static_cast<std::int64_t>(ln.unacked));
  ln.unacked = 0;
  ln.inflight_meta.clear();  // replay frames below are not ring-timed
  ln.connected = false;
  ln.conn.close();
  FabricEndpoint ep = endpoint(placement_[slot]);
  auto conn = TcpConn::dial(ep.host, ep.port);
  if (!conn) return false;
  ln.conn = std::move(*conn);
  const auto resume = hello(ln.conn, static_cast<std::uint32_t>(slot),
                            static_cast<std::uint32_t>(p));
  if (!resume) return false;
  const std::uint64_t accepted = *resume;
  // Integrity, not connectivity: the server claiming fewer sub-updates
  // than it once reported durable (or more than we ever sent) means a
  // lost or foreign slot directory — retrying cannot fix it.
  if (accepted < ln.durable || accepted > ln.sent) {
    throw std::runtime_error(
        "fabric: server " + describe_endpoint(ep) + " reports " +
        std::to_string(accepted) + " accepted sub-update(s) for slot " +
        std::to_string(slot) + " lane " + std::to_string(p) +
        " outside the client's durable window [" +
        std::to_string(ln.durable) + ", " + std::to_string(ln.sent) + "]");
  }
  ln.connected = true;
  // Resend, whole and in order, every retained frame that reaches past
  // what the (restarted) server accepted, honoring the in-flight window,
  // and drain every ack so the lane comes back with a clean slate.  The
  // server skips the indices of a straddling frame it already holds.
  // Acks may prune the front of the buffer, so each next frame is
  // looked up afresh by where the last resend ended.
  std::uint64_t resent_to = accepted;
  for (;;) {
    auto next = std::partition_point(
        ln.replay.begin(), ln.replay.end(), [&](const ReplayFrame& f) {
          return f.base + f.count <= resent_to;
        });
    if (next == ln.replay.end()) break;
    seal_append(next->body,
                next_trace_id_.fetch_add(1, std::memory_order_relaxed),
                util::wall_clock_ns(), next->base, next->count);
    resent_to = next->base + next->count;
    if (!send_append(ln, next->body)) return false;
    while (ln.unacked >= config_.max_inflight) {
      if (!read_ack(ln, slot)) return false;
    }
  }
  while (ln.unacked > 0) {
    if (!read_ack(ln, slot)) return false;
  }
  return true;
}

void FabricRouter::ensure_connected(Lane& ln, std::size_t slot,
                                    std::size_t p) {
  if (ln.connected && ln.conn.valid()) return;
  if (ln.sent > 0) {
    reconnects_count_.fetch_add(1, std::memory_order_relaxed);
    if (reconnects_) reconnects_->add();
  }
  const util::RetryPolicy& rp = config_.reconnect;
  for (std::size_t attempt = 1; attempt <= rp.attempts(); ++attempt) {
    if (attempt > 1) std::this_thread::sleep_for(rp.delay(attempt - 1));
    if (try_connect(ln, slot, p)) return;
  }
  throw std::runtime_error(
      "fabric: shard server " + describe_endpoint(endpoint(placement_[slot])) +
      " unreachable for slot " + std::to_string(slot) + " after " +
      std::to_string(rp.attempts()) + " attempt(s)");
}

void FabricRouter::send_batch(Lane& ln, std::size_t slot, std::size_t p) {
  if (ln.staged == 0) return;
  ensure_connected(ln, slot, p);
  // Connection lost mid-window: reconnect resends every un-durable
  // frame and drains it, leaving unacked == 0.
  while (ln.unacked >= config_.max_inflight) {
    if (!read_ack(ln, slot)) ensure_connected(ln, slot, p);
  }
  const std::uint64_t trace_id =
      next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  seal_append(ln.staging, trace_id, util::wall_clock_ns(), ln.sent,
              ln.staged);
  // Into the replay buffer BEFORE the send: if the send fails the
  // reconnect path resends straight from replay, so the batch can
  // never be dropped between "staged" and "on the wire".  The copy
  // leaves the staging buffer's capacity for the next frame.
  ln.replay.push_back(ReplayFrame{ln.sent, ln.staged, ln.staging});
  ln.sent += ln.staged;
  ln.staged = 0;
  ln.staging.clear();
  if (!send_append(ln, ln.replay.back().body)) {
    ensure_connected(ln, slot, p);  // resends from replay
    return;
  }
  ln.inflight_meta.emplace_back(trace_id, std::chrono::steady_clock::now());
}

void FabricRouter::drain_lane(Lane& ln, std::size_t slot, std::size_t p) {
  send_batch(ln, slot, p);
  while (ln.unacked > 0) {
    if (!read_ack(ln, slot)) ensure_connected(ln, slot, p);
  }
}

bool FabricRouter::push(std::size_t p, const routing::FeedUpdate& update) {
  if (closed_.load(std::memory_order_acquire)) return false;
  updates_pushed_.fetch_add(1, std::memory_order_relaxed);
  const bgp::UpdateBody& body = update.update.body;
  if (body.withdrawn.empty() && body.announced.empty()) return true;
  const std::uint64_t now = util::wall_clock_ns();
  // Split and stamped exactly as stream::ShardRouter does, and encoded
  // straight from `update` into the lane's frame.
  const std::uint64_t ingest_ns = stream::ingest_stamp(update, now);
  stream::StagingRule& staging = staging_[p];
  bool sent_full = false;
  stream::for_each_sub_update(
      update, num_slots_,
      [&](std::size_t slot, stream::SubKind kind, std::uint32_t index) {
        std::shared_lock lock(*slot_mu_[slot]);
        Lane& ln = lane(slot, p);
        if (ln.staged == 0) {
          begin_append(ln.staging, static_cast<std::uint32_t>(slot),
                       static_cast<std::uint32_t>(p));
          staging.first_staged(slot, now);
        }
        encode_sub_update(update, kind, index, ingest_ns, ln.staging);
        if (++ln.staged < config_.batch_subs) return;
        send_batch(ln, slot, p);
        sent_full = true;
      });
  staging.end_push(
      now, sent_full,
      [&](std::size_t slot) {
        std::shared_lock lock(*slot_mu_[slot]);
        return lane(slot, p).staged != 0;
      },
      [&](std::size_t slot) {
        // Only a full batch waits on the window: an early one goes into
        // a window with room once the acks already back are read, else
        // it keeps filling.  A lost connection sends, which reconnects.
        std::shared_lock lock(*slot_mu_[slot]);
        Lane& ln = lane(slot, p);
        while (ln.connected && ln.unacked > 0 && ln.conn.readable() &&
               read_ack(ln, slot)) {
        }
        if (ln.connected && ln.unacked >= config_.max_inflight) return false;
        send_batch(ln, slot, p);
        return true;
      });
  return true;
}

void FabricRouter::flush(std::size_t p) {
  for (std::size_t slot = 0; slot < num_slots_; ++slot) {
    std::shared_lock lock(*slot_mu_[slot]);
    drain_lane(lane(slot, p), slot, p);
  }
}

void FabricRouter::drain_slot_locked(std::size_t slot) {
  for (std::size_t p = 0; p < num_producers_; ++p) {
    drain_lane(lane(slot, p), slot, p);
  }
}

// ---- control plane ----------------------------------------------------

void FabricRouter::record_rpc(std::chrono::steady_clock::time_point t0,
                              const char* label, std::uint32_t shard,
                              std::uint64_t trace_id) {
  const std::uint64_t ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (rpc_ns_) rpc_ns_->record(ns);
  if (metrics_ && label != nullptr && trace_id != 0) {
    metrics_->trace().maybe_record(label, shard, ns, trace_id);
  }
}

std::optional<TcpConn::FramePayload> FabricRouter::control_rpc(
    std::size_t endpoint_index, FrameType type,
    const std::function<void(net::BufWriter&)>& build_body,
    FrameType expect, const ControlSpan& span) {
  const util::RetryPolicy& rp = config_.reconnect;
  for (std::size_t attempt = 1; attempt <= rp.attempts(); ++attempt) {
    if (attempt > 1) std::this_thread::sleep_for(rp.delay(attempt - 1));
    FabricEndpoint ep = endpoint(endpoint_index);
    auto conn = TcpConn::dial(ep.host, ep.port);
    if (!conn || !hello(*conn, kControlLane, kControlLane)) continue;
    net::BufWriter body;
    build_body(body);
    auto t0 = std::chrono::steady_clock::now();
    if (!conn->send_frame(type, body.data())) continue;
    auto reply = conn->recv_frame();
    if (!reply) continue;
    record_rpc(t0, span.label, span.shard, span.trace_id);
    // An ERROR or wrong-type reply is a protocol-level refusal, not a
    // transient network fault; retrying would only repeat it.
    if (reply->type != expect) return std::nullopt;
    return reply;
  }
  return std::nullopt;
}

bool FabricRouter::checkpoint_slot_locked(std::size_t slot) {
  const std::uint64_t trace_id =
      next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  auto reply = control_rpc(
      placement_[slot], FrameType::kCheckpoint,
      [&](net::BufWriter& body) {
        body.u32(static_cast<std::uint32_t>(slot));
        body.u64(trace_id);
        body.u64(util::wall_clock_ns());
      },
      FrameType::kCheckpointAck,
      ControlSpan{"fabric.checkpoint", static_cast<std::uint32_t>(slot),
                  trace_id});
  if (!reply) return false;
  net::BufReader r(reply->body);
  std::uint8_t ok = r.u8();
  std::uint32_t producers = r.u32();
  if (!r.ok() || ok == 0) return false;
  for (std::uint32_t p = 0; p < producers && p < num_producers_; ++p) {
    std::uint64_t durable = r.u64();
    if (!r.ok()) return false;
    prune_replay(lane(slot, p), durable);
  }
  return true;
}

bool FabricRouter::checkpoint_all() {
  bool all_ok = true;
  for (std::size_t slot = 0; slot < num_slots_; ++slot) {
    std::unique_lock lock(*slot_mu_[slot]);
    drain_slot_locked(slot);
    all_ok = checkpoint_slot_locked(slot) && all_ok;
  }
  return all_ok;
}

void FabricRouter::close(util::SimTime end_time) {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  bool all_ok = true;
  for (std::size_t slot = 0; slot < num_slots_; ++slot) {
    std::unique_lock lock(*slot_mu_[slot]);
    drain_slot_locked(slot);
    all_ok = control_rpc(
                 placement_[slot], FrameType::kClose,
                 [&](net::BufWriter& body) {
                   body.u32(static_cast<std::uint32_t>(slot));
                   body.u64(static_cast<std::uint64_t>(end_time));
                 },
                 FrameType::kCloseAck, ControlSpan{})
                 .has_value() &&
             all_ok;
  }
  if (!all_ok) {
    throw std::runtime_error(
        "fabric: close() could not reach every shard server; remote open "
        "state was not force-closed");
  }
}

std::vector<core::PeerEvent> FabricRouter::query_events() {
  std::vector<std::vector<core::PeerEvent>> per_slot(num_slots_);
  std::atomic<bool> failed{false};
  std::vector<std::thread> fan;
  fan.reserve(num_slots_);
  for (std::size_t slot = 0; slot < num_slots_; ++slot) {
    fan.emplace_back([this, slot, &per_slot, &failed] {
      try {
        std::shared_lock lock(*slot_mu_[slot]);
        const std::uint64_t trace_id =
            next_trace_id_.fetch_add(1, std::memory_order_relaxed);
        auto reply = control_rpc(
            placement_[slot], FrameType::kQuery,
            [&](net::BufWriter& body) {
              body.u32(static_cast<std::uint32_t>(slot));
              body.u64(trace_id);
              body.u64(util::wall_clock_ns());
            },
            FrameType::kQueryResult,
            ControlSpan{"fabric.query", static_cast<std::uint32_t>(slot),
                        trace_id});
        if (!reply) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        net::BufReader r(reply->body);
        std::uint32_t n = r.u32();
        per_slot[slot].reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          std::uint32_t len = r.u32();
          if (!r.ok() || len > r.remaining()) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
          net::BufReader payload = r.sub(len);
          auto event = storage::decode_event_payload(payload);
          if (!event || !payload.ok() || !payload.at_end()) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
          per_slot[slot].push_back(std::move(*event));
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : fan) t.join();
  if (failed.load()) {
    throw std::runtime_error("fabric: scatter-gather query failed");
  }
  std::vector<core::PeerEvent> merged;
  std::size_t total = 0;
  for (const auto& v : per_slot) total += v.size();
  merged.reserve(total);
  for (auto& v : per_slot) {
    merged.insert(merged.end(), std::make_move_iterator(v.begin()),
                  std::make_move_iterator(v.end()));
  }
  core::canonical_sort(merged);
  return merged;
}

bool FabricRouter::migrate(std::size_t slot, std::size_t target_endpoint) {
  std::unique_lock lock(*slot_mu_[slot]);
  if (placement_[slot] == target_endpoint) return true;
  // 1. Quiesce: every lane drained and server-accepted.
  drain_slot_locked(slot);
  // 2. Drained checkpoint on the source: open state + watermarks +
  //    durable log position, with all closed events sealed to disk.
  if (!checkpoint_slot_locked(slot)) return false;
  // 3. Ship the slot directory (checkpoint + pinned segment suffix).
  const auto slot_body = [slot](net::BufWriter& body) {
    body.u32(static_cast<std::uint32_t>(slot));
  };
  auto fetched = control_rpc(placement_[slot], FrameType::kHandoffFetch,
                             slot_body, FrameType::kHandoffState, ControlSpan{});
  if (!fetched) return false;
  net::BufReader fr(fetched->body);
  auto files = decode_files(fr);
  if (!files) return false;
  // 4. Install + recover on the target; it reports the accepted counts
  //    it recovered to, which must equal everything we ever sent.
  auto ack = control_rpc(
      target_endpoint, FrameType::kHandoffInstall,
      [&](net::BufWriter& install) {
        install.u32(static_cast<std::uint32_t>(slot));
        encode_files(*files, install);
      },
      FrameType::kHandoffAck, ControlSpan{});
  if (!ack) return false;
  net::BufReader ar(ack->body);
  std::uint8_t ok = ar.u8();
  std::uint32_t producers = ar.u32();
  if (!ar.ok() || ok == 0) return false;
  for (std::uint32_t p = 0; p < producers && p < num_producers_; ++p) {
    std::uint64_t accepted = ar.u64();
    if (!ar.ok() || accepted != lane(slot, p).sent) return false;
  }
  // 5. Release the source replica, flip the route, reconnect lazily.
  if (!control_rpc(placement_[slot], FrameType::kRelease, slot_body,
                   FrameType::kReleaseAck, ControlSpan{})) {
    return false;
  }
  placement_[slot] = target_endpoint;
  for (std::size_t p = 0; p < num_producers_; ++p) {
    Lane& ln = lane(slot, p);
    ln.connected = false;
    ln.conn.close();
  }
  return true;
}

void FabricRouter::shutdown_endpoints() {
  std::size_t count;
  {
    std::lock_guard lock(endpoints_mu_);
    count = endpoints_.size();
  }
  for (std::size_t e = 0; e < count; ++e) {
    control_rpc(e, FrameType::kShutdown, [](net::BufWriter&) {},
                FrameType::kShutdownAck, ControlSpan{});
  }
}

telemetry::FleetTelemetry FabricRouter::fleet_telemetry() {
  telemetry::FleetTelemetry fleet;
  std::size_t count;
  {
    std::lock_guard lock(endpoints_mu_);
    count = endpoints_.size();
  }
  for (std::size_t e = 0; e < count; ++e) {
    const std::uint64_t trace_id =
        next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    auto reply = control_rpc(
        e, FrameType::kStats,
        [&](net::BufWriter& body) {
          body.u64(trace_id);
          body.u64(util::wall_clock_ns());
          body.u32(1024);  // slow spans per slot — generous, bounded
        },
        FrameType::kStatsAck,
        ControlSpan{"fabric.stats", static_cast<std::uint32_t>(e), trace_id});
    // An unreachable endpoint is skipped: the fold covers what
    // answered, and the per-endpoint split shows who is missing.
    if (!reply) continue;
    net::BufReader r(reply->body);
    std::uint32_t n_slots = r.u32();
    if (!r.ok()) continue;
    telemetry::EndpointTelemetry et;
    et.endpoint = describe_endpoint(endpoint(e));
    et.slots.reserve(n_slots);
    bool ok = true;
    for (std::uint32_t i = 0; i < n_slots; ++i) {
      auto st = telemetry::decode_slot_telemetry(r);
      if (!st) {
        ok = false;
        break;
      }
      et.slots.push_back(std::move(*st));
    }
    if (!ok) continue;
    fleet.endpoints.push_back(std::move(et));
  }
  fleet.folded = telemetry::fold_fleet(fleet.endpoints);
  // Stitch: a remote span whose trace id matches one of this router's
  // ring records pairs the RPC's two halves — client wall time minus
  // the server handler's time is wire + queue.
  if (metrics_) {
    const auto local = metrics_->trace().recent();
    std::unordered_map<std::uint64_t, const telemetry::TraceRecord*> by_id;
    by_id.reserve(local.size());
    for (const auto& rec : local) {
      if (rec.trace_id != 0) by_id[rec.trace_id] = &rec;
    }
    for (const auto& et : fleet.endpoints) {
      for (const auto& st : et.slots) {
        for (const auto& sp : st.spans) {
          if (sp.trace_id == 0) continue;
          auto it = by_id.find(sp.trace_id);
          if (it == by_id.end()) continue;
          const telemetry::TraceRecord& cl = *it->second;
          telemetry::StitchedRpc stitched;
          stitched.trace_id = sp.trace_id;
          stitched.client_label = cl.label;
          stitched.server_label = sp.label;
          stitched.slot = st.slot;
          stitched.client_ns = cl.duration_ns;
          stitched.server_ns = sp.duration_ns;
          stitched.wire_queue_ns = cl.duration_ns > sp.duration_ns
                                       ? cl.duration_ns - sp.duration_ns
                                       : 0;
          fleet.stitched.push_back(std::move(stitched));
        }
      }
    }
  }
  return fleet;
}

}  // namespace bgpbh::fabric
