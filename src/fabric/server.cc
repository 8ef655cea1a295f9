#include "fabric/server.h"

#include <sys/socket.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "storage/record_codec.h"
#include "telemetry/fleet.h"
#include "util/time.h"

namespace bgpbh::fabric {

namespace fs = std::filesystem;

namespace {

// Wall-clock delay between the client stamping a traced RPC and the
// server starting to handle it (wire + accept queue + clock skew).
void record_ingress_delay(telemetry::MetricsRegistry& reg,
                          std::uint64_t origin_ns) {
  if (origin_ns == 0) return;
  const std::uint64_t now = util::wall_clock_ns();
  if (now > origin_ns) {
    reg.histogram("fabric.server.ingress_delay_ns").record(now - origin_ns);
  }
}

}  // namespace

ShardServer::ShardServer(ShardServerConfig config)
    : config_(std::move(config)) {
  // One dump fold per slot session would duplicate the dump's opens
  // across slots; the client enforces the same restriction.
  config_.study.table_dump_episodes = 0;
  if (config_.num_producers == 0) config_.num_producers = 1;
  if (config_.dir.empty()) {
    throw std::runtime_error("fabric: ShardServer requires a data directory");
  }
  auto listener = TcpListener::listen(config_.port);
  if (!listener) {
    throw std::runtime_error("fabric: could not bind port " +
                             std::to_string(config_.port));
  }
  listener_ = std::move(*listener);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::wait() {
  std::unique_lock lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stopping_; });
}

void ShardServer::stop() {
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Conn> conns;
  {
    // Wake every live connection thread blocked in recv; the fds are
    // owned by the TcpConn inside each thread, so only shutdown() here.
    std::lock_guard lock(conns_mu_);
    for (const Conn& c : conns_) {
      if (!c.done) ::shutdown(c.fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  for (Conn& c : conns) c.thread.join();
  // Sessions are destroyed without close(): the slot directories hold
  // everything up to the last drained checkpoint, which is exactly
  // what a restart (or migration target) recovers.
  std::lock_guard lock(slots_mu_);
  slots_.clear();
}

std::size_t ShardServer::slots_hosted() const {
  std::lock_guard lock(slots_mu_);
  std::size_t n = 0;
  for (const auto& [id, slot] : slots_) {
    if (!slot->released) ++n;
  }
  return n;
}

void ShardServer::accept_loop() {
  for (;;) {
    auto conn = listener_.accept();
    if (!conn) return;  // shutdown
    std::vector<std::thread> finished;
    {
      std::lock_guard lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (!it->done) {
          ++it;
          continue;
        }
        finished.push_back(std::move(it->thread));
        it = conns_.erase(it);
      }
      Conn& entry = conns_.emplace_back();
      entry.fd = conn->fd();
      entry.thread = std::thread([this, &entry, c = std::move(*conn)]() mutable {
        serve(c);
        std::lock_guard done_lock(conns_mu_);
        entry.done = true;  // before c closes the fd
      });
    }
    for (std::thread& t : finished) t.join();
  }
}

std::string ShardServer::slot_dir(std::uint32_t slot) const {
  return config_.dir + "/slot-" + std::to_string(slot);
}

ShardServer::Slot& ShardServer::slot(std::uint32_t id) {
  std::lock_guard lock(slots_mu_);
  auto& entry = slots_[id];
  if (!entry) {
    entry = std::make_unique<Slot>();
    entry->lane_mu.reserve(config_.num_producers);
    for (std::size_t p = 0; p < config_.num_producers; ++p) {
      entry->lane_mu.push_back(std::make_unique<std::mutex>());
    }
    entry->accepted.assign(config_.num_producers, 0);
    entry->durable.assign(config_.num_producers, 0);
  }
  return *entry;
}

void ShardServer::open_slot_session_locked(Slot& s, std::uint32_t id) {
  if (s.session) return;
  api::SessionConfig sc;
  sc.mode = api::SessionConfig::Mode::kLiveFeed;
  sc.study = config_.study;
  // The slot IS the shard: the client already routed by
  // stream::shard_for, so the local pipeline must not re-partition.
  sc.num_shards = 1;
  sc.num_producers = config_.num_producers;
  sc.persist_dir = slot_dir(id);
  // Recover from the newest drained cut; the client feeds only the
  // post-cut suffix (HELLO tells it where to resume), so replay-skips
  // must stay off.
  sc.recover = true;
  sc.recover_suffix_feed = true;
  // The client runs the poison quarantine; admitting everything here
  // keeps the lane index spaces aligned with what the client sent.
  sc.max_as_path_hops = std::size_t{1} << 20;
  sc.max_communities = std::size_t{1} << 20;
  sc.poison_error_budget = UINT64_MAX;
  // Supervision threads add nothing per-slot here: the watchdog would
  // be one thread per slot, and checkpoints are cut on demand.
  sc.stall_deadline = std::chrono::milliseconds(0);
  sc.checkpoint_every = 0;
  sc.trace = config_.trace;
  s.session = std::make_unique<api::AnalysisSession>(sc);
  telemetry::MetricsRegistry& reg = s.session->telemetry();
  reg.describe("fabric.server.append_ns",
               "Server-side APPEND handling latency (ns: decode + engine "
               "push, per batch)");
  reg.describe("fabric.server.query_ns",
               "Server-side QUERY handling latency (ns: drain + event "
               "serialization)");
  reg.describe("fabric.server.checkpoint_ns",
               "Server-side CHECKPOINT handling latency (ns: drain + "
               "checkpoint cut)");
  reg.describe("fabric.server.ingress_delay_ns",
               "Client send -> server receive delay per traced RPC (ns, "
               "wall clocks on both sides; includes clock skew)");
  s.session->start();
  const auto& recovered = s.session->recovered_updates_accepted();
  for (std::size_t p = 0; p < config_.num_producers; ++p) {
    std::uint64_t n = p < recovered.size() ? recovered[p] : 0;
    s.accepted[p] = n;
    s.durable[p] = n;
  }
}

bool ShardServer::send_error(TcpConn& conn, const std::string& message) {
  net::BufWriter body;
  body.bytes(std::span(reinterpret_cast<const std::uint8_t*>(message.data()),
                       message.size()));
  conn.send_frame(FrameType::kError, body.data());
  return false;  // drop the connection
}

void ShardServer::serve(TcpConn& conn) {
  // HELLO first: the version check, and for data lanes the accepted
  // count the client resumes from.
  auto hello = conn.recv_frame();
  if (!hello || hello->type != FrameType::kHello) return;
  net::BufReader r(hello->body);
  std::uint8_t peer_min = r.u8();
  std::uint8_t peer_max = r.u8();
  std::uint32_t slot_id = r.u32();
  std::uint32_t producer = r.u32();
  if (!r.ok() || !r.at_end()) return;
  if (kFabricVersion < peer_min || kFabricVersion > peer_max) {
    send_error(conn, "no common fabric protocol version");
    return;
  }
  std::uint64_t accepted = 0;
  if (slot_id != kControlLane) {
    if (producer >= config_.num_producers) {
      send_error(conn, "producer index out of range");
      return;
    }
    Slot& s = slot(slot_id);
    std::unique_lock lock(s.mu);
    open_slot_session_locked(s, slot_id);
    accepted = s.accepted[producer];
  }
  net::BufWriter ack;
  ack.u8(kFabricVersion);
  ack.u64(accepted);
  if (!conn.send_frame(FrameType::kHelloAck, ack.data())) return;
  for (;;) {
    auto frame = conn.recv_frame();
    if (!frame) return;  // EOF / reset / torn frame
    if (!handle_frame(conn, *frame)) return;
  }
}

bool ShardServer::handle_frame(TcpConn& conn,
                               const TcpConn::FramePayload& frame) {
  switch (frame.type) {
    case FrameType::kAppend:
      return handle_append(conn, frame.body);
    case FrameType::kQuery:
      return handle_query(conn, frame.body);
    case FrameType::kCheckpoint:
      return handle_checkpoint(conn, frame.body);
    case FrameType::kStats:
      return handle_stats(conn, frame.body);
    case FrameType::kClose:
      return handle_close(conn, frame.body);
    case FrameType::kHealth:
      return handle_health(conn);
    case FrameType::kHandoffFetch:
      return handle_handoff_fetch(conn, frame.body);
    case FrameType::kHandoffInstall:
      return handle_handoff_install(conn, frame.body);
    case FrameType::kRelease:
      return handle_release(conn, frame.body);
    case FrameType::kShutdown: {
      conn.send_frame(FrameType::kShutdownAck, {});
      // Wake wait(); the driver then runs stop() from its own thread
      // (this thread cannot join itself).
      {
        std::lock_guard lock(stop_mu_);
        stopping_ = true;
      }
      stop_cv_.notify_all();
      return false;
    }
    default:
      return send_error(conn, "unexpected frame type");
  }
}

bool ShardServer::handle_append(TcpConn& conn,
                                const std::vector<std::uint8_t>& body) {
  net::BufReader r(body);
  std::uint32_t slot_id = r.u32();
  std::uint32_t producer = r.u32();
  std::uint64_t trace_id = r.u64();
  std::uint64_t origin_ns = r.u64();
  std::uint64_t base = r.u64();
  std::uint32_t count = r.u32();
  if (!r.ok() || producer >= config_.num_producers) {
    return send_error(conn, "malformed APPEND header");
  }
  Slot& s = slot(slot_id);
  std::shared_lock lock(s.mu);
  if (!s.session) {
    lock.unlock();
    {
      std::unique_lock create(s.mu);
      open_slot_session_locked(s, slot_id);
    }
    lock.lock();
  }
  // Server half of the RPC trace: a span bound to the client's trace
  // id, recorded into the slot session's registry/ring so STATS ships
  // it back for stitching.  Registry lookups here are per-batch, not
  // per-sub-update — wiring cost amortized over the batch.
  telemetry::MetricsRegistry& reg = s.session->telemetry();
  record_ingress_delay(reg, origin_ns);
  telemetry::ScopedSpan span(&reg.histogram("fabric.server.append_ns"),
                             &reg.trace(), "fabric.server.append", producer,
                             trace_id);
  std::lock_guard lane(*s.lane_mu[producer]);
  if (base > s.accepted[producer]) {
    // The client never advances past an unacked frame, so a gap means
    // the two sides disagree about history — refuse loudly.
    return send_error(conn, "APPEND gap: base " + std::to_string(base) +
                                " > accepted " +
                                std::to_string(s.accepted[producer]));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    auto sub = decode_sub_update(r);
    if (!sub) return send_error(conn, "malformed sub-update");
    std::uint64_t index = base + i;
    if (index < s.accepted[producer]) continue;  // replay duplicate
    if (!s.session->push(*sub, producer)) {
      return send_error(conn, "slot session refused a sub-update");
    }
    s.accepted[producer] = index + 1;
  }
  if (!r.at_end()) return send_error(conn, "trailing bytes after APPEND");
  net::BufWriter ack;
  ack.u64(s.accepted[producer]);
  ack.u64(s.durable[producer]);
  return conn.send_frame(FrameType::kAppendAck, ack.data());
}

bool ShardServer::handle_query(TcpConn& conn,
                               const std::vector<std::uint8_t>& body) {
  net::BufReader r(body);
  std::uint32_t slot_id = r.u32();
  std::uint64_t trace_id = r.u64();
  std::uint64_t origin_ns = r.u64();
  if (!r.ok() || !r.at_end()) return send_error(conn, "malformed QUERY");
  Slot& s = slot(slot_id);
  std::shared_lock lock(s.mu);
  std::vector<core::PeerEvent> events;
  std::optional<telemetry::ScopedSpan> span;
  if (s.session) {
    telemetry::MetricsRegistry& reg = s.session->telemetry();
    record_ingress_delay(reg, origin_ns);
    span.emplace(&reg.histogram("fabric.server.query_ns"), &reg.trace(),
                 "fabric.server.query", slot_id, trace_id);
    events = s.session->events();
  }
  net::BufWriter out;
  out.u32(static_cast<std::uint32_t>(events.size()));
  for (const auto& event : events) {
    net::BufWriter payload;
    storage::encode_event_payload(event, payload);
    out.u32(static_cast<std::uint32_t>(payload.size()));
    out.bytes(payload.data());
  }
  return conn.send_frame(FrameType::kQueryResult, out.data());
}

bool ShardServer::handle_checkpoint(TcpConn& conn,
                                    const std::vector<std::uint8_t>& body) {
  net::BufReader r(body);
  std::uint32_t slot_id = r.u32();
  std::uint64_t trace_id = r.u64();
  std::uint64_t origin_ns = r.u64();
  if (!r.ok() || !r.at_end()) return send_error(conn, "malformed CHECKPOINT");
  Slot& s = slot(slot_id);
  std::unique_lock lock(s.mu);
  bool ok = false;
  if (s.session && !s.session->closed()) {
    telemetry::MetricsRegistry& reg = s.session->telemetry();
    record_ingress_delay(reg, origin_ns);
    telemetry::ScopedSpan span(&reg.histogram("fabric.server.checkpoint_ns"),
                               &reg.trace(), "fabric.server.checkpoint",
                               slot_id, trace_id);
    // Drain first: at a fully drained cut the per-producer watermark
    // sums equal the accepted counts — the invariant HELLO's resume
    // index depends on.
    s.session->drain();
    ok = s.session->checkpoint_now();
    if (ok) s.durable = s.accepted;
  }
  net::BufWriter ack;
  ack.u8(ok ? 1 : 0);
  ack.u32(static_cast<std::uint32_t>(config_.num_producers));
  for (std::size_t p = 0; p < config_.num_producers; ++p) {
    ack.u64(s.durable[p]);
  }
  return conn.send_frame(FrameType::kCheckpointAck, ack.data());
}

bool ShardServer::handle_stats(TcpConn& conn,
                               const std::vector<std::uint8_t>& body) {
  net::BufReader r(body);
  const std::uint64_t trace_id = r.u64();
  (void)trace_id;  // carried for symmetry; STATS itself is not traced
  const std::uint64_t origin_ns = r.u64();
  std::uint32_t max_spans = r.u32();
  if (!r.ok() || !r.at_end()) return send_error(conn, "malformed STATS");
  // Collect slot ids first, then take each slot's shared lock without
  // holding the directory mutex (a concurrent APPEND must not block on
  // a fleet scrape).
  std::vector<std::uint32_t> ids;
  {
    std::lock_guard lock(slots_mu_);
    ids.reserve(slots_.size());
    for (const auto& [id, s] : slots_) ids.push_back(id);
  }
  net::BufWriter out;
  std::size_t n_slots = 0;
  const std::size_t count_pos = out.size();
  out.u32(0);  // patched below
  for (std::uint32_t id : ids) {
    Slot& s = slot(id);
    std::shared_lock lock(s.mu);
    if (s.released || !s.session) continue;
    telemetry::MetricsRegistry& reg = s.session->telemetry();
    record_ingress_delay(reg, origin_ns);
    telemetry::SlotTelemetry slot_telemetry;
    slot_telemetry.slot = id;
    slot_telemetry.metrics = reg.snapshot();
    auto records = reg.trace().recent();
    const std::size_t first = records.size() > max_spans
                                  ? records.size() - max_spans
                                  : 0;  // newest max_spans records
    slot_telemetry.spans.reserve(records.size() - first);
    for (std::size_t i = first; i < records.size(); ++i) {
      const telemetry::TraceRecord& rec = records[i];
      slot_telemetry.spans.push_back(telemetry::FleetSpan{
          .label = rec.label,
          .shard = rec.shard,
          .duration_ns = rec.duration_ns,
          .seq = rec.seq,
          .trace_id = rec.trace_id,
      });
    }
    telemetry::encode_slot_telemetry(slot_telemetry, out);
    ++n_slots;
  }
  out.patch_u32(count_pos, static_cast<std::uint32_t>(n_slots));
  return conn.send_frame(FrameType::kStatsAck, out.data());
}

bool ShardServer::handle_close(TcpConn& conn,
                               const std::vector<std::uint8_t>& body) {
  net::BufReader r(body);
  std::uint32_t slot_id = r.u32();
  std::uint64_t end_time = r.u64();
  if (!r.ok() || !r.at_end()) return send_error(conn, "malformed CLOSE");
  Slot& s = slot(slot_id);
  std::unique_lock lock(s.mu);
  if (s.session && !s.session->closed()) {
    s.session->close(static_cast<util::SimTime>(end_time));
  }
  return conn.send_frame(FrameType::kCloseAck, {});
}

bool ShardServer::handle_health(TcpConn& conn) {
  std::uint8_t worst = 0;
  std::uint32_t hosted = 0;
  {
    std::lock_guard lock(slots_mu_);
    for (const auto& [id, s] : slots_) {
      if (s->released) continue;
      ++hosted;
      // Sampling health without the slot lock is fine: health() is
      // thread-safe by contract.
      if (s->session) {
        auto state = static_cast<std::uint8_t>(
            static_cast<int>(s->session->health().state));
        worst = std::max(worst, state);
      }
    }
  }
  net::BufWriter ack;
  ack.u32(hosted);
  ack.u8(worst);
  return conn.send_frame(FrameType::kHealthAck, ack.data());
}

bool ShardServer::handle_handoff_fetch(TcpConn& conn,
                                       const std::vector<std::uint8_t>& body) {
  net::BufReader r(body);
  std::uint32_t slot_id = r.u32();
  if (!r.ok() || !r.at_end()) {
    return send_error(conn, "malformed HANDOFF_FETCH");
  }
  Slot& s = slot(slot_id);
  std::unique_lock lock(s.mu);
  if (!s.session) return send_error(conn, "HANDOFF_FETCH on an empty slot");
  std::vector<HandoffFile> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(slot_dir(slot_id), ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) return send_error(conn, "unreadable slot file");
    HandoffFile f;
    f.name = entry.path().filename().string();
    f.bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    files.push_back(std::move(f));
  }
  if (ec) return send_error(conn, "unreadable slot directory");
  net::BufWriter out;
  encode_files(files, out);
  return conn.send_frame(FrameType::kHandoffState, out.data());
}

bool ShardServer::handle_handoff_install(
    TcpConn& conn, const std::vector<std::uint8_t>& body) {
  net::BufReader r(body);
  std::uint32_t slot_id = r.u32();
  if (!r.ok()) return send_error(conn, "malformed HANDOFF_INSTALL");
  auto files = decode_files(r);
  if (!files || !r.at_end()) {
    return send_error(conn, "malformed HANDOFF_INSTALL file set");
  }
  Slot& s = slot(slot_id);
  std::unique_lock lock(s.mu);
  if (s.session) {
    return send_error(conn, "HANDOFF_INSTALL onto a live slot");
  }
  // A released (or stale) replica's directory must not leak files into
  // the installed state.
  const std::string dir = slot_dir(slot_id);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return send_error(conn, "could not create slot directory");
  for (const auto& f : *files) {
    std::ofstream out(dir + "/" + f.name, std::ios::binary);
    if (!out) return send_error(conn, "could not write slot file");
    out.write(reinterpret_cast<const char*>(f.bytes.data()),
              static_cast<std::streamsize>(f.bytes.size()));
    if (!out) return send_error(conn, "short write installing slot file");
  }
  s.released = false;
  open_slot_session_locked(s, slot_id);
  net::BufWriter ack;
  ack.u8(1);
  ack.u32(static_cast<std::uint32_t>(config_.num_producers));
  for (std::size_t p = 0; p < config_.num_producers; ++p) {
    ack.u64(s.accepted[p]);
  }
  return conn.send_frame(FrameType::kHandoffAck, ack.data());
}

bool ShardServer::handle_release(TcpConn& conn,
                                 const std::vector<std::uint8_t>& body) {
  net::BufReader r(body);
  std::uint32_t slot_id = r.u32();
  if (!r.ok() || !r.at_end()) return send_error(conn, "malformed RELEASE");
  Slot& s = slot(slot_id);
  std::unique_lock lock(s.mu);
  s.session.reset();
  s.released = true;
  for (std::size_t p = 0; p < config_.num_producers; ++p) {
    s.accepted[p] = 0;
    s.durable[p] = 0;
  }
  return conn.send_frame(FrameType::kReleaseAck, {});
}

}  // namespace bgpbh::fabric
