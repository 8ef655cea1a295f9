// ShardServer: the server half of the multi-process shard fabric.
//
// One process hosts any number of slots; each slot is a full
// api::AnalysisSession (kLiveFeed, num_shards = 1, persist_dir =
// <dir>/slot-<id>, recover = true with suffix feeding) — so a slot
// gets the ENTIRE single-machine stack: engine, event store, segment
// log, checkpoints, telemetry.  The fabric adds nothing to the data
// plane; it only moves slots behind sockets.
//
// Protocol handling (fabric/protocol.h):
//   * HELLO        version check (ERROR unless the peer's range holds
//                  kFabricVersion); data lanes also learn the slot's
//                  recovered accepted count for their producer.
//   * APPEND       idempotent by sub-update index: indices below the
//                  accepted count are replay duplicates and are
//                  skipped; a gap above it is a protocol error.
//   * CHECKPOINT   drain + checkpoint_now on the slot session — the
//                  drained cut that advances the durable totals.
//   * QUERY        the slot's full event set, record-codec payloads.
//   * CLOSE        session.close(end_time): force-close open events.
//   * HANDOFF_FETCH / HANDOFF_INSTALL / RELEASE
//                  migration: ship the quiesced slot directory,
//                  recover it on the target, drop the source replica.
//   * HEALTH       slot count + worst session health.
//   * SHUTDOWN     graceful exit (run loop stops, wait() returns).
//
// Concurrency: one blocking thread per connection.  A slot has a
// shared_mutex (APPEND/QUERY shared, control ops exclusive) plus one
// mutex per producer lane, so a reconnecting lane can never race its
// predecessor's last push.  Slot sessions are created lazily on first
// touch and recover themselves from their directory — a SIGKILLed
// server restarted on the same directory resumes where its last
// drained checkpoint left every slot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/study.h"
#include "fabric/socket.h"
#include "telemetry/metrics.h"

namespace bgpbh::fabric {

struct ShardServerConfig {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  // Root directory: slot <id> persists under <dir>/slot-<id>.
  std::string dir;
  // Substrates + window for every slot session.  table_dump_episodes
  // is forced to 0 (each slot session would fold the dump once,
  // duplicating its opens across slots; clients replicate the
  // restriction).
  core::StudyConfig study;
  std::size_t num_producers = 1;
  telemetry::MetricsRegistry* metrics = nullptr;  // optional, borrowed
  // Trace-ring configuration for every slot session: enable it so
  // server-side RPC spans (fabric.server.*) reach the ring and can be
  // stitched against client spans via STATS / fleet_telemetry().
  telemetry::TraceConfig trace;
};

class ShardServer {
 public:
  // Binds + starts the accept loop; throws std::runtime_error when the
  // port cannot be bound.
  explicit ShardServer(ShardServerConfig config);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  // Blocks until a SHUTDOWN frame arrives (or stop() is called).
  void wait();
  // Stop accepting, sever every connection, join all threads, destroy
  // the slot sessions (their directories stay — a restart recovers).
  // Idempotent.
  void stop();

  std::size_t slots_hosted() const;

 private:
  struct Slot {
    std::shared_mutex mu;  // session lifecycle + control vs data ops
    std::unique_ptr<api::AnalysisSession> session;
    // Per-producer lane serialization: a reconnected lane's APPEND
    // must not race the predecessor connection's in-flight push.
    std::vector<std::unique_ptr<std::mutex>> lane_mu;
    // Sub-updates accepted / made durable per producer (lane indices).
    std::vector<std::uint64_t> accepted;
    std::vector<std::uint64_t> durable;
    bool released = false;
  };

  void accept_loop();
  void serve(TcpConn& conn);
  // Handlers return false to drop the connection (after kError).
  bool handle_frame(TcpConn& conn, const TcpConn::FramePayload& frame);
  bool handle_append(TcpConn& conn, const std::vector<std::uint8_t>& body);
  bool handle_query(TcpConn& conn, const std::vector<std::uint8_t>& body);
  bool handle_checkpoint(TcpConn& conn, const std::vector<std::uint8_t>& body);
  bool handle_stats(TcpConn& conn, const std::vector<std::uint8_t>& body);
  bool handle_close(TcpConn& conn, const std::vector<std::uint8_t>& body);
  bool handle_health(TcpConn& conn);
  bool handle_handoff_fetch(TcpConn& conn,
                            const std::vector<std::uint8_t>& body);
  bool handle_handoff_install(TcpConn& conn,
                              const std::vector<std::uint8_t>& body);
  bool handle_release(TcpConn& conn, const std::vector<std::uint8_t>& body);

  std::string slot_dir(std::uint32_t slot) const;
  // Slot by id, created (and recovered from its directory) on first
  // touch.  Callers then lock slot->mu themselves.
  Slot& slot(std::uint32_t id);
  // Builds the slot's session from its directory (recover = true) and
  // seeds accepted/durable from the recovered totals.  Requires the
  // slot's unique lock.
  void open_slot_session_locked(Slot& s, std::uint32_t id);
  static bool send_error(TcpConn& conn, const std::string& message);

  ShardServerConfig config_;
  TcpListener listener_;
  std::thread accept_thread_;
  mutable std::mutex slots_mu_;
  std::map<std::uint32_t, std::unique_ptr<Slot>> slots_;
  // One entry per live connection.  serve() marks its entry done
  // under conns_mu_ while its fd is still open, so stop() never shuts
  // down a closed (possibly reused) fd number; accept_loop() reaps done
  // entries, so finished connections do not pile up.
  struct Conn {
    std::thread thread;
    int fd = -1;
    bool done = false;
  };
  std::mutex conns_mu_;
  std::list<Conn> conns_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace bgpbh::fabric
