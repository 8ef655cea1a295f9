// Multi-process shard-fabric suite (src/fabric/):
//   * storage::wire frame version-range and CRC rejection (the shared
//     record/fabric framing),
//   * consistent-hash placement: determinism, and the add-an-endpoint
//     property (slots either stay put or move to the new endpoint),
//   * control-plane smoke over a real socket: HELLO + HEALTH against a
//     fork/exec'd shard_server, and an ERROR for a HELLO whose version
//     range excludes the fabric's one version,
//   * the headline grid: the full deterministic workload pushed
//     through fabric clients against live shard-server processes, the
//     scatter-gathered event set byte-identical to the in-process
//     baseline across slots {1,3,8} x producers {1,3},
//   * crash: SIGKILL a shard server mid-stream after a drained
//     checkpoint, restart it on the same directory/port, and the
//     lane replay completes the run with zero loss/duplication,
//   * rebalance: migrate every slot onto a server spawned mid-stream,
//     keep feeding, and the final event set is still byte-identical,
//   * wire bytes: a golden APPEND body, as first sent and as replayed
//     whole after a dropped connection,
//   * latency: a slow feed's closing update reaches its shard server
//     without flush(),
//   * connections: finished control connections are reaped, so a
//     long-lived server's memory stays flat across many RPCs.
#include "fabric/router.h"

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <span>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bgp/rib.h"
#include "fabric/placement.h"
#include "fabric/protocol.h"
#include "fabric/socket.h"
#include "net/bytes.h"
#include "storage/wire.h"
#include "stream/pipeline.h"
#include "telemetry/fleet.h"
#include "telemetry/metrics.h"

namespace bgpbh::fabric {
namespace {

namespace fs = std::filesystem;
using core::PeerEvent;
using routing::FeedUpdate;

std::string temp_dir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

// Must match the shard_server defaults the spawner passes below: both
// sides derive their substrates deterministically from these knobs.
core::StudyConfig study_config() {
  core::StudyConfig config;
  config.window_start = util::from_date(2017, 3, 1);
  config.window_end = util::from_date(2017, 3, 3);
  config.workload.intensity_scale = 0.05;
  config.table_dump_episodes = 0;
  return config;
}

struct Baseline {
  std::vector<FeedUpdate> updates;
  std::vector<PeerEvent> events;  // canonical order, in-process

  Baseline() {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 2;
    api::AnalysisSession session(config);
    updates = session.study().replay_updates();
    stream::VectorSource source(updates);
    session.feed(source);
    session.close(study_config().window_end);
    events = session.events();
  }
};

const Baseline& baseline() {
  static Baseline base;
  return base;
}

std::string shard_server_path() {
  // Built next to this test binary (see CMakeLists add_dependencies).
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "./shard_server";
  buf[n] = '\0';
  return (fs::path(buf).parent_path() / "shard_server").string();
}

// One fork/exec'd shard_server process.  The child prints "PORT <n>"
// once bound; spawn() blocks on that line.
struct ServerProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string dir;

  static ServerProc spawn(const std::string& dir, std::size_t producers,
                          std::uint16_t port = 0, bool trace = false) {
    ServerProc proc;
    proc.dir = dir;
    int fds[2] = {-1, -1};
    if (pipe(fds) != 0) return proc;
    std::string path = shard_server_path();
    std::string s_producers = std::to_string(producers);
    std::string s_port = std::to_string(port);
    pid_t pid = fork();
    if (pid == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> argv = {const_cast<char*>(path.c_str()),
                                 const_cast<char*>("--dir"),
                                 const_cast<char*>(dir.c_str()),
                                 const_cast<char*>("--producers"),
                                 const_cast<char*>(s_producers.c_str()),
                                 const_cast<char*>("--port"),
                                 const_cast<char*>(s_port.c_str()),
                                 const_cast<char*>("--window-start"),
                                 const_cast<char*>("2017-03-01"),
                                 const_cast<char*>("--window-end"),
                                 const_cast<char*>("2017-03-03"),
                                 const_cast<char*>("--intensity"),
                                 const_cast<char*>("0.05")};
      if (trace) {
        argv.push_back(const_cast<char*>("--trace"));
        argv.push_back(const_cast<char*>("--trace-threshold-ns"));
        argv.push_back(const_cast<char*>("0"));
      }
      argv.push_back(nullptr);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    std::string line;
    char c = 0;
    while (read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    close(fds[0]);
    unsigned parsed = 0;
    if (std::sscanf(line.c_str(), "PORT %u", &parsed) == 1) {
      proc.pid = pid;
      proc.port = static_cast<std::uint16_t>(parsed);
    } else {
      // Bind/startup failure: reap and report an invalid proc.
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    return proc;
  }

  bool valid() const { return pid > 0 && port != 0; }

  void kill_hard() {
    if (pid <= 0) return;
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    pid = -1;
  }

  int wait_exit() {
    if (pid <= 0) return -1;
    int status = 0;
    waitpid(pid, &status, 0);
    pid = -1;
    return status;
  }
};

api::SessionConfig fabric_session_config(
    std::size_t slots, std::size_t producers,
    const std::vector<ServerProc*>& servers) {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = slots;
  config.num_producers = producers;
  for (const ServerProc* s : servers) {
    config.fabric.endpoints.push_back(FabricEndpoint{"127.0.0.1", s->port});
  }
  return config;
}

// The same peer-key partition crash_child uses: one producer always
// carries the same peers, so per-producer (and hence per-lane) order
// is deterministic.
std::vector<std::vector<FeedUpdate>> partition(
    const std::vector<FeedUpdate>& updates, std::size_t producers) {
  std::vector<std::vector<FeedUpdate>> parts(producers);
  for (const auto& u : updates) {
    bgp::PeerKey peer{u.update.peer_ip, u.update.peer_asn};
    parts[bgp::PeerKeyHash{}(peer) % producers].push_back(u);
  }
  return parts;
}

// ---- shared framing: version range and CRC ----------------------------

TEST(WireVersion, DecodeRejectsVersionOutsideReadableRange) {
  const std::vector<std::uint8_t> payload = {0xAA, 0xBB, 0xCC};
  net::BufWriter frame;
  storage::wire::encode_frame(frame, 0x1234, 3, payload);
  {
    net::BufReader r(frame.data());
    auto decoded = storage::wire::decode_frame(r, 0x1234, 1, 4, 1 << 16);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->version, 3);
    EXPECT_TRUE(std::equal(decoded->payload.begin(), decoded->payload.end(),
                           payload.begin()));
  }
  {
    // Same frame, reader only speaks versions [1, 2].
    net::BufReader r(frame.data());
    EXPECT_FALSE(
        storage::wire::decode_frame(r, 0x1234, 1, 2, 1 << 16).has_value());
  }
  {
    // Wrong magic.
    net::BufReader r(frame.data());
    EXPECT_FALSE(
        storage::wire::decode_frame(r, 0x4321, 1, 4, 1 << 16).has_value());
  }
  {
    // One flipped payload bit must fail the CRC.
    auto corrupted = frame.data();
    std::vector<std::uint8_t> bytes(corrupted.begin(), corrupted.end());
    bytes[8] ^= 0x01;
    net::BufReader r(bytes);
    EXPECT_FALSE(
        storage::wire::decode_frame(r, 0x1234, 1, 4, 1 << 16).has_value());
  }
}

// ---- placement --------------------------------------------------------

TEST(Placement, DeterministicAndInRange) {
  auto a = place_slots(64, 3);
  auto b = place_slots(64, 3);
  EXPECT_EQ(a, b);
  for (std::size_t e : a) EXPECT_LT(e, 3u);
  // Every endpoint owns at least one slot at this slot:endpoint ratio.
  std::vector<std::size_t> counts(3, 0);
  for (std::size_t e : a) ++counts[e];
  for (std::size_t n : counts) EXPECT_GT(n, 0u);
}

TEST(Placement, AddingAnEndpointOnlyMovesSlotsToIt) {
  auto before = place_slots(64, 2);
  auto after = place_slots(64, 3);
  std::size_t moved = 0;
  for (std::size_t s = 0; s < before.size(); ++s) {
    if (after[s] != before[s]) {
      // Consistent hashing: a slot either stays where it was or moves
      // to the NEW endpoint — never between old endpoints.
      EXPECT_EQ(after[s], 2u);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, before.size());
}

// ---- live server: control-plane smoke ---------------------------------

TEST(ShardServerSmoke, HelloNegotiatesAndHealthAnswers) {
  std::string dir = temp_dir("bgpbh_fabric_smoke");
  ServerProc server = ServerProc::spawn(dir, 1);
  ASSERT_TRUE(server.valid());
  auto conn = TcpConn::dial("127.0.0.1", server.port);
  ASSERT_TRUE(conn.has_value());
  net::BufWriter hello;
  hello.u8(kFabricVersion);
  hello.u8(kFabricVersion);
  hello.u32(kControlLane);
  hello.u32(kControlLane);
  ASSERT_TRUE(conn->send_frame(FrameType::kHello, hello.data()));
  auto hello_ack = conn->recv_frame();
  ASSERT_TRUE(hello_ack.has_value());
  ASSERT_EQ(hello_ack->type, FrameType::kHelloAck);
  net::BufReader hr(hello_ack->body);
  EXPECT_EQ(hr.u8(), kFabricVersion);
  EXPECT_EQ(hr.u64(), 0u);
  ASSERT_TRUE(conn->send_frame(FrameType::kHealth, {}));
  auto health = conn->recv_frame();
  ASSERT_TRUE(health.has_value());
  ASSERT_EQ(health->type, FrameType::kHealthAck);
  net::BufReader br(health->body);
  EXPECT_EQ(br.u32(), 0u);  // no slots touched yet
  EXPECT_EQ(br.u8(), 0u);   // healthy
  ASSERT_TRUE(conn->send_frame(FrameType::kShutdown, {}));
  auto ack = conn->recv_frame();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, FrameType::kShutdownAck);
  int status = server.wait_exit();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  fs::remove_all(dir);
}

TEST(ShardServerSmoke, HelloOutsideVersionRangeGetsError) {
  std::string dir = temp_dir("bgpbh_fabric_hello_v1");
  ServerProc server = ServerProc::spawn(dir, 1);
  ASSERT_TRUE(server.valid());
  {
    auto conn = TcpConn::dial("127.0.0.1", server.port);
    ASSERT_TRUE(conn.has_value());
    net::BufWriter hello;
    hello.u8(1);  // a peer that speaks only [1, 1]
    hello.u8(1);
    hello.u32(kControlLane);
    hello.u32(kControlLane);
    ASSERT_TRUE(conn->send_frame(FrameType::kHello, hello.data()));
    auto reply = conn->recv_frame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, FrameType::kError);
    // ... and the server hangs up.
    EXPECT_FALSE(conn->recv_frame().has_value());
  }
  // The refusal is per connection: the server still serves a
  // well-versioned peer and shuts down cleanly.
  auto conn = TcpConn::dial("127.0.0.1", server.port);
  ASSERT_TRUE(conn.has_value());
  net::BufWriter hello;
  hello.u8(kFabricVersion);
  hello.u8(kFabricVersion);
  hello.u32(kControlLane);
  hello.u32(kControlLane);
  ASSERT_TRUE(conn->send_frame(FrameType::kHello, hello.data()));
  auto hello_ack = conn->recv_frame();
  ASSERT_TRUE(hello_ack.has_value());
  EXPECT_EQ(hello_ack->type, FrameType::kHelloAck);
  ASSERT_TRUE(conn->send_frame(FrameType::kShutdown, {}));
  auto ack = conn->recv_frame();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, FrameType::kShutdownAck);
  int status = server.wait_exit();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  fs::remove_all(dir);
}

// ---- the headline grid ------------------------------------------------

TEST(FabricGrid, DistributedEventSetMatchesInProcess) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  for (std::size_t slots : {1u, 3u, 8u}) {
    for (std::size_t producers : {1u, 3u}) {
      SCOPED_TRACE("slots=" + std::to_string(slots) +
                   " producers=" + std::to_string(producers));
      const std::size_t n_servers = std::min<std::size_t>(slots, 3);
      std::vector<ServerProc> servers;
      std::vector<ServerProc*> refs;
      std::vector<std::string> dirs;
      for (std::size_t i = 0; i < n_servers; ++i) {
        dirs.push_back(temp_dir("bgpbh_fabric_grid_" + std::to_string(slots) +
                                "_" + std::to_string(producers) + "_" +
                                std::to_string(i)));
        servers.push_back(ServerProc::spawn(dirs.back(), producers));
        ASSERT_TRUE(servers.back().valid());
      }
      for (auto& s : servers) refs.push_back(&s);
      {
        api::AnalysisSession session(
            fabric_session_config(slots, producers, refs));
        auto parts = partition(base.updates, producers);
        std::vector<std::thread> threads;
        for (std::size_t p = 0; p < producers; ++p) {
          threads.emplace_back([&, p] {
            for (const auto& u : parts[p]) session.push(u, p);
            session.flush(p);
          });
        }
        for (auto& t : threads) t.join();
        session.close(study_config().window_end);
        EXPECT_TRUE(session.events() == base.events)
            << "distributed event set diverged from the in-process baseline";
        EXPECT_EQ(session.updates_pushed(), base.updates.size());
        session.fabric()->shutdown_endpoints();
      }
      for (auto& s : servers) {
        int status = s.wait_exit();
        EXPECT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
      }
      for (const auto& d : dirs) fs::remove_all(d);
    }
  }
}

// ---- crash: SIGKILL'd server recovers, lanes replay -------------------

TEST(FabricCrash, SigkilledServerRecoversAndReplayCompletes) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  const std::size_t slots = 3;
  std::string dir0 = temp_dir("bgpbh_fabric_crash_0");
  std::string dir1 = temp_dir("bgpbh_fabric_crash_1");
  ServerProc s0 = ServerProc::spawn(dir0, 1);
  ServerProc s1 = ServerProc::spawn(dir1, 1);
  ASSERT_TRUE(s0.valid());
  ASSERT_TRUE(s1.valid());
  std::vector<ServerProc*> refs = {&s0, &s1};
  api::AnalysisSession session(fabric_session_config(slots, 1, refs));
  const auto& updates = base.updates;
  const std::size_t checkpoint_at = updates.size() / 3;
  const std::size_t kill_at = updates.size() / 2;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (i == checkpoint_at) {
      // Drained cut on every slot: the servers' durable totals advance
      // to everything sent so far.
      ASSERT_TRUE(session.checkpoint_now());
    }
    if (i == kill_at) {
      // The hardest failure: no flush, no destructors.  Everything the
      // server accepted after the cut exists only in the client's
      // replay buffers now.
      std::uint16_t port = s0.port;
      s0.kill_hard();
      s0 = ServerProc::spawn(dir0, 1, port);
      ASSERT_TRUE(s0.valid());
    }
    session.push(updates[i], 0);
  }
  session.flush(0);
  session.close(study_config().window_end);
  EXPECT_GT(session.fabric()->reconnects(), 0u)
      << "the kill was never even noticed — crash path not exercised";
  EXPECT_TRUE(session.events() == base.events)
      << "post-crash event set diverged: replay lost or duplicated updates";
  session.fabric()->shutdown_endpoints();
  for (ServerProc* s : {&s0, &s1}) {
    int status = s->wait_exit();
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  fs::remove_all(dir0);
  fs::remove_all(dir1);
}

// ---- fleet observability: STATS gather + fold, across a crash ---------
//
// From a single client, fleet_telemetry() must return a folded registry
// covering every slot of a live two-process fleet — and the fold must
// be exactly the sum of the per-slot views it gathered: counters and
// gauges sum, histograms merge bucket-exactly.  Run it across a
// SIGKILL + same-port restart so the gather also proves STATS works
// against a recovered server, not just a pristine one.

TEST(FabricFleetTelemetry, FoldedViewEqualsPerSlotSumAfterCrash) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  const std::size_t slots = 3;
  std::string dir0 = temp_dir("bgpbh_fabric_fleet_0");
  std::string dir1 = temp_dir("bgpbh_fabric_fleet_1");
  ServerProc s0 = ServerProc::spawn(dir0, 1, 0, /*trace=*/true);
  ServerProc s1 = ServerProc::spawn(dir1, 1, 0, /*trace=*/true);
  ASSERT_TRUE(s0.valid());
  ASSERT_TRUE(s1.valid());
  std::vector<ServerProc*> refs = {&s0, &s1};
  api::SessionConfig config = fabric_session_config(slots, 1, refs);
  // Client-side ring on, threshold 0: every RPC span is recorded, so
  // the stitch pass below has client spans to match server spans with.
  config.trace.enabled = true;
  config.trace.slow_threshold_ns = 0;
  api::AnalysisSession session(config);
  const auto& updates = base.updates;
  const std::size_t checkpoint_at = updates.size() / 3;
  const std::size_t kill_at = updates.size() / 2;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (i == checkpoint_at) ASSERT_TRUE(session.checkpoint_now());
    if (i == kill_at) {
      std::uint16_t port = s0.port;
      s0.kill_hard();
      s0 = ServerProc::spawn(dir0, 1, port, /*trace=*/true);
      ASSERT_TRUE(s0.valid());
    }
    session.push(updates[i], 0);
  }
  session.flush(0);
  session.close(study_config().window_end);
  EXPECT_GT(session.fabric()->reconnects(), 0u);
  EXPECT_TRUE(session.events() == base.events);

  telemetry::FleetTelemetry fleet = session.fabric()->fleet_telemetry();

  // Every slot of the fleet answered, each exactly once.
  std::size_t gathered = 0;
  std::vector<bool> seen(slots, false);
  for (const auto& ep : fleet.endpoints) {
    for (const auto& slot : ep.slots) {
      ASSERT_LT(slot.slot, slots);
      EXPECT_FALSE(seen[slot.slot]) << "slot " << slot.slot << " twice";
      seen[slot.slot] = true;
      ++gathered;
    }
  }
  EXPECT_EQ(gathered, slots);

  // Reference fold: plain summation for counters/gauges, and
  // HistogramSnapshot::merge_from for histograms (itself verified
  // bucket-exact against a single instrument in test_telemetry).
  std::map<std::string, double> summed;
  std::map<std::string, telemetry::HistogramSnapshot> merged;
  for (const auto& ep : fleet.endpoints) {
    for (const auto& slot : ep.slots) {
      for (const auto& m : slot.metrics.metrics) {
        if (m.kind == telemetry::MetricKind::kHistogram) {
          merged[m.name].merge_from(m.hist);
        } else {
          summed[m.name] += m.value;
        }
      }
    }
  }
  for (const auto& [name, total] : summed) {
    const auto* m = fleet.folded.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_DOUBLE_EQ(m->value, total) << name;
  }
  for (const auto& [name, hist] : merged) {
    const auto* m = fleet.folded.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->hist.count, hist.count) << name;
    EXPECT_EQ(m->hist.sum, hist.sum) << name;
    if (hist.count > 0) {
      EXPECT_EQ(m->hist.min, hist.min) << name;
      EXPECT_EQ(m->hist.max, hist.max) << name;
    }
    EXPECT_EQ(m->hist.buckets, hist.buckets) << name;
  }

  // The folded view carries the remote pipelines' substance: the
  // servers measured ingest->close latency end-to-end from the stamps
  // the sub-updates carried across the wire.
  const auto* detect = fleet.folded.find("e2e.detect_latency_ns");
  ASSERT_NE(detect, nullptr);
  EXPECT_GT(detect->hist.count, 0u);
  const auto* appends = fleet.folded.find("fabric.server.append_ns");
  ASSERT_NE(appends, nullptr);
  EXPECT_GT(appends->hist.count, 0u);

  // Observability metrics document themselves: every fabric.* and
  // e2e.* metric in the folded view ships non-empty HELP text.
  for (const auto& m : fleet.folded.metrics) {
    if (m.name.rfind("fabric.", 0) == 0 || m.name.rfind("e2e.", 0) == 0) {
      EXPECT_FALSE(m.help.empty()) << m.name;
    }
  }

  // Trace propagation: with both rings on at threshold 0, the newest
  // appends live in the client ring AND the server slot rings under
  // the same trace id, so the stitch pass pairs at least one RPC and
  // attributes its time: client_ns >= server span -> wire_queue_ns is
  // the clamped difference.
  EXPECT_FALSE(fleet.stitched.empty());
  for (const auto& s : fleet.stitched) {
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_FALSE(s.client_label.empty());
    EXPECT_FALSE(s.server_label.empty());
    if (s.client_ns >= s.server_ns) {
      EXPECT_EQ(s.wire_queue_ns, s.client_ns - s.server_ns);
    } else {
      EXPECT_EQ(s.wire_queue_ns, 0u);
    }
  }

  session.fabric()->shutdown_endpoints();
  for (ServerProc* s : {&s0, &s1}) {
    int status = s->wait_exit();
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  fs::remove_all(dir0);
  fs::remove_all(dir1);
}

// ---- rebalance: live migration to a server spawned mid-stream ---------

TEST(FabricRebalance, MidStreamMigrationLosesNothing) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  const std::size_t slots = 4;
  std::string dir0 = temp_dir("bgpbh_fabric_reb_0");
  std::string dir1 = temp_dir("bgpbh_fabric_reb_1");
  std::string dir2 = temp_dir("bgpbh_fabric_reb_2");
  ServerProc s0 = ServerProc::spawn(dir0, 1);
  ServerProc s1 = ServerProc::spawn(dir1, 1);
  ASSERT_TRUE(s0.valid());
  ASSERT_TRUE(s1.valid());
  std::vector<ServerProc*> refs = {&s0, &s1};
  api::AnalysisSession session(fabric_session_config(slots, 1, refs));
  const auto& updates = base.updates;
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) session.push(updates[i], 0);
  // New capacity arrives mid-stream; move EVERY slot onto it.
  ServerProc s2 = ServerProc::spawn(dir2, 1);
  ASSERT_TRUE(s2.valid());
  FabricRouter* fabric = session.fabric();
  std::size_t target = fabric->add_endpoint("127.0.0.1", s2.port);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    ASSERT_TRUE(fabric->migrate(slot, target))
        << "migration of slot " << slot << " failed";
    EXPECT_EQ(fabric->endpoint_of(slot), target);
  }
  for (std::size_t i = half; i < updates.size(); ++i) {
    session.push(updates[i], 0);
  }
  session.flush(0);
  session.close(study_config().window_end);
  EXPECT_TRUE(session.events() == base.events)
      << "post-migration event set diverged: handoff lost or duplicated "
         "state";
  session.fabric()->shutdown_endpoints();
  for (ServerProc* s : {&s0, &s1, &s2}) {
    int status = s->wait_exit();
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  fs::remove_all(dir0);
  fs::remove_all(dir1);
  fs::remove_all(dir2);
}

// ---- wire bytes: one APPEND frame, sent and then replayed -------------

std::string hex(std::span<const std::uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

// One pre-stamped update that splits into three sub-updates (a
// withdrawal first, then two announcements) on a single slot.
FeedUpdate golden_update() {
  FeedUpdate fu;
  fu.platform = routing::Platform::kRouteViews;
  fu.update.time = 1488326400;
  fu.update.peer_ip = *net::IpAddr::parse("198.51.100.9");
  fu.update.peer_asn = 1299;
  fu.update.collector_id = 7;
  fu.update.body.withdrawn.push_back(*net::Prefix::parse("203.0.113.0/24"));
  fu.update.body.announced.push_back(*net::Prefix::parse("130.149.7.0/24"));
  fu.update.body.announced.push_back(*net::Prefix::parse("130.149.8.1/32"));
  fu.update.body.as_path = bgp::AsPath::of({1299, 64500});
  fu.update.body.next_hop = *net::IpAddr::parse("198.51.100.1");
  fu.update.body.communities.add(bgp::Community(65535, 666));
  fu.ingest_ns = 0x0123456789ABCDEFull;
  return fu;
}

// The APPEND body FabricRouter sends for golden_update(), with the
// trace header (trace_id, origin_ns) zeroed.  Captured from the fabric
// before lanes staged into one reused encode buffer and replayed whole
// frames; both changes must leave every byte as it was.
constexpr const char* kGoldenAppendBody =
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000003010000000058b60f0004c63364090000051300000007000000080004"
    "18cb007100000123456789abcdef010000000058b60f0004c633640900000513"
    "00000007000000270000001f4001010040020a0202000005130000fbf4400304"
    "c6336401c00804ffff029a188295070123456789abcdef010000000058b60f00"
    "04c63364090000051300000007000000280000001f4001010040020a02020000"
    "05130000fbf4400304c6336401c00804ffff029a20829508010123456789abcd"
    "ef";

// Pushes golden_update() through a FabricRouter against a scripted
// server and returns the two APPEND bodies it received: the first
// connection takes the frame and hangs up without acking it; the
// second answers HELLO with `resume_at` accepted and acks the resend.
std::vector<std::vector<std::uint8_t>> send_and_replay(
    std::uint64_t resume_at) {
  auto listener = TcpListener::listen(0);
  if (!listener) return {};
  const std::uint16_t port = listener->port();
  std::vector<std::vector<std::uint8_t>> bodies;
  std::thread server([&] {
    for (int round = 0; round < 2; ++round) {
      auto conn = listener->accept();
      if (!conn) return;
      auto hello = conn->recv_frame();
      if (!hello || hello->type != FrameType::kHello) return;
      net::BufWriter hello_ack;
      hello_ack.u8(kFabricVersion);
      hello_ack.u64(round == 0 ? 0 : resume_at);
      if (!conn->send_frame(FrameType::kHelloAck, hello_ack.data())) return;
      auto append = conn->recv_frame();
      if (!append || append->type != FrameType::kAppend) return;
      bodies.push_back(append->body);
      if (round == 0) continue;  // drop the connection, frame unacked
      net::BufWriter ack;
      ack.u64(3);  // accepted
      ack.u64(0);  // durable
      if (!conn->send_frame(FrameType::kAppendAck, ack.data())) return;
      (void)conn->recv_frame();  // until the client hangs up
    }
  });
  {
    FabricConfig config;
    config.endpoints.push_back(FabricEndpoint{"127.0.0.1", port});
    FabricRouter router(config, 1, 1, nullptr);
    router.push(0, golden_update());
    router.flush(0);
    EXPECT_EQ(router.reconnects(), 1u);
  }
  server.join();
  return bodies;
}

// Checks the trace header of APPEND send `i` (a fresh trace id per
// send: 1, then 2 for the resend; a wall-clock origin), then zeroes it.
void check_and_clear_trace(std::vector<std::uint8_t>& body, std::size_t i) {
  ASSERT_GE(body.size(), 36u);
  net::BufReader r{std::span<const std::uint8_t>(body).subspan(8, 16)};
  EXPECT_EQ(r.u64(), i + 1) << "send " << i;
  EXPECT_NE(r.u64(), 0u) << "send " << i;
  std::fill(body.begin() + 8, body.begin() + 24, 0);
}

TEST(FabricWire, AppendBodyMatchesGoldenOnSendAndReplay) {
  auto bodies = send_and_replay(0);
  ASSERT_EQ(bodies.size(), 2u);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    check_and_clear_trace(bodies[i], i);
    EXPECT_EQ(hex(bodies[i]), kGoldenAppendBody) << "send " << i;
  }
}

TEST(FabricWire, FrameStraddlingAcceptedIsResentWhole) {
  // The server already holds 2 of the frame's 3 sub-updates; the client
  // resends the frame unchanged (base 0, count 3) and the server skips
  // what it holds.
  auto bodies = send_and_replay(2);
  ASSERT_EQ(bodies.size(), 2u);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    check_and_clear_trace(bodies[i], i);
  }
  EXPECT_EQ(hex(bodies[1]), hex(bodies[0]));
  EXPECT_EQ(hex(bodies[1]), kGoldenAppendBody);
}

// ---- window: slow acks do not shrink frames ---------------------------

TEST(FabricWindow, DelayedAcksStillFillFrames) {
  // A scripted server acks each APPEND 4 ms after reading it, so a fast
  // feed keeps the lane's window full.  Waiting on the window is
  // backpressure, not a quiet feed: frames must keep filling toward
  // batch_subs instead of going out one sub-update each as acks return.
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener);
  const std::uint16_t port = listener->port();
  std::vector<std::uint32_t> counts;  // sub-updates per APPEND frame
  std::thread server([&] {
    auto conn = listener->accept();
    if (!conn) return;
    auto hello = conn->recv_frame();
    if (!hello || hello->type != FrameType::kHello) return;
    net::BufWriter hello_ack;
    hello_ack.u8(kFabricVersion);
    hello_ack.u64(0);
    if (!conn->send_frame(FrameType::kHelloAck, hello_ack.data())) return;
    std::uint64_t accepted = 0;
    while (auto append = conn->recv_frame()) {
      if (append->type != FrameType::kAppend || append->body.size() < 36) {
        return;
      }
      // Header: slot, producer, trace_id, origin_ns, base, then count.
      net::BufReader r{
          std::span<const std::uint8_t>(append->body).subspan(32, 4)};
      counts.push_back(r.u32());
      accepted += counts.back();
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
      net::BufWriter ack;
      ack.u64(accepted);
      ack.u64(0);  // durable
      if (!conn->send_frame(FrameType::kAppendAck, ack.data())) return;
    }
  });
  constexpr std::uint32_t kUpdates = 1024;
  FabricConfig config;
  config.endpoints.push_back(FabricEndpoint{"127.0.0.1", port});
  {
    FabricRouter router(config, 1, 1, nullptr);
    FeedUpdate fu = golden_update();
    fu.update.body.withdrawn.clear();
    for (std::uint32_t i = 0; i < kUpdates; ++i) {
      const std::string prefix = "10." + std::to_string(i / 256) + "." +
                                 std::to_string(i % 256) + ".0/24";
      fu.update.body.announced.assign(1, *net::Prefix::parse(prefix));
      ASSERT_TRUE(router.push(0, fu));
    }
    router.flush(0);
  }
  server.join();
  std::uint64_t total = 0;
  std::size_t partial = 0;
  for (std::uint32_t c : counts) {
    total += c;
    if (c < config.batch_subs) ++partial;
  }
  EXPECT_EQ(total, kUpdates);
  ASSERT_FALSE(counts.empty());
  // Ideally 17 frames: the first push follows silence and goes out
  // alone, 15 full, and flush() sends the rest.  A preempted producer
  // may add an early send now and then; one-update frames may not.
  EXPECT_GE(total / counts.size(), config.batch_subs / 2)
      << counts.size() << " frames, " << partial << " partial";
}

// ---- latency: a slow feed's closing update reaches the server ---------

TEST(FabricLatency, ClosedEventQueryableWithoutFlush) {
  const Baseline& base = baseline();
  // An event of its own (peer, prefix, start): one detection, so one
  // closed event.  Its opening announcement comes from the replay.
  auto detections = [&](const PeerEvent& e) {
    return std::count_if(
        base.events.begin(), base.events.end(), [&](const PeerEvent& o) {
          return o.peer == e.peer && o.prefix == e.prefix && o.start == e.start;
        });
  };
  FeedUpdate open, close;
  for (const PeerEvent& e : base.events) {
    if (e.started_in_table_dump || detections(e) != 1) continue;
    auto opens = [&](const FeedUpdate& u) {
      const auto& a = u.update.body.announced;
      return u.platform == e.platform && u.update.time == e.start &&
             bgp::PeerKey{u.update.peer_ip, u.update.peer_asn} == e.peer &&
             std::find(a.begin(), a.end(), e.prefix) != a.end();
    };
    auto it = std::find_if(base.updates.begin(), base.updates.end(), opens);
    if (it == base.updates.end()) continue;
    open = *it;
    open.update.body.announced = {e.prefix};
    open.update.body.withdrawn.clear();
    close.platform = open.platform;
    close.update.time = e.start + 60;
    close.update.peer_ip = open.update.peer_ip;
    close.update.peer_asn = open.update.peer_asn;
    close.update.body.withdrawn = {e.prefix};
    break;
  }
  ASSERT_FALSE(close.update.body.withdrawn.empty());

  std::string dir = temp_dir("bgpbh_fabric_latency");
  ServerProc server = ServerProc::spawn(dir, 1);
  ASSERT_TRUE(server.valid());
  {
    api::AnalysisSession session(fabric_session_config(1, 1, {&server}));
    ASSERT_TRUE(session.push(open));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(session.push(close));
    // No flush(), drain() or close(): the lane must send on its own.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::size_t seen = session.count();
    while (seen == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      seen = session.count();
    }
    EXPECT_EQ(seen, 1u);
    session.close(study_config().window_end);
    session.fabric()->shutdown_endpoints();
  }
  int status = server.wait_exit();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  fs::remove_all(dir);
}

// ---- connections: finished ones are reaped ----------------------------

// A process's virtual size in KiB (VmSize in /proc/<pid>/status).
std::uint64_t vm_size_kib(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      std::uint64_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

// Every control RPC dials a fresh connection.  A server that kept each
// finished connection's thread would grow by a thread stack per call.
TEST(FabricConnections, FinishedConnectionsAreReaped) {
  std::string dir = temp_dir("bgpbh_fabric_conn_reap");
  ServerProc server = ServerProc::spawn(dir, 1);
  ASSERT_TRUE(server.valid());
  {
    api::AnalysisSession session(fabric_session_config(1, 1, {&server}));
    session.fabric()->query_events();  // opens the slot's session
    const std::uint64_t before = vm_size_kib(server.pid);
    ASSERT_GT(before, 0u);
    for (int i = 0; i < 200; ++i) session.fabric()->query_events();
    const std::uint64_t after = vm_size_kib(server.pid);
    EXPECT_LE(after, before + 256 * 1024)
        << "VmSize " << before << " KiB -> " << after << " KiB";
    session.close(study_config().window_end);
    session.fabric()->shutdown_endpoints();
  }
  int status = server.wait_exit();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bgpbh::fabric
