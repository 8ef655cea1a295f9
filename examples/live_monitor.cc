// Continuous monitoring mode over an MRT archive, driven entirely
// through the public AnalysisSession API: the session's study
// substrates write a day of collector updates to an MRT file
// (BGP4MP_MESSAGE_AS4 records, the format RIS/RouteViews archives
// use), then a live-feed session replays the file through the sharded
// streaming pipeline while a subscribed EventSink turns closed events
// and incremental §9 group updates into an alert log — the §4.2
// "continuous monitoring" loop as a production pipeline.
//
// The live alert lines interleave in shard-drain order, so they vary
// run to run (as in any live sharded monitor); the SET of events and
// alerts, and everything from "monitoring summary" down, is
// deterministic — the §9 groups are arrival-order independent.
//
// Persistence (src/storage/):
//   live_monitor --persist <dir>            spill closed events to an
//                                           append-only segment log
//                                           (fresh start: clears <dir>)
//   live_monitor --persist <dir> --resume   keep the directory's prior
//                                           sessions and merge them
//                                           into every query (the
//                                           restart-survival loop)
// After the run, the monitor reopens the directory in kReopen mode and
// verifies the archive serves the identical event set — exiting
// non-zero otherwise, so the examples-smoke CI job gates on it.
//
// Output discipline: alert lines (the product) go to stdout via
// printf; operational status goes through util::Log — structured
// key=value lines on stderr, BGPBH_LOG-leveled — so the two streams
// separate cleanly.  Telemetry (src/telemetry/):
//   live_monitor --metrics-out <file>    write the session registry as
//                                        Prometheus text after close
//   live_monitor --metrics-every <N>     while ingesting, log a
//                                        metrics digest every N updates
//
// Supervision (src/recovery/):
//   live_monitor --persist <dir> --checkpoint-every <N>
//                                        cut a crash-consistent
//                                        checkpoint every N updates
//   SIGTERM / SIGINT                     graceful shutdown: stop the
//                                        replay loop, flush, cut a
//                                        final checkpoint, close — the
//                                        reopen self-check below still
//                                        runs, so an interrupted run
//                                        verifies its own durability
//
// Distributed operation (src/fabric/):
//   live_monitor --connect host:port[,host:port...]
//                                        feed the archive to a running
//                                        shard-server fleet instead of
//                                        the in-process pipeline, then
//                                        scatter-gather the events
//                                        back, verify them against an
//                                        in-process replay of the SAME
//                                        archive (exit non-zero on any
//                                        difference), and send the
//                                        fleet a graceful SHUTDOWN.
//                                        The servers must run the
//                                        matching study knobs (the
//                                        shard_server defaults).
//                                        Mutually exclusive with
//                                        --persist/--resume/
//                                        --checkpoint-every.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "api/session.h"
#include "bgp/mrt.h"
#include "telemetry/export.h"
#include "util/log.h"

using namespace bgpbh;

namespace {

// Async-signal-safe shutdown latch: the handler only sets the flag;
// the replay loop polls it and runs the orderly teardown itself.
volatile std::sig_atomic_t g_shutdown = 0;

extern "C" void on_shutdown_signal(int) { g_shutdown = 1; }

// Alert sink: prints the first closed events as they arrive on the
// dispatch thread, and flags §9 groups that keep growing (the paper's
// ON/OFF probing signature).
class AlertSink : public api::EventSink {
 public:
  void on_event_closed(const core::PeerEvent& e) override {
    ++events_;
    if (events_ > 15) return;
    std::printf("%s  BLACKHOLE %-20s at %-12s user AS%-6u %s (%s)\n",
                util::format_datetime(e.end).c_str(),
                e.prefix.to_string().c_str(), e.provider.to_string().c_str(),
                e.user, e.explicit_withdrawal ? "withdrawn" : "re-announced",
                util::format_duration(e.duration()).c_str());
    if (events_ == 15) std::printf("...\n");
  }

  void on_group_updated(const core::PrefixEvent& group) override {
    // Alert once per prefix when a group first shows repeated probing.
    if (group.num_peer_events < 6) return;
    if (!alerted_.insert(group.prefix).second) return;
    std::printf(">>> GROUP ALERT %s: %zu peer events across %zu providers "
                "within %s — repeated ON/OFF blackholing\n",
                group.prefix.to_string().c_str(), group.num_peer_events,
                group.providers.size(),
                util::format_duration(group.duration()).c_str());
  }

  void on_snapshot(const stream::EventStore::Snapshot& snap) override {
    last_total_ = snap.total_events;
  }

  std::size_t events() const { return events_; }
  std::size_t last_snapshot_total() const { return last_total_; }

 private:
  std::size_t events_ = 0;
  std::size_t last_total_ = 0;
  std::set<net::Prefix> alerted_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string persist_dir;
  std::string metrics_out;
  std::string connect_arg;
  std::uint64_t metrics_every = 0;
  std::uint64_t checkpoint_every = 0;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--persist") == 0 && i + 1 < argc) {
      persist_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_arg = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-every") == 0 && i + 1 < argc) {
      metrics_every = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 &&
               i + 1 < argc) {
      checkpoint_every = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: live_monitor [--persist <dir> [--resume]] "
                   "[--checkpoint-every <N>] [--metrics-out <file>] "
                   "[--metrics-every <N>] "
                   "[--connect host:port[,host:port...]]\n");
      return 2;
    }
  }
  if (checkpoint_every != 0 && persist_dir.empty()) {
    util::Log(util::LogLevel::kError, "live_monitor")
        .msg("--checkpoint-every requires --persist <dir>");
    return 2;
  }
  if (resume && persist_dir.empty()) {
    util::Log(util::LogLevel::kError, "live_monitor")
        .msg("--resume requires --persist <dir>");
    return 2;
  }
  if (!connect_arg.empty() &&
      (!persist_dir.empty() || resume || checkpoint_every != 0)) {
    util::Log(util::LogLevel::kError, "live_monitor")
        .msg("--connect excludes --persist/--resume/--checkpoint-every "
             "(persistence lives on the shard servers)");
    return 2;
  }

  // ---- fabric mode: feed a remote shard-server fleet -----------------
  // The same archive drives two sessions: the fabric client (updates go
  // out as APPEND frames, events come back by scatter-gather) and an
  // in-process monitor, which is ground truth for the self-check.
  if (!connect_arg.empty()) {
    std::vector<fabric::FabricEndpoint> endpoints;
    std::size_t pos = 0;
    while (pos < connect_arg.size()) {
      std::size_t comma = connect_arg.find(',', pos);
      if (comma == std::string::npos) comma = connect_arg.size();
      std::string token = connect_arg.substr(pos, comma - pos);
      std::size_t colon = token.rfind(':');
      int port = colon == std::string::npos
                     ? 0
                     : std::atoi(token.c_str() + colon + 1);
      if (colon == std::string::npos || colon == 0 || port <= 0 ||
          port > 65535) {
        std::fprintf(stderr, "live_monitor: bad --connect endpoint '%s'\n",
                     token.c_str());
        return 2;
      }
      endpoints.push_back(fabric::FabricEndpoint{
          token.substr(0, colon), static_cast<std::uint16_t>(port)});
      pos = comma + 1;
    }

    // Study knobs mirror shard_server's defaults — both sides derive
    // their substrates from them, so they must agree.
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study.window_start = util::from_date(2017, 3, 15);
    config.study.window_end = util::from_date(2017, 3, 16);
    config.study.workload.intensity_scale = 0.05;
    config.study.table_dump_episodes = 0;
    config.num_shards = 4;  // global slot count across the fleet

    api::AnalysisSession local(config);
    net::BufWriter archive;
    std::size_t written = 0;
    for (const auto& fu : local.study().replay_updates()) {
      bgp::mrt::encode_update(fu.update, archive);
      ++written;
    }
    std::string path = "/tmp/bgpbh_live_monitor_fabric.mrt";
    bgp::mrt::write_file(path, archive.data());
    util::Log(util::LogLevel::kInfo, "live_monitor")
        .msg("archive written")
        .kv("records", static_cast<std::uint64_t>(written))
        .kv("path", path)
        .kv("endpoints", connect_arg);

    api::SessionConfig fabric_config = config;
    fabric_config.fabric.endpoints = endpoints;
    api::AnalysisSession session(fabric_config);
    session.start();
    std::string open_error;
    auto source = stream::MrtFileSource::open(path, routing::Platform::kRis,
                                              &open_error);
    if (!source) {
      std::fprintf(stderr, "live_monitor: cannot open %s: %s\n", path.c_str(),
                   open_error.c_str());
      return 1;
    }
    std::uint64_t replayed = 0;
    while (const routing::FeedUpdate* u = source->next()) {
      session.push(*u);
      ++replayed;
    }
    session.close(config.study.window_end);
    std::vector<core::PeerEvent> remote = session.events();

    // Ground truth: the identical archive through the in-process plane.
    local.start();
    auto local_source = stream::MrtFileSource::open(
        path, routing::Platform::kRis, &open_error);
    if (!local_source) {
      std::fprintf(stderr, "live_monitor: cannot reopen %s: %s\n",
                   path.c_str(), open_error.c_str());
      return 1;
    }
    while (const routing::FeedUpdate* u = local_source->next()) {
      local.push(*u);
    }
    local.close(config.study.window_end);
    std::vector<core::PeerEvent> truth = local.events();
    std::remove(path.c_str());

    bool identical = remote == truth;
    std::printf("fabric monitoring summary: %llu updates fed to %zu "
                "server%s, %zu events gathered, %llu reconnects  [%s]\n",
                static_cast<unsigned long long>(replayed), endpoints.size(),
                endpoints.size() == 1 ? "" : "s", remote.size(),
                static_cast<unsigned long long>(session.fabric()->reconnects()),
                identical ? "matches in-process replay" : "MISMATCH");
    if (!identical) {
      util::Log(util::LogLevel::kError, "live_monitor")
          .msg("fabric event set does not match in-process replay")
          .kv("remote_events", static_cast<std::uint64_t>(remote.size()))
          .kv("local_events", static_cast<std::uint64_t>(truth.size()));
      return 1;
    }
    util::Log(util::LogLevel::kInfo, "live_monitor")
        .msg("fabric self-check passed; shutting the fleet down")
        .kv("events", static_cast<std::uint64_t>(remote.size()));
    // --metrics-out in fabric mode means the FLEET view: the local
    // registry holds only client-side fabric.* metrics (the pipeline
    // lives in the shard-server processes), so gather every slot's
    // registry over STATS and dump the folded result.
    if (!metrics_out.empty()) {
      telemetry::FleetTelemetry fleet = session.fabric()->fleet_telemetry();
      std::string prom = telemetry::to_prometheus(fleet.folded);
      std::FILE* f = std::fopen(metrics_out.c_str(), "w");
      if (!f) {
        util::Log(util::LogLevel::kError, "live_monitor")
            .msg("cannot write metrics file")
            .kv("path", metrics_out);
        return 1;
      }
      std::fwrite(prom.data(), 1, prom.size(), f);
      std::fclose(f);
      std::size_t fleet_slots = 0;
      for (const auto& ep : fleet.endpoints) fleet_slots += ep.slots.size();
      util::Log(util::LogLevel::kInfo, "live_monitor")
          .msg("fleet metrics written")
          .kv("path", metrics_out)
          .kv("endpoints", static_cast<std::uint64_t>(fleet.endpoints.size()))
          .kv("slots", static_cast<std::uint64_t>(fleet_slots))
          .kv("bytes", static_cast<std::uint64_t>(prom.size()));
    }
    session.fabric()->shutdown_endpoints();
    return 0;
  }
  // Without --resume this run's live view is the whole truth, so the
  // reopen self-check below compares against it — start from an empty
  // directory or a stale one would (correctly) fail the comparison.
  if (!persist_dir.empty() && !resume) {
    std::filesystem::remove_all(persist_dir);
  }

  // 1. One session is both the archive producer (its study substrates
  //    generate the day of updates) and the live monitor that replays
  //    the archive through the sharded pipeline.
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study.window_start = util::from_date(2017, 3, 15);
  config.study.window_end = util::from_date(2017, 3, 16);
  config.study.workload.intensity_scale = 0.05;
  config.study.table_dump_episodes = 0;
  config.num_shards = 4;
  config.persist_dir = persist_dir;
  config.resume = resume;
  config.checkpoint_every = checkpoint_every;
  api::AnalysisSession session(config);

  // A production monitor dies by signal, not by reaching the end of an
  // archive: install the graceful-shutdown latch before any ingest.
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);

  net::BufWriter archive;
  std::size_t written = 0;
  for (const auto& fu : session.study().replay_updates()) {
    bgp::mrt::encode_update(fu.update, archive);
    ++written;
  }
  std::string path = "/tmp/bgpbh_live_monitor.mrt";
  bgp::mrt::write_file(path, archive.data());
  util::Log(util::LogLevel::kInfo, "live_monitor")
      .msg("archive written")
      .kv("records", static_cast<std::uint64_t>(written))
      .kv("bytes", static_cast<std::uint64_t>(archive.size()))
      .kv("path", path);

  // 2. Monitoring pass: subscribe the alert sink, replay the archive
  //    as if it were a live feed, close at the archive cut-off.  The
  //    manual start/push/flush loop is feed() spelled out, which gives
  //    --metrics-every a place to log a registry digest mid-ingest.
  std::string open_error;
  auto source =
      stream::MrtFileSource::open(path, routing::Platform::kRis, &open_error);
  if (!source) {
    util::Log(util::LogLevel::kError, "live_monitor")
        .msg("failed to read/parse archive")
        .kv("path", path)
        .kv("reason", open_error);
    std::fprintf(stderr, "live_monitor: cannot open %s: %s\n", path.c_str(),
                 open_error.c_str());
    return 1;
  }
  AlertSink alerts;
  session.subscribe(alerts);
  session.start();
  std::uint64_t replayed = 0;
  while (const routing::FeedUpdate* u = source->next()) {
    if (g_shutdown) break;
    session.push(*u);
    ++replayed;
    if (metrics_every != 0 && replayed % metrics_every == 0) {
      auto digest = session.telemetry().snapshot();
      util::Log(util::LogLevel::kInfo, "live_monitor")
          .msg("metrics digest")
          .kv("pushed", digest.value_or("stream.updates_pushed"))
          .kv("queue_depth", digest.value_or("stream.queue.depth"))
          .kv("open_events", digest.value_or("stream.shard.open_events"))
          .kv("dispatch_lag", digest.value_or("api.dispatch.lag_events"));
    }
  }
  if (g_shutdown) {
    // Orderly teardown on SIGTERM/SIGINT: everything pushed so far has
    // reached the workers, a final checkpoint pins the open state, and
    // close() seals the segment log — the reopen self-check below then
    // proves the interrupted run lost nothing it accepted.
    bool checkpointed = checkpoint_every != 0 && session.checkpoint_now();
    util::Log(util::LogLevel::kInfo, "live_monitor")
        .msg("shutdown signal received; closing gracefully")
        .kv("replayed", replayed)
        .kv("final_checkpoint", checkpointed);
  }
  session.close(config.study.window_end);
  api::SessionHealth health = session.health();
  util::Log(health.state == api::HealthState::kHealthy
                ? util::LogLevel::kInfo
                : util::LogLevel::kWarn,
            "live_monitor")
      .msg("session health")
      .kv("state", api::to_string(health.state))
      .kv("events_shed", session.events_shed())
      .kv("events_lost", session.events_lost());

  // 3. Summary from the final snapshot (the same counters the sink saw
  //    in its last on_snapshot delivery).
  auto snap = session.snapshot();
  util::Log(util::LogLevel::kInfo, "live_monitor")
      .msg("monitoring summary")
      .kv("replayed", replayed)
      .kv("shards", static_cast<std::uint64_t>(session.num_shards()))
      .kv("closed", static_cast<std::uint64_t>(snap.total_events -
                                               session.open_at_close()))
      .kv("open_at_close", static_cast<std::uint64_t>(session.open_at_close()))
      .kv("sink_events", static_cast<std::uint64_t>(alerts.events()))
      .kv("snapshot_delivered",
          static_cast<std::uint64_t>(alerts.last_snapshot_total()))
      .kv("groups", static_cast<std::uint64_t>(session.grouped_events().size()));
  std::printf("\nmonitoring summary: %llu updates replayed, %zu events closed, "
              "%zu §9 groups\n",
              static_cast<unsigned long long>(replayed),
              snap.total_events - session.open_at_close(),
              session.grouped_events().size());
  std::printf("busiest providers:\n");
  std::vector<std::pair<std::size_t, core::ProviderRef>> top;
  for (const auto& [provider, n] : snap.per_provider) {
    top.emplace_back(n, provider);
  }
  std::sort(top.rbegin(), top.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size()); ++i) {
    std::printf("  %-12s %zu events\n", top[i].second.to_string().c_str(),
                top[i].first);
  }
  std::remove(path.c_str());

  // 4. Persistence round trip: reopen the segment log and prove the
  //    archive serves the exact event set the live view held (with
  //    --resume that is this run's events PLUS every prior session's).
  if (!persist_dir.empty()) {
    util::Log(util::LogLevel::kInfo, "live_monitor")
        .msg("events persisted")
        .kv("events", session.events_persisted())
        .kv("dir", persist_dir)
        .kv("segments_sealed", session.segments_sealed())
        .kv("bytes", session.persisted_bytes())
        .kv("resume", resume);
    api::SessionConfig reopen_config;
    reopen_config.mode = api::SessionConfig::Mode::kReopen;
    reopen_config.persist_dir = persist_dir;
    api::AnalysisSession reopened(reopen_config);
    auto from_disk = reopened.events();
    auto from_live = session.events();
    bool identical = from_disk == from_live;
    if (!identical) {
      util::Log(util::LogLevel::kError, "live_monitor")
          .msg("reopened archive does not match live view")
          .kv("disk_events", static_cast<std::uint64_t>(from_disk.size()))
          .kv("live_events", static_cast<std::uint64_t>(from_live.size()));
      return 1;
    }
    util::Log(util::LogLevel::kInfo, "live_monitor")
        .msg("reopen self-check passed")
        .kv("events", static_cast<std::uint64_t>(from_disk.size()))
        .kv("segments",
            static_cast<std::uint64_t>(reopened.disk()->num_segments()));
  }

  // 5. Final registry dump for scraping: everything the run recorded —
  //    queue depths, per-shard batch latencies, dispatch lag, spill
  //    counters — in Prometheus text exposition format.
  if (!metrics_out.empty()) {
    std::string prom = telemetry::to_prometheus(session.telemetry().snapshot());
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (!f) {
      util::Log(util::LogLevel::kError, "live_monitor")
          .msg("cannot write metrics file")
          .kv("path", metrics_out);
      return 1;
    }
    std::fwrite(prom.data(), 1, prom.size(), f);
    std::fclose(f);
    util::Log(util::LogLevel::kInfo, "live_monitor")
        .msg("metrics written")
        .kv("path", metrics_out)
        .kv("bytes", static_cast<std::uint64_t>(prom.size()));
  }
  return 0;
}
