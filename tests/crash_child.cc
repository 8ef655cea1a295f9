// Crash-harness child for tests/test_recovery.cc — NOT a gtest.
//
// Runs the deterministic study workload through a live session with
// checkpointing enabled, and SIGKILLs itself mid-stream at a
// configured push count (no destructors, no flushes: the hardest
// crash the OS can deliver).  The parent test re-runs the binary
// against the same directory until a run survives to close(), then
// asserts the persisted event set is byte-identical to an uncrashed
// baseline — across every crash point.
//
//   crash_child <dir> <shards> <producers> <checkpoint_every>
//               <checkpoint_at> <kill_after>
//
//   checkpoint_at  explicit checkpoint_now() once this many updates
//                  have been pushed (0 = cadence only)
//   kill_after     raise SIGKILL once this many updates have been
//                  pushed (0 = run to completion and exit 0)
//
// On a completed run prints "pushed=<n> events=<n>" so the parent can
// sanity-check the replay actually deduplicated.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bgp/rib.h"
#include "stream/pipeline.h"

namespace {

// Must match study_config() in tests/test_recovery.cc exactly: the
// baseline and every child run replay the identical update stream.
bgpbh::core::StudyConfig study_config() {
  bgpbh::core::StudyConfig config;
  config.window_start = bgpbh::util::from_date(2017, 3, 1);
  config.window_end = bgpbh::util::from_date(2017, 3, 3);
  config.workload.intensity_scale = 0.05;
  config.table_dump_episodes = 0;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr,
                 "usage: crash_child <dir> <shards> <producers> "
                 "<checkpoint_every> <checkpoint_at> <kill_after>\n");
    return 2;
  }
  const std::string dir = argv[1];
  const std::size_t shards = std::strtoul(argv[2], nullptr, 10);
  const std::size_t producers = std::strtoul(argv[3], nullptr, 10);
  const std::uint64_t checkpoint_every = std::strtoull(argv[4], nullptr, 10);
  const std::uint64_t checkpoint_at = std::strtoull(argv[5], nullptr, 10);
  const std::uint64_t kill_after = std::strtoull(argv[6], nullptr, 10);

  bgpbh::api::SessionConfig config;
  config.mode = bgpbh::api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = shards;
  config.num_producers = producers;
  config.queue_capacity = 64;
  config.persist_dir = dir;
  config.recover = true;
  config.checkpoint_every = checkpoint_every;
  bgpbh::api::AnalysisSession session(config);

  // The full deterministic stream, partitioned by peer key — the same
  // producer always carries the same peers, so per-producer order (the
  // pipeline's ordering unit) is identical across runs.
  const auto updates = session.study().replay_updates();
  std::vector<std::vector<bgpbh::routing::FeedUpdate>> parts(producers);
  for (const auto& u : updates) {
    bgpbh::bgp::PeerKey peer{u.update.peer_ip, u.update.peer_asn};
    parts[bgpbh::bgp::PeerKeyHash{}(peer) % producers].push_back(u);
  }

  session.start();
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<bool> checkpointed{false};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (const auto& u : parts[p]) {
        session.push(u, p);
        const std::uint64_t n =
            pushed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (checkpoint_at != 0 && n >= checkpoint_at &&
            !checkpointed.exchange(true)) {
          session.checkpoint_now();
        }
        if (kill_after != 0 && n >= kill_after) {
          // The point of the harness: die with no cleanup whatsoever.
          raise(SIGKILL);
        }
      }
      session.flush(p);
    });
  }
  for (auto& t : threads) t.join();
  session.close(study_config().window_end);
  std::printf("pushed=%llu events=%zu\n",
              static_cast<unsigned long long>(
                  pushed.load(std::memory_order_relaxed)),
              session.events().size());
  return 0;
}
