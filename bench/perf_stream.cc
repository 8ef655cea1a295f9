// Streaming-pipeline throughput: updates/sec through the sharded live
// ingestion path (source -> zero-copy shard router -> batched SPSC
// queues of 16-byte SubUpdateRefs -> engine shards -> event store
// lanes) at 1, 2, 4 and 8 shards, against the sequential single-engine
// replay as baseline, plus an MPMC row (several producer threads, one
// per collector platform).
//
// The §4.2 monitoring problem is embarrassingly parallel in the
// (peer, prefix) key — this bench shows the shard fan-out turning that
// into wall-clock throughput on multi-core hardware (on a single
// hardware thread the shard counts collapse to roughly the 1-shard
// pipeline rate; BENCH_stream.json records hardware_threads so scaling
// regressions stay attributable).  Every configuration is checked
// against the sequential event set before its numbers are reported.
//
// Beyond throughput, the bench enforces the zero-copy contract: a
// counting allocator (global operator new, thread-local counters)
// proves that routing an announced-prefix sub-update through a warm
// pipeline performs ZERO heap allocations — the run fails otherwise —
// and a per-stage microbench (route / queue / store-drain ns/op)
// attributes any future regression to its stage.
//
// The persistence stages measure the spill path of the same store
// (sealed chunks -> bounded queue -> segment log, src/storage/) and
// the reopen read path (segment set open + index-seeking window
// query); the segment directory they write is left on disk
// (--segments-out, default BENCH_segments/) so CI can upload a sample
// of the on-disk format as an artifact.
//
// The fabric stages (--fabric) run the distributed plane end to end:
// two in-process fabric::ShardServers on loopback ephemeral ports, a
// fabric AnalysisSession pushing the study stream through the framed
// APPEND protocol (fabric_append_ns_per_event), one live slot
// migration between the servers (rebalance_ms), and an equality check
// against a matching in-process session — a mismatch fails the run
// like every other stage.
//
//   perf_stream [--smoke] [--fabric] [--producers <P>] [--out <path>]
//               [--segments-out <dir>]
//
// --smoke shrinks the workload and runs only 1 and 4 shards (CI).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "api/query.h"
#include "api/session.h"
#include "api/sink.h"
#include "bench_meta.h"
#include "core/study.h"
#include "fabric/server.h"
#include "storage/segment_reader.h"
#include "storage/spill.h"
#include "stream/pipeline.h"
#include "stream/source.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

// ---- counting allocator ------------------------------------------------
// Thread-local so the producer thread's allocation count is exact no
// matter what the shard workers do concurrently.

namespace {
thread_local std::uint64_t t_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace bgpbh;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ShardResult {
  std::size_t shards = 0;
  std::size_t producers = 1;
  double rate = 0;
  double speedup_vs_sequential = 0;
  bool events_identical = false;
};

constexpr std::size_t kNumPlatforms = routing::kNumPlatforms;
using routing::platform_index;

// Runs `workload` through a pipeline with the given shard/producer
// counts.  With several producers the stream is partitioned by
// platform — one producer per collector platform, the MPMC deployment
// shape — which preserves per-key order because collector sessions
// (and hence peer keys) are platform-disjoint.
double run_pipeline(const core::Study& study,
                    const std::vector<routing::FeedUpdate>& workload,
                    std::size_t shards, std::size_t producers,
                    util::SimTime end_time,
                    const std::vector<core::PeerEvent>& reference,
                    bool* events_identical) {
  auto t0 = std::chrono::steady_clock::now();
  stream::PipelineConfig pconfig;
  pconfig.num_shards = shards;
  pconfig.num_producers = producers;
  stream::StreamPipeline pipeline(study.dictionary(), study.registry(),
                                  pconfig);
  if (producers <= 1) {
    stream::VectorSource source(workload);
    pipeline.run(source);
  } else {
    std::vector<std::vector<routing::FeedUpdate>> parts(producers);
    for (const auto& u : workload) {
      parts[platform_index(u.platform) % producers].push_back(u);
    }
    pipeline.start();
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&pipeline, &parts, p] {
        auto& producer = pipeline.producer(p);
        for (const auto& u : parts[p]) producer.push(u);
      });
    }
    for (auto& t : threads) t.join();
  }
  pipeline.finish(end_time);
  double secs = seconds_since(t0);
  *events_identical = pipeline.store().events() == reference;
  return workload.size() / secs;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool with_fabric = false;
  std::size_t mpmc_producers = 3;
  std::string out_path = "BENCH_stream.json";
  std::string segments_dir = "BENCH_segments";
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--fabric") == 0) {
      with_fabric = true;
    } else if (std::strcmp(argv[i], "--producers") == 0 && i + 1 < argc) {
      mpmc_producers = static_cast<std::size_t>(std::atoi(argv[++i]));
      if (mpmc_producers == 0 || mpmc_producers > kNumPlatforms) {
        std::fprintf(stderr, "--producers must be 1..%zu\n", kNumPlatforms);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--segments-out") == 0 && i + 1 < argc) {
      segments_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: perf_stream [--smoke] [--fabric] [--producers <P>] "
                   "[--out <path>] [--segments-out <dir>] "
                   "[--metrics-out <path>]\n");
      return 2;
    }
  }

  core::StudyConfig config;
  config.window_start = util::from_date(2017, 3, 1);
  config.window_end = util::from_date(2017, 3, 15);
  config.workload.intensity_scale = smoke ? 0.02 : 0.05;
  config.table_dump_episodes = 0;

  std::printf("building study substrates + replay workload...\n");
  core::Study study(config);
  std::vector<routing::FeedUpdate> updates = study.replay_updates();
  // Replicate the stream a few times so per-run wall time is measurable
  // and per-update setup cost amortizes away.
  std::vector<routing::FeedUpdate> workload;
  const int kReplicas = smoke ? 2 : 4;
  workload.reserve(updates.size() * kReplicas);
  for (int r = 0; r < kReplicas; ++r) {
    for (const auto& u : updates) {
      workload.push_back(u);
      workload.back().update.time += static_cast<util::SimTime>(r) * util::kDay * 20;
    }
  }
  std::printf("workload: %zu updates (%zu unique), hardware threads: %u\n\n",
              workload.size(), updates.size(),
              std::thread::hardware_concurrency());

  // Sequential baseline.
  auto t0 = std::chrono::steady_clock::now();
  core::InferenceEngine engine(study.dictionary(), study.registry());
  for (const auto& u : workload) engine.process(u.platform, u.update);
  engine.finish(config.window_end);
  double base_secs = seconds_since(t0);
  double base_rate = workload.size() / base_secs;
  std::vector<core::PeerEvent> reference = engine.events();
  core::canonical_sort(reference);
  std::printf("  %-26s %10.0f updates/sec   (%zu events)\n",
              "sequential engine", base_rate, reference.size());

  const stream::PipelineConfig defaults;
  std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  std::vector<ShardResult> results;
  bool all_equivalent = true;
  double one_shard_rate = 0.0;
  double best_multi_rate = 0.0;
  for (std::size_t shards : shard_counts) {
    bool equivalent = false;
    double rate = run_pipeline(study, workload, shards, /*producers=*/1,
                               config.window_end, reference, &equivalent);
    all_equivalent = all_equivalent && equivalent;
    results.push_back(ShardResult{.shards = shards,
                                  .producers = 1,
                                  .rate = rate,
                                  .speedup_vs_sequential = rate / base_rate,
                                  .events_identical = equivalent});
    std::printf("  pipeline %zu shard%-3s       %10.0f updates/sec   %.2fx vs "
                "sequential  [%s]\n",
                shards, shards == 1 ? "" : "s", rate, rate / base_rate,
                equivalent ? "events identical" : "EVENT MISMATCH");
    if (shards == 1) one_shard_rate = rate;
    if (shards > 1 && rate > best_multi_rate) best_multi_rate = rate;
  }

  // MPMC row: several producer threads (one per collector platform)
  // feeding a 4-shard pipeline concurrently.
  {
    bool equivalent = false;
    double rate = run_pipeline(study, workload, /*shards=*/4, mpmc_producers,
                               config.window_end, reference, &equivalent);
    all_equivalent = all_equivalent && equivalent;
    results.push_back(ShardResult{.shards = 4,
                                  .producers = mpmc_producers,
                                  .rate = rate,
                                  .speedup_vs_sequential = rate / base_rate,
                                  .events_identical = equivalent});
    std::printf("  pipeline 4 shards x %zu prod %10.0f updates/sec   %.2fx vs "
                "sequential  [%s]\n",
                mpmc_producers, rate, rate / base_rate,
                equivalent ? "events identical" : "EVENT MISMATCH");
  }

  std::printf("\nmulti-shard best vs 1-shard pipeline: %.2fx\n",
              one_shard_rate > 0 ? best_multi_rate / one_shard_rate : 0.0);

  // ---- zero-allocation routing assertion (checkpointing enabled) -----
  // Warm a full AnalysisSession — spill AND the checkpoint plane wired,
  // with cadence cuts landing mid-stream — until the producer-side
  // routing path reaches steady state, then count producer-thread
  // allocations while routing single-announced-prefix sub-updates.
  // The zero-copy contract: none.  Sealing chunks for spill happens on
  // the draining worker threads and checkpoint cuts happen at a worker
  // rendezvous driven by the coordinator thread, so neither
  // persistence nor the recovery plane may add a single allocation to
  // the producer's routing path — the assertion proves it, with real
  // cuts observed during the run.
  double allocs_per_subupdate = 0.0;
  double checkpoint_ns_per_event = 0.0, recover_ms = 0.0;
  std::string metrics_prom;  // Prometheus dump of the instrumented run
  std::uint64_t telemetry_batches = 0;
  std::uint64_t cadence_checkpoints = 0;
  {
    std::filesystem::remove_all(segments_dir);
    api::SessionConfig sconfig;
    sconfig.mode = api::SessionConfig::Mode::kLiveFeed;
    sconfig.study = config;
    sconfig.persist_dir = segments_dir;
    sconfig.checkpoint_every = 150000;  // several cuts land mid-run
    api::AnalysisSession session(sconfig);
    session.start();
    // Rich engine state first — the real study stream — so the
    // checkpoint cuts below serialize representative open-state
    // tables, not a one-event toy.
    std::uint64_t total_pushed = 0;
    for (const auto& u : updates) {
      session.push(u);
      ++total_pushed;
    }
    routing::FeedUpdate probe;
    probe.platform = routing::Platform::kRis;
    probe.update.time = config.window_start;
    probe.update.peer_ip = *net::IpAddr::parse("198.51.100.9");
    probe.update.peer_asn = 3356;
    probe.update.body.as_path = bgp::AsPath::of({3356, 3356, 1299, 2914, 64500});
    probe.update.body.communities.add(bgp::Community(3356, 120));
    probe.update.body.communities.add(bgp::Community(1299, 3000));
    probe.update.body.announced.push_back(*net::Prefix::parse("20.7.0.0/16"));
    // Probes go in cycles of kBlockCacheSize, each followed by
    // drain(): every block of a cycle is back in the pool before the
    // next cycle starts, and the router's cache refill takes the top of
    // the pool's LIFO free list, so the cycles keep reusing the same
    // <= 2 x kBlockCacheSize blocks however the workers are scheduled.
    // Once each of them has held the probe, its vectors fit and no
    // copy can allocate.  Warming "until a round adds nothing" was not
    // enough: a worker stall deeper than any in the warm-up pulled
    // blocks last written by the study stream, whose AS path and
    // community vectors were too short for the probe, and ~1 run in 6
    // counted a few allocations.
    constexpr std::uint64_t kCycle = stream::ShardRouter::kBlockCacheSize;
    auto push_probes = [&](std::uint64_t n) {
      for (std::uint64_t i = 1; i <= n; ++i) {
        probe.update.time += 1;
        session.push(probe);
        if (i % kCycle == 0) session.drain();
      }
      total_pushed += n;
    };
    const std::uint64_t kWarm = 3125 * kCycle, kMeasure = 3125 * kCycle;
    push_probes(kWarm);
    std::uint64_t before = t_alloc_count;
    push_probes(kMeasure);
    std::uint64_t allocs = t_alloc_count - before;
    allocs_per_subupdate = static_cast<double>(allocs) / kMeasure;
    cadence_checkpoints = session.checkpoints_written();
    std::printf("routing allocations per announced-prefix sub-update: %.4f "
                "(%llu allocs / %llu routed, spill + checkpointing "
                "enabled, %llu cadence checkpoints)  [%s]\n",
                allocs_per_subupdate, static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(kMeasure),
                static_cast<unsigned long long>(cadence_checkpoints),
                allocs == 0 ? "zero-copy OK" : "ALLOCATION REGRESSION");
    if (allocs != 0) all_equivalent = false;  // fail the run loudly
    if (cadence_checkpoints == 0) {
      // The assertion's claim is "zero-alloc WITH checkpointing"; a
      // run where no cut ever landed would quietly stop covering it.
      std::fprintf(stderr,
                   "CHECKPOINT MISS: no cadence checkpoint landed during "
                   "the zero-alloc run\n");
      all_equivalent = false;
    }

    // ---- recovery stages ----
    // checkpoint = wall time of one explicit checkpoint_now() cut
    // (worker rendezvous + open-state serialize + spill barrier +
    // fsync + rename), amortized over every update this run ingested;
    // recover = wall-clock to construct a recover=true session on the
    // resulting directory (newest valid checkpoint + segment-log
    // truncation + disk merge + open-state restore).  The recovered
    // session must reproduce the clean session's event set exactly.
    const int kCuts = 5;
    int cuts_ok = 0;
    auto c0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kCuts; ++i) cuts_ok += session.checkpoint_now() ? 1 : 0;
    double cut_secs = seconds_since(c0) / kCuts;
    checkpoint_ns_per_event =
        cut_secs * 1e9 / static_cast<double>(total_pushed);
    if (cuts_ok != kCuts) {
      std::fprintf(stderr, "CHECKPOINT FAILURE: %d of %d explicit cuts "
                   "succeeded\n", cuts_ok, kCuts);
      all_equivalent = false;
    }
    session.close(config.window_end);
    std::vector<core::PeerEvent> clean = session.events();

    sconfig.recover = true;
    auto r0 = std::chrono::steady_clock::now();
    api::AnalysisSession recovered(sconfig);
    recover_ms = seconds_since(r0) * 1e3;
    bool recovery_ok = recovered.recovered();
    recovered.start();
    recovered.close(config.window_end);
    recovery_ok = recovery_ok && recovered.events() == clean;
    std::printf("recovery: checkpoint cut %.2f ms (%.3f ns/event over %llu "
                "updates), recover %.1f ms (%zu events)  [%s]\n",
                cut_secs * 1e3, checkpoint_ns_per_event,
                static_cast<unsigned long long>(total_pushed), recover_ms,
                clean.size(),
                recovery_ok ? "recovered identical" : "RECOVERY MISMATCH");
    if (!recovery_ok) all_equivalent = false;

    // Telemetry is default-on (the session owns the registry every
    // layer registers into), so the zero count above was measured WITH
    // the instrumented hot path.  Prove the instruments actually
    // recorded — an empty batch histogram would mean the assertion
    // silently stopped covering the telemetry layer.
    telemetry::MetricsRegistry::Snapshot tsnap =
        session.telemetry().snapshot();
    const auto* batch_metric = tsnap.find("stream.worker.batch_ns");
    telemetry_batches = batch_metric ? batch_metric->hist.count : 0;
    if (telemetry_batches == 0) {
      std::fprintf(stderr,
                   "TELEMETRY MISS: stream.worker.batch_ns recorded nothing "
                   "during the zero-alloc run\n");
      all_equivalent = false;
    }
    std::printf("telemetry: %llu worker batches recorded, %.0f sub-updates "
                "counted by the registry\n",
                static_cast<unsigned long long>(telemetry_batches),
                tsnap.value_or("stream.shard.processed"));
    metrics_prom = telemetry::to_prometheus(tsnap);
  }

  // ---- per-stage breakdown -------------------------------------------
  // Isolated costs of the three data-plane stages, so a scaling
  // regression in the headline number is attributable.
  double route_ns = 0, queue_ns = 0, drain_ns = 0;
  {
    // Stage 1: route = cached block acquire + one update copy + shard
    // hash + ref emit, with the consumer-side batched recycle.
    stream::BlockPool pool;
    stream::ShardRouter router(4, pool);
    std::vector<stream::UpdateBlock*> to_recycle;
    to_recycle.reserve(defaults.batch_size);
    std::uint64_t subs = 0;
    auto s0 = std::chrono::steady_clock::now();
    for (const auto& u : workload) {
      router.route(u, [&](std::size_t, stream::SubUpdateRef ref) {
        ++subs;
        if (stream::BlockPool::unref(ref.block)) to_recycle.push_back(ref.block);
        if (to_recycle.size() >= defaults.batch_size) {
          pool.recycle_batch(to_recycle);
          to_recycle.clear();
        }
      });
    }
    route_ns = subs ? seconds_since(s0) * 1e9 / static_cast<double>(subs) : 0;

    // Stage 2: queue transfer of 16-byte refs, batched both sides.
    stream::SpscQueue<stream::SubUpdateRef> queue(defaults.queue_capacity);
    std::vector<stream::SubUpdateRef> batch_in(defaults.batch_size);
    std::vector<stream::SubUpdateRef> batch_out;
    batch_out.reserve(defaults.batch_size);
    const std::uint64_t kQueueOps = 4 << 20;
    s0 = std::chrono::steady_clock::now();
    for (std::uint64_t done = 0; done < kQueueOps;
         done += defaults.batch_size) {
      queue.push_batch(batch_in);
      batch_out.clear();
      queue.pop_batch(batch_out, defaults.batch_size);
    }
    queue_ns = seconds_since(s0) * 1e9 / static_cast<double>(kQueueOps);

    // Stage 3: store drain = sealed-chunk handoff into a lane.
    stream::EventStore store(4);
    std::vector<core::PeerEvent> chunk_template(256);
    const std::uint64_t kChunks = 2048;
    double accum = 0;
    for (std::uint64_t i = 0; i < kChunks; ++i) {
      auto chunk = chunk_template;
      auto c0 = std::chrono::steady_clock::now();
      store.ingest_chunk(i % 4, std::move(chunk));
      accum += seconds_since(c0);
    }
    drain_ns = accum * 1e9 / static_cast<double>(kChunks * 256);
    std::printf("stage breakdown: route %.1f ns/sub-update, queue %.1f "
                "ns/ref, drain %.2f ns/event\n",
                route_ns, queue_ns, drain_ns);
  }

  // ---- AnalysisSession consumer-surface stages ------------------------
  // query = lane-consistent EventQuery scan over a populated store;
  // sink_dispatch = producer-side cost of the subscription layer (the
  // sealed chunk, shared by reference, pushed onto the bounded dispatch
  // queue), the delta a registered sink adds on top of the bare drain
  // above.  With NO sinks the dispatch layer adds nothing to a sealed
  // chunk — the zero-allocation assertion above already ran without
  // sinks, so any hot-path regression from the subscription layer
  // fails this bench.
  double query_ns = 0, sink_dispatch_ns = 0;
  {
    const std::size_t kEvents = 1 << 17;
    const std::size_t kChunkLen = 256;
    stream::EventStore store(4);
    std::vector<core::PeerEvent> chunk(kChunkLen);
    for (std::size_t done = 0; done < kEvents; done += kChunkLen) {
      for (std::size_t i = 0; i < kChunkLen; ++i) {
        chunk[i].start = static_cast<util::SimTime>(done + i);
        chunk[i].end = chunk[i].start + 50;
      }
      store.ingest_chunk(done / kChunkLen, std::vector(chunk));
    }
    api::EventQuery query;
    query.between(static_cast<util::SimTime>(kEvents / 4),
                  static_cast<util::SimTime>(3 * kEvents / 4));
    const int kQueryReps = 20;
    auto s0 = std::chrono::steady_clock::now();
    std::size_t matched = 0;
    for (int rep = 0; rep < kQueryReps; ++rep) {
      matched += store.count(
          [&query](const core::PeerEvent& e) { return query.matches(e); });
    }
    query_ns = seconds_since(s0) * 1e9 /
               static_cast<double>(kQueryReps * kEvents);

    // Dispatch: same sealed-chunk ingest as the drain stage, with a
    // listener feeding a running SinkDispatcher (one no-op sink).
    class NullSink : public api::EventSink {} sink;
    api::SinkDispatcher dispatcher({&sink}, /*grouper=*/nullptr,
                                   /*capacity_chunks=*/256,
                                   /*snapshot_fn=*/{},
                                   /*snapshot_every_events=*/0);
    dispatcher.start();
    stream::EventStore dispatch_store(4);
    dispatch_store.add_chunk_listener(
        [&dispatcher](std::size_t, const core::SealedChunk& events) {
          dispatcher.submit(events);
        });
    const std::uint64_t kChunks = 2048;
    double accum = 0;
    for (std::uint64_t i = 0; i < kChunks; ++i) {
      auto c = chunk;
      auto c0 = std::chrono::steady_clock::now();
      dispatch_store.ingest_chunk(i % 4, std::move(c));
      accum += seconds_since(c0);
    }
    dispatcher.stop();
    sink_dispatch_ns = accum * 1e9 / static_cast<double>(kChunks * kChunkLen);
    std::printf("consumer surface: query %.2f ns/event scanned (%zu matches), "
                "sink dispatch %.2f ns/event (vs %.2f ns/event bare drain)\n",
                query_ns, matched / static_cast<std::size_t>(kQueryReps),
                sink_dispatch_ns, drain_ns);
  }

  // ---- persistence stages --------------------------------------------
  // spill = sealed-chunk ingest with the segment-log spill listener
  // wired (shared-chunk bounded-queue handoff + writer-thread append +
  // seal), timed end to end until everything is durably on disk — the
  // full producer-visible + drain cost of persistence per event.
  // reopen_query = SegmentSet::open + an index-seeking half-range
  // window query over the reopened log, per event on disk.  The
  // segment directory is left behind for the CI artifact.
  double spill_ns = 0, reopen_query_ns = 0;
  std::uint64_t persisted_events = 0, persisted_bytes = 0, segment_files = 0;
  {
    std::filesystem::remove_all(segments_dir);
    storage::SpillConfig spill_config;
    spill_config.dir = segments_dir;
    spill_config.segment.max_segment_bytes = 1 << 20;
    auto spill = storage::SpillWriter::open(spill_config);
    if (!spill) {
      std::fprintf(stderr, "cannot open %s for spill\n", segments_dir.c_str());
      return 1;
    }
    stream::EventStore store(4);
    store.add_chunk_listener(
        [&spill](std::size_t, const core::SealedChunk& chunk) {
          spill->submit(chunk);
        });
    const std::size_t kChunkLen = 256;
    const std::uint64_t kChunks = smoke ? 512 : 2048;
    const std::uint64_t kEvents = kChunks * kChunkLen;
    std::vector<core::PeerEvent> chunk(kChunkLen);
    auto s0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kChunks; ++i) {
      for (std::size_t j = 0; j < kChunkLen; ++j) {
        chunk[j].start = static_cast<util::SimTime>(i * kChunkLen + j);
        chunk[j].end = chunk[j].start + 50;
      }
      store.ingest_chunk(i % 4, std::vector(chunk));
    }
    spill->stop();  // queue drained, active segment sealed
    spill_ns = seconds_since(s0) * 1e9 / static_cast<double>(kEvents);
    persisted_events = spill->events_spilled();
    persisted_bytes = spill->bytes_on_disk();
    segment_files = spill->segments_sealed();
    if (persisted_events != kEvents || spill->io_error()) {
      std::fprintf(stderr, "SPILL LOSS: %llu of %llu events persisted\n",
                   static_cast<unsigned long long>(persisted_events),
                   static_cast<unsigned long long>(kEvents));
      all_equivalent = false;
    }

    auto set = storage::SegmentSet::open(segments_dir);
    if (!set || set->size() != kEvents) {
      std::fprintf(stderr, "REOPEN MISMATCH: %zu of %llu events on disk\n",
                   set ? set->size() : 0,
                   static_cast<unsigned long long>(kEvents));
      all_equivalent = false;
    } else {
      const int kReps = 20;
      std::size_t matched = 0;
      s0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kReps; ++rep) {
        matched += set
                       ->events_in(static_cast<util::SimTime>(kEvents / 4),
                                   static_cast<util::SimTime>(3 * kEvents / 4))
                       .size();
      }
      reopen_query_ns =
          seconds_since(s0) * 1e9 / static_cast<double>(kReps * kEvents);
      std::printf("persistence: spill %.2f ns/event (%llu events, %llu "
                  "segments, %.1f MiB), reopen query %.2f ns/event (%zu "
                  "matches)\n",
                  spill_ns, static_cast<unsigned long long>(persisted_events),
                  static_cast<unsigned long long>(segment_files),
                  static_cast<double>(persisted_bytes) / (1024.0 * 1024.0),
                  reopen_query_ns,
                  matched / static_cast<std::size_t>(kReps));
    }
  }

  // ---- fabric stages (--fabric) --------------------------------------
  // fabric_append = per-update cost of the full distributed append
  // path (split + batch + frame + loopback TCP + server-side push +
  // bounded-window ack) measured against two in-process ShardServers;
  // rebalance = wall clock of one live slot migration between them
  // (drain + drained checkpoint + directory ship + recover + route
  // flip) with the slot fully populated.  The fabric session's event
  // set must match an in-process session over the same stream — the
  // distributed plane is only worth benching if it is correct.
  double fabric_append_ns = 0.0, rebalance_ms = 0.0;
  double detection_latency_p99_ms = 0.0;
  if (with_fabric) {
    api::SessionConfig ref_config;
    ref_config.mode = api::SessionConfig::Mode::kLiveFeed;
    ref_config.study = config;
    ref_config.num_shards = 4;
    api::AnalysisSession ref_session(ref_config);
    ref_session.start();
    for (const auto& u : updates) ref_session.push(u);
    ref_session.close(config.window_end);
    std::vector<core::PeerEvent> ref_events = ref_session.events();

    const std::string fabric_dir = "BENCH_fabric";
    std::filesystem::remove_all(fabric_dir);
    fabric::ShardServerConfig server_config;
    server_config.study = config;
    server_config.dir = fabric_dir + "/srv0";
    fabric::ShardServer server0(server_config);
    server_config.dir = fabric_dir + "/srv1";
    fabric::ShardServer server1(server_config);

    api::SessionConfig fconfig;
    fconfig.mode = api::SessionConfig::Mode::kLiveFeed;
    fconfig.study = config;
    fconfig.num_shards = 4;  // the global slot count in fabric mode
    fconfig.fabric.endpoints = {{"127.0.0.1", server0.port()},
                                {"127.0.0.1", server1.port()}};
    api::AnalysisSession fabric_session(fconfig);
    fabric_session.start();
    auto f0 = std::chrono::steady_clock::now();
    for (const auto& u : updates) fabric_session.push(u);
    fabric_session.drain();
    fabric_append_ns =
        seconds_since(f0) * 1e9 / static_cast<double>(updates.size());

    // Migrate slot 0 onto whichever server does not own it, with every
    // update already applied — the worst-case (fully populated) move.
    fabric::FabricRouter* router = fabric_session.fabric();
    std::size_t target = router->endpoint_of(0) == 0 ? 1 : 0;
    auto m0 = std::chrono::steady_clock::now();
    bool migrated = router->migrate(0, target);
    rebalance_ms = seconds_since(m0) * 1e3;

    fabric_session.close(config.window_end);
    bool fabric_identical = migrated && fabric_session.events() == ref_events;
    // End-to-end detection latency THROUGH THE FABRIC: each update was
    // wall-clock-stamped at push(), carried across the wire in the
    // sub-update trailer, and the slot sessions recorded ingest→close
    // into their e2e.detect_latency_ns histograms.  fleet_telemetry()
    // folds those bucket-exactly across every slot of both servers.
    telemetry::FleetTelemetry fleet =
        fabric_session.fabric()->fleet_telemetry();
    if (const telemetry::MetricsRegistry::Metric* m =
            fleet.folded.find("e2e.detect_latency_ns");
        m != nullptr && m->hist.count > 0) {
      detection_latency_p99_ms = m->hist.percentile(0.99) / 1e6;
    }
    std::printf("fabric: append %.1f ns/event over loopback (%zu updates, "
                "4 slots, 2 servers), rebalance slot 0 -> server %zu "
                "%.2f ms, detect p99 %.3f ms end-to-end  [%s]\n",
                fabric_append_ns, updates.size(), target, rebalance_ms,
                detection_latency_p99_ms,
                fabric_identical ? "events identical" : "FABRIC MISMATCH");
    if (!fabric_identical) all_equivalent = false;
    server0.stop();
    server1.stop();
    std::filesystem::remove_all(fabric_dir);
  }

  // The stage breakdown flows through the telemetry registry — the
  // same snapshot/export path AnalysisSession::telemetry() consumers
  // use — so the BENCH JSON is derived from registry state, not a
  // parallel set of locals.  The exporter preserves the historical key
  // names (the `stage.` prefix is stripped).
  telemetry::MetricsRegistry bench_registry;
  bench_registry.describe("stage.route_ns_per_subupdate",
                          "Shard routing cost per sub-update (ns)");
  bench_registry.describe("stage.queue_ns_per_ref",
                          "SPSC queue transfer cost per update ref (ns)");
  bench_registry.describe("stage.drain_ns_per_event",
                          "Shard drain + store ingest cost per event (ns)");
  bench_registry.describe("stage.query_ns_per_event",
                          "Live lane-consistent query cost per event (ns)");
  bench_registry.describe("stage.sink_dispatch_ns_per_event",
                          "Sink dispatcher delivery cost per event (ns)");
  bench_registry.describe("stage.spill_ns_per_event",
                          "Segment-log spill cost per event (ns)");
  bench_registry.describe("stage.reopen_query_ns_per_event",
                          "kReopen archive query cost per event (ns)");
  bench_registry.describe("stage.checkpoint_ns_per_event",
                          "Cadence checkpoint amortized cost per event (ns)");
  bench_registry.describe("stage.recover_ms",
                          "Checkpoint restore wall time (ms)");
  bench_registry.describe("stage.fabric_append_ns_per_event",
                          "Distributed APPEND path cost per update (ns)");
  bench_registry.describe("stage.rebalance_ms",
                          "Live slot migration wall time (ms)");
  bench_registry.describe(
      "stage.detection_latency_p99_ms",
      "p99 end-to-end detection latency through the fabric: producer-edge "
      "ingest stamp to engine event close, folded across all slots (ms)");
  bench_registry.gauge("stage.route_ns_per_subupdate").set(route_ns);
  bench_registry.gauge("stage.queue_ns_per_ref").set(queue_ns);
  bench_registry.gauge("stage.drain_ns_per_event").set(drain_ns);
  bench_registry.gauge("stage.query_ns_per_event").set(query_ns);
  bench_registry.gauge("stage.sink_dispatch_ns_per_event")
      .set(sink_dispatch_ns);
  bench_registry.gauge("stage.spill_ns_per_event").set(spill_ns);
  bench_registry.gauge("stage.reopen_query_ns_per_event").set(reopen_query_ns);
  bench_registry.gauge("stage.checkpoint_ns_per_event")
      .set(checkpoint_ns_per_event);
  bench_registry.gauge("stage.recover_ms").set(recover_ms);
  if (with_fabric) {
    bench_registry.gauge("stage.fabric_append_ns_per_event")
        .set(fabric_append_ns);
    bench_registry.gauge("stage.rebalance_ms").set(rebalance_ms);
    bench_registry.gauge("stage.detection_latency_p99_ms")
        .set(detection_latency_p99_ms);
  }
  telemetry::MetricsRegistry::Snapshot stage_snap = bench_registry.snapshot();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"perf_stream\",\n");
  std::fprintf(out, "  \"meta\": %s,\n", bench::meta_json().c_str());
  std::fprintf(out, "  \"workload_updates\": %zu,\n", workload.size());
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"batch_size\": %zu,\n", defaults.batch_size);
  std::fprintf(out, "  \"queue_capacity\": %zu,\n", defaults.queue_capacity);
  std::fprintf(out, "  \"routing_allocs_per_subupdate\": %.4f,\n",
               allocs_per_subupdate);
  std::fprintf(out, "  \"telemetry_batches_recorded\": %llu,\n",
               static_cast<unsigned long long>(telemetry_batches));
  std::fprintf(out, "  \"cadence_checkpoints\": %llu,\n",
               static_cast<unsigned long long>(cadence_checkpoints));
  std::fprintf(out, "  \"stage_breakdown\": %s,\n",
               telemetry::to_json_object(stage_snap, "stage.").c_str());
  std::fprintf(out,
               "  \"persistence\": {\"events\": %llu, \"segments\": %llu, "
               "\"bytes\": %llu},\n",
               static_cast<unsigned long long>(persisted_events),
               static_cast<unsigned long long>(segment_files),
               static_cast<unsigned long long>(persisted_bytes));
  std::fprintf(out, "  \"sequential_updates_per_sec\": %.0f,\n", base_rate);
  std::fprintf(out, "  \"events\": %zu,\n", reference.size());
  std::fprintf(out, "  \"shard_scaling\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"shards\": %zu, \"producers\": %zu, "
                 "\"updates_per_sec\": %.0f, "
                 "\"speedup_vs_sequential\": %.2f, \"events_identical\": %s}%s\n",
                 r.shards, r.producers, r.rate, r.speedup_vs_sequential,
                 r.events_identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  // Optional Prometheus snapshot: the instrumented zero-alloc run's
  // registry (pipeline/queue/spill instruments) plus the stage gauges
  // above — what CI uploads as an artifact.
  if (!metrics_out.empty()) {
    std::FILE* prom = std::fopen(metrics_out.c_str(), "w");
    if (!prom) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::fputs(metrics_prom.c_str(), prom);
    std::fputs(telemetry::to_prometheus(stage_snap).c_str(), prom);
    std::fclose(prom);
    std::printf("wrote %s\n", metrics_out.c_str());
  }

  // The numbers are meaningless if the sharded pipeline diverges from
  // the sequential engine or the zero-copy contract regressed — fail
  // loudly (CI runs this as a smoke test).
  return all_equivalent ? 0 : 1;
}
