// End-to-end study orchestration: builds every substrate, replays the
// longitudinal workload through the collector fleet into the inference
// engine, and derives the aggregates behind each table/figure of the
// paper.  All bench binaries and most integration tests sit on top of
// this class.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/engine.h"
#include "core/grouping.h"
#include "dictionary/corpus.h"
#include "dictionary/dictionary.h"
#include "dictionary/inferred.h"
#include "routing/collectors.h"
#include "routing/propagation.h"
#include "stats/series.h"
#include "topology/cone.h"
#include "topology/generator.h"
#include "topology/registry.h"
#include "workload/scenario.h"

namespace bgpbh::core {

struct StudyConfig {
  std::uint64_t seed = 2017;
  topology::GeneratorConfig topology;
  routing::FleetConfig fleet;
  workload::WorkloadConfig workload;
  util::SimTime window_start = util::study_start();
  util::SimTime window_end = util::study_end();
  // Track per-community usage statistics (Fig 2); costs some memory.
  bool collect_usage = true;
  // Engine ablations are forwarded verbatim.
  EngineConfig engine;
  // Number of pre-window episodes seeded into the initial table dump
  // (exercises §4.2 initialization; start times recorded as 0).
  std::size_t table_dump_episodes = 25;
};

// One episode's ground truth kept for validation and for the
// data-plane / flows benches.
struct GroundTruthEpisode {
  workload::Episode episode;
  std::vector<bgp::Asn> activated_providers;
  std::vector<std::uint32_t> activated_ixps;
  bool control_plane_only = false;
  std::size_t observed_updates = 0;  // collector sightings (0 = invisible)
};

class Study {
 public:
  explicit Study(StudyConfig config = {});

  // Runs the full pipeline once; subsequent calls are no-ops.
  void run();

  // ---- substrates -----------------------------------------------------
  const topology::AsGraph& graph() const { return graph_; }
  const topology::Registry& registry() const { return registry_; }
  const topology::CustomerCones& cones() const { return *cones_; }
  const dictionary::Corpus& corpus() const { return corpus_; }
  const dictionary::BlackholeDictionary& dictionary() const { return dictionary_; }
  const routing::CollectorFleet& fleet() const { return fleet_; }
  routing::PropagationEngine& propagation() { return *propagation_; }
  const workload::WorkloadGenerator& workload() const { return *workload_; }
  const StudyConfig& config() const { return config_; }

  // ---- inference output -------------------------------------------------
  const std::vector<PeerEvent>& events() const { return events_; }
  const std::vector<PrefixEvent>& prefix_events() const { return prefix_events_; }
  const std::vector<PrefixEvent>& grouped_events() const { return grouped_events_; }
  const EngineStats& engine_stats() const { return engine_stats_; }
  const std::vector<GroundTruthEpisode>& ground_truth() const { return truth_; }
  const dictionary::CommunityUsage& usage() const { return usage_; }

  // ---- derived aggregates -------------------------------------------------
  // Fig 4: daily active providers / users / prefixes (across datasets).
  stats::DailySeries daily_providers() const;
  stats::DailySeries daily_users() const;
  stats::DailySeries daily_prefixes() const;

  // Table 3 row (per platform + combined), over [t0, t1).
  struct VisibilityRow {
    std::size_t providers = 0;
    std::size_t unique_providers = 0;
    std::size_t users = 0;
    std::size_t unique_users = 0;
    std::size_t prefixes = 0;
    std::size_t unique_prefixes = 0;
    double direct_feed_fraction = 0.0;
  };
  std::map<routing::Platform, VisibilityRow> table3(util::SimTime t0,
                                                    util::SimTime t1) const;
  VisibilityRow table3_all(util::SimTime t0, util::SimTime t1) const;

  // Table 4: per provider network type.
  struct TypeRow {
    std::size_t providers = 0;
    std::size_t users = 0;
    std::size_t prefixes = 0;
    double direct_feed_fraction = 0.0;
  };
  std::map<topology::NetworkType, TypeRow> table4(util::SimTime t0,
                                                  util::SimTime t1) const;

  // Provider/user country counts (Fig 6).
  std::map<std::string, std::size_t> providers_per_country(util::SimTime t0,
                                                           util::SimTime t1) const;
  std::map<std::string, std::size_t> users_per_country(util::SimTime t0,
                                                       util::SimTime t1) const;

  // Whether a blackholing provider (ISP ASN or IXP) has a direct
  // collector session on any platform.
  bool has_direct_feed(const ProviderRef& provider) const;
  bool has_direct_feed(const ProviderRef& provider, routing::Platform p) const;

  // ---- streaming-pipeline interop ---------------------------------------
  // Re-generates the exact update stream run() feeds into the engine
  // (excluding table-dump initialization) from fresh, identically
  // seeded workload/propagation substrates.  Usable before or after
  // run(); this is the replay workload for src/stream/ equivalence
  // tests and benches.
  std::vector<routing::FeedUpdate> replay_updates() const;

  // The §4.2 initial RIB dump run() seeds the engine with (after the
  // MRT codec round-trip); nullopt when table_dump_episodes == 0 or no
  // episode materialized.
  std::optional<bgp::mrt::TableDump> initial_table_dump() const;

 private:
  using UpdateSink = std::function<void(const routing::FeedUpdate&)>;

  // Walks the full day loop (episodes + background traffic) against the
  // given substrates, emitting every collector update into `sink`;
  // optionally records ground truth.  run() and replay_updates() share
  // this walker so their streams are update-for-update identical.
  void walk_updates(workload::WorkloadGenerator& workload,
                    routing::PropagationEngine& propagation,
                    const UpdateSink& sink,
                    std::vector<GroundTruthEpisode>* truth_out) const;
  void run_background_day(std::int64_t day,
                          workload::WorkloadGenerator& workload,
                          routing::PropagationEngine& propagation,
                          const UpdateSink& sink) const;
  bgp::mrt::TableDump build_table_dump() const;

  StudyConfig config_;
  topology::AsGraph graph_;
  topology::Registry registry_;
  std::unique_ptr<topology::CustomerCones> cones_;
  dictionary::Corpus corpus_;
  dictionary::BlackholeDictionary dictionary_;
  routing::CollectorFleet fleet_;
  std::unique_ptr<routing::PropagationEngine> propagation_;
  std::unique_ptr<workload::WorkloadGenerator> workload_;
  dictionary::CommunityUsage usage_;

  std::vector<PeerEvent> events_;
  std::vector<PrefixEvent> prefix_events_;
  std::vector<PrefixEvent> grouped_events_;
  std::vector<GroundTruthEpisode> truth_;
  EngineStats engine_stats_;
  bool ran_ = false;
};

}  // namespace bgpbh::core
