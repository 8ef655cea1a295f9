#include "core/study.h"

#include <algorithm>
#include <unordered_set>

namespace bgpbh::core {

using routing::Platform;

Study::Study(StudyConfig config)
    : config_(std::move(config)),
      graph_(topology::generate(config_.topology)),
      registry_(topology::Registry::build(graph_,
                                          config_.topology.peeringdb_coverage,
                                          config_.topology.caida_coverage,
                                          config_.seed)),
      cones_(std::make_unique<topology::CustomerCones>(graph_)),
      corpus_(dictionary::generate_corpus(graph_, config_.seed)),
      dictionary_(dictionary::build_documented_dictionary(corpus_, registry_)),
      fleet_(routing::CollectorFleet::build(graph_, config_.fleet)),
      propagation_(std::make_unique<routing::PropagationEngine>(
          graph_, *cones_, config_.seed ^ 0xABCDULL)),
      workload_(std::make_unique<workload::WorkloadGenerator>(graph_, *cones_,
                                                              config_.workload)) {}

bgp::mrt::TableDump Study::build_table_dump() const {
  // Episodes already active when monitoring starts are only visible in
  // the first RIB dump; the engine must record start time 0 for them.
  util::Rng rng(config_.seed ^ 0xD00DULL);
  bgp::mrt::TableDump dump;
  dump.time = config_.window_start;
  dump.collector_name = "bgpbh-initial-rib";

  const auto& users = workload_->eligible_users();
  if (users.empty()) return dump;
  for (std::size_t k = 0; k < config_.table_dump_episodes; ++k) {
    const auto& user = users[rng.uniform(users.size())];
    const topology::AsNode* node = graph_.find(user.asn);
    if (!node || node->originated_v4.empty()) continue;
    if (user.available_providers.empty()) continue;

    // Build a /32 blackhole route as one of the user's providers' peers
    // would have seen it before the window.
    const net::Prefix& block = node->originated_v4.front();
    std::uint32_t host = block.addr().v4().value() +
                         static_cast<std::uint32_t>(rng.uniform(1u << (32 - block.len())));
    net::Prefix prefix(net::Ipv4Addr(host), 32);
    bgp::Asn provider = user.available_providers.front();
    const topology::AsNode* pnode = graph_.find(provider);
    if (!pnode || pnode->blackhole.communities.empty()) continue;

    // Find a collector session of the provider to attribute the entry to.
    auto sessions = fleet_.sessions_of(provider);
    if (sessions.empty()) continue;
    const auto& session = fleet_.sessions()[sessions[0]];

    bgp::mrt::TableDump::Entry entry;
    entry.peer.peer_ip = session.peer_ip;
    entry.peer.peer_asn = session.peer_asn;
    entry.prefix = prefix;
    entry.as_path = bgp::AsPath({provider, user.asn});
    entry.communities.add(pnode->blackhole.communities.front());
    entry.originated = config_.window_start - util::kDay;
    dump.entries.push_back(std::move(entry));
  }
  return dump;
}

std::optional<bgp::mrt::TableDump> Study::initial_table_dump() const {
  if (config_.table_dump_episodes == 0) return std::nullopt;
  bgp::mrt::TableDump dump = build_table_dump();
  if (dump.entries.empty()) return std::nullopt;
  // Round-trip through the MRT codec: the study consumes its own
  // interchange format, not in-memory shortcuts.
  net::BufWriter w;
  bgp::mrt::encode_table_dump(dump, w);
  return bgp::mrt::decode_table_dump(w.data());
}

void Study::run_background_day(std::int64_t day,
                               workload::WorkloadGenerator& workload,
                               routing::PropagationEngine& propagation,
                               const UpdateSink& sink) const {
  auto announcements = workload.background_for_day(day);
  util::Rng rng(config_.seed ^ (0xBA5EULL + static_cast<std::uint64_t>(day)));
  const auto& sessions = fleet_.sessions();
  if (sessions.empty()) return;

  // Rotating coverage slice: every AS re-announces its routes with its
  // usual service communities every ~5 days, so the Fig 2 usage
  // statistics see each community's regular (<= /24) footprint — the
  // signal that keeps the extended-dictionary inference precise.
  const auto& nodes = graph_.nodes();
  std::size_t stride = 3;
  for (std::size_t i = static_cast<std::size_t>(day) % stride; i < nodes.size();
       i += stride) {
    const auto& node = nodes[i];
    if (node.service_communities.empty() || node.originated_v4.empty()) continue;
    routing::BlackholeAnnouncement ann;
    ann.user = node.asn;
    ann.prefix = node.originated_v4[rng.uniform(node.originated_v4.size())];
    ann.time = day * util::kDay + static_cast<util::SimTime>(rng.uniform(util::kDay));
    for (auto c : node.service_communities) ann.extra_communities.push_back(c);
    announcements.push_back(std::move(ann));
  }

  for (const auto& ann : announcements) {
    // A regular announcement is visible at many collector peers; sample
    // a few sessions and synthesize their view via baseline paths.
    std::size_t copies = 2 + rng.uniform(3);
    for (std::size_t c = 0; c < copies; ++c) {
      const auto& session = sessions[rng.uniform(sessions.size())];
      auto path = propagation.baseline_path(session.peer_asn, ann.user);
      if (!path) continue;
      routing::FeedUpdate fu;
      fu.platform = session.platform;
      fu.update.time = ann.time;
      fu.update.peer_ip = session.peer_ip;
      fu.update.peer_asn = session.peer_asn;
      fu.update.collector_id = session.collector_id;
      fu.update.body.announced.push_back(ann.prefix);
      fu.update.body.as_path = *path;
      for (auto community : ann.extra_communities) {
        fu.update.body.communities.add(community);
      }
      sink(fu);
    }
  }
}

void Study::walk_updates(workload::WorkloadGenerator& workload,
                         routing::PropagationEngine& propagation,
                         const UpdateSink& sink,
                         std::vector<GroundTruthEpisode>* truth_out) const {
  std::int64_t first_day = util::day_index(config_.window_start);
  std::int64_t last_day = util::day_index(config_.window_end);

  for (std::int64_t day = first_day; day < last_day; ++day) {
    auto episodes = workload.episodes_for_day(day);
    for (auto& episode : episodes) {
      // Propagate the initial announcement once; toggles re-use the
      // same propagation footprint (same communities and targets).
      routing::BlackholeAnnouncement ann = episode.announcement(episode.start);
      auto prop = propagation.propagate_blackhole(ann);

      GroundTruthEpisode truth;
      truth.activated_providers = prop.activated_providers;
      truth.activated_ixps = prop.activated_ixps;
      truth.control_plane_only = prop.control_plane_only;

      for (const auto& period : episode.on_periods) {
        // Episodes may outlive the observation window; clamp so no
        // update is stamped past window_end (engine.finish closes the
        // remainder, as with real archive cut-offs).
        if (period.start >= config_.window_end - 30) break;
        util::SimTime period_end =
            std::min(period.end, config_.window_end - 20);
        if (period_end <= period.start) continue;
        ann.time = period.start;
        auto announce_updates = fleet_.observe_announcement(prop, ann, propagation);
        for (const auto& u : announce_updates) sink(u);
        truth.observed_updates += announce_updates.size();
        auto withdraw_updates = fleet_.observe_withdrawal(
            prop, ann, propagation, period_end, period.explicit_withdrawal);
        for (const auto& u : withdraw_updates) sink(u);
      }
      if (truth_out) {
        truth.episode = std::move(episode);
        truth_out->push_back(std::move(truth));
      }
    }
    run_background_day(day, workload, propagation, sink);
  }
}

std::vector<routing::FeedUpdate> Study::replay_updates() const {
  // Fresh substrates with the same seeds reproduce run()'s stream
  // update-for-update: workload and propagation draw only from their
  // own RNGs, and the walker makes the identical call sequence.
  workload::WorkloadGenerator workload(graph_, *cones_, config_.workload);
  routing::PropagationEngine propagation(graph_, *cones_,
                                         config_.seed ^ 0xABCDULL);
  std::vector<routing::FeedUpdate> out;
  walk_updates(workload, propagation,
               [&out](const routing::FeedUpdate& u) { out.push_back(u); },
               nullptr);
  return out;
}

void Study::run() {
  if (ran_) return;
  ran_ = true;

  // The engine lives only for the replay: the sequential reference
  // every sharded / live equivalence test compares against.
  InferenceEngine engine(dictionary_, registry_, config_.engine);
  if (auto dump = initial_table_dump()) {
    engine.init_from_table_dump(Platform::kRis, *dump);
  }
  walk_updates(*workload_, *propagation_,
               [this, &engine](const routing::FeedUpdate& u) {
                 engine.process(u.platform, u.update);
                 if (config_.collect_usage) usage_.observe(u.update, dictionary_);
               },
               &truth_);

  engine.finish(config_.window_end);
  events_ = engine.events();
  engine_stats_ = engine.stats();
  // Same incremental core the live session's api::LiveGrouper runs —
  // the batch aggregates are the incremental ones fed in close order.
  IncrementalGrouper grouper;
  for (const auto& e : events_) grouper.add(e);
  prefix_events_ = grouper.correlated();
  grouped_events_ = grouper.grouped();
}

stats::DailySeries Study::daily_providers() const {
  stats::DailySeries out;
  std::map<std::int64_t, std::set<ProviderRef>> per_day;
  for (const auto& e : prefix_events_) {
    std::int64_t d0 = util::day_index(e.start), d1 = util::day_index(e.end);
    for (std::int64_t d = d0; d <= d1; ++d) {
      per_day[d].insert(e.providers.begin(), e.providers.end());
    }
  }
  for (auto& [day, providers] : per_day) {
    out.set(day, static_cast<double>(providers.size()));
  }
  return out;
}

stats::DailySeries Study::daily_users() const {
  stats::DailySeries out;
  std::map<std::int64_t, std::set<bgp::Asn>> per_day;
  for (const auto& e : prefix_events_) {
    std::int64_t d0 = util::day_index(e.start), d1 = util::day_index(e.end);
    for (std::int64_t d = d0; d <= d1; ++d) {
      per_day[d].insert(e.users.begin(), e.users.end());
    }
  }
  for (auto& [day, users] : per_day) {
    out.set(day, static_cast<double>(users.size()));
  }
  return out;
}

stats::DailySeries Study::daily_prefixes() const {
  stats::DailySeries out;
  std::map<std::int64_t, std::set<net::Prefix>> per_day;
  for (const auto& e : prefix_events_) {
    std::int64_t d0 = util::day_index(e.start), d1 = util::day_index(e.end);
    for (std::int64_t d = d0; d <= d1; ++d) {
      per_day[d].insert(e.prefix);
    }
  }
  for (auto& [day, prefixes] : per_day) {
    out.set(day, static_cast<double>(prefixes.size()));
  }
  return out;
}

bool Study::has_direct_feed(const ProviderRef& provider) const {
  for (auto p : routing::kAllPlatforms) {
    if (has_direct_feed(provider, p)) return true;
  }
  return false;
}

bool Study::has_direct_feed(const ProviderRef& provider,
                            routing::Platform platform) const {
  auto sessions = fleet_.sessions_of(provider.asn);
  for (std::size_t si : sessions) {
    if (fleet_.sessions()[si].platform == platform) return true;
  }
  return false;
}

std::map<Platform, Study::VisibilityRow> Study::table3(util::SimTime t0,
                                                       util::SimTime t1) const {
  struct Sets {
    std::set<ProviderRef> providers;
    std::set<bgp::Asn> users;
    std::set<net::Prefix> prefixes;
  };
  std::map<Platform, Sets> per;
  for (const auto& e : events_) {
    if (!overlaps_window(e.start, e.end, t0, t1)) continue;
    auto& s = per[e.platform];
    s.providers.insert(e.provider);
    if (e.user != 0) s.users.insert(e.user);
    s.prefixes.insert(e.prefix);
  }

  // Uniqueness across platforms.
  std::map<ProviderRef, int> provider_count;
  std::map<bgp::Asn, int> user_count;
  std::map<net::Prefix, int> prefix_count;
  for (auto& [platform, s] : per) {
    for (auto& p : s.providers) provider_count[p] += 1;
    for (auto& u : s.users) user_count[u] += 1;
    for (auto& pf : s.prefixes) prefix_count[pf] += 1;
  }

  std::map<Platform, VisibilityRow> out;
  for (auto& [platform, s] : per) {
    VisibilityRow row;
    row.providers = s.providers.size();
    row.users = s.users.size();
    row.prefixes = s.prefixes.size();
    std::size_t direct = 0;
    for (auto& p : s.providers) {
      if (provider_count[p] == 1) row.unique_providers += 1;
      if (has_direct_feed(p, platform)) direct += 1;
    }
    for (auto& u : s.users) {
      if (user_count[u] == 1) row.unique_users += 1;
    }
    for (auto& pf : s.prefixes) {
      if (prefix_count[pf] == 1) row.unique_prefixes += 1;
    }
    row.direct_feed_fraction =
        s.providers.empty() ? 0.0
                            : static_cast<double>(direct) /
                                  static_cast<double>(s.providers.size());
    out[platform] = row;
  }
  return out;
}

Study::VisibilityRow Study::table3_all(util::SimTime t0, util::SimTime t1) const {
  VisibilityRow row;
  std::set<ProviderRef> providers;
  std::set<bgp::Asn> users;
  std::set<net::Prefix> prefixes;
  for (const auto& e : events_) {
    if (!overlaps_window(e.start, e.end, t0, t1)) continue;
    providers.insert(e.provider);
    if (e.user != 0) users.insert(e.user);
    prefixes.insert(e.prefix);
  }
  row.providers = providers.size();
  row.users = users.size();
  row.prefixes = prefixes.size();
  std::size_t direct = 0;
  for (auto& p : providers) {
    if (has_direct_feed(p)) direct += 1;
  }
  row.direct_feed_fraction =
      providers.empty()
          ? 0.0
          : static_cast<double>(direct) / static_cast<double>(providers.size());
  // "Unique" columns for the ALL row: platform-exclusive entities.
  auto per = table3(t0, t1);
  for (auto& [platform, r] : per) {
    row.unique_providers += r.unique_providers;
    row.unique_users += r.unique_users;
    row.unique_prefixes += r.unique_prefixes;
  }
  return row;
}

std::map<topology::NetworkType, Study::TypeRow> Study::table4(
    util::SimTime t0, util::SimTime t1) const {
  struct Sets {
    std::set<ProviderRef> providers;
    std::set<bgp::Asn> users;
    std::set<net::Prefix> prefixes;
    std::size_t direct = 0;
  };
  std::map<topology::NetworkType, Sets> per;
  // Provider -> type resolution via the registry pipeline (§4.1).
  std::map<ProviderRef, topology::NetworkType> types;
  for (const auto& e : events_) {
    if (!overlaps_window(e.start, e.end, t0, t1)) continue;
    topology::NetworkType type;
    if (e.provider.is_ixp) {
      type = topology::NetworkType::kIxp;
    } else {
      type = registry_.classify(e.provider.asn);
    }
    auto& s = per[type];
    bool fresh = s.providers.insert(e.provider).second;
    if (fresh && has_direct_feed(e.provider)) s.direct += 1;
    if (e.user != 0) s.users.insert(e.user);
    s.prefixes.insert(e.prefix);
  }
  std::map<topology::NetworkType, TypeRow> out;
  for (auto& [type, s] : per) {
    TypeRow row;
    row.providers = s.providers.size();
    row.users = s.users.size();
    row.prefixes = s.prefixes.size();
    row.direct_feed_fraction =
        s.providers.empty() ? 0.0
                            : static_cast<double>(s.direct) /
                                  static_cast<double>(s.providers.size());
    out[type] = row;
  }
  return out;
}

std::map<std::string, std::size_t> Study::providers_per_country(
    util::SimTime t0, util::SimTime t1) const {
  std::set<ProviderRef> providers;
  for (const auto& e : events_) {
    if (!overlaps_window(e.start, e.end, t0, t1)) continue;
    providers.insert(e.provider);
  }
  std::map<std::string, std::size_t> out;
  for (const auto& p : providers) {
    std::string country = "??";
    if (p.is_ixp) {
      const topology::Ixp* ixp = graph_.find_ixp(p.ixp_id);
      if (ixp) country = ixp->country;
    } else if (auto c = registry_.rir_country(p.asn)) {
      country = *c;
    }
    out[country] += 1;
  }
  return out;
}

std::map<std::string, std::size_t> Study::users_per_country(
    util::SimTime t0, util::SimTime t1) const {
  std::set<bgp::Asn> users;
  for (const auto& e : events_) {
    if (!overlaps_window(e.start, e.end, t0, t1)) continue;
    if (e.user != 0) users.insert(e.user);
  }
  std::map<std::string, std::size_t> out;
  for (bgp::Asn u : users) {
    std::string country = "??";
    if (auto c = registry_.rir_country(u)) country = *c;
    out[country] += 1;
  }
  return out;
}

}  // namespace bgpbh::core
