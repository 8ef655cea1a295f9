#include "core/engine.h"

#include <algorithm>

namespace bgpbh::core {

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  updates_processed += other.updates_processed;
  announcements_seen += other.announcements_seen;
  withdrawals_seen += other.withdrawals_seen;
  bogons_filtered += other.bogons_filtered;
  events_opened += other.events_opened;
  events_closed_explicit += other.events_closed_explicit;
  events_closed_implicit += other.events_closed_implicit;
  ambiguous_rejected += other.ambiguous_rejected;
  ixp_rejected += other.ixp_rejected;
  return *this;
}

std::size_t InferenceEngine::StateKeyHash::operator()(
    const StateKey& key) const noexcept {
  return net::hash_combine(bgp::PeerKeyHash{}(key.first),
                           net::PrefixHash{}(key.second));
}

std::string ProviderRef::to_string() const {
  if (is_ixp) return "IXP#" + std::to_string(ixp_id);
  return "AS" + std::to_string(asn);
}

std::string to_string(DetectionKind k) {
  switch (k) {
    case DetectionKind::kProviderOnPath: return "provider-on-path";
    case DetectionKind::kBundled: return "bundled";
    case DetectionKind::kIxpRouteServer: return "ixp-route-server";
    case DetectionKind::kIxpPeerIp: return "ixp-peer-ip";
  }
  return "?";
}

BgpCleaner::BgpCleaner() {
  // Team Cymru full-bogon style list (IPv4 highlights + IPv6 ULA/doc).
  static const char* kBogons[] = {
      "0.0.0.0/8",      "10.0.0.0/8",     "100.64.0.0/10", "127.0.0.0/8",
      "169.254.0.0/16", "172.16.0.0/12",  "192.0.0.0/24",  "192.0.2.0/24",
      "192.168.0.0/16", "198.18.0.0/15",  "198.51.100.0/24",
      "203.0.113.0/24", "224.0.0.0/4",    "240.0.0.0/4",
  };
  static const char* kBogons6[] = {
      "::/8", "fc00::/7", "fe80::/10", "2001:db8::/32", "ff00::/8",
  };
  for (const char* s : kBogons) {
    bogons_.insert(*net::Prefix::parse(s), true);
  }
  for (const char* s : kBogons6) {
    bogons_.insert(*net::Prefix::parse(s), true);
  }
}

bool BgpCleaner::is_bogus(const net::Prefix& prefix) const {
  // Less specific than /8 is an obvious misconfiguration (§3).
  if (prefix.len() < 8) return true;
  return bogons_.covered(prefix.addr());
}

InferenceEngine::InferenceEngine(const dictionary::BlackholeDictionary& dictionary,
                                 const topology::Registry& registry,
                                 EngineConfig config)
    : owned_compiled_(dictionary),
      compiled_(&owned_compiled_),
      registry_(registry),
      config_(config) {}

InferenceEngine::InferenceEngine(const dictionary::CompiledDictionary& compiled,
                                 const topology::Registry& registry,
                                 EngineConfig config)
    : compiled_(&compiled), registry_(registry), config_(config) {}

bool InferenceEngine::detect(const bgp::PeerKey& peer, const bgp::AsPath& path,
                             const bgp::CommunitySet& communities) {
  // Fast negative path: no community even *might* be a blackhole
  // community — a handful of bit-tests, no path work, no allocation,
  // and (by construction of the bitset) no stats changes the full scan
  // wouldn't also have made.
  if (!compiled_->prefilter(communities)) {
    detect_scratch_.clear();
    return false;
  }
  std::vector<Detection>& out = detect_scratch_;
  out.clear();

  auto add_provider = [&](ProviderRef provider, Asn user, DetectionKind kind,
                          int distance) {
    for (const auto& d : out) {
      if (d.provider == provider) return;  // already detected
    }
    Detection d;
    d.provider = provider;
    d.user = user;
    d.kind = kind;
    d.as_distance = distance;
    out.push_back(d);
  };

  // With exactly one classic community and no large ones, a passed
  // prefilter already pinpoints that community — the per-community
  // bitset re-probe below would be pure overhead on the hit path.
  const bool probe_each =
      communities.classic().size() != 1 || !communities.large().empty();

  for (auto community : communities.classic()) {
    if (probe_each && !compiled_->maybe_blackhole(community)) continue;
    const dictionary::EntryView* found = compiled_->lookup(community);
    if (!found) continue;
    const dictionary::EntryView& entry = *found;

    // ---- IXP communities (65535:666 et al.) --------------------------
    bool any_ixp_evidence = entry.ixp_ids.empty();
    for (std::uint32_t ixp_id : entry.ixp_ids) {
      auto rec = registry_.peeringdb_ixp(ixp_id);
      if (!rec) continue;
      ProviderRef provider{.is_ixp = true,
                           .asn = rec->route_server_asn,
                           .ixp_id = ixp_id};
      // (a) the IXP's route-server ASN appears in the AS path.  Distance
      // 0 = the collector sits at the blackholing IXP itself (Fig 7c).
      if (auto idx = path.index_of(rec->route_server_asn)) {
        Asn user = 0;
        if (auto u = path.hop_before(rec->route_server_asn)) user = *u;
        add_provider(provider, user, DetectionKind::kIxpRouteServer,
                     static_cast<int>(*idx));
        any_ixp_evidence = true;
        continue;
      }
      // (b) the peer-ip belongs to the IXP's peering LAN: the peer-as
      // is the announcing member, i.e. the blackholing user — unless
      // the session peer is the route server itself (transparent RS,
      // no ASN in path), in which case the user is the path origin.
      if (rec->peering_lan.contains(peer.peer_ip)) {
        Asn user = peer.peer_asn;
        if (user == rec->route_server_asn) {
          user = path.empty() ? 0 : path.origin();
        }
        add_provider(provider, user, DetectionKind::kIxpPeerIp, 0);
        any_ixp_evidence = true;
        continue;
      }
    }
    if (!any_ixp_evidence) ++stats_.ixp_rejected;

    // ---- ISP communities ---------------------------------------------
    if (entry.provider_asns.empty()) continue;
    if (entry.ambiguous() && config_.require_path_evidence_for_ambiguous) {
      // e.g. 0:666 shared by multiple providers: require a candidate on
      // the path; otherwise ignore the update (§4.2).
      bool found = false;
      for (Asn candidate : entry.provider_asns) {
        if (auto idx = path.index_of(candidate)) {
          Asn user = 0;
          if (auto u = path.hop_before(candidate)) user = *u;
          add_provider(ProviderRef{.is_ixp = false, .asn = candidate, .ixp_id = 0},
                       user, DetectionKind::kProviderOnPath,
                       static_cast<int>(*idx + 1));
          found = true;
        }
      }
      if (!found) ++stats_.ambiguous_rejected;
      continue;
    }
    for (Asn candidate : entry.provider_asns) {
      ProviderRef provider{.is_ixp = false, .asn = candidate, .ixp_id = 0};
      if (auto idx = path.index_of(candidate)) {
        Asn user = 0;
        if (auto u = path.hop_before(candidate)) user = *u;
        add_provider(provider, user, DetectionKind::kProviderOnPath,
                     static_cast<int>(*idx + 1));
      } else if (config_.detect_bundled) {
        // Bundled community: provider not on the path; the user is the
        // origin of the announcement (Fig 3).
        Asn user = path.empty() ? peer.peer_asn : path.origin();
        add_provider(provider, user, DetectionKind::kBundled, kNoPathDistance);
      }
    }
  }

  // ---- RFC 8092 large communities ------------------------------------
  for (auto large : communities.large()) {
    if (!compiled_->maybe_blackhole(large)) continue;
    if (auto provider_asn = compiled_->lookup_large(large)) {
      ProviderRef provider{.is_ixp = false, .asn = *provider_asn, .ixp_id = 0};
      if (auto idx = path.index_of(*provider_asn)) {
        Asn user = 0;
        if (auto u = path.hop_before(*provider_asn)) user = *u;
        add_provider(provider, user, DetectionKind::kProviderOnPath,
                     static_cast<int>(*idx + 1));
      } else if (config_.detect_bundled) {
        Asn user = path.empty() ? peer.peer_asn : path.origin();
        add_provider(provider, user, DetectionKind::kBundled, kNoPathDistance);
      }
    }
  }
  return !out.empty();
}

void InferenceEngine::open_event(Platform platform, const bgp::PeerKey& peer,
                                 const net::Prefix& prefix, util::SimTime time,
                                 bool from_dump,
                                 const std::vector<Detection>& detections,
                                 const bgp::CommunitySet& communities) {
  StateKey key{peer, prefix};
  auto it = active_.find(key);
  if (it != active_.end()) {
    // Already active: merge any newly detected providers.
    for (const auto& d : detections) {
      bool known = std::any_of(it->second.detections.begin(),
                               it->second.detections.end(),
                               [&](const Detection& e) {
                                 return e.provider == d.provider;
                               });
      if (!known) it->second.detections.push_back(d);
    }
    it->second.communities = communities;
    return;
  }
  ActiveState state;
  state.start = from_dump ? 0 : time;
  state.platform = platform;
  state.from_table_dump = from_dump;
  state.detections = detections;  // copy out of the reused scratch
  state.communities = communities;
  active_.emplace(key, std::move(state));
  ++stats_.events_opened;
}

void InferenceEngine::close_event(Platform platform, const bgp::PeerKey& peer,
                                  const net::Prefix& prefix, util::SimTime time,
                                  bool explicit_withdrawal) {
  StateKey key{peer, prefix};
  auto it = active_.find(key);
  if (it == active_.end()) return;
  const ActiveState& state = it->second;
  for (const auto& d : state.detections) {
    PeerEvent e;
    e.platform = platform;
    e.peer = peer;
    e.prefix = prefix;
    e.provider = d.provider;
    e.user = d.user;
    e.kind = d.kind;
    e.as_distance = d.as_distance;
    e.start = state.start;
    e.end = time;
    e.open = false;
    e.explicit_withdrawal = explicit_withdrawal;
    e.started_in_table_dump = state.from_table_dump;
    e.communities = state.communities;
    if (ingest_ns_ != 0) {
      e.ingest_ns = ingest_ns_;
      e.detected_ns = util::wall_clock_ns();
    }
    closed_.push_back(std::move(e));
  }
  active_.erase(it);
  if (explicit_withdrawal) {
    ++stats_.events_closed_explicit;
  } else {
    ++stats_.events_closed_implicit;
  }
}

void InferenceEngine::init_from_table_dump(Platform platform,
                                           const bgp::mrt::TableDump& dump) {
  for (const auto& entry : dump.entries) {
    if (config_.clean_input && cleaner_.is_bogus(entry.prefix)) {
      ++stats_.bogons_filtered;
      continue;
    }
    if (!detect(entry.peer, entry.as_path, entry.communities)) continue;
    open_event(platform, entry.peer, entry.prefix, dump.time,
               /*from_dump=*/true, detect_scratch_, entry.communities);
  }
}

void InferenceEngine::process_withdrawal(Platform platform,
                                         const bgp::PeerKey& peer,
                                         const net::Prefix& prefix,
                                         util::SimTime time) {
  ++stats_.withdrawals_seen;
  close_event(platform, peer, prefix, time, /*explicit_withdrawal=*/true);
}

void InferenceEngine::process_announcement(Platform platform,
                                           const bgp::PeerKey& peer,
                                           const net::Prefix& prefix,
                                           util::SimTime time,
                                           const bgp::AsPath& path,
                                           const bgp::CommunitySet& communities) {
  ++stats_.announcements_seen;
  if (config_.clean_input && cleaner_.is_bogus(prefix)) {
    ++stats_.bogons_filtered;
    return;
  }
  if (detect(peer, path, communities)) {
    open_event(platform, peer, prefix, time, /*from_dump=*/false,
               detect_scratch_, communities);
  } else {
    // Announcement without blackhole communities for a previously
    // blackholed prefix: implicit withdrawal (§4.2).
    close_event(platform, peer, prefix, time, /*explicit_withdrawal=*/false);
  }
}

void InferenceEngine::process(Platform platform,
                              const bgp::ObservedUpdate& update) {
  ++stats_.updates_processed;
  ingest_ns_ = 0;  // owning path carries no ingest stamp
  bgp::PeerKey peer{update.peer_ip, update.peer_asn};

  for (const auto& prefix : update.body.withdrawn) {
    process_withdrawal(platform, peer, prefix, update.time);
  }
  for (const auto& prefix : update.body.announced) {
    process_announcement(platform, peer, prefix, update.time,
                         update.body.as_path, update.body.communities);
  }
}

void InferenceEngine::process(const UpdateView& view) {
  ++stats_.updates_processed;
  ingest_ns_ = view.ingest_ns;
  if (view.is_withdrawal) {
    process_withdrawal(view.platform, view.peer, *view.prefix, view.time);
  } else {
    process_announcement(view.platform, view.peer, *view.prefix, view.time,
                         *view.as_path, *view.communities);
  }
}

void InferenceEngine::finish(util::SimTime end_time) {
  ingest_ns_ = 0;  // force-closed events measure nothing end-to-end
  // Close remaining events; copy keys first since close_event mutates.
  // Sorted by key so the emission order is deterministic regardless of
  // the hash-map iteration order (and identical across shard layouts).
  std::vector<std::pair<StateKey, Platform>> remaining;
  remaining.reserve(active_.size());
  for (const auto& [key, state] : active_) {
    remaining.emplace_back(key, state.platform);
  }
  std::sort(remaining.begin(), remaining.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, platform] : remaining) {
    close_event(platform, key.first, key.second, end_time,
                /*explicit_withdrawal=*/false);
  }
}

std::vector<PeerEvent> InferenceEngine::drain_closed() {
  std::vector<PeerEvent> out;
  out.swap(closed_);
  return out;
}

std::size_t InferenceEngine::open_event_count() const { return active_.size(); }

std::vector<OpenEventState> InferenceEngine::export_open_state() const {
  std::vector<OpenEventState> out;
  out.reserve(active_.size());
  for (const auto& [key, state] : active_) {
    OpenEventState open;
    open.peer = key.first;
    open.prefix = key.second;
    open.start = state.start;
    open.platform = state.platform;
    open.from_table_dump = state.from_table_dump;
    open.detections.reserve(state.detections.size());
    for (const auto& d : state.detections) {
      open.detections.push_back(OpenDetection{
          .provider = d.provider,
          .user = d.user,
          .kind = d.kind,
          .as_distance = d.as_distance,
      });
    }
    open.communities = state.communities;
    out.push_back(std::move(open));
  }
  std::sort(out.begin(), out.end(),
            [](const OpenEventState& a, const OpenEventState& b) {
              return StateKey{a.peer, a.prefix} < StateKey{b.peer, b.prefix};
            });
  return out;
}

void InferenceEngine::import_open_state(std::vector<OpenEventState> states) {
  for (auto& open : states) {
    ActiveState state;
    state.start = open.start;
    state.platform = open.platform;
    state.from_table_dump = open.from_table_dump;
    state.detections.reserve(open.detections.size());
    for (const auto& d : open.detections) {
      state.detections.push_back(Detection{
          .provider = d.provider,
          .user = d.user,
          .kind = d.kind,
          .as_distance = d.as_distance,
      });
    }
    state.communities = std::move(open.communities);
    active_.insert_or_assign(StateKey{open.peer, open.prefix},
                             std::move(state));
  }
}

}  // namespace bgpbh::core
