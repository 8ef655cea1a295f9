// The BGP blackholing inference engine (§4.2) — the paper's primary
// contribution.
//
// Pipeline per observed update:
//   1. Data cleaning: drop bogon prefixes and prefixes less specific
//      than /8 (§3).
//   2. Scan the communities attribute against the documented blackhole
//      dictionary.
//   3. Resolve the blackholing provider:
//        * unambiguous ISP community -> provider even if absent from
//          the AS path (community bundling, Fig 3);
//        * ambiguous community (multiple candidate ASNs) -> require a
//          candidate on the AS path;
//        * IXP community -> require the route-server ASN on the path
//          OR peer-ip within the IXP's peering LAN (PeeringDB).
//   4. Infer the blackholing user: the AS hop before the provider on
//      the prepending-free path; peer-as for the IXP peer-ip case.
//   5. Track state per (BGP peer, prefix): a tagged announcement opens
//      an event; a tag-less re-announcement closes it (implicit
//      withdrawal); an explicit WITHDRAW closes it.
//
// The engine is initialized from a RIB table dump, where event start
// times are unknown and recorded as zero (§4.2).
#pragma once

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/mrt.h"
#include "core/events.h"
#include "dictionary/compiled.h"
#include "dictionary/dictionary.h"
#include "net/patricia.h"
#include "topology/registry.h"

namespace bgpbh::core {

// Team-Cymru-style bogon filter plus the /8 minimum-length rule.
class BgpCleaner {
 public:
  BgpCleaner();
  // True if the prefix should be dropped from the analysis.
  bool is_bogus(const net::Prefix& prefix) const;
  std::size_t bogon_count() const { return bogons_.size(); }

 private:
  net::PrefixTable<bool> bogons_;
};

struct EngineConfig {
  bool clean_input = true;
  // Ablation knob: disable bundling detection (provider communities
  // whose ASN is not on the path are then ignored).
  bool detect_bundled = true;
  // Ablation knob: accept ambiguous communities without path evidence.
  bool require_path_evidence_for_ambiguous = true;
};

// Borrowed single-prefix view of one observed update — the zero-copy
// engine entry point used by the streaming data plane (the shard
// workers read route attributes straight out of a shared UpdateBlock,
// src/stream/update_block.h).  All referenced data is owned by the
// caller and only needs to stay alive for the duration of the
// process() call.  Withdrawals never read as_path/communities.
struct UpdateView {
  Platform platform = Platform::kRis;
  util::SimTime time = 0;
  bgp::PeerKey peer;
  const net::Prefix* prefix = nullptr;
  bool is_withdrawal = false;
  const bgp::AsPath* as_path = nullptr;
  const bgp::CommunitySet* communities = nullptr;
  // Wall-clock ingest stamp of the originating FeedUpdate (0 =
  // unstamped); events closed by this update inherit it so the
  // e2e.detect_latency_ns histogram can be recorded at drain time.
  std::uint64_t ingest_ns = 0;
};

// One detected provider of an open (not yet closed) blackhole event —
// the serializable mirror of the engine's internal Detection record,
// exported by checkpointing (src/recovery/) and re-imported on crash
// recovery.
struct OpenDetection {
  ProviderRef provider;
  Asn user = 0;
  DetectionKind kind = DetectionKind::kProviderOnPath;
  int as_distance = kNoPathDistance;
  friend bool operator==(const OpenDetection&, const OpenDetection&) = default;
};

// Full open state of one (peer, prefix) key: everything close_event()
// and finish() read, so an engine restored from this state closes the
// event byte-identically to the engine that exported it.
struct OpenEventState {
  bgp::PeerKey peer;
  net::Prefix prefix;
  util::SimTime start = 0;
  Platform platform = Platform::kRis;
  bool from_table_dump = false;
  std::vector<OpenDetection> detections;
  bgp::CommunitySet communities;
  friend bool operator==(const OpenEventState&, const OpenEventState&) = default;
};

struct EngineStats {
  std::uint64_t updates_processed = 0;
  std::uint64_t announcements_seen = 0;
  std::uint64_t withdrawals_seen = 0;
  std::uint64_t bogons_filtered = 0;
  std::uint64_t events_opened = 0;
  std::uint64_t events_closed_explicit = 0;
  std::uint64_t events_closed_implicit = 0;
  std::uint64_t ambiguous_rejected = 0;   // ambiguous comm, no path evidence
  std::uint64_t ixp_rejected = 0;         // IXP comm, no RS/LAN evidence

  // Counter-wise sum; lets per-shard stats fold into a fleet total.
  EngineStats& operator+=(const EngineStats& other);
  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

class InferenceEngine {
 public:
  // Compiles a private CompiledDictionary (bitset prefilter + flat
  // arrays) from `dictionary`; detection only ever reads that compiled
  // form, never the std::map source.
  InferenceEngine(const dictionary::BlackholeDictionary& dictionary,
                  const topology::Registry& registry,
                  EngineConfig config = {});

  // Shares a prebuilt compiled dictionary instead of compiling a
  // private copy — the compiled form is immutable, so N engine shards
  // over the same dictionary need only one.  `compiled` must outlive
  // the engine.
  InferenceEngine(const dictionary::CompiledDictionary& compiled,
                  const topology::Registry& registry,
                  EngineConfig config = {});

  // §4.2 initialization: detect already-blackholed prefixes in a table
  // dump; their start time is recorded as 0 (unknown).
  void init_from_table_dump(Platform platform, const bgp::mrt::TableDump& dump);

  // Continuous monitoring mode.
  void process(Platform platform, const bgp::ObservedUpdate& update);

  // Zero-copy single-prefix entry point: identical inference and stats
  // to feeding the same sub-update through the owning overload above,
  // without materializing an ObservedUpdate.  One call counts as one
  // processed update (the streaming pipeline folds sub-update counts
  // back into original-update counts itself).
  void process(const UpdateView& view);

  // Close all still-open events at `end_time` (end of study window).
  void finish(util::SimTime end_time);

  // Closed events (open events are returned by finish()).
  const std::vector<PeerEvent>& events() const { return closed_; }
  // Incremental alternative to events(): moves out the events closed
  // since the last drain, leaving the internal buffer empty.  Streaming
  // consumers (src/stream/ shard workers) use this so the per-shard
  // buffer never grows with the lifetime of the pipeline; events() and
  // drain_closed() must not be mixed on the same engine.
  std::vector<PeerEvent> drain_closed();
  std::size_t open_event_count() const;
  const EngineStats& stats() const { return stats_; }

  // Checkpoint hooks (src/recovery/): export the ActiveState table as
  // serializable records, sorted by (peer, prefix) key so the listing
  // is deterministic across hash-map layouts.  Counterpart import
  // re-creates the table exactly; it is only valid on an engine that
  // has processed nothing yet, and deliberately does NOT touch stats_
  // (stats are per-process observations, not recovered state).
  std::vector<OpenEventState> export_open_state() const;
  void import_open_state(std::vector<OpenEventState> states);

 private:
  struct Detection {
    ProviderRef provider;
    Asn user = 0;
    DetectionKind kind = DetectionKind::kProviderOnPath;
    int as_distance = kNoPathDistance;
  };

  struct ActiveState {
    util::SimTime start = 0;
    Platform platform = Platform::kRis;  // platform that opened the event
    bool from_table_dump = false;
    std::vector<Detection> detections;
    bgp::CommunitySet communities;
  };

  // Runs steps 2-4 on one route, filling detect_scratch_; false = not a
  // blackhole route.  The negative path — the overwhelming majority of
  // updates in a real feed — performs zero heap allocations: the
  // compiled dictionary's bitset prefilter runs before any path work,
  // path scans never materialize the prepending-free copy, and the
  // scratch vector is engine-owned and reused across updates.
  bool detect(const bgp::PeerKey& peer, const bgp::AsPath& path,
              const bgp::CommunitySet& communities);

  // Shared per-prefix transitions; both process() overloads funnel
  // here, which is what keeps the owning and view paths byte-equal.
  void process_withdrawal(Platform platform, const bgp::PeerKey& peer,
                          const net::Prefix& prefix, util::SimTime time);
  void process_announcement(Platform platform, const bgp::PeerKey& peer,
                            const net::Prefix& prefix, util::SimTime time,
                            const bgp::AsPath& path,
                            const bgp::CommunitySet& communities);

  void open_event(Platform platform, const bgp::PeerKey& peer,
                  const net::Prefix& prefix, util::SimTime time,
                  bool from_dump, const std::vector<Detection>& detections,
                  const bgp::CommunitySet& communities);
  void close_event(Platform platform, const bgp::PeerKey& peer,
                   const net::Prefix& prefix, util::SimTime time,
                   bool explicit_withdrawal);

  // Compiled dictionary: either owned (built by the ctor, left empty
  // when shared) or shared across shards.  compiled_ points at
  // whichever is in use.
  dictionary::CompiledDictionary owned_compiled_;
  const dictionary::CompiledDictionary* compiled_;
  const topology::Registry& registry_;
  EngineConfig config_;
  BgpCleaner cleaner_;
  // Reused by detect(); valid until the next detect() call.
  std::vector<Detection> detect_scratch_;

  using StateKey = std::pair<bgp::PeerKey, net::Prefix>;
  struct StateKeyHash {
    std::size_t operator()(const StateKey& key) const noexcept;
  };
  std::unordered_map<StateKey, ActiveState, StateKeyHash> active_;
  std::vector<PeerEvent> closed_;
  EngineStats stats_;
  // Ingest stamp of the update currently being processed (0 outside a
  // stamped process(view) call); close_event copies it onto every
  // event the update closes.  Not part of engine state proper — pure
  // observability plumbing, never checkpointed.
  std::uint64_t ingest_ns_ = 0;
};

}  // namespace bgpbh::core
