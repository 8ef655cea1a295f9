// EventQuery: the composable read half of the public AnalysisSession
// API.  One builder expresses every event filter the paper's analyses
// use — observation window, blackholing provider, collector platform,
// exact prefix or supernet, blackholing user, arbitrary predicate —
// and the session evaluates it with identical semantics against the
// batch event set, the live per-shard store lanes, and the finalized
// store (the lane-consistent scan in stream::EventStore::query).
//
//   auto events = session.events(api::EventQuery()
//                                    .between(t0, t1)
//                                    .platform(routing::Platform::kRis)
//                                    .within(*net::Prefix::parse("20.0.0.0/8"))
//                                    .where([](const core::PeerEvent& e) {
//                                      return e.explicit_withdrawal;
//                                    }));
//
// All filters AND together; an empty query matches everything.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/events.h"

namespace bgpbh::api {

class EventQuery {
 public:
  EventQuery() = default;

  // Events overlapping [t0, t1) — core::overlaps_window, the same rule
  // as EventStore::events_in and SegmentSet::events_in.
  EventQuery& between(util::SimTime t0, util::SimTime t1);

  // Events of one blackholing provider (ISP or IXP).
  EventQuery& provider(core::ProviderRef p);
  EventQuery& provider_asn(bgp::Asn asn);  // ISP shorthand
  EventQuery& ixp(std::uint32_t ixp_id);   // IXP shorthand

  // Events observed on one collector platform.
  EventQuery& platform(routing::Platform p);

  // Exact blackholed prefix.
  EventQuery& prefix(net::Prefix p);
  // Any blackholed prefix inside `supernet` (e.g. one customer block).
  EventQuery& within(net::Prefix supernet);

  // Events triggered by one blackholing user AS.
  EventQuery& user(bgp::Asn asn);

  // Arbitrary predicate; may be chained several times.
  EventQuery& where(std::function<bool(const core::PeerEvent&)> predicate);

  bool matches(const core::PeerEvent& event) const;

 private:
  std::optional<std::pair<util::SimTime, util::SimTime>> window_;
  std::optional<core::ProviderRef> provider_;
  std::optional<routing::Platform> platform_;
  std::optional<net::Prefix> prefix_;
  std::optional<net::Prefix> supernet_;
  std::optional<bgp::Asn> user_;
  std::vector<std::function<bool(const core::PeerEvent&)>> predicates_;
};

}  // namespace bgpbh::api
