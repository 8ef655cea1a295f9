// IXP route-server blackholing end to end: a member announces a victim
// /32 with the RFC 7999 BLACKHOLE community to the route server, the RS
// redistributes it with the next hop rewritten to the blackholing IP,
// members that honour it drop the traffic — and we account the week of
// fabric traffic the mitigation removed (Fig 9c style).  Topology and
// propagation substrates come from an AnalysisSession.
#include <cstdio>

#include "api/session.h"
#include "flows/ixp_traffic.h"

using namespace bgpbh;

int main() {
  api::SessionConfig config;
  api::AnalysisSession session(config);
  const topology::AsGraph& graph = session.graph();
  routing::PropagationEngine& propagation = session.propagation();

  // The largest blackholing IXP (DE-CIX scale in our model).
  const topology::Ixp* ixp = nullptr;
  for (const auto& candidate : graph.ixps()) {
    if (!candidate.offers_blackholing) continue;
    if (!ixp || candidate.members.size() > ixp->members.size()) ixp = &candidate;
  }
  std::printf("IXP: %s in %s — %zu members\n", ixp->name.c_str(),
              ixp->country.c_str(), ixp->members.size());
  std::printf("  route server:      AS%u (%s)\n", ixp->route_server_asn,
              ixp->transparent_route_server ? "transparent" : "in AS path");
  std::printf("  peering LAN:       %s\n", ixp->peering_lan.to_string().c_str());
  std::printf("  blackhole next-hop: %s / %s\n",
              ixp->blackhole_ip_v4.to_string().c_str(),
              ixp->blackhole_ip_v6.to_string().c_str());
  std::printf("  blackhole community: %s (RFC 7999)\n\n",
              ixp->blackhole_community.to_string().c_str());

  // A member under attack blackholes the victim at the route server.
  bgp::Asn member = ixp->members[ixp->members.size() / 3];
  const topology::AsNode* mnode = graph.find(member);
  workload::Episode episode;
  episode.user = member;
  episode.prefix = net::Prefix(
      net::Ipv4Addr(mnode->v4_block.addr().v4().value() + 0x0616), 32);
  episode.ixps = {ixp->id};
  episode.start = util::from_date(2017, 3, 20);
  episode.end = episode.start + util::kWeek;
  episode.on_periods.push_back(
      workload::OnPeriod{episode.start, episode.end, true});

  auto prop = propagation.propagate_blackhole(episode.announcement(episode.start));
  std::size_t honouring = 0;
  for (const auto& [ixp_id, m] : prop.rs_receivers) {
    if (propagation.honours_rs_blackhole(ixp_id, m)) ++honouring;
  }
  std::printf("member AS%u blackholes %s at the route server\n", member,
              episode.prefix.to_string().c_str());
  std::printf("  RS redistributed to %zu member sessions; %zu honour the "
              "null route\n\n",
              prop.rs_receivers.size(), honouring);

  // One week of fabric traffic toward the victim.
  flows::IxpTrafficSim sim(graph, propagation, flows::IxpTrafficConfig{});
  auto report = sim.simulate(ixp->id, {episode}, episode.start, 7);
  const auto& split = report.per_prefix.at(episode.prefix);
  std::printf("%s", split.forwarded.ascii_plot("traffic still forwarded "
                                               "(bytes/day)", {}, 60, 6).c_str());
  std::printf("%s\n", split.blackholed.ascii_plot("traffic dropped at the IXP "
                                                  "(bytes/day)", {}, 60, 6).c_str());
  std::printf("drop share: %.0f%% — residual traffic comes from %zu members "
              "(top-10 cause %.0f%% of it)\n",
              report.drop_fraction() * 100, report.residual_member_count(),
              report.residual_share_of_top(10) * 100);

  // Export the sampled flows as IPFIX, as the IXP's fabric would.
  flows::IpfixExporter exporter(ixp->id);
  auto messages = exporter.export_batches(sim.sampled_flows(), episode.start);
  std::size_t bytes = 0;
  for (const auto& m : messages) bytes += m.size();
  std::printf("\nIPFIX export: %zu sampled flow records (1:%llu sampling) in "
              "%zu messages, %zu bytes\n",
              sim.sampled_flows().size(),
              static_cast<unsigned long long>(
                  flows::IxpTrafficConfig{}.sampling_rate),
              messages.size(), bytes);
  return 0;
}
