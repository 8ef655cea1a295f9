// Quickstart: run the full blackholing-inference pipeline over one
// simulated week through the public AnalysisSession API and print what
// it finds.
//
//   $ ./example_quickstart
//
// Pipeline: synthetic Internet topology -> blackhole-community
// dictionary (scraped from the synthetic IRR/web corpus) -> DDoS-driven
// blackholing workload -> collector feeds -> inference engine -> §9
// groups, all behind one bgpbh::api::AnalysisSession.
#include <cstdio>

#include "api/session.h"

using namespace bgpbh;

int main() {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveReplay;
  config.study.window_start = util::from_date(2017, 3, 1);
  config.study.window_end = util::from_date(2017, 3, 8);
  config.study.workload.intensity_scale = 0.05;

  std::printf("building substrates...\n");
  api::AnalysisSession session(config);
  std::printf("  topology:   %zu ASes, %zu IXPs\n", session.graph().num_ases(),
              session.graph().num_ixps());
  std::printf("  dictionary: %zu communities for %zu ISPs + %zu IXPs\n",
              session.dictionary().num_communities(),
              session.dictionary().num_providers(),
              session.dictionary().num_ixps());
  std::printf("  collectors: %zu BGP sessions across RIS/RV/PCH/CDN\n\n",
              session.fleet().sessions().size());

  std::printf("replaying one week of BGP updates through the engine...\n");
  session.run();

  const auto stats = session.stats();
  std::printf("  %llu updates processed, %llu blackholing events opened\n\n",
              static_cast<unsigned long long>(stats.updates_processed),
              static_cast<unsigned long long>(stats.events_opened));

  std::printf("first ten inferred blackholing events:\n");
  std::size_t shown = 0;
  for (const auto& event : session.prefix_events()) {
    if (event.includes_table_dump_start) continue;
    if (shown++ >= 10) break;
    std::string providers;
    for (const auto& p : event.providers) {
      if (!providers.empty()) providers += ", ";
      providers += p.to_string();
    }
    std::string users;
    for (auto u : event.users) {
      if (!users.empty()) users += ", ";
      users += "AS" + std::to_string(u);
    }
    std::printf("  %s  %-20s blackholed at %-18s by %-10s for %s\n",
                util::format_datetime(event.start).c_str(),
                event.prefix.to_string().c_str(), providers.c_str(),
                users.c_str(), util::format_duration(event.duration()).c_str());
  }

  // Composable queries: the same builder serves replayed, live-fed and
  // reopened sessions.
  util::SimTime day1_end = config.study.window_start + util::kDay;
  std::printf("\nqueries:\n");
  std::printf("  events overlapping day 1:            %zu\n",
              session.count(api::EventQuery().between(config.study.window_start,
                                                      day1_end)));
  std::printf("  of them, ended by explicit withdraw: %zu\n",
              session.count(api::EventQuery()
                                .between(config.study.window_start, day1_end)
                                .where([](const core::PeerEvent& e) {
                                  return e.explicit_withdrawal;
                                })));
  auto snap = session.snapshot();
  std::printf("  busiest provider overall:            ");
  const core::ProviderRef* top = nullptr;
  std::size_t top_n = 0;
  for (const auto& [provider, n] : snap.per_provider) {
    if (n > top_n) {
      top = &provider;
      top_n = n;
    }
  }
  if (top) {
    std::printf("%s (%zu peer events)\n", top->to_string().c_str(), top_n);
  } else {
    std::printf("none\n");
  }

  std::printf("\ntotals: %zu peer events, %zu prefix events, %zu grouped periods\n",
              session.events().size(), session.prefix_events().size(),
              session.grouped_events().size());
  return 0;
}
