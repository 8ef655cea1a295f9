// Build the blackhole-communities dictionary the way §4.1 does: scrape
// IRR objects and operator web pages, extract community meanings by
// keyword lemmas, keep only validated blackhole communities — then show
// what the dictionary knows.  The corpus, registry, and dictionary all
// come from one AnalysisSession: the same substrates every other
// consumer of the library sees.
#include <cstdio>

#include "api/session.h"
#include "dictionary/extract.h"

using namespace bgpbh;

int main() {
  api::SessionConfig config;
  api::AnalysisSession session(config);
  const dictionary::Corpus& corpus = session.corpus();

  std::printf("corpus: %zu documents (%zu via private communication)\n\n",
              corpus.documents.size(), corpus.private_communications.size());

  // Show one IRR object with a blackhole community.
  for (const auto& doc : corpus.documents) {
    if (doc.kind != dictionary::Document::Kind::kIrr) continue;
    auto extracted = dictionary::extract_from_document(doc);
    bool has_blackhole = false;
    for (const auto& e : extracted) has_blackhole |= e.is_blackhole;
    if (!has_blackhole) continue;
    std::printf("--- sample IRR object (RADb style) ---------------------\n");
    std::printf("%s", doc.text.c_str());
    std::printf("--------------------------------------------------------\n\n");
    break;
  }

  const dictionary::BlackholeDictionary& dict = session.dictionary();
  std::printf("dictionary: %zu communities, %zu ISP providers, %zu IXPs\n\n",
              dict.num_communities(), dict.num_providers(), dict.num_ixps());

  // The RFC 7999 entry is shared by nearly all blackholing IXPs.
  if (const auto* rfc = dict.lookup(bgp::Community::rfc7999_blackhole())) {
    std::printf("65535:666 (RFC 7999 BLACKHOLE): used by %zu IXPs — %s\n",
                rfc->ixp_ids.size(),
                rfc->ambiguous() ? "ambiguous, needs path/peer-ip evidence"
                                 : "unambiguous");
  }
  // A shared non-ASN community.
  if (const auto* shared = dict.lookup(bgp::Community(0, 666))) {
    std::printf("0:666: shared by %zu ISPs — requires a candidate on the AS "
                "path (§4.2)\n",
                shared->provider_asns.size());
  }

  // Per-type breakdown (Table 2 shape).
  std::printf("\nproviders per network type (classified via PeeringDB/CAIDA):\n");
  for (auto& [type, row] : dict.breakdown(session.registry())) {
    std::printf("  %-16s %3zu networks, %3zu communities\n",
                topology::to_string(type).c_str(), row.networks,
                row.communities);
  }

  // Community value conventions.
  std::map<std::uint16_t, std::size_t> values;
  for (const auto& [community, entry] : dict.entries()) {
    if (!entry.provider_asns.empty()) values[community.value()] += 1;
  }
  std::printf("\nmost common community values:\n");
  std::vector<std::pair<std::size_t, std::uint16_t>> ranked;
  for (auto& [value, n] : values) ranked.emplace_back(n, value);
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
    std::printf("  ASN:%-5u used by %zu providers\n", ranked[i].second,
                ranked[i].first);
  }

  // Scoped (regional) communities.
  std::size_t scoped = 0;
  for (const auto& [community, entry] : dict.entries()) {
    if (!entry.scope.empty()) ++scoped;
  }
  std::printf("\nregion-scoped blackhole communities: %zu (e.g. blackhole in "
              "Europe only)\n",
              scoped);
  return 0;
}
