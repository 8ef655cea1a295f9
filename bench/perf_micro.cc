// Microbenchmarks for the performance-critical components: the
// inference engine's negative path (tag-less updates — the dominant
// case in any realistic feed), compiled-dictionary and std::map
// dictionary lookups, allocation-free AS-path scans,
// Patricia-trie lookups, and the BGP UPDATE/MRT codecs — the "timely
// parsing" property BGPStream demonstrated (§1) and that a
// near-real-time deployment of this methodology depends on (§10).
//
// Self-contained timing harness (no external benchmark dependency) so
// it runs everywhere the library builds, and emits machine-readable
// results to BENCH_engine.json — the perf trajectory every PR is
// measured against.
//
//   perf_micro [--quick] [--out <path>]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_meta.h"
#include "core/engine.h"
#include "core/study.h"
#include "dictionary/compiled.h"
#include "net/patricia.h"

using namespace bgpbh;

namespace {

struct Result {
  std::string name;
  double ns_per_op = 0;
  double ops_per_sec = 0;
  std::uint64_t iters = 0;
};

double g_min_seconds = 0.25;

// The seed repo's negative-path cost (ns/update), measured by this
// harness on the reference dev container before the compiled
// dictionary existed; BENCH_engine.json reports the "vs seed" speedup
// derived from this recorded constant.
constexpr double kSeedNegativePathNs = 66.0;

// Runs `body(i)` in doubling rounds until one round exceeds the time
// floor, then reports that round — self-calibrating across machines.
template <typename F>
Result run_bench(const char* name, F&& body) {
  Result r;
  r.name = name;
  std::uint64_t iters = 1024;
  for (;;) {
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) body(i);
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (secs >= g_min_seconds || iters >= (std::uint64_t{1} << 32)) {
      r.iters = iters;
      r.ns_per_op = secs / static_cast<double>(iters) * 1e9;
      r.ops_per_sec = static_cast<double>(iters) / secs;
      break;
    }
    iters *= 2;
  }
  std::printf("  %-38s %10.1f ns/op  %14.0f ops/sec\n", r.name.c_str(),
              r.ns_per_op, r.ops_per_sec);
  return r;
}

// ---- fixtures ----------------------------------------------------------

struct EngineFixture {
  topology::AsGraph graph = topology::generate(topology::GeneratorConfig{});
  topology::Registry registry = topology::Registry::build(graph, 0.72, 0.95, 42);
  dictionary::Corpus corpus = dictionary::generate_corpus(graph, 42);
  dictionary::BlackholeDictionary dict =
      dictionary::build_documented_dictionary(corpus, registry);
  dictionary::CompiledDictionary compiled{dict};
};

EngineFixture& fixture() {
  static EngineFixture f;
  return f;
}

bgp::UpdateBody sample_body() {
  bgp::UpdateBody body;
  body.announced.push_back(*net::Prefix::parse("130.149.1.1/32"));
  body.as_path = bgp::AsPath::of({3356, 1299, 64500});
  body.next_hop = *net::IpAddr::parse("198.51.100.1");
  body.communities.add(bgp::Community(65535, 666));
  body.communities.add(bgp::Community(3356, 9999));
  return body;
}

// A tag-less update: regular service communities, no blackhole tag —
// what almost every update in a live feed looks like.  This is the
// negative-path scenario the zero-allocation fast path targets.
bgp::ObservedUpdate tagless_update() {
  bgp::ObservedUpdate u;
  u.peer_ip = *net::IpAddr::parse("198.51.100.9");
  u.peer_asn = 3356;
  u.body.as_path = bgp::AsPath::of({3356, 3356, 1299, 2914, 64500});
  u.body.communities.add(bgp::Community(3356, 120));
  u.body.communities.add(bgp::Community(1299, 3000));
  u.body.announced.push_back(*net::Prefix::parse("20.7.0.0/16"));
  return u;
}

// ---- scenarios ---------------------------------------------------------

Result bench_engine_update(const char* name, bgp::ObservedUpdate update) {
  auto& f = fixture();
  core::InferenceEngine engine(f.dict, f.registry);
  return run_bench(name, [&](std::uint64_t) {
    update.time += 1;
    engine.process(routing::Platform::kRis, update);
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_min_seconds = 0.05;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_micro [--quick] [--out <path>]\n");
      return 2;
    }
  }

  std::printf("building bench fixtures...\n");
  auto& f = fixture();
  std::printf("dictionary: %zu communities (%zu providers, %zu IXPs)\n\n",
              f.dict.num_communities(), f.dict.num_providers(), f.dict.num_ixps());

  std::vector<Result> results;

  // ---- inference engine: the negative path ----------------------------
  results.push_back(
      bench_engine_update("engine_negative_tagless", tagless_update()));
  bgp::ObservedUpdate no_comms = tagless_update();
  no_comms.body.communities = {};
  results.push_back(bench_engine_update("engine_negative_no_communities",
                                        std::move(no_comms)));

  // ---- inference engine: the positive path ----------------------------
  {
    // Find a documented provider for a realistic tagged update.
    bgp::Community community;
    bgp::Asn provider = 0;
    for (const auto& [c, entry] : f.dict.entries()) {
      if (entry.provider_asns.size() == 1) {
        community = c;
        provider = entry.provider_asns[0];
        break;
      }
    }
    core::InferenceEngine engine(f.dict, f.registry);
    bgp::ObservedUpdate update;
    update.peer_ip = *net::IpAddr::parse("198.51.100.9");
    update.peer_asn = provider;
    update.body.as_path = bgp::AsPath::of({provider, 64500});
    update.body.communities.add(community);
    std::uint32_t host = 0x14000000;
    results.push_back(run_bench("engine_positive_open_event", [&](std::uint64_t) {
      update.time += 1;
      update.body.announced.assign(
          1, net::Prefix(net::IpAddr(net::Ipv4Addr(host++)), 32));
      engine.process(routing::Platform::kRis, update);
    }));
  }

  // ---- dictionary lookups ---------------------------------------------
  {
    bgp::Community hit = f.dict.entries().begin()->first;
    bgp::Community miss(3356, 120);  // service community, never a blackhole
    volatile bool sink = false;
    results.push_back(run_bench("dict_compiled_prefilter_miss", [&](std::uint64_t) {
      sink = f.compiled.maybe_blackhole(miss);
    }));
    results.push_back(run_bench("dict_compiled_lookup_hit", [&](std::uint64_t) {
      sink = f.compiled.lookup(hit) != nullptr;
    }));
    results.push_back(run_bench("dict_map_lookup_hit", [&](std::uint64_t) {
      sink = f.dict.lookup(hit) != nullptr;
    }));
    results.push_back(run_bench("dict_map_lookup_miss", [&](std::uint64_t) {
      sink = f.dict.lookup(miss) != nullptr;
    }));
    (void)sink;
  }

  // ---- AS path scans ---------------------------------------------------
  {
    bgp::AsPath path = bgp::AsPath::of(
        {3356, 3356, 3356, 1299, 2914, 2914, 6939, 64500, 64500});
    volatile std::size_t sink = 0;
    results.push_back(run_bench("aspath_index_of_inplace", [&](std::uint64_t) {
      auto idx = path.index_of(6939);
      sink = idx ? *idx : 0;
    }));
    results.push_back(run_bench("aspath_unique_length_inplace", [&](std::uint64_t) {
      sink = path.unique_length();
    }));
    (void)sink;
  }

  // ---- Patricia trie ---------------------------------------------------
  {
    net::PatriciaTrie<int> trie;
    util::Rng rng(1);
    for (int i = 0; i < 100000; ++i) {
      std::uint32_t addr = static_cast<std::uint32_t>(rng.next_u64());
      std::uint8_t len = static_cast<std::uint8_t>(8 + rng.uniform(25));
      trie.insert(net::Prefix(net::IpAddr(net::Ipv4Addr(addr)), len), i);
    }
    std::uint64_t x = 12345;
    volatile bool sink = false;
    results.push_back(run_bench("patricia_lookup_100k", [&](std::uint64_t) {
      x = x * 6364136223846793005ULL + 1;
      net::IpAddr ip{net::Ipv4Addr(static_cast<std::uint32_t>(x >> 32))};
      sink = trie.lookup(ip) != nullptr;
    }));
    (void)sink;
  }

  // ---- BGP UPDATE / MRT codecs ----------------------------------------
  {
    auto body = sample_body();
    results.push_back(run_bench("update_encode", [&](std::uint64_t) {
      net::BufWriter w;
      bgp::encode_update_body(body, w);
    }));
    net::BufWriter w;
    bgp::encode_update_body(body, w);
    results.push_back(run_bench("update_decode", [&](std::uint64_t) {
      net::BufReader r(w.data());
      auto decoded = bgp::decode_update_body(r);
      (void)decoded;
    }));
  }

  // ---- derived metrics + JSON -----------------------------------------
  double tagless_ns = 0;
  for (const auto& r : results) {
    if (r.name == "engine_negative_tagless") tagless_ns = r.ns_per_op;
  }
  double speedup_vs_seed =
      tagless_ns > 0 ? kSeedNegativePathNs / tagless_ns : 0;
  std::printf("\nnegative-path vs recorded seed (%.0f ns): %.2fx\n",
              kSeedNegativePathNs, speedup_vs_seed);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"perf_micro\",\n");
  std::fprintf(out, "  \"meta\": %s,\n", bench::meta_json().c_str());
  std::fprintf(out, "  \"unit\": {\"ns_per_op\": \"nanoseconds per operation\", "
                    "\"ops_per_sec\": \"operations per second\"},\n");
  std::fprintf(out, "  \"seed_negative_path_ns\": %.1f,\n", kSeedNegativePathNs);
  std::fprintf(out,
               "  \"negative_path_speedup_vs_seed\": %.2f,\n", speedup_vs_seed);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.2f, "
                 "\"ops_per_sec\": %.0f, \"iters\": %llu}%s\n",
                 r.name.c_str(), r.ns_per_op, r.ops_per_sec,
                 static_cast<unsigned long long>(r.iters),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
