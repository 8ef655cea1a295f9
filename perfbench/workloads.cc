#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "bgp/mrt.h"
#include "core/engine.h"
#include "core/grouping.h"
#include "net/bytes.h"
#include "util/rng.h"

namespace perfbench {

using namespace bgpbh;

namespace {

// The program's configuration: fixed topology/dictionary seeds and the
// paper's focus window.  Only the generator below sees the run seed.
core::StudyConfig program_config() {
  core::StudyConfig c;
  c.window_start = util::from_date(2016, 8, 1);
  c.window_end = util::from_date(2017, 4, 1);
  return c;
}

// The study replay at a blackholing-dense intensity, cut to exactly
// `count` updates (walk order is day by day, so the cut is a time cut
// up to one day's interleaving).  Exact counts keep every seed's pass
// the same amount of work.
std::vector<routing::FeedUpdate> study_stream(const core::StudyConfig& base,
                                              std::uint64_t seed,
                                              std::size_t count) {
  core::StudyConfig c = base;
  c.workload.seed = 0x5EEDULL * (seed + 1);
  c.workload.intensity_scale = 0.5;
  // About 35k updates per simulated day at this intensity; grow the
  // window until the stream is long enough.
  std::int64_t days = static_cast<std::int64_t>(count / 20000) + 2;
  for (;;) {
    c.window_end = c.window_start + days * util::kDay;
    core::Study study(c);
    std::vector<routing::FeedUpdate> out = study.replay_updates();
    if (out.size() >= count) {
      out.resize(count);
      return out;
    }
    days *= 2;
  }
}

// Background churn over [t0, t1), drawn the way the study's own
// background model draws it (Study::run_background_day): a regular
// re-announcement of a prefix its origin really originates, tagged with
// the origin's service communities, seen at 2-4 uniformly chosen
// collector sessions over their baseline valley-free paths.  That model
// has no withdrawals, so neither has this churn; the study replay mixed
// in carries the stream's withdrawals.  Never a blackhole community, so
// every churn update takes the engine's negative path.
void append_churn(const core::Study& study, std::uint64_t seed,
                  std::size_t count, util::SimTime t0, util::SimTime t1,
                  std::vector<routing::FeedUpdate>& out) {
  const auto& sessions = study.fleet().sessions();
  std::vector<const topology::AsNode*> origins;
  for (const auto& node : study.graph().nodes()) {
    if (!node.originated_v4.empty()) origins.push_back(&node);
  }
  if (sessions.empty() || origins.empty()) {
    throw std::runtime_error("perfbench: substrates have no churn sources");
  }
  routing::PropagationEngine propagation(study.graph(), study.cones(),
                                         seed ^ 0xC4A2ULL);
  util::Rng rng(seed ^ 0xC0FFEEULL);
  const double span = static_cast<double>(t1 - t0);
  std::size_t made = 0;
  while (made < count) {
    const topology::AsNode& origin = *origins[rng.uniform(origins.size())];
    const net::Prefix& prefix =
        origin.originated_v4[rng.uniform(origin.originated_v4.size())];
    const util::SimTime time =
        t0 + static_cast<util::SimTime>(span * static_cast<double>(made) /
                                        static_cast<double>(count));
    const std::size_t copies = 2 + rng.uniform(3);
    for (std::size_t c = 0; c < copies && made < count; ++c) {
      const auto& session = sessions[rng.uniform(sessions.size())];
      auto path = propagation.baseline_path(session.peer_asn, origin.asn);
      if (!path) continue;
      routing::FeedUpdate fu;
      fu.platform = session.platform;
      fu.update.time = time;
      fu.update.peer_ip = session.peer_ip;
      fu.update.peer_asn = session.peer_asn;
      fu.update.collector_id = session.collector_id;
      fu.update.body.announced.push_back(prefix);
      fu.update.body.as_path = *path;
      for (auto community : origin.service_communities) {
        fu.update.body.communities.add(community);
      }
      out.push_back(std::move(fu));
      ++made;
    }
  }
}

}  // namespace

Input make_input(Kind kind, std::uint64_t seed, std::size_t target_updates) {
  Input input;
  input.study = program_config();
  std::vector<routing::FeedUpdate> stream;
  if (kind == Kind::kStorm) {
    stream = study_stream(input.study, seed, target_updates);
  } else {
    // 5% of the churn mix is study replay; about 2.2% of all updates
    // then take the engine's positive path.
    const std::size_t episodes = std::max<std::size_t>(target_updates / 20, 1);
    stream = study_stream(input.study, seed, episodes);
    util::SimTime t0 = stream.front().update.time, t1 = t0;
    for (const auto& u : stream) {
      t0 = std::min(t0, u.update.time);
      t1 = std::max(t1, u.update.time);
    }
    core::Study substrates(input.study);
    append_churn(substrates, seed, target_updates - episodes, t0, t1 + 1,
                 stream);
  }
  input.updates = stream.size();
  // Slice the time-ordered stream into dumps of kSliceUpdates updates.
  std::stable_sort(stream.begin(), stream.end(),
                   [](const routing::FeedUpdate& a, const routing::FeedUpdate& b) {
                     return a.update.time < b.update.time;
                   });
  for (std::size_t i = 0; i < stream.size(); i += kSliceUpdates) {
    std::vector<net::BufWriter> writers(routing::kNumPlatforms);
    const std::size_t end = std::min(stream.size(), i + kSliceUpdates);
    for (std::size_t j = i; j < end; ++j) {
      bgp::mrt::encode_update(
          stream[j].update,
          writers[routing::platform_index(stream[j].platform)]);
    }
    auto& slice = input.slices.emplace_back();
    for (auto& w : writers) slice.push_back(w.data());
  }
  input.first_time = stream.front().update.time;
  input.close_time = stream.back().update.time + util::kHour;
  return input;
}

Input head(const Input& input, std::size_t updates) {
  Input out;
  out.study = input.study;
  out.first_time = input.first_time;
  out.close_time = input.close_time;
  const std::size_t slices =
      std::min(input.slices.size(), (updates + kSliceUpdates - 1) / kSliceUpdates);
  out.slices.assign(input.slices.begin(),
                    input.slices.begin() + static_cast<std::ptrdiff_t>(slices));
  out.updates = slices == input.slices.size()
                    ? input.updates
                    : slices * kSliceUpdates;
  return out;
}

std::optional<Slice> decode(const std::vector<std::vector<std::uint8_t>>& slice,
                            std::string* error) {
  Slice sources;
  sources.reserve(slice.size());
  for (std::size_t p = 0; p < slice.size(); ++p) {
    auto source = stream::MrtFileSource::from_buffer(
        slice[p], routing::kAllPlatforms[p], error);
    if (!source) return std::nullopt;
    sources.push_back(std::move(*source));
  }
  return sources;
}

MergedSource::MergedSource(std::vector<Slice>& slices) : slices_(slices) {}

const routing::FeedUpdate* MergedSource::next() {
  // The previously returned update stays borrowed until this call, so
  // its source advances only now.
  if (last_ != SIZE_MAX) heads_[last_] = slices_[slice_][last_].next();
  for (;;) {
    last_ = SIZE_MAX;
    for (std::size_t i = 0; i < heads_.size(); ++i) {
      if (heads_[i] == nullptr) continue;
      if (last_ == SIZE_MAX ||
          heads_[i]->update.time < heads_[last_]->update.time) {
        last_ = i;
      }
    }
    if (last_ != SIZE_MAX) return heads_[last_];
    // This slice is exhausted (or none started yet): open the next.
    if (!heads_.empty()) ++slice_;
    if (slice_ >= slices_.size()) return nullptr;
    heads_.clear();
    for (auto& s : slices_[slice_]) heads_.push_back(s.next());
  }
}

std::uint64_t closer_key(routing::Platform platform, const bgp::PeerKey& peer,
                         const net::Prefix& prefix, util::SimTime time) {
  std::size_t h = net::IpAddrHash{}(peer.peer_ip);
  h = net::hash_combine(h, peer.peer_asn);
  h = net::hash_combine(h, net::PrefixHash{}(prefix));
  h = net::hash_combine(h, static_cast<std::size_t>(time));
  h = net::hash_combine(h, routing::platform_index(platform));
  return h;
}

std::vector<Slice> decode_all(const Input& input) {
  std::vector<Slice> slices;
  std::string error;
  for (const auto& raw : input.slices) {
    auto slice = decode(raw, &error);
    if (!slice) throw std::runtime_error("perfbench: " + error);
    slices.push_back(std::move(*slice));
  }
  return slices;
}

Reference make_reference(const Input& input, const core::Study& substrates) {
  std::vector<Slice> sources = decode_all(input);
  Reference ref;
  ref.closer_index.reserve(input.updates * 2);
  core::InferenceEngine engine(substrates.dictionary(), substrates.registry(),
                               input.study.engine);
  if (auto dump = substrates.initial_table_dump()) {
    engine.init_from_table_dump(routing::Platform::kRis, *dump);
  }
  {
    MergedSource merged(sources);
    const auto t0 = std::chrono::steady_clock::now();
    while (const routing::FeedUpdate* fu = merged.next()) {
      engine.process(fu->platform, fu->update);
      ++ref.updates;
    }
    engine.finish(input.close_time);
    ref.engine_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  }
  // Second decode for the closer index, outside the timed engine pass.
  sources = decode_all(input);
  MergedSource merged(sources);
  std::uint32_t index = 0;
  while (const routing::FeedUpdate* fu = merged.next()) {
    const bgp::PeerKey peer{fu->update.peer_ip, fu->update.peer_asn};
    for (const auto* prefixes :
         {&fu->update.body.withdrawn, &fu->update.body.announced}) {
      for (const auto& prefix : *prefixes) {
        ref.closer_index[closer_key(fu->platform, peer, prefix,
                                    fu->update.time)] = index;
      }
    }
    ++index;
  }
  ref.events = engine.events();
  core::canonical_sort(ref.events);
  ref.grouped = core::group_events(core::correlate(ref.events));
  return ref;
}

}  // namespace perfbench
