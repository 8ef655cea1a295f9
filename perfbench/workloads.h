// Input generation for the end-to-end benchmark (perfbench/perf_e2e.cc).
//
// Every workload is built from a seed and handed to the program under
// test only as MRT bytes, the format the paper's RIS/RouteViews/PCH
// feeds arrive in: a time-ordered sequence of update dumps, each slice
// holding one BGP4MP archive per collector platform (as collectors
// publish an update file every few minutes).  The substrates the
// session needs (topology, dictionary) come from a fixed StudyConfig,
// so the seed varies the stream, never the program.
//
//   storm  — the study's own blackholing-dense replay stream
//            (Study::replay_updates() at a raised intensity_scale).
//   churn  — what collector feeds mostly carry: the study's own
//            background model (re-announcements of originated prefixes
//            with service communities, each seen at 2-4 uniformly
//            chosen collector sessions over baseline valley-free
//            paths), with a small seeded share of study episodes mixed
//            in so events still flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/events.h"
#include "core/study.h"
#include "stream/source.h"

namespace perfbench {

enum class Kind { kStorm, kChurn };

// Updates per time slice (one dump file per platform).
inline constexpr std::size_t kSliceUpdates = 4096;

struct Input {
  // What the program is configured with (substrates + window).
  bgpbh::core::StudyConfig study;
  // Time slices in feed order; each holds one BGP4MP archive per
  // collector platform (index = platform).
  std::vector<std::vector<std::vector<std::uint8_t>>> slices;
  std::size_t updates = 0;
  bgpbh::util::SimTime first_time = 0;  // earliest update
  // close() cut-off: later than every update, so every event it
  // force-closes is told apart from one an update closed.
  bgpbh::util::SimTime close_time = 0;
};

// Builds the input of `kind` with exactly `target_updates` updates.
Input make_input(Kind kind, std::uint64_t seed, std::size_t target_updates);

using Slice = std::vector<bgpbh::stream::MrtFileSource>;

// The first dumps of `input` holding at least `updates` updates (whole
// slices), with the same substrates and close() cut-off.
Input head(const Input& input, std::size_t updates);

// Decodes the platform archives of one slice; nullopt (and `*error`)
// when an archive is malformed.
std::optional<Slice> decode(const std::vector<std::vector<std::uint8_t>>& slice,
                            std::string* error);

// Time-merges the per-platform archives of decoded slices into one
// feed, the way BGPStream merges collector dumps: slice by slice,
// earliest update first, ties broken by platform.  Borrowed results
// stay valid until the next next() call.
class MergedSource : public bgpbh::stream::UpdateSource {
 public:
  explicit MergedSource(std::vector<Slice>& slices);
  const bgpbh::routing::FeedUpdate* next() override;

 private:
  std::vector<Slice>& slices_;
  std::size_t slice_ = 0;
  std::vector<const bgpbh::routing::FeedUpdate*> heads_;
  std::size_t last_ = SIZE_MAX;
};

// Identity of the update that closed an event: (platform, peer, prefix,
// time).  An event closed by an update carries that update's time as
// its end, so this key links a delivered event to its closing update.
std::uint64_t closer_key(bgpbh::routing::Platform platform,
                         const bgpbh::bgp::PeerKey& peer,
                         const bgpbh::net::Prefix& prefix,
                         bgpbh::util::SimTime time);
inline std::uint64_t closer_key(const bgpbh::core::PeerEvent& e) {
  return closer_key(e.platform, e.peer, e.prefix, e.end);
}

// Decodes every slice; throws std::runtime_error on a malformed one.
std::vector<Slice> decode_all(const Input& input);

// The sequential reference over the merged feed: the §4.2 engine run
// one update at a time, plus the index of the last update touching
// each closer_key.
struct Reference {
  std::vector<bgpbh::core::PeerEvent> events;  // canonically sorted
  std::vector<bgpbh::core::PrefixEvent> grouped;  // batch §9 over events
  std::unordered_map<std::uint64_t, std::uint32_t> closer_index;
  std::size_t updates = 0;
  double engine_seconds = 0;  // process() + finish() wall time
};

Reference make_reference(const Input& input,
                         const bgpbh::core::Study& substrates);

}  // namespace perfbench
