// The staging publish rule of the fabric client's APPEND lanes.
// fabric::FabricRouter stages encoded sub-updates per lane so that a
// frame carries many of them; a lane publishes its frame when it is
// full, and StagingRule publishes it earlier: once its oldest entry has
// waited kMaxStaging, and every staged lane when a push follows
// kMaxStaging of silence.  Silence counts from when the previous push
// returned (the clock is read again after a push that published a full
// batch, which may have blocked on backpressure), and a clock that
// steps back reads as silence: publish, never hold.  The producer may
// refuse an early publish (the fabric does while a lane's window is
// full); the lane then keeps filling until the rule looks again
// kMaxStaging later.  (The in-process producer stages nothing: each of
// its pushes hands its refs to the shard queues before returning.)
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/time.h"

namespace bgpbh::stream {

inline constexpr std::chrono::microseconds kMaxStaging{500};

class StagingRule {
 public:
  using Clock = std::uint64_t (*)();

  explicit StagingRule(std::size_t destinations,
                       Clock clock = &util::wall_clock_ns)
      : first_staged_ns_(destinations), clock_(clock) {}

  // Destination d received its first entry since it last went out.
  void first_staged(std::size_t d, std::uint64_t now_ns) {
    first_staged_ns_[d] = now_ns;
    due_ns_ = std::min(due_ns_, now_ns + kMaxStagingNs);
  }

  // Ends a push that read the clock at `now_ns`.  staged(d) tells
  // whether d holds entries; publish(d) hands them on and returns true,
  // or returns false when d may not go out now.
  template <typename Staged, typename Publish>
  void end_push(std::uint64_t now_ns, bool published_full, Staged&& staged,
                Publish&& publish) {
    const bool quiet = now_ns - last_push_ns_ >= kMaxStagingNs;
    if (quiet || now_ns >= due_ns_) {
      due_ns_ = kNever;
      for (std::size_t d = 0; d < first_staged_ns_.size(); ++d) {
        if (!staged(d)) continue;
        if (!quiet && now_ns - first_staged_ns_[d] < kMaxStagingNs) {
          due_ns_ = std::min(due_ns_, first_staged_ns_[d] + kMaxStagingNs);
        } else if (!publish(d)) {
          due_ns_ = std::min(due_ns_, now_ns + kMaxStagingNs);
        }
      }
    }
    last_push_ns_ = published_full ? clock_() : now_ns;
  }

 private:
  static constexpr std::uint64_t kNever = UINT64_MAX;
  static constexpr std::uint64_t kMaxStagingNs =
      std::chrono::nanoseconds(kMaxStaging).count();

  std::vector<std::uint64_t> first_staged_ns_;  // valid while d is staged
  // When a scan is next due; early (never late) once a batch went out.
  std::uint64_t due_ns_ = kNever;
  std::uint64_t last_push_ns_ = 0;  // when the previous push returned
  Clock clock_;
};

}  // namespace bgpbh::stream
