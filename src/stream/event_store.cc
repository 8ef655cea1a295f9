#include "stream/event_store.h"

#include <algorithm>
#include <cassert>

namespace bgpbh::stream {

EventStore::EventStore(std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

void EventStore::fold_event(Snapshot& into, bool& into_has_any,
                            const core::PeerEvent& event) {
  into.total_events += 1;
  into.per_provider[event.provider] += 1;
  into.per_platform[event.platform] += 1;
  if (!into_has_any || event.start < into.first_start) {
    into.first_start = event.start;
  }
  if (!into_has_any || event.end > into.last_end) {
    into.last_end = event.end;
  }
  into_has_any = true;
}

void EventStore::count_events(Lane& lane,
                              const std::vector<core::PeerEvent>& events) {
  for (const auto& e : events) {
    fold_event(lane.counters, lane.has_any, e);
  }
  lane.event_count += events.size();
}

void EventStore::fold(Snapshot& into, bool& into_has_any, const Snapshot& from,
                      bool from_has_any) {
  if (!from_has_any) return;
  into.total_events += from.total_events;
  for (const auto& [provider, n] : from.per_provider) {
    into.per_provider[provider] += n;
  }
  for (const auto& [platform, n] : from.per_platform) {
    into.per_platform[platform] += n;
  }
  if (!into_has_any || from.first_start < into.first_start) {
    into.first_start = from.first_start;
  }
  if (!into_has_any || from.last_end > into.last_end) {
    into.last_end = from.last_end;
  }
  into_has_any = true;
}

void EventStore::add_chunk_listener(ChunkListener listener) {
  assert(!ingest_started_.load(std::memory_order_relaxed) &&
         "add_chunk_listener() after the first ingest_chunk(): the list is "
         "read unsynchronized on the ingest path and already-handed-over "
         "chunks would be missed — install listeners before any ingester "
         "runs");
  listeners_.push_back(std::move(listener));
}

void EventStore::ingest_chunk(std::size_t lane_index,
                              std::vector<core::PeerEvent>&& chunk) {
  if (chunk.empty()) return;
#ifndef NDEBUG
  ingest_started_.store(true, std::memory_order_relaxed);
#endif
  lane_index %= lanes_.size();
  // Listeners are handed the chunk only after it is counted into its
  // lane, so a snapshot triggered by the delivery can never report
  // fewer events than a listener has been handed.  Delivery stays
  // outside the lane lock: a listener parked on a full dispatch/spill
  // queue (backpressure) must not hold up concurrent snapshot readers.
  const core::SealedChunk sealed =
      std::make_shared<const std::vector<core::PeerEvent>>(std::move(chunk));
  Lane& lane = *lanes_[lane_index];
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    count_events(lane, *sealed);
    lane.chunks.push_back(sealed);
  }
  for (const ChunkListener& listener : listeners_) listener(lane_index, sealed);
}

void EventStore::finalize() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& lane_ptr : lanes_) {
    Lane& lane = *lane_ptr;
    std::lock_guard<std::mutex> lane_lock(lane.mu);
    // Copied, not moved: a listener may still hold the shared chunk.
    for (const core::SealedChunk& chunk : lane.chunks) {
      events_.insert(events_.end(), chunk->begin(), chunk->end());
    }
    lane.chunks.clear();
    lane.event_count = 0;
    fold(merged_counters_, merged_has_any_, lane.counters, lane.has_any);
    lane.counters = Snapshot{};
    lane.has_any = false;
  }
  core::canonical_sort(events_);
  finalized_ = true;
}

bool EventStore::finalized() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finalized_;
}

// Readers scan the merged vector (under mu_) and then each lane (under
// its own mutex) without holding one big lock, so a concurrent
// finalize() — which relocates events from the lanes into the merged
// vector — could slip between the observation points and make a scan
// miss whatever already moved.  finalize() holds mu_ for its entire
// duration and is one-shot, so re-reading finalized() after the scan
// detects exactly that interleaving: if the flag didn't change, no
// relocation overlapped the scan.  At most one retry ever happens.
template <typename Scan>
auto EventStore::consistent_scan(Scan&& scan) const {
  for (;;) {
    const bool was_finalized = finalized();
    auto result = scan();
    if (was_finalized || !finalized()) return result;
  }
}

std::size_t EventStore::size() const {
  return consistent_scan([&] {
    std::size_t total;
    {
      std::lock_guard<std::mutex> lock(mu_);
      total = events_.size();
    }
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lane_lock(lane->mu);
      total += lane->event_count;
    }
    return total;
  });
}

EventStore::Snapshot EventStore::snapshot() const {
  return consistent_scan([&] {
    Snapshot snap;
    bool has_any = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      snap = merged_counters_;
      has_any = merged_has_any_;
    }
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lane_lock(lane->mu);
      fold(snap, has_any, lane->counters, lane->has_any);
    }
    return snap;
  });
}

std::vector<core::PeerEvent> EventStore::query(
    const std::function<bool(const core::PeerEvent&)>& pred) const {
  return consistent_scan([&] {
    std::vector<core::PeerEvent> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& e : events_) {
        if (pred(e)) out.push_back(e);
      }
    }
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lane_lock(lane->mu);
      for (const auto& chunk : lane->chunks) {
        for (const auto& e : *chunk) {
          if (pred(e)) out.push_back(e);
        }
      }
    }
    return out;
  });
}

std::size_t EventStore::count(
    const std::function<bool(const core::PeerEvent&)>& pred) const {
  return consistent_scan([&] {
    std::size_t n = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      n += static_cast<std::size_t>(
          std::count_if(events_.begin(), events_.end(), pred));
    }
    for (const auto& lane : lanes_) {
      std::lock_guard<std::mutex> lane_lock(lane->mu);
      for (const auto& chunk : lane->chunks) {
        n += static_cast<std::size_t>(
            std::count_if(chunk->begin(), chunk->end(), pred));
      }
    }
    return n;
  });
}

std::vector<core::PeerEvent> EventStore::events_in(util::SimTime t0,
                                                   util::SimTime t1) const {
  return query([&](const core::PeerEvent& e) {
    return core::overlaps_window(e.start, e.end, t0, t1);
  });
}

std::size_t EventStore::count_in(util::SimTime t0, util::SimTime t1) const {
  return count([&](const core::PeerEvent& e) {
    return core::overlaps_window(e.start, e.end, t0, t1);
  });
}

const std::vector<core::PeerEvent>& EventStore::events() const {
  assert(finalized() &&
         "EventStore::events() before finalize(): the merged vector is empty "
         "while events sit in per-shard lanes — query()/events_in() is the "
         "live-safe path");
  return events_;
}

}  // namespace bgpbh::stream
