// Merged, time-ordered store of closed blackholing events produced by
// the engine shards of the streaming pipeline.
//
// Shard workers hand events over in *sealed chunks*: each worker's
// drained batch is moved into one immutable shared chunk and appended
// to its own lane under that lane's mutex — an O(1) splice plus small
// counter updates, never an element-wise copy.  The same chunk then
// goes to every listener (spill writer, sink dispatcher) by reference.
// Lanes are per-shard, so the hot ingest path has no cross-shard
// contention; the expensive work (merging every lane into one
// canonically sorted vector) happens once, in finalize(), after the
// workers have stopped.
//
// Aggregate counters (per-provider, per-platform, total) are kept per
// lane and folded on demand, so a live alerting sink can take a
// consistent snapshot at any time without stopping the workers.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/events.h"

namespace bgpbh::stream {

class EventStore {
 public:
  // Consistent view of the aggregate counters at one instant.
  struct Snapshot {
    std::size_t total_events = 0;
    util::SimTime first_start = 0;  // min start over ingested events
    util::SimTime last_end = 0;     // max end over ingested events
    std::map<core::ProviderRef, std::size_t> per_provider;
    std::map<routing::Platform, std::size_t> per_platform;
  };

  // Folds one event into a snapshot's counters — THE accumulation rule
  // for Snapshot, shared by the store's lane counters and by
  // api::AnalysisSession's batch-mode snapshot.
  static void fold_event(Snapshot& into, bool& into_has_any,
                         const core::PeerEvent& event);

  // Folds one snapshot into another (same rule as fold_event, counter
  // granularity) — how the lanes merge, and how api::AnalysisSession
  // merges the persistent segment log's cached summary into a live
  // view.  `from_has_any`/`into_has_any` disambiguate the zero-valued
  // time fields of an empty snapshot.
  static void fold(Snapshot& into, bool& into_has_any, const Snapshot& from,
                   bool from_has_any);

  // One lane per concurrent ingester (shard worker).  Lane count is
  // fixed at construction; ingest_chunk(lane) for lane >= lanes rounds
  // into the available ones.
  explicit EventStore(std::size_t lanes = 1);

  // Sealed-chunk handoff: seals the drained vector ONCE into an
  // immutable core::SealedChunk (one allocation, no element copy),
  // counts it into the lane under the lane's (per-lane, effectively
  // uncontended) mutex, and hands that same chunk to every listener.
  // Thread-safe; empty chunks are ignored.
  void ingest_chunk(std::size_t lane, std::vector<core::PeerEvent>&& chunk);

  // Chunk listeners (api::AnalysisSession wires the storage::SpillWriter
  // and the SinkDispatcher here): each receives every chunk right AFTER
  // it landed in its lane (so a listener-driven snapshot can never lag
  // the events already handed out), on the ingesting thread and
  // outside any store lock (a listener may block for backpressure
  // without stalling readers).  Every listener gets the very chunk the
  // lane holds; keeping the pointer keeps the events alive, and nobody
  // can modify them.  Listeners run in the order they were added.
  //
  // ORDERING CONTRACT (single writer per lane): the store never
  // reorders — a lane's chunks are observed in exactly the order its
  // ingester called ingest_chunk, so with the pipeline's shape (one
  // shard worker per lane, every (peer, prefix) key owned by one
  // shard) per-key close order is preserved end to end.  Nothing is
  // guaranteed across lanes: cross-lane interleaving follows whichever
  // ingester ran first.  Two writers sharing a lane would also be
  // safe (the lane mutex serializes them) but forfeits the per-key
  // order, so don't.
  //
  // LIFECYCLE CONTRACT: add before any ingester runs, never after —
  // the list is read without synchronization on the ingest path, so
  // adding a listener once ingest_chunk has run is a data race AND
  // would silently miss the chunks already handed over.  Debug builds
  // assert.  Sealing costs one allocation per chunk, listeners or not;
  // each listener adds one call per chunk and nothing per event.
  using ChunkListener =
      std::function<void(std::size_t lane, const core::SealedChunk& chunk)>;
  void add_chunk_listener(ChunkListener listener);

  // Merges every lane into the canonical event order.  Call once all
  // workers stopped.
  void finalize();
  bool finalized() const;

  // ---- queries ----------------------------------------------------------
  std::size_t size() const;
  Snapshot snapshot() const;

  // Lane-consistent predicate scan: visits the merged vector and every
  // lane's sealed chunks under the finalize-consistent retry, so the
  // same query yields the same event set live (per-shard lanes) and
  // after finalize().  Result order is scan order, NOT canonical —
  // canonical_sort it for comparisons.  api::EventQuery runs on this.
  std::vector<core::PeerEvent> query(
      const std::function<bool(const core::PeerEvent&)>& pred) const;
  std::size_t count(
      const std::function<bool(const core::PeerEvent&)>& pred) const;

  // Events overlapping [t0, t1) (core::overlaps_window, the same rule
  // as api::EventQuery::between).
  std::vector<core::PeerEvent> events_in(util::SimTime t0,
                                         util::SimTime t1) const;
  std::size_t count_in(util::SimTime t0, util::SimTime t1) const;

  // The merged event set in canonical order.  Asserts (debug builds)
  // that finalize() ran: before the merge the vector is EMPTY — the
  // events live in per-shard lanes, reachable only through
  // query()/events_in()/count_in()/snapshot() — and silently returning
  // {} here has bitten real callers.  Only valid to hold the reference
  // while no worker is ingesting.
  const std::vector<core::PeerEvent>& events() const;

 private:
  struct Lane {
    mutable std::mutex mu;
    std::vector<core::SealedChunk> chunks;  // shared with listeners, unmerged
    std::size_t event_count = 0;
    Snapshot counters;
    bool has_any = false;
  };

  static void count_events(Lane& lane,
                           const std::vector<core::PeerEvent>& events);

  // Runs `scan` and retries once if a concurrent finalize() moved
  // events between the scan's observation points (see the .cc).
  template <typename Scan>
  auto consistent_scan(Scan&& scan) const;

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<ChunkListener> listeners_;
#ifndef NDEBUG
  // Catches the add-after-ingest lifecycle footgun (see the listener
  // contracts above); debug builds only.
  std::atomic<bool> ingest_started_{false};
#endif

  // Guards the merged state (events_, merged counters, finalized_).
  mutable std::mutex mu_;
  std::vector<core::PeerEvent> events_;
  Snapshot merged_counters_;
  bool merged_has_any_ = false;
  bool finalized_ = false;
};

}  // namespace bgpbh::stream
