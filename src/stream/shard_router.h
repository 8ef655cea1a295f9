// Shard routing for the streaming pipeline.
//
// Engine state is keyed by (BGP peer, prefix) and every transition —
// open, implicit close, explicit close — touches exactly one key, so
// partitioning keys across shards by hash preserves the sequential
// engine's semantics exactly.  An UPDATE message may carry several
// prefixes whose keys hash to different shards; the router therefore
// splits each observed update into single-prefix sub-updates and
// routes each to the shard owning its key.  Within one update,
// withdrawn prefixes are emitted before announced ones (the order the
// sequential engine processes them in), and the queues are FIFO, so
// the per-key transition order is identical to sequential replay.
//
// Data plane: the router stores each parsed update exactly once in a
// pooled UpdateBlock and emits 16-byte SubUpdateRefs — it never copies
// the AS path or communities, and in steady state (recycled blocks)
// performs zero heap allocations per update.
//
// The split itself (for_each_sub_update) is shared with
// fabric::FabricRouter, so the in-process and multi-process planes
// order sub-updates identically by construction; both stamp them by
// the ingest_stamp rule.
#pragma once

#include <atomic>
#include <cstdint>

#include "bgp/rib.h"
#include "routing/collectors.h"
#include "stream/update_block.h"
#include "util/time.h"

namespace bgpbh::stream {

// Deterministic shard assignment for a (peer, prefix) state key.
std::size_t shard_for(const bgp::PeerKey& peer, const net::Prefix& prefix,
                      std::size_t num_shards);

// The producer-edge ingest stamp, taken exactly once per update: an
// update arriving already stamped (a fabric server re-routing a
// client's subs) keeps its original stamp so e2e latency spans
// processes; an unstamped one gets `now_ns`, the wall clock read as it
// enters the router.  ShardRouter::route applies the rule reading the
// clock only for an unstamped update.
inline std::uint64_t ingest_stamp(const routing::FeedUpdate& fu,
                                  std::uint64_t now_ns) {
  return fu.ingest_ns != 0 ? fu.ingest_ns : now_ns;
}

// Splits `fu` into single-prefix sub-updates and calls
// emit(shard, SubKind, prefix_index) for each, where shard is
// shard_for(peer, prefix, num_shards): withdrawals first, then
// announcements, each in index order — the order the sequential
// engine processes them in.  An update without prefixes emits nothing.
template <typename Emit>
void for_each_sub_update(const routing::FeedUpdate& fu,
                         std::size_t num_shards, Emit&& emit) {
  const bgp::UpdateBody& body = fu.update.body;
  const bgp::PeerKey peer{fu.update.peer_ip, fu.update.peer_asn};
  for (std::uint32_t i = 0; i < body.withdrawn.size(); ++i) {
    emit(shard_for(peer, body.withdrawn[i], num_shards), SubKind::kWithdraw,
         i);
  }
  for (std::uint32_t i = 0; i < body.announced.size(); ++i) {
    emit(shard_for(peer, body.announced[i], num_shards), SubKind::kAnnounce,
         i);
  }
}

class ShardRouter {
 public:
  // Blocks a producer keeps locally between pool refills; one pool
  // lock per this many updates instead of per update.
  static constexpr std::size_t kBlockCacheSize = 64;

  // `producer_index` is stamped into every routed block so shard
  // workers can keep per-producer ingest watermarks (src/recovery/).
  ShardRouter(std::size_t num_shards, BlockPool& pool,
              std::uint32_t producer_index = 0)
      : num_shards_(num_shards), pool_(&pool), producer_index_(producer_index) {
    cache_.reserve(kBlockCacheSize);
  }

  ~ShardRouter() { release_cached_blocks(); }

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  std::size_t num_shards() const { return num_shards_; }

  // Original (pre-split) updates seen; the pipeline reports this as
  // updates_processed so merged stats match the sequential engine's.
  // Relaxed atomic: the coordinator cadence thread and session drain
  // checks sample it while the producer thread is routing.
  std::uint64_t updates_routed() const {
    return updates_routed_.load(std::memory_order_relaxed);
  }

  // Splits `fu` into single-prefix sub-updates (for_each_sub_update)
  // and calls emit(shard_index, SubUpdateRef) for each.  One block
  // holds the parsed update; the copy assignment below reuses the
  // recycled block's vector capacities, so nothing allocates once the
  // pool is warm.  Every emitted ref carries one reference on its
  // block; whoever consumes the ref must release it back to the pool.
  template <typename Emit>
  void route(const routing::FeedUpdate& fu, Emit&& emit) {
    updates_routed_.fetch_add(1, std::memory_order_relaxed);
    const bgp::UpdateBody& body = fu.update.body;
    const std::size_t subs = body.withdrawn.size() + body.announced.size();
    if (subs == 0) return;
    UpdateBlock* block = next_block();
    block->update = fu;
    // ingest_stamp: a fabric server re-routing client-stamped
    // sub-updates reads no clock at all.
    if (fu.ingest_ns == 0) block->update.ingest_ns = util::wall_clock_ns();
    block->refs.store(static_cast<std::uint32_t>(subs),
                      std::memory_order_relaxed);
    for_each_sub_update(
        fu, num_shards_,
        [&](std::size_t shard, SubKind kind, std::uint32_t index) {
          emit(shard, SubUpdateRef{block, index, kind});
        });
  }

 private:
  UpdateBlock* next_block() {
    if (cache_.empty()) pool_->acquire_batch(cache_, kBlockCacheSize);
    UpdateBlock* block = cache_.back();
    cache_.pop_back();
    block->producer = producer_index_;
    return block;
  }

 public:
  // Hand locally cached (unused, unreferenced) blocks back to the
  // pool; the pipeline calls this at finish() so in_flight drops to 0.
  void release_cached_blocks() {
    pool_->recycle_batch(cache_);
    cache_.clear();
  }

 private:
  std::size_t num_shards_;
  BlockPool* pool_;
  std::uint32_t producer_index_;
  std::vector<UpdateBlock*> cache_;
  std::atomic<std::uint64_t> updates_routed_{0};
};

}  // namespace bgpbh::stream
