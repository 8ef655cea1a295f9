// Zero-copy sub-update data plane for the streaming pipeline.
//
// An UPDATE message with K announced/withdrawn prefixes must reach up
// to K different engine shards, but the expensive route attributes
// (AS path, communities) are identical for every one of them, so they
// are never copied per sub-update.
//
// Each parsed update is stored exactly once, in a pooled
// UpdateBlock, and what moves through the shard queues is a 16-byte
// SubUpdateRef naming (block, prefix index, kind).  Shards read the
// path/communities/next-hop straight out of the shared block through
// core::UpdateView — no materialization anywhere on the data plane.
//
// Lifetime is reference-counted: the router sets refs to the number of
// sub-updates it emits, each shard releases its ref after processing,
// and the last release returns the block to the pool.  Recycled blocks
// keep the capacity of their internal vectors, so in steady state
// routing an update performs zero heap allocations (asserted by
// bench/perf_stream with a counting allocator).
//
// Synchronization: the producer fully writes block->update before the
// SubUpdateRef is published through an SPSC queue (release store on the
// queue index), so consumers always observe a complete block.  Recycle
// safety comes from the acq_rel ref decrement plus the pool mutex both
// sides pass through.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "routing/collectors.h"

namespace bgpbh::stream {

// One parsed update, shared by all of its single-prefix sub-updates.
struct UpdateBlock {
  routing::FeedUpdate update;
  // Which pipeline producer routed this update — shard workers key
  // their per-producer ingest watermarks (checkpoint/replay cuts,
  // src/recovery/) off it.  Stamped by the router before refs publish.
  std::uint32_t producer = 0;
  // Outstanding SubUpdateRefs; the block returns to its pool when the
  // last one is released.
  std::atomic<std::uint32_t> refs{0};
};

// How a SubUpdateRef's prefix_index resolves against its block.
enum class SubKind : std::uint32_t {
  kWithdraw = 0,  // block->update.update.body.withdrawn[prefix_index]
  kAnnounce = 1,  // block->update.update.body.announced[prefix_index]
};

// The queue item of the zero-copy data plane: two words.
struct SubUpdateRef {
  UpdateBlock* block = nullptr;
  std::uint32_t prefix_index = 0;
  SubKind kind = SubKind::kAnnounce;
};
static_assert(sizeof(SubUpdateRef) == 16,
              "SubUpdateRef is the per-sub-update queue traffic; keep it "
              "two machine words");

// Recycling pool of UpdateBlocks.  Thread-safe: producers acquire,
// shard workers recycle.  The pool mutex sits between threads, so the
// hot path amortizes it with batched traffic on both sides: producers
// refill a local block cache via acquire_batch (one lock per ~dozens
// of updates) and workers collect fully-unreferenced blocks and hand
// them back via recycle_batch (one lock per consume batch).  Blocks
// live in a deque (stable addresses) and are never freed until the
// pool dies; the in-flight count is bounded by the caches and queue
// capacities, so the pool stops growing once the pipeline reaches its
// steady-state high-water mark.
class BlockPool {
 public:
  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  // A block with unspecified (possibly recycled) contents; the caller
  // must overwrite `update` and set `refs` before publishing refs.
  UpdateBlock* acquire();

  // Appends `n` blocks to `out` with a single lock — the producer-side
  // cache refill.
  void acquire_batch(std::vector<UpdateBlock*>& out, std::size_t n);

  // Drop one reference; recycles the block on the last release.
  void release(UpdateBlock* block);

  // Drop one reference WITHOUT touching the pool; true when the block
  // reached zero references and must be handed to recycle_batch.
  // Lets consumers batch the pool lock across many releases.
  static bool unref(UpdateBlock* block) {
    // acq_rel: the last releaser must observe every shard's reads as
    // done; recyclers then synchronize via the pool mutex.
    return block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  // Return fully-unreferenced blocks (refs == 0) with a single lock.
  void recycle_batch(std::span<UpdateBlock* const> blocks);

  // Blocks ever created (pool high-water mark).
  std::size_t blocks_allocated() const;
  // Acquired and not yet fully released; 0 once a pipeline finished.
  std::size_t in_flight() const;

 private:
  mutable std::mutex mu_;
  std::deque<UpdateBlock> slab_;      // owns every block; never shrinks
  std::vector<UpdateBlock*> free_;    // recycled blocks
};

}  // namespace bgpbh::stream
