// Compiled, immutable fast-path form of the blackhole dictionary.
//
// The engine matches *every* update's communities against the
// dictionary, yet in a realistic feed almost none carry a blackhole
// community — the lookup cost is dominated by misses.  The mutable
// BlackholeDictionary (std::map, one node allocation per entry) is the
// build/update-time representation; CompiledDictionary is the frozen
// read-path form the inference engine actually queries:
//
//   * an 8 KiB presence bitset over the 16-bit *value* half of classic
//     communities (the "666" of "3356:666"), so a non-blackhole update
//     costs one bit-test per community and touches no cold memory —
//     blackhole values cluster (666, 66, 999, ...), so the bitset is
//     extremely sparse and a miss almost never proceeds further;
//   * a flat open-addressing slot table (power-of-two capacity, load
//     factor <= 0.5, linear probing) for confirmed candidates: the
//     common hit is one multiply-shift hash, one 8-byte slot load and
//     one compare — no binary-search dependency chain, no pointer
//     chasing into map nodes.  Provider/IXP lists are packed into
//     dense pools and exposed as std::span views;
//   * the same two-level treatment for RFC 8092 large communities,
//     keyed on a 16-bit fingerprint of the 96-bit value.
//
// The compiled form never produces a false negative: every community
// the source dictionary knows passes the bitset and resolves to an
// identical entry (tests/test_compiled_dictionary.cc fuzzes this
// equivalence).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dictionary/dictionary.h"

namespace bgpbh::dictionary {

// Allocation-free view of one dictionary entry's detection-relevant
// fields, pointing into the compiled dictionary's dense pools — the
// only dictionary form the inference engine reads.
struct EntryView {
  std::span<const Asn> provider_asns;
  std::span<const std::uint32_t> ixp_ids;

  bool ambiguous() const { return provider_asns.size() > 1; }
};

class CompiledDictionary {
 public:
  CompiledDictionary() = default;
  explicit CompiledDictionary(const BlackholeDictionary& source);

  // Copying would duplicate the pools while the EntryView spans kept
  // pointing into the source object's storage. Moves transfer the pool
  // buffers, so the spans stay valid.
  CompiledDictionary(const CompiledDictionary&) = delete;
  CompiledDictionary& operator=(const CompiledDictionary&) = delete;
  CompiledDictionary(CompiledDictionary&&) = default;
  CompiledDictionary& operator=(CompiledDictionary&&) = default;

  // One bit-test: can `c` possibly be a blackhole community?  False
  // positives allowed (same 16-bit value half as a real entry), false
  // negatives never.
  bool maybe_blackhole(bgp::Community c) const {
    return test_bit(classic_bits_, c.value());
  }
  bool maybe_blackhole(bgp::LargeCommunity c) const {
    return test_bit(large_bits_, large_fingerprint(c));
  }

  // True if any community in the set may be a blackhole community.
  // Pure bit-tests over hot cache lines; the engine consults this
  // before doing any per-update path work.
  bool prefilter(const bgp::CommunitySet& comms) const {
    for (auto c : comms.classic()) {
      if (maybe_blackhole(c)) return true;
    }
    for (auto c : comms.large()) {
      if (maybe_blackhole(c)) return true;
    }
    return false;
  }

  // Exact lookup; nullptr when `c` is not a blackhole community.  The
  // returned view stays valid for the lifetime of this object.
  const EntryView* lookup(bgp::Community c) const {
    if (slots_.empty()) return nullptr;
    const std::uint32_t key = c.raw();
    std::size_t i = slot_index(key);
    for (;;) {
      const Slot& s = slots_[i];
      if (s.entry_plus_one == 0) return nullptr;
      if (s.key == key) return &entries_[s.entry_plus_one - 1];
      i = (i + 1) & slot_mask_;
    }
  }
  std::optional<Asn> lookup_large(bgp::LargeCommunity c) const;

  std::size_t num_classic() const { return entries_.size(); }
  std::size_t num_large() const { return large_.size(); }

 private:
  static constexpr std::size_t kBitWords = 65536 / 64;  // 8 KiB per set

  static bool test_bit(const std::array<std::uint64_t, kBitWords>& bits,
                       std::uint16_t i) {
    return (bits[i >> 6] >> (i & 63)) & 1u;
  }
  static void set_bit(std::array<std::uint64_t, kBitWords>& bits,
                      std::uint16_t i) {
    bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  // 16-bit mix of the three 32-bit words of a large community.
  static std::uint16_t large_fingerprint(bgp::LargeCommunity c) {
    std::uint32_t h = c.global_admin() * 0x9E3779B1u;
    h ^= c.local1() * 0x85EBCA77u;
    h ^= c.local2() * 0xC2B2AE3Du;
    return static_cast<std::uint16_t>(h ^ (h >> 16));
  }

  struct LargeEntry {
    std::uint32_t global = 0, l1 = 0, l2 = 0;
    Asn provider = 0;
    friend auto operator<=>(const LargeEntry&, const LargeEntry&) = default;
  };

  std::array<std::uint64_t, kBitWords> classic_bits_{};
  std::array<std::uint64_t, kBitWords> large_bits_{};

  // Open-addressing slot table over raw classic communities.  A slot
  // is 8 bytes: the raw key and a 1-based index into entries_ (0 =
  // empty).  Capacity is a power of two at most half full, so linear
  // probe chains stay short and a lookup is branch-predictable.
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t entry_plus_one = 0;
  };

  std::size_t slot_index(std::uint32_t key) const {
    // Fibonacci multiply-shift: cheap and mixes the ASN half (the
    // varying half of blackhole communities) into the high bits.
    return (key * 0x9E3779B1u) >> slot_shift_;
  }

  std::vector<Slot> slots_;
  std::size_t slot_mask_ = 0;
  unsigned slot_shift_ = 32;
  std::vector<EntryView> entries_;

  // Dense pools backing the entry spans.
  std::vector<Asn> provider_pool_;
  std::vector<std::uint32_t> ixp_pool_;

  std::vector<LargeEntry> large_;  // sorted by (global, l1, l2)
};

}  // namespace bgpbh::dictionary
