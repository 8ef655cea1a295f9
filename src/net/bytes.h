// Big-endian (network byte order) buffer reader/writer used by the BGP
// UPDATE codec, the MRT-subset codec, and the IPFIX codec.
//
// BufReader never throws: all accessors return false / nullopt on
// truncation and latch an error flag, so callers can parse a whole
// record and check ok() once at the end (the common pattern in wire
// parsers, avoids deep error plumbing).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace bgpbh::net {

class BufWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void str(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  // Patch a previously written big-endian u16/u32 at `pos`.
  void patch_u16(std::size_t pos, std::uint16_t v) {
    buf_[pos] = static_cast<std::uint8_t>(v >> 8);
    buf_[pos + 1] = static_cast<std::uint8_t>(v);
  }
  void patch_u32(std::size_t pos, std::uint32_t v) {
    patch_u16(pos, static_cast<std::uint16_t>(v >> 16));
    patch_u16(pos + 2, static_cast<std::uint16_t>(v));
  }

  std::size_t size() const { return buf_.size(); }
  // Empties the buffer but keeps its capacity, for a reused writer.
  void clear() { buf_.clear(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }

  // Reads n raw bytes; returns empty span (and latches error) on truncation.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (remaining() < n) {
      error_ = true;
      pos_ = data_.size();
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) { (void)bytes(n); }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t pos() const { return pos_; }
  bool ok() const { return !error_; }
  bool at_end() const { return pos_ == data_.size(); }

  // Sub-reader over the next n bytes (advances this reader).
  BufReader sub(std::size_t n) {
    auto b = bytes(n);
    return BufReader(b);
  }

 private:
  template <typename T>
  T read() {
    if (remaining() < sizeof(T)) {
      error_ = true;
      pos_ = data_.size();
      return T{};
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = (v << 8) | data_[pos_ + i];
    }
    pos_ += sizeof(T);
    return static_cast<T>(v);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool error_ = false;
};

}  // namespace bgpbh::net
