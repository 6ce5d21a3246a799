// Byte-buffer primitives for wire encoding and socket I/O.
//
// ByteWriter appends to a caller-owned std::vector<uint8_t>; ByteReader is a
// non-owning cursor over a span of bytes and reports truncation/overflow as
// Status instead of throwing (decode runs on untrusted network input).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace md {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

inline BytesView AsBytes(std::string_view s) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

inline std::string_view AsStringView(BytesView b) noexcept {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Appends fixed-width little-endian integers, varints and length-prefixed
/// blobs to a byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) noexcept : out_(out) {}

  void WriteU8(std::uint8_t v) { out_.push_back(v); }

  void WriteU16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void WriteU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void WriteU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// LEB128 unsigned varint (1–10 bytes).
  void WriteVarint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  void WriteBytes(BytesView data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  /// Varint length prefix followed by the raw bytes.
  void WriteLengthPrefixed(BytesView data) {
    WriteVarint(data.size());
    WriteBytes(data);
  }

  void WriteString(std::string_view s) { WriteLengthPrefixed(AsBytes(s)); }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

 private:
  Bytes& out_;
};

/// Stream-frames the body already written at out[bodyStart..] in place: its
/// varint length goes in front of it, inside the vector's spare capacity
/// when there is room. Encoders write a body straight into its destination
/// and then frame it this way, so no frame passes through a scratch buffer.
inline void PrefixVarintLength(Bytes& out, std::size_t bodyStart) {
  std::uint8_t prefix[10];
  std::size_t n = 0;
  std::uint64_t len = out.size() - bodyStart;
  while (len >= 0x80) {
    prefix[n++] = static_cast<std::uint8_t>(len) | 0x80;
    len >>= 7;
  }
  prefix[n++] = static_cast<std::uint8_t>(len);
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(bodyStart), prefix, prefix + n);
}

/// Cursor over immutable bytes; every read checks bounds.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == data_.size(); }

  Status ReadU8(std::uint8_t& out) noexcept {
    if (remaining() < 1) return Truncated();
    out = data_[pos_++];
    return OkStatus();
  }

  Status ReadU16(std::uint16_t& out) noexcept {
    if (remaining() < 2) return Truncated();
    out = static_cast<std::uint16_t>(data_[pos_] |
                                     (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return OkStatus();
  }

  Status ReadU32(std::uint32_t& out) noexcept {
    if (remaining() < 4) return Truncated();
    out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return OkStatus();
  }

  Status ReadU64(std::uint64_t& out) noexcept {
    if (remaining() < 8) return Truncated();
    out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return OkStatus();
  }

  Status ReadVarint(std::uint64_t& out) noexcept {
    out = 0;
    int shift = 0;
    while (true) {
      if (remaining() < 1) return Truncated();
      if (shift >= 64) return Err(ErrorCode::kProtocol, "varint too long");
      const std::uint8_t byte = data_[pos_++];
      // Guard against bits shifted past 64 in the final byte.
      if (shift == 63 && (byte & 0x7E) != 0) {
        return Err(ErrorCode::kProtocol, "varint overflow");
      }
      out |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return OkStatus();
      shift += 7;
    }
  }

  Status ReadBytes(std::size_t n, BytesView& out) noexcept {
    if (remaining() < n) return Truncated();
    out = data_.subspan(pos_, n);
    pos_ += n;
    return OkStatus();
  }

  Status ReadLengthPrefixed(BytesView& out) noexcept {
    std::uint64_t len = 0;
    if (Status s = ReadVarint(len); !s.ok()) return s;
    if (len > remaining()) return Truncated();
    return ReadBytes(static_cast<std::size_t>(len), out);
  }

  Status ReadString(std::string& out) {
    BytesView view;
    if (Status s = ReadLengthPrefixed(view); !s.ok()) return s;
    out.assign(AsStringView(view));
    return OkStatus();
  }

  Status Skip(std::size_t n) noexcept {
    if (remaining() < n) return Truncated();
    pos_ += n;
    return OkStatus();
  }

 private:
  static Status Truncated() { return Err(ErrorCode::kProtocol, "truncated input"); }

  BytesView data_;
  std::size_t pos_ = 0;
};

/// Growable FIFO of bytes used for socket read/write buffering. Amortizes
/// front-consumption by tracking a read offset and compacting lazily.
class ByteQueue {
 public:
  void Append(BytesView data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void Append(std::string_view data) { Append(AsBytes(data)); }

  [[nodiscard]] BytesView Peek() const noexcept {
    return BytesView(buf_).subspan(head_);
  }

  void Consume(std::size_t n) noexcept {
    head_ += n;
    // Compact when the dead prefix dominates to keep memory bounded.
    if (head_ > 4096 && head_ * 2 > buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size() - head_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  void Clear() noexcept {
    buf_.clear();
    head_ = 0;
  }

 private:
  Bytes buf_;
  std::size_t head_ = 0;
};

}  // namespace md
