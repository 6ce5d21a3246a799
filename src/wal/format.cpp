#include "wal/format.hpp"

#include <array>
#include <charconv>

#include "common/bytes.hpp"

namespace md::wal {
namespace {

// CRC-32 lookup table (IEEE 802.3 reflected polynomial), built once.
std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& CrcTable() {
  static const std::array<std::uint32_t, 256> table = BuildCrcTable();
  return table;
}

constexpr std::size_t kIndexDigits = 20;  // UINT64_MAX has 20 digits

}  // namespace

std::uint32_t Crc32(BytesView data) noexcept {
  const auto& table = CrcTable();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::string SegmentFileName(std::uint64_t index) {
  std::string digits = std::to_string(index);
  return std::string(kIndexDigits - digits.size(), '0') + digits + ".wal";
}

std::optional<std::uint64_t> ParseSegmentFileName(const std::string& name) {
  if (name.size() != kIndexDigits + 4 || !name.ends_with(".wal")) {
    return std::nullopt;
  }
  const char* begin = name.data();
  const char* end = begin + kIndexDigits;
  std::uint64_t index = 0;
  auto [p, err] = std::from_chars(begin, end, index);
  if (err != std::errc{} || p != end) return std::nullopt;
  return index;
}

void EncodeSegmentHeader(Bytes& out) {
  ByteWriter writer(out);
  writer.WriteU32(kSegmentMagic);
  writer.WriteU32(kFormatVersion);
  writer.WriteU32(0);  // the version-1 group word, zero from version 2 on
  writer.WriteU32(0);  // reserved
}

Status DecodeSegmentHeader(BytesView data) {
  ByteReader reader(data);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t zero = 0;
  std::uint32_t reserved = 0;
  if (Status s = reader.ReadU32(magic); !s.ok()) return s;
  if (Status s = reader.ReadU32(version); !s.ok()) return s;
  if (Status s = reader.ReadU32(zero); !s.ok()) return s;
  if (Status s = reader.ReadU32(reserved); !s.ok()) return s;
  if (magic != kSegmentMagic) {
    return Err(ErrorCode::kProtocol, "bad segment magic");
  }
  if (version != kFormatVersion) {
    return Err(ErrorCode::kProtocol, "unsupported segment version");
  }
  if (zero != 0) {
    return Err(ErrorCode::kProtocol, "segment header word 3 not zero");
  }
  return OkStatus();
}

void EncodeRecord(const Message& msg, Bytes& out) {
  Bytes payload;
  ByteWriter body(payload);
  body.WriteString(msg.topic);
  body.WriteLengthPrefixed(msg.payload);
  body.WriteU32(msg.epoch);
  body.WriteU64(msg.seq);
  body.WriteU64(msg.pubId.clientHash);
  body.WriteU64(msg.pubId.counter);
  body.WriteU64(static_cast<std::uint64_t>(msg.publishTs));

  ByteWriter frame(out);
  frame.WriteU32(static_cast<std::uint32_t>(payload.size()));
  frame.WriteU32(Crc32(payload));
  frame.WriteBytes(payload);
}

Status DecodeRecordPayload(BytesView payload, Message* msg) {
  ByteReader reader(payload);
  Message out;
  if (Status s = reader.ReadString(out.topic); !s.ok()) return s;
  BytesView body;
  if (Status s = reader.ReadLengthPrefixed(body); !s.ok()) return s;
  out.payload.assign(body.begin(), body.end());
  if (Status s = reader.ReadU32(out.epoch); !s.ok()) return s;
  if (Status s = reader.ReadU64(out.seq); !s.ok()) return s;
  if (Status s = reader.ReadU64(out.pubId.clientHash); !s.ok()) return s;
  if (Status s = reader.ReadU64(out.pubId.counter); !s.ok()) return s;
  std::uint64_t ts = 0;
  if (Status s = reader.ReadU64(ts); !s.ok()) return s;
  out.publishTs = static_cast<std::int64_t>(ts);
  // Trailing bytes are tolerated: a future version may extend the record.
  *msg = std::move(out);
  return OkStatus();
}

SegmentScanner::SegmentScanner(BytesView data) : data_(data) {
  if (!DecodeSegmentHeader(data_).ok()) {
    badHeader_ = true;
    done_ = true;
    return;
  }
  offset_ = kSegmentHeaderLen;
}

bool SegmentScanner::Next(Message* msg) {
  while (!done_) {
    const std::size_t remaining = data_.size() - offset_;
    if (remaining < kRecordFrameLen) {
      // A clean close leaves exactly zero bytes; anything else is a torn
      // frame from a crash mid-append.
      torn_ = remaining != 0;
      done_ = true;
      return false;
    }
    ByteReader frame(data_.subspan(offset_, kRecordFrameLen));
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    (void)frame.ReadU32(len);
    (void)frame.ReadU32(crc);
    if (len == 0 || len > kMaxRecordLen) {
      // Zero-filled tail (preallocation / torn page) or garbage length: the
      // framing itself is gone, nothing beyond here can be trusted.
      torn_ = true;
      done_ = true;
      return false;
    }
    if (remaining - kRecordFrameLen < len) {
      torn_ = true;  // record cut off mid-payload
      done_ = true;
      return false;
    }
    const BytesView payload = data_.subspan(offset_ + kRecordFrameLen, len);
    offset_ += kRecordFrameLen + len;
    if (Crc32(payload) != crc) {
      // Sane framing, wrong checksum: a bit flip inside one record. Skip it
      // and keep going — later records are still intact.
      ++corruptSkipped_;
      continue;
    }
    if (!DecodeRecordPayload(payload, msg).ok()) {
      ++undecodable_;
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace md::wal
