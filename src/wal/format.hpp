// On-disk format of the durable topic-cache write-ahead log.
//
// A server keeps one journal: a single chain of segment files named by
// index alone, <index>.wal with the index zero-padded to 20 digits, shared
// by every topic group (a record carries its topic, which is all recovery
// needs to route it). A segment starts with a fixed 16-byte header and is
// followed by length-prefixed, CRC32-framed records:
//
//   segment header   [magic u32 "MDWL"][version u32][zero u32][reserved u32]
//   record           [len u32][crc32(payload) u32][payload: len bytes]
//
// Version 2 is the one-journal layout. The third header word held the
// topic group in version 1 (one chain per group, files g<group>-<index>.wal);
// it must now be zero, so a flipped bit there is caught like one in the
// magic or version. Version-1 segments are not read: recovery counts a
// leftover g<group>-<index>.wal as a bad segment and leaves it on disk.
//
// All integers are little-endian (matching common/bytes.hpp). A record's
// payload encodes one cached Message. The framing is designed so a
// recovery scan can always classify damage without crashing:
//
//   - fewer than 8 bytes left            -> torn tail, truncate here
//   - len == 0                           -> zero-filled tail, truncate here
//   - len > kMaxRecordLen                -> garbage length, truncate here
//   - fewer than len bytes left          -> torn record, truncate here
//   - CRC mismatch with sane framing     -> bit-flipped record: skip exactly
//                                           this record and keep scanning
//
// The distinction matters: torn damage only ever appears at the tail a crash
// produced, while a bit flip can land mid-file; skipping one record instead
// of truncating preserves the rest of the history (the cluster sync path
// backfills the hole from peers).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "proto/message.hpp"

namespace md::wal {

inline constexpr std::uint32_t kSegmentMagic = 0x4D44574CU;  // "LWDM" LE
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kSegmentHeaderLen = 16;
inline constexpr std::size_t kRecordFrameLen = 8;  // [len u32][crc u32]
/// Upper bound on a single record payload; anything larger in a length field
/// is treated as corruption, not an allocation request.
inline constexpr std::uint32_t kMaxRecordLen = 16U * 1024U * 1024U;

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over `data`.
[[nodiscard]] std::uint32_t Crc32(BytesView data) noexcept;

/// Segment file name for `index`: 20 zero-padded digits + ".wal", so the
/// names sort in index order.
[[nodiscard]] std::string SegmentFileName(std::uint64_t index);

/// Parses a segment file name back to its index; nullopt if `name` is not
/// one (a version-1 g<group>-<index>.wal name included).
[[nodiscard]] std::optional<std::uint64_t> ParseSegmentFileName(
    const std::string& name);

/// Appends the 16-byte segment header to `out`.
void EncodeSegmentHeader(Bytes& out);

/// Validates a segment header prefix. kProtocol when it is short, its magic
/// or version is wrong, or its zero word is not zero.
[[nodiscard]] Status DecodeSegmentHeader(BytesView data);

/// Appends one framed record ([len][crc][payload]) carrying `msg` to `out`.
void EncodeRecord(const Message& msg, Bytes& out);

/// Decodes a record payload back into a Message. Bounds-checked; never
/// throws, never reads past `payload`.
[[nodiscard]] Status DecodeRecordPayload(BytesView payload, Message* msg);

/// Forward scan over a segment's bytes with the damage rules above.
///
///   SegmentScanner scan(bytes);
///   while (scan.Next(&msg)) { ... }
///   // scan.torn() / scan.corruptSkipped() describe what the scan hit.
class SegmentScanner {
 public:
  /// `data` is the whole segment file including header.
  explicit SegmentScanner(BytesView data);

  /// Advances to the next intact record; false at end-of-segment (clean,
  /// torn or unusable header — never throws, never reads OOB).
  bool Next(Message* msg);

  /// Segment header was unreadable; no records were yielded.
  [[nodiscard]] bool badHeader() const { return badHeader_; }
  /// Scan stopped early at a torn / zero-filled / garbage-length tail.
  [[nodiscard]] bool torn() const { return torn_; }
  /// Well-framed records dropped for CRC mismatch (bit flips).
  [[nodiscard]] std::uint64_t corruptSkipped() const { return corruptSkipped_; }
  /// Records whose payload failed to decode despite a matching CRC (should
  /// not happen without a version skew; counted, skipped).
  [[nodiscard]] std::uint64_t undecodable() const { return undecodable_; }
  /// Offset of the first byte the scan did not consume as an intact record.
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  BytesView data_;
  std::size_t offset_ = 0;
  bool badHeader_ = false;
  bool torn_ = false;
  bool done_ = false;
  std::uint64_t corruptSkipped_ = 0;
  std::uint64_t undecodable_ = 0;
};

}  // namespace md::wal
