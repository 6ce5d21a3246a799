// Znode schema for elastic membership and partition assignment (DESIGN.md
// §12). Pure key/value helpers shared by ClusterNode and tests — the actual
// watches and writes go through coord::CoordNode.
//
//   members/<serverId>   ephemeral; value = the member's fence epoch. Created
//                        on join after the fence key is bumped; vanishes on
//                        session expiry (crash) or graceful leave.
//   fence/<serverId>     persistent; every (re)join Puts it and the linearized
//                        version returned by the Raft commit *is* the member's
//                        fence epoch — monotone across incarnations for free.
//   assign/<partition>   persistent ownership record "owner@epoch", written by
//                        the new owner once a hand-off slice is durable.
//                        Watchable by anyone routing around a move.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace md::coord {

inline constexpr std::string_view kMemberPrefix = "members/";
inline constexpr std::string_view kFencePrefix = "fence/";
inline constexpr std::string_view kAssignPrefix = "assign/";

[[nodiscard]] inline std::string MemberKey(std::string_view serverId) {
  return std::string(kMemberPrefix) + std::string(serverId);
}

[[nodiscard]] inline std::string FenceKey(std::string_view serverId) {
  return std::string(kFencePrefix) + std::string(serverId);
}

[[nodiscard]] inline std::string AssignKey(std::uint32_t partition) {
  return std::string(kAssignPrefix) + std::to_string(partition);
}

/// Value of an assign/<p> znode: which server owns the partition, sealed at
/// which fence epoch.
struct AssignmentRecord {
  std::string owner;
  std::uint32_t epoch = 0;
  friend bool operator==(const AssignmentRecord&,
                         const AssignmentRecord&) = default;
};

[[nodiscard]] inline std::string EncodeAssignment(const AssignmentRecord& rec) {
  return rec.owner + "@" + std::to_string(rec.epoch);
}

[[nodiscard]] inline std::optional<AssignmentRecord> ParseAssignment(
    std::string_view value) {
  const std::size_t at = value.rfind('@');
  if (at == std::string_view::npos || at == 0 || at + 1 >= value.size()) {
    return std::nullopt;
  }
  AssignmentRecord rec;
  rec.owner = std::string(value.substr(0, at));
  std::uint64_t epoch = 0;
  for (const char c : value.substr(at + 1)) {
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
    if (epoch > 0xFFFFFFFFULL) return std::nullopt;
  }
  rec.epoch = static_cast<std::uint32_t>(epoch);
  return rec;
}

/// Value of a members/<id> znode (the member's fence epoch), or nullopt if
/// malformed.
[[nodiscard]] inline std::optional<std::uint32_t> ParseMemberEpoch(
    std::string_view value) {
  if (value.empty()) return std::nullopt;
  std::uint64_t epoch = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
    if (epoch > 0xFFFFFFFFULL) return std::nullopt;
  }
  return static_cast<std::uint32_t>(epoch);
}

}  // namespace md::coord
