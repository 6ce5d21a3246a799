// Subscriber-partition assignment for the elastic cluster (DESIGN.md §12).
//
// Sessions are bucketed into a fixed number of subscriber partitions by
// client-id hash; partitions are mapped onto the live members with rendezvous
// (highest-random-weight) hashing. Every node computes the same assignment
// from the same member set with no coordination round, and a join/leave moves
// only the partitions whose top-ranked owner changed — the minimal-movement
// property that keeps a hand-off wave proportional to the membership delta,
// not to the cluster size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"

namespace md::cluster {

/// One computed partition -> owner map. Index = partition id.
struct Assignment {
  std::vector<std::string> owners;

  friend bool operator==(const Assignment&, const Assignment&) = default;

  [[nodiscard]] const std::string& OwnerOf(std::uint32_t partition) const {
    static const std::string kNone;
    return partition < owners.size() ? owners[partition] : kNone;
  }
};

class Rebalancer {
 public:
  /// Which subscriber partition a client's sessions belong to.
  [[nodiscard]] static std::uint32_t PartitionOf(std::string_view clientId,
                                                 std::uint32_t partitions) {
    return partitions == 0
               ? 0
               : static_cast<std::uint32_t>(Fnv1a64(clientId) % partitions);
  }

  /// Rendezvous score of `member` for `partition`; the member with the
  /// highest score owns the partition. Mixing the two hashes keeps scores
  /// independent per (member, partition) pair.
  [[nodiscard]] static std::uint64_t Score(const std::string& member,
                                           std::uint32_t partition) {
    return MixU64(Fnv1a64(member) ^
                  MixU64(0x9E3779B97F4A7C15ULL * (partition + 1)));
  }

  /// The owner of `partition` among `members` (ties broken by name so the
  /// result is total even for adversarial hash collisions). Empty member set
  /// means no owner — the caller parks work until membership is known.
  [[nodiscard]] static std::string OwnerOf(
      std::uint32_t partition, const std::vector<std::string>& members) {
    std::string best;
    std::uint64_t bestScore = 0;
    for (const std::string& m : members) {
      const std::uint64_t score = Score(m, partition);
      if (best.empty() || score > bestScore ||
          (score == bestScore && m < best)) {
        best = m;
        bestScore = score;
      }
    }
    return best;
  }

  /// Full assignment of `partitions` partitions over `members`.
  [[nodiscard]] static Assignment Compute(
      std::uint32_t partitions, const std::vector<std::string>& members) {
    Assignment a;
    a.owners.resize(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p) {
      a.owners[p] = OwnerOf(p, members);
    }
    return a;
  }
};

}  // namespace md::cluster
