// Per-connection session state + the sharded live-session table.
//
// Extracted from Server's internals (DESIGN.md §15) so that (a) the
// footprint bench can allocate REAL sessions — same struct, same allocator,
// same table — instead of a model, and (b) the byte budget is auditable in
// one place: sizeof(Session) plus its slab slot are what the
// md_core_bytes_per_session gauge and bench_c10m's budget gate measure.
//
// Sessions are allocated with std::allocate_shared + SlabAllocator, which
// places the control block and the Session in ONE slab slot: connect/
// disconnect churn recycles freelist slots and performs zero heap
// allocations in steady state.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/slab.hpp"
#include "core/batcher.hpp"
#include "core/registry.hpp"
#include "transport/transport.hpp"

namespace md::core {

/// One client connection: the client front door's record of it
/// (core/front_door.hpp). Owned through a shared_ptr: the handle table, the
/// Workers' outboxes and the loop's timers hold references.
struct Session : std::enable_shared_from_this<Session> {
  // Protocol mode, auto-detected from the first bytes. Written only on the
  // session's IoThread (during the handshake, before any frame reaches a
  // Worker); read by Workers on the fan-out encode path, hence atomic.
  enum class Mode : std::uint8_t {
    kDetect,
    kWsHandshake,
    kWs,
    kHttpHandshake,
    kHttp,
    kRaw,
  };
  static constexpr std::size_t kModeCount = 6;
  std::atomic<Mode> mode{Mode::kDetect};
  [[nodiscard]] Mode CurrentMode() const noexcept {
    return mode.load(std::memory_order_relaxed);
  }

  // Slow-consumer state (core/backpressure.hpp), loop thread only.
  bool overSoft = false;
  bool evictTimerArmed = false;
  /// An eviction or the front door is closing the connection: nothing more
  /// is queued on it or parsed from it.
  bool closing = false;

  ClientHandle handle = 0;    // fixed at accept; the monitor's session key
  ConnectionPtr conn;
  EventLoop* loop = nullptr;  // runs the connection's handlers and timers
  std::size_t ioIndex = 0;
  ByteQueue in;

  // Set from CONNECT on the session's IoThread.
  std::string clientId;

  // IoThread-side outgoing batcher/conflator (nullptr when unused).
  std::unique_ptr<Batcher> batcher;
  bool flushTimerArmed = false;
  std::unique_ptr<Conflator> conflator;
  bool conflateTimerArmed = false;

  std::atomic<bool> open{true};
};

using SessionPtr = std::shared_ptr<Session>;

/// Allocates a Session through the slab arena: allocate_shared fuses the
/// shared_ptr control block with the object, so one slab slot holds both and
/// SlabArena::Stats() accounts the whole thing.
[[nodiscard]] inline SessionPtr MakeSession() {
  return std::allocate_shared<Session>(SlabAllocator<Session>{});
}

/// Live sessions (fan-out lookup by handle), sharded by a mixed handle hash
/// so concurrent Workers resolving fan-out targets never serialize on one
/// global mutex. Power-of-two count: shard selection is a mask.
class SessionTable {
 public:
  static constexpr std::size_t kShards = 16;
  static_assert((kShards & (kShards - 1)) == 0);

  void Insert(const SessionPtr& session) {
    Shard& shard = ShardOf(session->handle);
    std::lock_guard lock(shard.mutex);
    shard.map[session->handle] = session;
  }

  [[nodiscard]] SessionPtr Find(ClientHandle handle) const {
    const Shard& shard = ShardOf(handle);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.map.find(handle);
    return it == shard.map.end() ? nullptr : it->second;
  }

  void Erase(ClientHandle handle) {
    Shard& shard = ShardOf(handle);
    std::lock_guard lock(shard.mutex);
    shard.map.erase(handle);
  }

  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      shard.map.clear();
    }
  }

  /// Every live session, in handle order.
  [[nodiscard]] std::vector<SessionPtr> All() const {
    std::vector<SessionPtr> all;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      for (const auto& [handle, session] : shard.map) all.push_back(session);
    }
    std::ranges::sort(all, {}, [](const SessionPtr& s) { return s->handle; });
    return all;
  }

  /// Approximate bytes of the table itself (buckets + nodes), for the
  /// footprint accounting. The Sessions pointed to are slab-accounted.
  [[nodiscard]] std::size_t MemoryBytes() const {
    std::size_t total = sizeof(*this);
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      // libstdc++ node: key+value + hash-node header (~2 ptrs); buckets are
      // one pointer each.
      total += shard.map.bucket_count() * sizeof(void*) +
               shard.map.size() *
                   (sizeof(ClientHandle) + sizeof(SessionPtr) + 2 * sizeof(void*));
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<ClientHandle, SessionPtr> map;
  };

  [[nodiscard]] Shard& ShardOf(ClientHandle handle) {
    return shards_[MixU64(handle) & (kShards - 1)];
  }
  [[nodiscard]] const Shard& ShardOf(ClientHandle handle) const {
    return shards_[MixU64(handle) & (kShards - 1)];
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace md::core
