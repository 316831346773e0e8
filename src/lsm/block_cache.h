#ifndef CAMAL_LSM_BLOCK_CACHE_H_
#define CAMAL_LSM_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace camal::lsm {

/// An immutable block's bytes. Shared ownership lets a cache hit hand the
/// caller a reference instead of a copy (runs are append-only, so a block
/// never changes once read) and keeps a block a reader holds alive across
/// an eviction.
using BlockPtr = std::shared_ptr<const std::vector<char>>;

/// LRU block cache keyed by (run id, block index), used by both engines.
///
/// The simulated tree only tracks residency (hit or miss decides whether a
/// read is charged); the file engine also stores each block's bytes as the
/// entry's payload, which is null on the sim. Only caches read-path block
/// accesses; compaction I/O bypasses the cache, matching the paper's
/// direct-I/O RocksDB setup where compactions do not pollute the block
/// cache.
class BlockCache {
 public:
  /// `capacity_blocks` = Mc / block size; 0 disables caching.
  explicit BlockCache(uint64_t capacity_blocks = 0);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Composes a cache key from a run id and a block index within the run.
  static uint64_t MakeKey(uint64_t run_id, uint64_t block_idx) {
    return (run_id << kBlockBits) | (block_idx & kBlockMask);
  }

  /// Splits a key made by `MakeKey` back into (run id, block index).
  static std::pair<uint64_t, uint64_t> SplitKey(uint64_t key) {
    return {key >> kBlockBits, key & kBlockMask};
  }

  /// Returns true on hit, promotes the block to most-recently-used and,
  /// when `payload` is given, hands back the block's bytes.
  bool Lookup(uint64_t key, BlockPtr* payload = nullptr);

  /// Whether the block is resident, handing back its bytes when `payload`
  /// is given; neither promotes nor counts a hit or a miss.
  bool Peek(uint64_t key, BlockPtr* payload = nullptr) const;

  /// Inserts a block (promoting and replacing the payload of a resident
  /// one), evicting the least-recently-used block if full.
  void Insert(uint64_t key, BlockPtr payload = nullptr);

  /// Changes capacity; evicts immediately if shrinking.
  void Resize(uint64_t capacity_blocks);

  /// Drops every cached block (e.g. when the underlying run is deleted the
  /// blocks become dead weight; we conservatively keep them, but tests use
  /// Clear()).
  void Clear();

  uint64_t capacity_blocks() const { return capacity_; }
  uint64_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Complete cache state in a compact form: capacity, the resident keys
  /// in MRU-to-LRU order, and the hit/miss counters. Restoring it
  /// reproduces every future lookup/insert/eviction decision exactly.
  struct FrozenState {
    uint64_t capacity = 0;
    std::vector<uint64_t> keys_mru_to_lru;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// Exports the current state and clears the cache (shard hibernation).
  FrozenState Freeze();

  /// Replaces the current state with `state` (shard wake-up).
  void Restore(const FrozenState& state);

 private:
  void EvictToCapacity();

  static constexpr int kBlockBits = 22;
  static constexpr uint64_t kBlockMask = (1ULL << kBlockBits) - 1;
  using Lru = std::list<std::pair<uint64_t, BlockPtr>>;

  uint64_t capacity_;
  Lru lru_;  // (key, payload); front = most recently used
  std::unordered_map<uint64_t, Lru::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace camal::lsm

#endif  // CAMAL_LSM_BLOCK_CACHE_H_
