#ifndef CAMAL_LSM_BLOCK_CACHE_H_
#define CAMAL_LSM_BLOCK_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace camal::lsm {

/// A heap buffer of one or more blocks, aligned to `align` so O_DIRECT
/// reads and writes use it directly. An alignment the plain `operator new`
/// already gives uses it, which wastes no heap on padding; either way it
/// comes from a replaceable `operator new`, so heap accounting sees it.
class Block {
 public:
  Block(size_t bytes, size_t align);
  ~Block();

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  char* data() { return data_; }
  const char* data() const { return data_; }

 private:
  char* data_;
  size_t align_;
};

/// An immutable block's bytes. Shared ownership lets a cache hit hand the
/// caller a reference instead of a copy (runs are append-only, so a block
/// never changes once read) and keeps a block a reader holds alive across
/// an eviction. A buffer is read into again only once nothing else holds
/// it (`use_count() == 1`).
using BlockPtr = std::shared_ptr<const Block>;

/// Open-addressing map from a 64-bit key to a 32-bit value: linear
/// probing at a load of at most 1/2, with backward-shift erase, so no
/// tombstones build up. The table only grows; once it has reached its
/// working size, inserts and erases allocate nothing.
class KeyIndex {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// The value stored for `key`, or `kNone`.
  uint32_t Find(uint64_t key) const {
    if (size_ == 0) return kNone;
    return table_[SlotOf(key)].value;
  }

  /// Maps an absent `key` to `value` (not `kNone`).
  void Insert(uint64_t key, uint32_t value);

  /// Removes a present `key`.
  void Erase(uint64_t key);

  /// Removes every key and frees the table.
  void Release();

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = kNone;  // kNone: empty
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The slot holding `key`, or the empty slot that ends its probe.
  size_t SlotOf(uint64_t key) const {
    const size_t mask = table_.size() - 1;
    size_t i = Home(key);
    while (table_[i].value != kNone && table_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  std::vector<Slot> table_;  // empty, or a power of two in size
  int shift_ = 64;           // 64 - log2(table size)
  size_t size_ = 0;
};

/// Exact-LRU block cache keyed by (run id, block index), used by both
/// engines.
///
/// The simulated tree only tracks residency (hit or miss decides whether a
/// read is charged); the file engine also stores each block's bytes as the
/// entry's payload, which is null on the sim. Only caches read-path block
/// accesses; compaction I/O bypasses the cache, matching the paper's
/// direct-I/O RocksDB setup where compactions do not pollute the block
/// cache.
///
/// Layout: the recency list is threaded through a node array by index,
/// with a free list of unused nodes, and keys map to nodes through a
/// `KeyIndex`. Neither grows once the cache has been full, so a warm
/// cache's lookups, inserts and evictions allocate nothing.
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

  /// Inserts a block as most-recently-used (promoting and replacing the
  /// payload of a resident one), evicting the least-recently-used block
  /// if full. Returns the payload that left the cache: the evicted
  /// block's, the replaced one, or `payload` itself when the capacity is
  /// 0; null when none did.
  BlockPtr Insert(uint64_t key, BlockPtr payload = nullptr);

  /// Changes capacity; evicts immediately if shrinking.
  void Resize(uint64_t capacity_blocks);

  /// Drops every cached block and frees the cache's storage.
  void Clear();

  uint64_t capacity_blocks() const { return capacity_; }
  uint64_t size() const { return index_.size(); }
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
  static constexpr int kBlockBits = 22;
  static constexpr uint64_t kBlockMask = (1ULL << kBlockBits) - 1;
  static constexpr uint32_t kNil = KeyIndex::kNone;

  struct Node {
    uint64_t key = 0;
    BlockPtr payload;
    uint32_t newer = kNil;  // toward the MRU end
    uint32_t older = kNil;  // toward the LRU end; the free list's link
  };

  /// A node off the free list, or a new one.
  uint32_t NewNode(uint64_t key, BlockPtr payload);
  /// Links node `n` in at the MRU end, or at the LRU end with `at_lru`.
  void Link(uint32_t n, bool at_lru = false);
  void Unlink(uint32_t n);
  /// Removes the least-recently-used block, returning its payload.
  BlockPtr EvictLru();

  uint64_t capacity_;
  std::vector<Node> nodes_;  // resident and free nodes
  KeyIndex index_;           // key -> node
  uint32_t mru_ = kNil;
  uint32_t lru_ = kNil;
  uint32_t free_ = kNil;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace camal::lsm

#endif  // CAMAL_LSM_BLOCK_CACHE_H_
