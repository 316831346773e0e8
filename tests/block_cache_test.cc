#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/file_engine.h"
#include "engine/io_ring.h"
#include "lsm/block_cache.h"
#include "util/random.h"

namespace camal::lsm {
namespace {

TEST(BlockCacheTest, MissThenHit) {
  BlockCache cache(4);
  EXPECT_FALSE(cache.Lookup(1));
  cache.Insert(1);
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  EXPECT_TRUE(cache.Lookup(1));  // promote 1; LRU is now 2
  cache.Insert(3);               // evicts 2
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_FALSE(cache.Lookup(2));
  EXPECT_TRUE(cache.Lookup(3));
}

TEST(BlockCacheTest, ZeroCapacityNeverCaches) {
  BlockCache cache(0);
  cache.Insert(1);
  EXPECT_FALSE(cache.Lookup(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCacheTest, ReinsertPromotes) {
  BlockCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(1);  // promote, not duplicate
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(3);  // evicts 2
  EXPECT_FALSE(cache.Lookup(2));
  EXPECT_TRUE(cache.Lookup(1));
}

TEST(BlockCacheTest, ResizeShrinkEvicts) {
  BlockCache cache(4);
  for (uint64_t k = 1; k <= 4; ++k) cache.Insert(k);
  cache.Resize(2);
  EXPECT_EQ(cache.size(), 2u);
  // The two most recently used (3, 4) survive.
  EXPECT_TRUE(cache.Lookup(4));
  EXPECT_TRUE(cache.Lookup(3));
  EXPECT_FALSE(cache.Lookup(1));
}

TEST(BlockCacheTest, ResizeGrowKeepsContents) {
  BlockCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  cache.Resize(8);
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_TRUE(cache.Lookup(2));
}

TEST(BlockCacheTest, ClearEmpties) {
  BlockCache cache(4);
  cache.Insert(1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(1));
}

TEST(BlockCacheTest, MakeKeyDistinguishesRunsAndBlocks) {
  EXPECT_NE(BlockCache::MakeKey(1, 0), BlockCache::MakeKey(2, 0));
  EXPECT_NE(BlockCache::MakeKey(1, 0), BlockCache::MakeKey(1, 1));
}

TEST(BlockCacheTest, LookupHandsBackThePayload) {
  BlockCache cache(2);
  BlockPtr bytes = std::make_shared<const Block>(8, 8);
  cache.Insert(7, bytes);
  cache.Insert(8);  // residency only, as on the sim
  BlockPtr got;
  ASSERT_TRUE(cache.Lookup(7, &got));
  EXPECT_EQ(got, bytes);  // the same buffer, not a copy
  ASSERT_TRUE(cache.Lookup(8, &got));
  EXPECT_EQ(got, nullptr);
  // Re-inserting a resident block replaces its payload.
  BlockPtr newer = std::make_shared<const Block>(8, 8);
  cache.Insert(7, newer);
  ASSERT_TRUE(cache.Lookup(7, &got));
  EXPECT_EQ(got, newer);
}

TEST(BlockCacheTest, PeekNeitherPromotesNorCounts) {
  BlockCache cache(2);
  BlockPtr bytes = std::make_shared<const Block>(8, 8);
  cache.Insert(1, bytes);
  cache.Insert(2);
  BlockPtr got;
  ASSERT_TRUE(cache.Peek(1, &got));  // 1 stays least recently used
  EXPECT_EQ(got, bytes);
  EXPECT_FALSE(cache.Peek(3));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  cache.Insert(3);  // evicts 1, which the peek did not promote
  EXPECT_FALSE(cache.Peek(1));
  EXPECT_TRUE(cache.Peek(2));
  EXPECT_TRUE(cache.Peek(3));
}

TEST(BlockCacheTest, MakeKeyRoundTripsThroughSplitKey) {
  for (uint64_t run : {uint64_t{0}, uint64_t{1}, uint64_t{12345}}) {
    for (uint64_t block : {uint64_t{0}, uint64_t{1}, (uint64_t{1} << 22) - 1}) {
      const auto [got_run, got_block] =
          BlockCache::SplitKey(BlockCache::MakeKey(run, block));
      EXPECT_EQ(got_run, run);
      EXPECT_EQ(got_block, block);
    }
  }
}

// ----------------------------------------------------------- differential

/// The cache as a `std::list` recency order plus a `std::unordered_map`
/// key table: the layout `BlockCache` had before its node array and
/// open-addressing index, kept as the oracle for hits, misses and
/// eviction order. `Insert` hands back what left the cache, as
/// `BlockCache::Insert` does.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Lookup(uint64_t key, BlockPtr* payload) {
    auto it = map_.find(key);
    if (capacity_ == 0 || it == map_.end()) {
      ++misses_;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    *payload = it->second->second;
    return true;
  }

  bool Peek(uint64_t key, BlockPtr* payload) const {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    *payload = it->second->second;
    return true;
  }

  BlockPtr Insert(uint64_t key, BlockPtr payload) {
    if (capacity_ == 0) return payload;
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      std::swap(it->second->second, payload);
      return payload;
    }
    lru_.emplace_front(key, std::move(payload));
    map_[key] = lru_.begin();
    BlockPtr evicted;
    while (map_.size() > capacity_) evicted = PopBack();
    return evicted;
  }

  void Resize(uint64_t capacity) {
    capacity_ = capacity;
    while (map_.size() > capacity_) PopBack();
  }

  BlockCache::FrozenState Freeze() {
    BlockCache::FrozenState state;
    state.capacity = capacity_;
    for (const auto& [key, payload] : lru_) {
      state.keys_mru_to_lru.push_back(key);
    }
    state.hits = hits_;
    state.misses = misses_;
    lru_.clear();
    map_.clear();
    return state;
  }

  void Restore(const BlockCache::FrozenState& state) {
    lru_.clear();
    map_.clear();
    capacity_ = state.capacity;
    hits_ = state.hits;
    misses_ = state.misses;
    for (uint64_t key : state.keys_mru_to_lru) {
      lru_.emplace_back(key, nullptr);
      map_[key] = std::prev(lru_.end());
    }
  }

  uint64_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  BlockPtr PopBack() {
    BlockPtr payload = std::move(lru_.back().second);
    map_.erase(lru_.back().first);
    lru_.pop_back();
    return payload;
  }

  using Lru = std::list<std::pair<uint64_t, BlockPtr>>;
  uint64_t capacity_;
  Lru lru_;  // front = most recently used
  std::unordered_map<uint64_t, Lru::iterator> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Runs `ops` random Lookup/Insert/Peek/Resize/Freeze/Restore operations
/// over keys in [0, key_space) on both caches, requiring the same answer,
/// the same payload back and the same counters after every one, and the
/// same MRU-to-LRU order at every freeze.
void RunDifferential(uint64_t seed, uint64_t key_space, uint64_t max_capacity,
                     size_t ops) {
  util::Random rng(seed);
  std::vector<BlockPtr> payloads;
  for (int i = 0; i < 64; ++i) {
    payloads.push_back(std::make_shared<const Block>(8, 8));
  }
  const uint64_t capacity = rng.Uniform(max_capacity + 1);
  BlockCache cache(capacity);
  ReferenceLru ref(capacity);
  for (size_t i = 0; i < ops; ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const uint64_t key = rng.Uniform(key_space);
    const uint64_t dice = rng.Uniform(100);
    BlockPtr got, want;
    if (dice < 40) {
      ASSERT_EQ(cache.Lookup(key, &got), ref.Lookup(key, &want));
      ASSERT_EQ(got, want);
    } else if (dice < 80) {
      // Mostly real payloads, sometimes null ones, as the sim inserts.
      const BlockPtr payload =
          rng.Uniform(4) == 0 ? nullptr : payloads[rng.Uniform(64)];
      ASSERT_EQ(cache.Insert(key, payload), ref.Insert(key, payload));
    } else if (dice < 94) {
      ASSERT_EQ(cache.Peek(key, &got), ref.Peek(key, &want));
      ASSERT_EQ(got, want);
    } else if (dice < 98) {
      const uint64_t c = rng.Uniform(max_capacity + 1);
      cache.Resize(c);
      ref.Resize(c);
    } else {
      const BlockCache::FrozenState a = cache.Freeze();
      const BlockCache::FrozenState b = ref.Freeze();
      ASSERT_EQ(a.capacity, b.capacity);
      ASSERT_EQ(a.keys_mru_to_lru, b.keys_mru_to_lru);
      ASSERT_EQ(cache.size(), 0u);
      cache.Restore(a);
      ref.Restore(b);
    }
    ASSERT_EQ(cache.size(), ref.size());
    ASSERT_EQ(cache.hits(), ref.hits());
    ASSERT_EQ(cache.misses(), ref.misses());
  }
  EXPECT_EQ(cache.Freeze().keys_mru_to_lru, ref.Freeze().keys_mru_to_lru);
}

TEST(BlockCacheDifferentialTest, SmallCacheMatchesTheListLru) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunDifferential(seed, 48, 16, 5000);
  }
}

TEST(BlockCacheDifferentialTest, LargeCacheMatchesTheListLru) {
  for (uint64_t seed = 31; seed <= 33; ++seed) {
    RunDifferential(seed, 6000, 4000, 100000);
  }
}

// ------------------------------------------------------------- recycling

// A one-block cache in front of a shard with several runs: every run
// cursor of a scan keeps the block under its position while the other
// cursors' reads evict it, and each miss reads into a recycled buffer
// when one is free. A buffer a cursor (or a ring window) still holds
// must never be read into; if one were, the scan would return another
// block's records.
TEST(BlockCacheRecyclingTest, ScansAcrossRunsWithAOneBlockCache) {
  std::vector<uint32_t> depths = {1};
  if (engine::fileio::IoRingSupported()) depths.push_back(8);
  for (const uint32_t depth : depths) {
    SCOPED_TRACE("queue depth " + std::to_string(depth));
    Options opts;
    opts.policy = CompactionPolicy::kTiering;  // up to 10 runs per level
    opts.buffer_bytes = 300 * opts.entry_bytes;
    opts.bloom_bits = 10 * 4000;
    opts.block_cache_bytes = 4096;  // one block
    engine::FileEngineConfig cfg;
    cfg.workdir = ::testing::TempDir() + "/camal_cache_recycling_" +
                  std::to_string(engine::FileEngine::NextUniqueId());
    cfg.io_queue_depth = depth;
    engine::FileEngine eng(1, opts, cfg);

    util::Random rng(5);
    std::map<uint64_t, uint64_t> oracle;
    for (uint64_t i = 0; i < 1500; ++i) {
      const uint64_t key = rng.Uniform(3000);
      if (rng.Uniform(10) == 0) {
        eng.Delete(key);
        oracle.erase(key);
      } else {
        eng.Put(key, i + 1);
        oracle[key] = i + 1;
      }
    }
    ASSERT_GE(eng.ShardRunCount(0), 4u);

    for (int s = 0; s < 300; ++s) {
      const uint64_t start = rng.Uniform(3200);
      const size_t len = 1 + rng.Uniform(400);
      std::vector<Entry> got;
      eng.Scan(start, len, &got);
      std::vector<Entry> want;
      for (auto it = oracle.lower_bound(start);
           it != oracle.end() && want.size() < len; ++it) {
        want.push_back(Entry{it->first, it->second, false});
      }
      ASSERT_EQ(got, want) << "scan from " << start << " for " << len;
    }

    // Batched gets: on the ring path a window of 64 reads its blocks into
    // recycled buffers while the cache evicts them.
    std::vector<engine::Op> ops(64);
    std::vector<engine::OpResult> results(ops.size());
    for (int b = 0; b < 40; ++b) {
      for (engine::Op& op : ops) {
        op.kind = engine::OpKind::kGet;
        op.key = rng.Uniform(3200);
      }
      eng.ExecuteOps(ops.data(), ops.size(), results.data());
      for (size_t i = 0; i < ops.size(); ++i) {
        ASSERT_EQ(results[i].found, oracle.count(ops[i].key) == 1)
            << "key " << ops[i].key;
      }
    }
    for (int g = 0; g < 2000; ++g) {
      const uint64_t key = rng.Uniform(3200);
      uint64_t value = 0;
      const auto it = oracle.find(key);
      ASSERT_EQ(eng.Get(key, &value), it != oracle.end()) << "key " << key;
      if (it != oracle.end()) {
        ASSERT_EQ(value, it->second) << "key " << key;
      }
    }
  }
}

}  // namespace
}  // namespace camal::lsm
