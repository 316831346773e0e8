#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "lsm/block_cache.h"

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
  auto bytes = std::make_shared<const std::vector<char>>(
      std::vector<char>{'a', 'b', 'c'});
  cache.Insert(7, bytes);
  cache.Insert(8);  // residency only, as on the sim
  BlockPtr got;
  ASSERT_TRUE(cache.Lookup(7, &got));
  EXPECT_EQ(got, bytes);  // the same buffer, not a copy
  ASSERT_TRUE(cache.Lookup(8, &got));
  EXPECT_EQ(got, nullptr);
  // Re-inserting a resident block replaces its payload.
  auto newer = std::make_shared<const std::vector<char>>(
      std::vector<char>{'d'});
  cache.Insert(7, newer);
  ASSERT_TRUE(cache.Lookup(7, &got));
  EXPECT_EQ(got, newer);
}

TEST(BlockCacheTest, PeekNeitherPromotesNorCounts) {
  BlockCache cache(2);
  auto bytes = std::make_shared<const std::vector<char>>(
      std::vector<char>{'x'});
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

}  // namespace
}  // namespace camal::lsm
