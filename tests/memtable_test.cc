// Oracle test of the chunked memtable: random put/delete/get/lower-bound
// walk/drain/load streams run against a `std::map` holding the freshest
// version of each key, at sizes below one chunk, across chunk splits, and
// at a 2^20-entry buffer. `size()` must count distinct keys (tombstones
// included), since the flush trigger compares it to the buffer capacity.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "lsm/entry.h"
#include "lsm/memtable.h"
#include "util/random.h"

namespace camal::lsm {
namespace {

using Oracle = std::map<uint64_t, Entry>;

std::vector<Entry> Contents(const Oracle& oracle) {
  std::vector<Entry> out;
  out.reserve(oracle.size());
  for (const auto& [key, e] : oracle) out.push_back(e);
  return out;
}

void ExpectFind(const Memtable& mem, const Oracle& oracle, uint64_t key) {
  const Entry* got = mem.Find(key);
  const auto it = oracle.find(key);
  if (it == oracle.end()) {
    EXPECT_EQ(got, nullptr) << "key " << key;
    return;
  }
  ASSERT_NE(got, nullptr) << "key " << key;
  EXPECT_EQ(*got, it->second) << "key " << key;
}

/// Walks up to `limit` entries from `start` in both tables.
void ExpectWalk(const Memtable& mem, const Oracle& oracle, uint64_t start,
                size_t limit) {
  Memtable::Cursor c = mem.LowerBound(start);
  auto it = oracle.lower_bound(start);
  for (size_t i = 0; i < limit; ++i, ++it, c.advance()) {
    if (it == oracle.end()) {
      EXPECT_TRUE(c.done()) << "start " << start << " step " << i;
      return;
    }
    ASSERT_FALSE(c.done()) << "start " << start << " step " << i;
    ASSERT_EQ(c.head(), it->second) << "start " << start << " step " << i;
  }
}

/// Runs `ops` random operations over keys in [0, key_space), checking
/// every answer and `size()` against the oracle as it goes.
void RunStream(uint64_t seed, uint64_t key_space, size_t ops) {
  util::Random rng(seed);
  Memtable mem;
  Oracle oracle;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t key = rng.Uniform(key_space);
    const uint64_t dice = rng.Uniform(1000);
    if (dice < 450) {
      const Entry e{key, rng.Next(), false};
      mem.Put(e.key, e.value, e.tombstone);
      oracle[key] = e;
    } else if (dice < 600) {
      mem.Put(key, 0, true);
      oracle[key] = Entry{key, 0, true};
    } else if (dice < 900) {
      ExpectFind(mem, oracle, key);
    } else if (dice < 995) {
      ExpectWalk(mem, oracle, key, 1 + rng.Uniform(300));
    } else if (dice < 998) {
      ASSERT_EQ(mem.DrainSorted(), Contents(oracle));
      oracle.clear();
    } else {
      // Reload what the table holds, as a hibernated tree's restore does.
      const std::vector<Entry> entries = mem.DrainSorted();
      mem.LoadSorted(entries);
    }
    ASSERT_EQ(mem.size(), oracle.size()) << "op " << i;
    ASSERT_EQ(mem.empty(), oracle.empty());
  }
  EXPECT_EQ(mem.Sorted(), Contents(oracle));
  ExpectWalk(mem, oracle, 0, oracle.size() + 1);
}

TEST(MemtableOracleTest, BelowOneChunk) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RunStream(seed, Memtable::kChunkEntries / 2, 4000);
  }
}

TEST(MemtableOracleTest, AcrossChunkSplits) {
  for (uint64_t seed = 11; seed <= 13; ++seed) RunStream(seed, 20000, 60000);
}

TEST(MemtableOracleTest, TombstonesAreOverwrittenInPlace) {
  Memtable mem;
  for (uint64_t k = 0; k < 1000; ++k) mem.Put(k, k, true);
  for (uint64_t k = 0; k < 1000; k += 2) mem.Put(k, k + 7, false);
  ASSERT_EQ(mem.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    const Entry* e = mem.Find(k);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->tombstone, k % 2 == 1);
    EXPECT_EQ(e->value, k % 2 == 0 ? k + 7 : k);
  }
}

TEST(MemtableOracleTest, MillionEntryBuffer) {
  constexpr uint64_t kEntries = uint64_t{1} << 20;
  util::Random rng(21);
  Memtable mem;
  Oracle oracle;
  // Random keys until the table holds 2^20 distinct ones.
  while (oracle.size() < kEntries) {
    const uint64_t key = rng.Next();
    const bool tombstone = rng.Uniform(8) == 0;
    const Entry e{key, tombstone ? 0 : key ^ 0x5555, tombstone};
    mem.Put(e.key, e.value, e.tombstone);
    oracle[key] = e;
  }
  ASSERT_EQ(mem.size(), kEntries);
  for (int i = 0; i < 20000; ++i) ExpectFind(mem, oracle, rng.Next());
  for (const auto& [key, e] : oracle) {
    const Entry* got = mem.Find(key);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(*got, e);
  }
  for (int i = 0; i < 200; ++i) ExpectWalk(mem, oracle, rng.Next(), 100);
  EXPECT_EQ(mem.DrainSorted(), Contents(oracle));
  EXPECT_TRUE(mem.empty());
}

}  // namespace
}  // namespace camal::lsm
