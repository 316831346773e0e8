#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/lsm_tree.h"
#include "util/random.h"

namespace camal::lsm {
namespace {

sim::DeviceConfig QuietDevice() {
  sim::DeviceConfig cfg;
  cfg.io_jitter_frac = 0.0;
  return cfg;
}

Options SmallOptions(CompactionPolicy policy = CompactionPolicy::kLeveling,
                     double t = 4.0) {
  Options opts;
  opts.policy = policy;
  opts.size_ratio = t;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 32;  // 32 entries
  opts.bloom_bits = 10 * 4096;
  opts.block_cache_bytes = 0;
  return opts;
}

TEST(LsmTreeTest, PutGetSingle) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(), &dev);
  tree.Put(42, 7);
  uint64_t value = 0;
  ASSERT_TRUE(tree.Get(42, &value));
  EXPECT_EQ(value, 7u);
  EXPECT_FALSE(tree.Get(43, &value));
}

TEST(LsmTreeTest, OverwriteReturnsLatest) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(), &dev);
  for (uint64_t i = 0; i < 200; ++i) tree.Put(5, i);
  uint64_t value = 0;
  ASSERT_TRUE(tree.Get(5, &value));
  EXPECT_EQ(value, 199u);
}

TEST(LsmTreeTest, DeleteHidesKeyAcrossFlushes) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(), &dev);
  for (uint64_t k = 1; k <= 100; ++k) tree.Put(k, k);
  tree.Delete(50);
  tree.FlushMemtable();
  uint64_t value = 0;
  EXPECT_FALSE(tree.Get(50, &value));
  EXPECT_TRUE(tree.Get(51, &value));
}

TEST(LsmTreeTest, FlushMovesDataToDisk) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(), &dev);
  for (uint64_t k = 1; k <= 10; ++k) tree.Put(k, k);
  EXPECT_EQ(tree.DiskEntries(), 0u);
  tree.FlushMemtable();
  EXPECT_EQ(tree.MemtableSize(), 0u);
  EXPECT_EQ(tree.DiskEntries(), 10u);
  uint64_t value = 0;
  EXPECT_TRUE(tree.Get(7, &value));
}

TEST(LsmTreeTest, AutomaticFlushAtBufferCapacity) {
  sim::Device dev(QuietDevice());
  Options opts = SmallOptions();
  LsmTree tree(opts, &dev);
  for (uint64_t k = 1; k <= opts.BufferEntries() + 1; ++k) tree.Put(k, k);
  EXPECT_GT(tree.DiskEntries(), 0u);
  EXPECT_GE(tree.counters().flushes, 1u);
}

TEST(LsmTreeTest, ScanReturnsSortedLiveEntries) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(), &dev);
  for (uint64_t k = 1; k <= 300; ++k) tree.Put(k * 2, k);
  tree.Delete(10);
  std::vector<Entry> out;
  const size_t n = tree.Scan(6, 5, &out);
  ASSERT_EQ(n, 5u);
  EXPECT_EQ(out[0].key, 6u);
  EXPECT_EQ(out[1].key, 8u);
  EXPECT_EQ(out[2].key, 12u);  // 10 was deleted
  EXPECT_EQ(out[3].key, 14u);
  EXPECT_EQ(out[4].key, 16u);
}

TEST(LsmTreeTest, ScanSeesFreshestVersion) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(), &dev);
  for (uint64_t k = 1; k <= 200; ++k) tree.Put(k, 1);
  tree.Put(100, 999);  // newer version still in memtable
  std::vector<Entry> out;
  tree.Scan(100, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 999u);
}

TEST(LsmTreeTest, ScanPastEndReturnsFewer) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(), &dev);
  for (uint64_t k = 1; k <= 10; ++k) tree.Put(k, k);
  std::vector<Entry> out;
  EXPECT_EQ(tree.Scan(8, 100, &out), 3u);
  EXPECT_EQ(tree.Scan(11, 5, &out), 0u);
}

TEST(LsmTreeTest, ScanReadsNoBlockPastItsLastEntry) {
  sim::Device dev(QuietDevice());
  Options opts = SmallOptions();
  opts.buffer_bytes = 128 * 256;
  LsmTree tree(opts, &dev);
  const uint64_t per_block = opts.EntriesPerBlock(dev.config().block_bytes);
  for (uint64_t k = 0; k < 4 * per_block; ++k) tree.Put(k * 2, k);
  tree.FlushMemtable();  // one run of four blocks, no cache
  ASSERT_EQ(tree.LevelRunCounts(), std::vector<size_t>{1});
  // From the first key of the run and of its second block: exactly one
  // block's entries read that block only; one entry more reads the next.
  for (uint64_t first : {uint64_t{0}, per_block * 2}) {
    std::vector<Entry> out;
    const uint64_t before = dev.block_reads();
    EXPECT_EQ(tree.Scan(first, per_block, &out), per_block);
    EXPECT_EQ(dev.block_reads() - before, 1u) << "start " << first;
    const uint64_t again = dev.block_reads();
    EXPECT_EQ(tree.Scan(first, per_block + 1, &out), per_block + 1);
    EXPECT_EQ(dev.block_reads() - again, 2u) << "start " << first;
  }
}

TEST(LsmTreeTest, LevelingKeepsOneRunPerLevel) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(CompactionPolicy::kLeveling), &dev);
  util::Random rng(1);
  for (int i = 0; i < 3000; ++i) tree.Put(rng.Uniform(100000), i);
  for (size_t runs : tree.LevelRunCounts()) EXPECT_LE(runs, 1u);
}

TEST(LsmTreeTest, TieringBoundsRunsPerLevel) {
  sim::Device dev(QuietDevice());
  Options opts = SmallOptions(CompactionPolicy::kTiering);
  LsmTree tree(opts, &dev);
  util::Random rng(2);
  for (int i = 0; i < 3000; ++i) tree.Put(rng.Uniform(100000), i);
  for (size_t runs : tree.LevelRunCounts()) {
    EXPECT_LE(runs, static_cast<size_t>(opts.MaxRunsPerLevel()));
  }
}

TEST(LsmTreeTest, LevelingWritesMoreThanTiering) {
  // Classic trade-off: leveling has higher write amplification.
  sim::Device dev_level(QuietDevice());
  LsmTree level(SmallOptions(CompactionPolicy::kLeveling, 6.0), &dev_level);
  sim::Device dev_tier(QuietDevice());
  LsmTree tier(SmallOptions(CompactionPolicy::kTiering, 6.0), &dev_tier);
  for (uint64_t k = 0; k < 5000; ++k) {
    level.Put(k * 7 % 65536, k);
    tier.Put(k * 7 % 65536, k);
  }
  EXPECT_GT(dev_level.block_writes(), dev_tier.block_writes());
}

TEST(LsmTreeTest, TieringReadsMoreRunsOnLookup) {
  // Use a deliberately small filter budget (~3 bits/key) so false-positive
  // counts are large enough to compare statistically.
  Options lev_opts = SmallOptions(CompactionPolicy::kLeveling, 6.0);
  lev_opts.bloom_bits = 3 * 4000;
  Options tier_opts = lev_opts;
  tier_opts.policy = CompactionPolicy::kTiering;
  sim::Device dev_level(QuietDevice());
  LsmTree level(lev_opts, &dev_level);
  sim::Device dev_tier(QuietDevice());
  LsmTree tier(tier_opts, &dev_tier);
  // Insert in random order so every run spans the key space (sequential
  // insertion would let tiering skip runs via min/max fences alone).
  std::vector<uint64_t> keys(4000);
  for (uint64_t k = 0; k < 4000; ++k) keys[k] = 2 * k;
  util::Random shuffle_rng(123);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[shuffle_rng.Uniform(i)]);
  }
  for (uint64_t k : keys) {
    level.Put(k, k);
    tier.Put(k, k);
  }
  // Zero-result lookups: expected wasted I/O grows with the number of runs
  // (the Figure 2 "x T" factor of tiering).
  const auto probe = [](LsmTree* tree, sim::Device* dev) {
    const uint64_t before = dev->block_reads();
    for (uint64_t k = 1; k < 8001; k += 2) tree->Get(k, nullptr);
    return dev->block_reads() - before;
  };
  const uint64_t wasted_level = probe(&level, &dev_level);
  const uint64_t wasted_tier = probe(&tier, &dev_tier);
  EXPECT_GT(wasted_tier, wasted_level);
}

TEST(LsmTreeTest, BloomlessTreePaysIoPerMiss) {
  Options opts = SmallOptions();
  opts.bloom_bits = 0;
  sim::Device dev(QuietDevice());
  LsmTree tree(opts, &dev);
  for (uint64_t k = 1; k <= 2000; ++k) tree.Put(2 * k, k);
  const uint64_t before = dev.block_reads();
  for (uint64_t k = 0; k < 100; ++k) tree.Get(2 * k + 501, nullptr);
  const uint64_t wasted = dev.block_reads() - before;
  // Without filters every in-range miss costs a read per touched run.
  EXPECT_GT(wasted, 80u);
}

TEST(LsmTreeTest, BloomCutsMissIo) {
  Options with = SmallOptions();
  with.bloom_bits = 12 * 2000;
  Options without = SmallOptions();
  without.bloom_bits = 0;
  sim::Device dev_with(QuietDevice()), dev_without(QuietDevice());
  LsmTree tree_with(with, &dev_with);
  LsmTree tree_without(without, &dev_without);
  for (uint64_t k = 1; k <= 2000; ++k) {
    tree_with.Put(2 * k, k);
    tree_without.Put(2 * k, k);
  }
  const auto misses = [](LsmTree* tree, sim::Device* dev) {
    const uint64_t before = dev->block_reads();
    for (uint64_t k = 0; k < 500; ++k) tree->Get(2 * k + 101, nullptr);
    return dev->block_reads() - before;
  };
  EXPECT_LT(misses(&tree_with, &dev_with),
            misses(&tree_without, &dev_without) / 4);
}

TEST(LsmTreeTest, BlockCacheReducesRepeatedReadIo) {
  Options cached = SmallOptions();
  cached.block_cache_bytes = 64 * 4096;
  sim::Device dev_cached(QuietDevice()), dev_plain(QuietDevice());
  LsmTree tree_cached(cached, &dev_cached);
  LsmTree tree_plain(SmallOptions(), &dev_plain);
  for (uint64_t k = 1; k <= 2000; ++k) {
    tree_cached.Put(2 * k, k);
    tree_plain.Put(2 * k, k);
  }
  const auto hot_reads = [](LsmTree* tree, sim::Device* dev) {
    const uint64_t before = dev->block_reads();
    for (int rep = 0; rep < 50; ++rep) {
      for (uint64_t k = 1; k <= 20; ++k) tree->Get(2 * k, nullptr);
    }
    return dev->block_reads() - before;
  };
  EXPECT_LT(hot_reads(&tree_cached, &dev_cached),
            hot_reads(&tree_plain, &dev_plain) / 5);
}

TEST(LsmTreeTest, CountersTrackCompactions) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(), &dev);
  for (uint64_t k = 0; k < 2000; ++k) tree.Put(k, k);
  const TreeCounters& counters = tree.counters();
  EXPECT_GT(counters.flushes, 0u);
  EXPECT_GT(counters.merges, 0u);
  EXPECT_GT(counters.compaction_block_writes, 0u);
  EXPECT_EQ(counters.transition_ios, 0u);  // no reconfiguration happened
}

TEST(LsmTreeTest, ReconfigureShrinkTriggersTransition) {
  sim::Device dev(QuietDevice());
  Options opts = SmallOptions(CompactionPolicy::kLeveling, 8.0);
  LsmTree tree(opts, &dev);
  for (uint64_t k = 0; k < 4000; ++k) tree.Put(k, k);

  Options smaller = opts;
  smaller.size_ratio = 2.0;
  tree.Reconfigure(smaller);
  EXPECT_TRUE(tree.InTransition());
  // Keep writing: natural compactions morph the tree to the new shape.
  for (uint64_t k = 0; k < 4000; ++k) tree.Put(k + 50000, k);
  EXPECT_FALSE(tree.InTransition());
  EXPECT_GT(tree.counters().transition_ios, 0u);
  // Data still correct after the transition.
  uint64_t value = 0;
  EXPECT_TRUE(tree.Get(100, &value));
  EXPECT_TRUE(tree.Get(50100, &value));
}

TEST(LsmTreeTest, ReconfigureGrowIsFree) {
  sim::Device dev(QuietDevice());
  Options opts = SmallOptions(CompactionPolicy::kLeveling, 2.0);
  LsmTree tree(opts, &dev);
  for (uint64_t k = 0; k < 3000; ++k) tree.Put(k, k);
  Options bigger = opts;
  bigger.size_ratio = 10.0;
  tree.Reconfigure(bigger);
  // Growing capacities violates nothing: no transition needed.
  EXPECT_FALSE(tree.InTransition());
  EXPECT_EQ(tree.counters().transition_ios, 0u);
}

TEST(LsmTreeTest, ReconfigureWhileTransitionInFlight) {
  // A second Reconfigure arriving while the tree is still morphing toward
  // the previous target must simply retarget: the lazy transition machinery
  // converges to the *latest* configuration, and data stays correct.
  sim::Device dev(QuietDevice());
  Options opts = SmallOptions(CompactionPolicy::kLeveling, 10.0);
  LsmTree tree(opts, &dev);
  for (uint64_t k = 0; k < 4000; ++k) tree.Put(k, k);

  Options shrink = opts;
  shrink.size_ratio = 2.0;
  tree.Reconfigure(shrink);
  ASSERT_TRUE(tree.InTransition());

  // Mid-flight retarget to an intermediate shape.
  Options mid = opts;
  mid.size_ratio = 4.0;
  tree.Reconfigure(mid);
  EXPECT_EQ(tree.options().size_ratio, 4.0);

  for (uint64_t k = 0; k < 6000; ++k) tree.Put(k + 50000, k);
  EXPECT_FALSE(tree.InTransition());
  uint64_t value = 0;
  EXPECT_TRUE(tree.Get(100, &value));
  EXPECT_EQ(value, 100u);
  EXPECT_TRUE(tree.Get(50100, &value));
}

TEST(LsmTreeTest, ReconfigureRevertMidFlightClearsTransition) {
  // Reverting to the original shape while a shrink is still in flight must
  // immediately cancel the transition: nothing violates the (restored)
  // configuration, so no transition I/O should be charged afterwards.
  sim::Device dev(QuietDevice());
  Options opts = SmallOptions(CompactionPolicy::kLeveling, 8.0);
  LsmTree tree(opts, &dev);
  for (uint64_t k = 0; k < 4000; ++k) tree.Put(k, k);

  Options shrink = opts;
  shrink.size_ratio = 2.0;
  tree.Reconfigure(shrink);
  ASSERT_TRUE(tree.InTransition());
  const uint64_t transition_ios_before = tree.counters().transition_ios;

  tree.Reconfigure(opts);
  EXPECT_FALSE(tree.InTransition());
  for (uint64_t k = 0; k < 2000; ++k) tree.Put(k + 50000, k);
  EXPECT_EQ(tree.counters().transition_ios, transition_ios_before);
}

TEST(LsmTreeTest, ReconfigureCacheResizeImmediate) {
  sim::Device dev(QuietDevice());
  Options opts = SmallOptions();
  opts.block_cache_bytes = 16 * 4096;
  LsmTree tree(opts, &dev);
  for (uint64_t k = 0; k < 1000; ++k) tree.Put(k, k);
  Options no_cache = opts;
  no_cache.block_cache_bytes = 0;
  tree.Reconfigure(no_cache);
  EXPECT_EQ(tree.cache()->capacity_blocks(), 0u);
}

TEST(LsmTreeTest, ReconfigurePolicySwitchConverges) {
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(CompactionPolicy::kTiering, 4.0), &dev);
  for (uint64_t k = 0; k < 3000; ++k) tree.Put(k, k);
  Options lev = SmallOptions(CompactionPolicy::kLeveling, 4.0);
  tree.Reconfigure(lev);
  for (uint64_t k = 0; k < 3000; ++k) tree.Put(k + 90000, k);
  for (size_t runs : tree.LevelRunCounts()) EXPECT_LE(runs, 1u);
  uint64_t value = 0;
  EXPECT_TRUE(tree.Get(1500, &value));
}

TEST(LsmTreeTest, RunsPerLevelOverrideHonored) {
  Options opts = SmallOptions(CompactionPolicy::kTiering, 8.0);
  opts.runs_per_level = 3;
  sim::Device dev(QuietDevice());
  LsmTree tree(opts, &dev);
  util::Random rng(3);
  for (int i = 0; i < 4000; ++i) tree.Put(rng.Uniform(1 << 20), i);
  for (size_t runs : tree.LevelRunCounts()) EXPECT_LE(runs, 3u);
}

// ---------------------------------------------------------------------------
// Randomized differential test against std::map across policies and size
// ratios (property-style sweep).

class TreeReferenceTest
    : public ::testing::TestWithParam<std::tuple<CompactionPolicy, double>> {};

TEST_P(TreeReferenceTest, MatchesReferenceModel) {
  const auto [policy, t] = GetParam();
  sim::Device dev(QuietDevice());
  LsmTree tree(SmallOptions(policy, t), &dev);
  std::map<uint64_t, uint64_t> reference;
  util::Random rng(static_cast<uint64_t>(t) * 31 +
                   (policy == CompactionPolicy::kTiering ? 7 : 0));

  for (int i = 0; i < 6000; ++i) {
    const double u = rng.NextDouble();
    const uint64_t key = rng.Uniform(4000);
    if (u < 0.55) {
      tree.Put(key, static_cast<uint64_t>(i));
      reference[key] = static_cast<uint64_t>(i);
    } else if (u < 0.70) {
      tree.Delete(key);
      reference.erase(key);
    } else if (u < 0.90) {
      uint64_t value = 0;
      const bool found = tree.Get(key, &value);
      const auto it = reference.find(key);
      ASSERT_EQ(found, it != reference.end()) << "key " << key;
      if (found) {
        ASSERT_EQ(value, it->second);
      }
    } else {
      std::vector<Entry> out;
      tree.Scan(key, 10, &out);
      auto it = reference.lower_bound(key);
      for (const Entry& e : out) {
        ASSERT_NE(it, reference.end());
        ASSERT_EQ(e.key, it->first);
        ASSERT_EQ(e.value, it->second);
        ++it;
      }
      // The scan must not stop early while reference entries remain.
      if (out.size() < 10) {
        ASSERT_EQ(it, reference.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndRatios, TreeReferenceTest,
    ::testing::Combine(::testing::Values(CompactionPolicy::kLeveling,
                                         CompactionPolicy::kTiering),
                       ::testing::Values(2.0, 3.0, 5.0, 10.0)),
    [](const auto& info) {
      const CompactionPolicy policy = std::get<0>(info.param);
      const double t = std::get<1>(info.param);
      return std::string(policy == CompactionPolicy::kLeveling ? "Level"
                                                               : "Tier") +
             "T" + std::to_string(static_cast<int>(t));
    });

// Level capacities follow the (T-1)*T^(i-1) law.
class CapacityTest : public ::testing::TestWithParam<double> {};

TEST_P(CapacityTest, LevelsRespectCapacity) {
  const double t = GetParam();
  Options opts = SmallOptions(CompactionPolicy::kLeveling, t);
  sim::Device dev(QuietDevice());
  LsmTree tree(opts, &dev);
  util::Random rng(17);
  for (int i = 0; i < 8000; ++i) tree.Put(rng.Uniform(1 << 22), i);
  const std::vector<uint64_t> counts = tree.LevelEntryCounts();
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_LE(static_cast<double>(counts[i]),
              opts.LevelCapacityEntries(static_cast<int>(i)) + 1e-9)
        << "level " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, CapacityTest,
                         ::testing::Values(2.0, 3.0, 4.0, 6.0, 8.0, 12.0));

TEST(OptionsTest, ValidateRejectsBadValues) {
  Options opts;
  opts.size_ratio = 1.5;
  EXPECT_FALSE(opts.Validate().ok());
  opts = Options();
  opts.buffer_bytes = 16;  // smaller than one entry
  EXPECT_FALSE(opts.Validate().ok());
  opts = Options();
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(OptionsTest, DerivedQuantities) {
  Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 100;
  opts.size_ratio = 4.0;
  EXPECT_EQ(opts.BufferEntries(), 100u);
  EXPECT_EQ(opts.EntriesPerBlock(4096), 32u);
  EXPECT_EQ(opts.MaxRunsPerLevel(), 1);
  opts.policy = CompactionPolicy::kTiering;
  EXPECT_EQ(opts.MaxRunsPerLevel(), 4);
  EXPECT_DOUBLE_EQ(opts.LevelCapacityEntries(0), 300.0);
  EXPECT_DOUBLE_EQ(opts.LevelCapacityEntries(1), 1200.0);
}

TEST(OptionsTest, LevelsForEntries) {
  Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 100;
  opts.size_ratio = 10.0;
  // ceil(log10(9900/100 + 1)) = 2; Equation 1 includes the "+1" term.
  EXPECT_EQ(opts.LevelsForEntries(9900), 2);
  EXPECT_EQ(opts.LevelsForEntries(10000), 3);  // log10(101) just over 2
  EXPECT_EQ(opts.LevelsForEntries(100), 1);
}

}  // namespace
}  // namespace camal::lsm
