#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "camal/sample.h"
#include "engine/sharded_engine.h"
#include "lsm/lsm_tree.h"
#include "util/random.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::engine {
namespace {

lsm::Options SmallOptions() {
  lsm::Options opts;
  opts.entry_bytes = 128;
  opts.buffer_bytes = 128 * 128;
  opts.bloom_bits = 10 * 8000;
  return opts;
}

sim::DeviceConfig QuietDevice() {
  sim::DeviceConfig cfg;
  cfg.io_jitter_frac = 0.0;
  return cfg;
}

TEST(ShardedEngineTest, PartitionRoutingIsDeterministicAndCovering) {
  ShardedEngine eng(4, SmallOptions(), QuietDevice());
  std::vector<size_t> hits(4, 0);
  for (uint64_t key = 0; key < 4000; key += 2) {
    const size_t s = eng.ShardIndex(key);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, eng.ShardIndex(key));  // stable
    ++hits[s];
  }
  // A hash partitioner must not starve or overload any shard badly.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GT(hits[s], 250u) << "shard " << s;
    EXPECT_LT(hits[s], 750u) << "shard " << s;
  }
}

TEST(ShardedEngineTest, PointOpsLandOnTheRoutedShardOnly) {
  ShardedEngine eng(4, SmallOptions(), QuietDevice());
  for (uint64_t key = 2; key <= 400; key += 2) {
    eng.Put(key, key * 10);
  }
  // Every key is readable through the engine...
  uint64_t value = 0;
  for (uint64_t key = 2; key <= 400; key += 2) {
    ASSERT_TRUE(eng.Get(key, &value));
    EXPECT_EQ(value, key * 10);
  }
  // ...and lives exactly on its routed shard.
  for (uint64_t key = 2; key <= 400; key += 2) {
    const size_t home = eng.ShardIndex(key);
    for (size_t s = 0; s < eng.NumShards(); ++s) {
      EXPECT_EQ(eng.shard(s)->Get(key, nullptr), s == home);
    }
  }
}

TEST(ShardedEngineTest, ScatterGatherScanIsGloballySorted) {
  ShardedEngine eng(4, SmallOptions(), QuietDevice());
  std::map<uint64_t, uint64_t> reference;
  util::Random rng(7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = 2 * rng.Uniform(1 << 16);
    const uint64_t value = rng.Next();
    eng.Put(key, value);
    reference[key] = value;
  }

  for (const uint64_t start : {0ULL, 1000ULL, 60000ULL, 130000ULL}) {
    std::vector<lsm::Entry> got;
    const size_t n = eng.Scan(start, 64, &got);
    EXPECT_EQ(n, got.size());

    // Expected: the first up-to-64 live entries with key >= start.
    std::vector<std::pair<uint64_t, uint64_t>> expected;
    for (auto it = reference.lower_bound(start);
         it != reference.end() && expected.size() < 64; ++it) {
      expected.push_back(*it);
    }
    ASSERT_EQ(got.size(), expected.size()) << "start=" << start;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, expected[i].first) << "start=" << start;
      EXPECT_EQ(got[i].value, expected[i].second) << "start=" << start;
      if (i > 0) {
        EXPECT_LT(got[i - 1].key, got[i].key);
      }
    }
  }
}

TEST(ShardedEngineTest, DeleteShadowsAcrossGetAndScan) {
  ShardedEngine eng(2, SmallOptions(), QuietDevice());
  for (uint64_t key = 2; key <= 200; key += 2) eng.Put(key, key);
  eng.Delete(100);
  eng.Delete(102);
  EXPECT_FALSE(eng.Get(100, nullptr));
  EXPECT_FALSE(eng.Get(102, nullptr));
  std::vector<lsm::Entry> got;
  eng.Scan(96, 5, &got);
  ASSERT_GE(got.size(), 3u);
  EXPECT_EQ(got[0].key, 96u);
  EXPECT_EQ(got[1].key, 98u);
  EXPECT_EQ(got[2].key, 104u);  // 100 and 102 are gone
}

TEST(ShardedEngineTest, ShardOptionsDivideMemoryBudgets) {
  lsm::Options total = SmallOptions();
  total.block_cache_bytes = 64 * 1024;
  const lsm::Options per_shard = ShardedEngine::ShardOptions(total, 4);
  EXPECT_EQ(per_shard.buffer_bytes, total.buffer_bytes / 4);
  EXPECT_EQ(per_shard.bloom_bits, total.bloom_bits / 4);
  EXPECT_EQ(per_shard.block_cache_bytes, total.block_cache_bytes / 4);
  EXPECT_EQ(per_shard.size_ratio, total.size_ratio);
  EXPECT_EQ(per_shard.entry_bytes, total.entry_bytes);
  // Identity at one shard.
  const lsm::Options same = ShardedEngine::ShardOptions(total, 1);
  EXPECT_EQ(same.buffer_bytes, total.buffer_bytes);
  EXPECT_EQ(same.bloom_bits, total.bloom_bits);
}

TEST(ShardedEngineTest, ShardOptionsNonDivisibleBudgetsFloorWithClamp) {
  lsm::Options total = SmallOptions();
  total.buffer_bytes = 100003;      // prime: never divisible
  total.bloom_bits = 77777;
  total.block_cache_bytes = 999;
  for (size_t n : {3, 5, 7}) {
    const lsm::Options per_shard = ShardedEngine::ShardOptions(total, n);
    // Remainders are dropped (floor division): the system never
    // over-commits the stated total budget...
    EXPECT_EQ(per_shard.buffer_bytes, total.buffer_bytes / n) << "n=" << n;
    EXPECT_EQ(per_shard.bloom_bits, total.bloom_bits / n) << "n=" << n;
    EXPECT_EQ(per_shard.block_cache_bytes, total.block_cache_bytes / n)
        << "n=" << n;
    EXPECT_LE(per_shard.buffer_bytes * n, total.buffer_bytes);
    EXPECT_LE(per_shard.bloom_bits * n, total.bloom_bits);
  }
  // ...except the write buffer, which is clamped up to one entry so a
  // shard can always buffer something even under absurd division.
  lsm::Options tiny = SmallOptions();
  tiny.buffer_bytes = tiny.entry_bytes * 2;  // 2 entries total
  const lsm::Options starved = ShardedEngine::ShardOptions(tiny, 7);
  EXPECT_EQ(starved.buffer_bytes, tiny.entry_bytes);
}

TEST(ShardedEngineTest, PartitionerBalancesSequentialAndRandomKeys) {
  // The Mix64(key) % N partitioner must spread both structured key sets
  // (the KeySpace's consecutive even integers — raw modulo would stripe
  // them) and uniform random keys evenly across shards.
  for (const size_t num_shards : {4, 8}) {
    const size_t num_keys = 40000;
    const double mean =
        static_cast<double>(num_keys) / static_cast<double>(num_shards);

    std::vector<size_t> sequential_hits(num_shards, 0);
    for (size_t i = 1; i <= num_keys; ++i) {
      ++sequential_hits[util::Mix64(2 * i) % num_shards];
    }
    util::Random rng(123);
    std::vector<size_t> random_hits(num_shards, 0);
    for (size_t i = 0; i < num_keys; ++i) {
      ++random_hits[util::Mix64(rng.Next()) % num_shards];
    }

    // 10% tolerance: ~7 sigma at this sample size, far beyond hash noise,
    // but tight enough to catch striping or a starved shard immediately.
    for (size_t s = 0; s < num_shards; ++s) {
      EXPECT_NEAR(static_cast<double>(sequential_hits[s]), mean, 0.10 * mean)
          << "sequential keys, shard " << s << "/" << num_shards;
      EXPECT_NEAR(static_cast<double>(random_hits[s]), mean, 0.10 * mean)
          << "random keys, shard " << s << "/" << num_shards;
    }
  }
}

TEST(ShardedEngineTest, PerShardReconfigureTouchesOnlyThatShard) {
  ShardedEngine eng(3, SmallOptions(), QuietDevice());
  const double t_before = eng.shard(0)->options().size_ratio;

  lsm::Options retuned = ShardedEngine::ShardOptions(SmallOptions(), 3);
  retuned.size_ratio = 4.0;
  eng.ReconfigureShard(1, retuned);

  EXPECT_EQ(eng.shard(0)->options().size_ratio, t_before);
  EXPECT_EQ(eng.shard(1)->options().size_ratio, 4.0);
  EXPECT_EQ(eng.shard(2)->options().size_ratio, t_before);
}

// Options are validated when they arrive, for cold shards too: a cold
// shard's reconfiguration is deferred to its materialization, but an
// invalid one must not be accepted and fail only later, on some
// unrelated first touch.
TEST(ShardedEngineDeathTest, InvalidOptionsDieOnArrivalEvenWhenCold) {
  ShardedEngine eng(4, SmallOptions(), QuietDevice());
  ASSERT_EQ(eng.ShardLifecycle(2), ShardState::kCold);
  lsm::Options flat = ShardedEngine::ShardOptions(SmallOptions(), 4);
  flat.size_ratio = 1.0;
  EXPECT_DEATH(eng.ReconfigureShard(2, flat), "Validate");
  lsm::Options deep = ShardedEngine::ShardOptions(SmallOptions(), 4);
  deep.io_queue_depth = 2048;
  EXPECT_DEATH(eng.ReconfigureShard(2, deep), "Validate");
  EXPECT_DEATH(ShardedEngine(4, flat, QuietDevice()), "Validate");
}

TEST(ShardedEngineTest, TotalReconfigureDividesAcrossShards) {
  ShardedEngine eng(4, SmallOptions(), QuietDevice());
  lsm::Options bigger = SmallOptions();
  bigger.bloom_bits = 16 * 8000;
  eng.Reconfigure(bigger);
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    EXPECT_EQ(eng.shard(s)->options().bloom_bits, bigger.bloom_bits / 4);
  }
}

TEST(ShardedEngineTest, AggregatesSumOverShards) {
  ShardedEngine eng(4, SmallOptions(), QuietDevice());
  for (uint64_t key = 2; key <= 2 * 6000; key += 2) eng.Put(key, key);
  eng.FlushMemtable();

  uint64_t entries = 0;
  EngineCounters counters;
  sim::DeviceSnapshot cost;
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    entries += eng.ShardEntries(s);
    counters += eng.shard(s)->counters();
    const sim::DeviceSnapshot snap = eng.shard_device(s)->Snapshot();
    cost.block_reads += snap.block_reads;
    cost.block_writes += snap.block_writes;
    cost.elapsed_ns += snap.elapsed_ns;
  }
  EXPECT_EQ(eng.TotalEntries(), entries);
  EXPECT_EQ(eng.TotalEntries(), 6000u);
  EXPECT_EQ(eng.AggregateCounters().flushes, counters.flushes);
  EXPECT_GT(eng.AggregateCounters().flushes, 0u);
  EXPECT_EQ(eng.CostSnapshot().block_writes, cost.block_writes);
  EXPECT_DOUBLE_EQ(eng.CostSnapshot().elapsed_ns, cost.elapsed_ns);
}

// The acceptance-critical regression: a 1-shard ShardedEngine must produce
// bit-identical ExecutionResults to driving the LsmTree directly — same
// simulated time, same I/O counts, same per-op latency distribution.
TEST(ShardedEngineTest, OneShardBitIdenticalToDirectTree) {
  tune::SystemSetup setup;
  setup.num_entries = 6000;
  setup.total_memory_bits = 16 * 6000;
  const tune::TuningConfig config = tune::MonkeyDefaultConfig(setup);
  const model::WorkloadSpec mix{0.25, 0.25, 0.25, 0.25};

  workload::ExecutorConfig exec;
  exec.num_ops = 3000;
  exec.generator.scan_len = setup.scan_len;
  exec.seed = 99;

  auto run = [&](engine::StorageEngine* eng, workload::KeySpace* keys) {
    workload::BulkLoad(eng, *keys);
    return workload::Execute(eng, mix, exec, keys);
  };

  // Direct tree path (jittered device, so the equality is non-trivial).
  workload::KeySpace keys_direct(setup.num_entries, setup.seed);
  sim::Device device(setup.MakeDeviceConfig());
  lsm::LsmTree tree(config.ToOptions(setup), &device);
  workload::ExecutionResult direct = run(&tree, &keys_direct);

  workload::KeySpace keys_sharded(setup.num_entries, setup.seed);
  ShardedEngine eng(1, config.ToOptions(setup), setup.MakeDeviceConfig());
  workload::ExecutionResult sharded = run(&eng, &keys_sharded);

  EXPECT_EQ(direct.total_ns, sharded.total_ns);  // bit-exact doubles
  EXPECT_EQ(direct.total_ios, sharded.total_ios);
  EXPECT_EQ(direct.lookups_found, sharded.lookups_found);
  EXPECT_EQ(direct.lookups_missed, sharded.lookups_missed);
  EXPECT_EQ(direct.latency_ns.count(), sharded.latency_ns.count());
  for (double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(direct.latency_ns.Quantile(q), sharded.latency_ns.Quantile(q))
        << "q=" << q;
  }
  EXPECT_EQ(tree.TotalEntries(), eng.TotalEntries());
  EXPECT_EQ(tree.counters().flushes, eng.AggregateCounters().flushes);
  EXPECT_EQ(tree.counters().merges, eng.AggregateCounters().merges);
}

TEST(ShardedEngineTest, PerShardObservabilityAccessors) {
  ShardedEngine eng(3, SmallOptions(), QuietDevice());
  for (uint64_t key = 2; key <= 2 * 3000; key += 2) eng.Put(key, key);
  eng.FlushMemtable();

  sim::DeviceSnapshot cost_sum;
  EngineCounters counter_sum;
  uint64_t entry_sum = 0;
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    // Options snapshot reflects the live per-shard configuration...
    EXPECT_EQ(eng.ShardOptionsSnapshot(s).bloom_bits,
              eng.shard(s)->options().bloom_bits);
    // ...the budget view is exactly its memory fields...
    const ShardBudget budget = eng.ShardBudgetSnapshot(s);
    EXPECT_EQ(budget.buffer_bytes, eng.shard(s)->options().buffer_bytes);
    EXPECT_EQ(budget.bloom_bits, eng.shard(s)->options().bloom_bits);
    EXPECT_EQ(budget.TotalBits(),
              8 * budget.buffer_bytes + budget.bloom_bits +
                  8 * budget.block_cache_bytes);
    // ...and per-shard cost/counters decompose the aggregates.
    cost_sum += eng.ShardCostSnapshot(s);
    counter_sum += eng.ShardCounters(s);
    entry_sum += eng.ShardEntries(s);
  }
  EXPECT_DOUBLE_EQ(cost_sum.elapsed_ns, eng.CostSnapshot().elapsed_ns);
  EXPECT_EQ(cost_sum.block_writes, eng.CostSnapshot().block_writes);
  EXPECT_EQ(counter_sum.flushes, eng.AggregateCounters().flushes);
  EXPECT_EQ(counter_sum.merges, eng.AggregateCounters().merges);
  EXPECT_EQ(entry_sum, eng.TotalEntries());
}

TEST(ShardedEngineTest, SingleTreeObservabilityDefaults) {
  sim::Device device(QuietDevice());
  lsm::LsmTree tree(SmallOptions(), &device);
  for (uint64_t key = 2; key <= 600; key += 2) tree.Put(key, key);
  engine::StorageEngine& eng = tree;
  EXPECT_EQ(eng.ShardOptionsSnapshot(0).buffer_bytes,
            SmallOptions().buffer_bytes);
  EXPECT_EQ(eng.ShardBudgetSnapshot(0).bloom_bits, SmallOptions().bloom_bits);
  EXPECT_DOUBLE_EQ(eng.ShardCostSnapshot(0).elapsed_ns,
                   eng.CostSnapshot().elapsed_ns);
  EXPECT_EQ(eng.ShardCounters(0).flushes, eng.AggregateCounters().flushes);
}

TEST(ShardedEngineTest, UnevenArbiterBudgetsConserveTheTotalAndServe) {
  // The arbitration contract on the engine side: per-shard options with
  // uneven budgets applied through ReconfigureShard must be reported back
  // verbatim, never exceed the original system total, and keep the data
  // fully readable.
  const lsm::Options total = SmallOptions();
  ShardedEngine eng(4, total, QuietDevice());
  for (uint64_t key = 2; key <= 2000; key += 2) eng.Put(key, key / 2);

  const uint64_t total_bits =
      4 * ShardBudget::FromOptions(ShardedEngine::ShardOptions(total, 4))
              .TotalBits();
  // Move one quarter of shard 3's budget to shard 0 (a typical arbiter
  // outcome: hot shard up, cold shard down, others untouched).
  lsm::Options hot = eng.ShardOptionsSnapshot(0);
  lsm::Options cold = eng.ShardOptionsSnapshot(3);
  const uint64_t moved_bloom = cold.bloom_bits / 2;
  const uint64_t moved_buffer = cold.buffer_bytes / 4;
  cold.bloom_bits -= moved_bloom;
  cold.buffer_bytes -= moved_buffer;
  hot.bloom_bits += moved_bloom;
  hot.buffer_bytes += moved_buffer;
  eng.ReconfigureShard(0, hot);
  eng.ReconfigureShard(3, cold);

  EXPECT_EQ(eng.ShardBudgetSnapshot(0).bloom_bits, hot.bloom_bits);
  EXPECT_EQ(eng.ShardBudgetSnapshot(3).buffer_bytes, cold.buffer_bytes);
  uint64_t applied = 0;
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    applied += eng.ShardBudgetSnapshot(s).TotalBits();
  }
  EXPECT_LE(applied, total_bits);

  uint64_t value = 0;
  for (uint64_t key = 2; key <= 2000; key += 2) {
    ASSERT_TRUE(eng.Get(key, &value)) << "key " << key;
    EXPECT_EQ(value, key / 2);
  }
}

TEST(MergeDisjointSlicesTest, MatchesSortOnOverlappingKeyRanges) {
  // Hash-partitioned shards hold disjoint *keys* but thoroughly
  // interleaved key *ranges* — the case the k-way heap merge must get
  // right. Reference: concatenate and sort.
  util::Random rng(17);
  std::vector<std::vector<lsm::Entry>> slices(5);
  for (uint64_t key = 0; key < 4000; ++key) {
    const size_t slice = rng.Uniform(5);
    slices[slice].push_back({key, key * 3 + slice});  // ascending per slice
  }
  slices[3].clear();  // an empty slice must not confuse the heap

  std::vector<lsm::Entry> expected;
  for (const std::vector<lsm::Entry>& slice : slices) {
    expected.insert(expected.end(), slice.begin(), slice.end());
  }
  std::sort(expected.begin(), expected.end(),
            [](const lsm::Entry& a, const lsm::Entry& b) {
              return a.key < b.key;
            });

  for (const size_t cap : {size_t{0}, size_t{1}, size_t{63}, size_t{4000},
                           size_t{100000}}) {
    std::vector<lsm::Entry> got;
    const size_t n = MergeDisjointSlices(slices, cap, &got);
    EXPECT_EQ(n, got.size());
    ASSERT_EQ(got.size(), std::min(cap, expected.size())) << "cap=" << cap;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, expected[i].key) << "cap=" << cap << " i=" << i;
      EXPECT_EQ(got[i].value, expected[i].value);
    }
  }
}

TEST(ShardedEngineTest, ShardsUseUncorrelatedJitterStreams) {
  // Same config in every shard, jittered I/O on: had the shards shared one
  // jitter seed, identical op sequences would cost identical time.
  sim::DeviceConfig jittery;  // default io_jitter_frac = 0.05
  ShardedEngine eng(2, SmallOptions(), jittery);
  for (uint64_t k = 1; k <= 2000; ++k) {
    eng.shard(0)->Put(2 * k, k);
    eng.shard(1)->Put(2 * k, k);
  }
  eng.shard(0)->FlushMemtable();
  eng.shard(1)->FlushMemtable();
  EXPECT_NE(eng.shard_device(0)->elapsed_ns(),
            eng.shard_device(1)->elapsed_ns());
}

}  // namespace
}  // namespace camal::engine
