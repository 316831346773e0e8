// Golden equality for the shard lifecycle: a lazy engine — and a lazy
// engine that hibernates idle shards and wakes them on touch — must be
// observationally indistinguishable from the historical eager engine
// serving the same stream. On the simulated backend that means bitwise:
// per-op latency/ios/found/scan_hits, EngineCounters, device cost sums,
// and entry counts. On the real-IO backend wall-clock varies, so the
// deterministic surface is compared instead: logical results, per-op I/O
// counts, block read/write totals, counters, and run-file structure.
// Across backends, both engines make their shard decisions through one
// ShardSet, so the same schedule must walk them through the same
// lifecycle, with the same logical result for every op.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "camal/sample.h"
#include "engine/file_engine.h"
#include "engine/sharded_engine.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::engine {
namespace {

tune::SystemSetup SmallSetup(size_t shards) {
  tune::SystemSetup setup;
  setup.num_entries = 6000;
  setup.total_memory_bits = 16 * 6000;
  setup.num_shards = shards;
  return setup;
}

std::vector<Op> GenerateOps(const tune::SystemSetup& setup, size_t num_ops,
                            workload::KeySpace* keys, uint64_t seed) {
  workload::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = setup.scan_len;
  workload::OperationGenerator gen(model::WorkloadSpec{0.2, 0.3, 0.2, 0.3},
                                   keys, gen_cfg, seed);
  std::vector<Op> ops;
  ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    ops.push_back(workload::ToEngineOp(gen.Next()));
  }
  return ops;
}

/// Splits a mixed stream into batches that each touch only shards
/// `< pivot` (`low`) or only shards `>= pivot` (`high`), preserving
/// relative order. Scans touch every shard, so they go to neither — the
/// phased hibernation tests schedule them explicitly.
void SplitByShard(const StorageEngine& eng, const std::vector<Op>& ops,
                  size_t pivot, std::vector<Op>* low, std::vector<Op>* high) {
  for (const Op& op : ops) {
    if (op.kind == OpKind::kScan) continue;
    (eng.ShardIndex(op.key) < pivot ? low : high)->push_back(op);
  }
}

void ExpectSameResults(const std::vector<OpResult>& got,
                       const std::vector<OpResult>& want,
                       bool compare_latency) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (compare_latency) {
      EXPECT_EQ(got[i].latency_ns, want[i].latency_ns) << "op " << i;
    }
    EXPECT_EQ(got[i].ios, want[i].ios) << "op " << i;
    EXPECT_EQ(got[i].found, want[i].found) << "op " << i;
    EXPECT_EQ(got[i].scan_hits, want[i].scan_hits) << "op " << i;
  }
}

void ExpectSameCounters(const EngineCounters& got, const EngineCounters& want) {
  EXPECT_EQ(got.compaction_block_reads, want.compaction_block_reads);
  EXPECT_EQ(got.compaction_block_writes, want.compaction_block_writes);
  EXPECT_EQ(got.transition_ios, want.transition_ios);
  EXPECT_EQ(got.flushes, want.flushes);
  EXPECT_EQ(got.merges, want.merges);
}

// ---------------------------------------------------------------------------
// Simulated backend (ShardedEngine): full bitwise equality.
// ---------------------------------------------------------------------------

std::unique_ptr<ShardedEngine> MakeSimEngine(const tune::SystemSetup& setup,
                                             const workload::KeySpace& keys,
                                             const ShardLifecycleConfig& lc) {
  auto eng = std::make_unique<ShardedEngine>(
      setup.num_shards, tune::MonkeyDefaultConfig(setup).ToOptions(setup),
      setup.MakeDeviceConfig(), lc);
  workload::BulkLoad(eng.get(), keys);
  return eng;
}

/// Runs the same pre-built batch schedule on both engines and asserts the
/// complete observable surface matches bitwise after every batch.
void RunGoldenSchedule(ShardedEngine* lazy, ShardedEngine* eager,
                       const std::vector<std::vector<Op>>& batches) {
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::vector<Op>& batch = batches[b];
    std::vector<OpResult> got(batch.size());
    std::vector<OpResult> want(batch.size());
    lazy->ExecuteOps(batch.data(), batch.size(), got.data());
    eager->ExecuteOps(batch.data(), batch.size(), want.data());
    ExpectSameResults(got, want, /*compare_latency=*/true);
  }
  ExpectSameCounters(lazy->AggregateCounters(), eager->AggregateCounters());
  for (size_t s = 0; s < eager->NumShards(); ++s) {
    ExpectSameCounters(lazy->ShardCounters(s), eager->ShardCounters(s));
    const sim::DeviceSnapshot a = lazy->ShardCostSnapshot(s);
    const sim::DeviceSnapshot b = eager->ShardCostSnapshot(s);
    EXPECT_EQ(a.block_reads, b.block_reads) << "shard " << s;
    EXPECT_EQ(a.block_writes, b.block_writes) << "shard " << s;
    EXPECT_EQ(a.elapsed_ns, b.elapsed_ns) << "shard " << s;  // bit-exact
    EXPECT_EQ(lazy->ShardEntries(s), eager->ShardEntries(s));
  }
  const sim::DeviceSnapshot a = lazy->CostSnapshot();
  const sim::DeviceSnapshot b = eager->CostSnapshot();
  EXPECT_EQ(a.TotalIos(), b.TotalIos());
  EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);
  EXPECT_EQ(lazy->TotalEntries(), eager->TotalEntries());
  EXPECT_EQ(lazy->DiskEntries(), eager->DiskEntries());
}

TEST(ShardLifecycleTest, LazyIsBitIdenticalToEagerOnMixedStream) {
  const tune::SystemSetup setup = SmallSetup(8);
  workload::KeySpace gen_keys(setup.num_entries, setup.seed);
  const std::vector<Op> ops = GenerateOps(setup, 3000, &gen_keys, 99);

  workload::KeySpace keys_a(setup.num_entries, setup.seed);
  auto lazy = MakeSimEngine(setup, keys_a, ShardLifecycleConfig{});
  workload::KeySpace keys_b(setup.num_entries, setup.seed);
  auto eager =
      MakeSimEngine(setup, keys_b, ShardLifecycleConfig{/*lazy=*/false, 0});

  std::vector<std::vector<Op>> batches;
  for (size_t i = 0; i < ops.size(); i += 256) {
    batches.emplace_back(ops.begin() + i,
                         ops.begin() + std::min(i + 256, ops.size()));
  }
  RunGoldenSchedule(lazy.get(), eager.get(), batches);
}

TEST(ShardLifecycleTest, HibernateWakeRehibernateIsBitIdenticalOnSim) {
  const tune::SystemSetup setup = SmallSetup(8);
  workload::KeySpace gen_keys(setup.num_entries, setup.seed);
  const std::vector<Op> ops = GenerateOps(setup, 6000, &gen_keys, 99);

  workload::KeySpace keys_a(setup.num_entries, setup.seed);
  auto hib = MakeSimEngine(
      setup, keys_a,
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/2});
  workload::KeySpace keys_b(setup.num_entries, setup.seed);
  auto eager =
      MakeSimEngine(setup, keys_b, ShardLifecycleConfig{/*lazy=*/false, 0});

  // Partition point ops into a low half (shards 0-3) and a high half
  // (shards 4-7), and pull out one scan for the wake-all phase.
  std::vector<Op> low, high;
  SplitByShard(*eager, ops, 4, &low, &high);
  ASSERT_GT(low.size(), 1200u);
  ASSERT_GT(high.size(), 1200u);
  Op scan;
  scan.kind = OpKind::kScan;
  scan.key = 0;
  scan.scan_len = 64;

  auto slice = [](const std::vector<Op>& src, size_t from, size_t count) {
    return std::vector<Op>(src.begin() + from, src.begin() + from + count);
  };
  // Phase A: four low-only batches — shards 4-7 go idle past the
  // threshold and hibernate. Phase B: a high-only batch wakes them.
  // Phase C: four more low-only batches — they hibernate AGAIN (the
  // freeze -> wake -> freeze cycle). Phase D: a scan wakes everything.
  const std::vector<std::vector<Op>> batches = {
      slice(low, 0, 300),   slice(low, 300, 300), slice(low, 600, 300),
      slice(low, 900, 300), slice(high, 0, 600),  slice(low, 0, 300),
      slice(low, 300, 300), slice(low, 600, 300), slice(low, 900, 300),
      {scan},               slice(high, 600, high.size() - 600)};

  // Interleave the schedule with lifecycle assertions on the hibernating
  // engine (the eager engine must never leave kMaterialized).
  size_t b = 0;
  auto run_batch = [&](const std::vector<Op>& batch) {
    SCOPED_TRACE("batch " + std::to_string(b));
    std::vector<OpResult> got(batch.size());
    std::vector<OpResult> want(batch.size());
    hib->ExecuteOps(batch.data(), batch.size(), got.data());
    eager->ExecuteOps(batch.data(), batch.size(), want.data());
    ExpectSameResults(got, want, /*compare_latency=*/true);
    ++b;
  };

  for (size_t i = 0; i < 4; ++i) run_batch(batches[i]);
  // Shards 4-7 idled through >2 batches: frozen.
  for (size_t s = 4; s < 8; ++s) {
    EXPECT_EQ(hib->ShardLifecycle(s), ShardState::kHibernated) << s;
    EXPECT_EQ(eager->ShardLifecycle(s), ShardState::kMaterialized) << s;
  }
  EXPECT_EQ(hib->MaterializedShards(), 4u);

  run_batch(batches[4]);  // high traffic: transparent wake
  for (size_t s = 4; s < 8; ++s) {
    EXPECT_EQ(hib->ShardLifecycle(s), ShardState::kMaterialized) << s;
  }

  for (size_t i = 5; i < 9; ++i) run_batch(batches[i]);
  // Hibernated a second time.
  for (size_t s = 4; s < 8; ++s) {
    EXPECT_EQ(hib->ShardLifecycle(s), ShardState::kHibernated) << s;
  }

  run_batch(batches[9]);  // the scan wakes every hibernated shard
  EXPECT_EQ(hib->MaterializedShards(), 8u);
  run_batch(batches[10]);

  // After the full freeze/wake/freeze/wake history the complete state is
  // still bitwise the eager engine's.
  ExpectSameCounters(hib->AggregateCounters(), eager->AggregateCounters());
  for (size_t s = 0; s < 8; ++s) {
    ExpectSameCounters(hib->ShardCounters(s), eager->ShardCounters(s));
    EXPECT_EQ(hib->ShardCostSnapshot(s).elapsed_ns,
              eager->ShardCostSnapshot(s).elapsed_ns);
    EXPECT_EQ(hib->ShardEntries(s), eager->ShardEntries(s));
  }
  EXPECT_EQ(hib->CostSnapshot().elapsed_ns, eager->CostSnapshot().elapsed_ns);
  EXPECT_EQ(hib->TotalEntries(), eager->TotalEntries());
  EXPECT_EQ(hib->DiskEntries(), eager->DiskEntries());
}

TEST(ShardLifecycleTest, ColdShardsHoldNothingAndAccessorsAreSafe) {
  const tune::SystemSetup setup = SmallSetup(16);
  // No bulk load: every shard starts cold.
  ShardedEngine eng(setup.num_shards,
                    tune::MonkeyDefaultConfig(setup).ToOptions(setup),
                    setup.MakeDeviceConfig());
  EXPECT_EQ(eng.MaterializedShards(), 0u);
  for (size_t s = 0; s < setup.num_shards; ++s) {
    EXPECT_EQ(eng.ShardLifecycle(s), ShardState::kCold);
    EXPECT_EQ(eng.ShardEntries(s), 0u);
    EXPECT_EQ(eng.ShardCostSnapshot(s).TotalIos(), 0u);
    EXPECT_EQ(eng.ShardCounters(s).flushes, 0u);
  }
  EXPECT_EQ(eng.TotalEntries(), 0u);
  EXPECT_EQ(eng.DiskEntries(), 0u);
  EXPECT_FALSE(eng.InTransition());

  // A scan over an all-cold engine probes nothing and finds nothing.
  std::vector<lsm::Entry> out;
  EXPECT_EQ(eng.Scan(0, 100, &out), 0u);
  EXPECT_EQ(eng.MaterializedShards(), 0u);

  // One touching op materializes exactly its own shard.
  Op get;
  get.kind = OpKind::kGet;
  get.key = 12345;
  OpResult r;
  eng.ExecuteOps(&get, 1, &r);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(eng.MaterializedShards(), 1u);
  EXPECT_EQ(eng.ShardLifecycle(eng.ShardIndex(get.key)),
            ShardState::kMaterialized);
}

TEST(ShardLifecycleTest, ReconfigureWhileColdAppliesOnMaterialization) {
  const tune::SystemSetup setup = SmallSetup(4);
  const lsm::Options total = tune::MonkeyDefaultConfig(setup).ToOptions(setup);
  ShardedEngine eng(setup.num_shards, total, setup.MakeDeviceConfig());

  // Retune a cold shard: it must stay cold (deferred reconfiguration of
  // an empty tree is observationally identical to applying it now)...
  lsm::Options tuned = ShardedEngine::ShardOptions(total, setup.num_shards);
  tuned.bloom_bits = tuned.bloom_bits / 2 + 7;
  tuned.buffer_bytes = tuned.buffer_bytes / 2;
  eng.ReconfigureShard(2, tuned);
  EXPECT_EQ(eng.ShardLifecycle(2), ShardState::kCold);
  // ...and the snapshot — and the later materialized shard — must carry
  // the tuned values.
  EXPECT_EQ(eng.ShardOptionsSnapshot(2).bloom_bits, tuned.bloom_bits);
  uint64_t key = 0;
  while (eng.ShardIndex(key) != 2) ++key;
  eng.Put(key, 1);
  EXPECT_EQ(eng.ShardLifecycle(2), ShardState::kMaterialized);
  EXPECT_EQ(eng.ShardOptionsSnapshot(2).bloom_bits, tuned.bloom_bits);
  EXPECT_EQ(eng.ShardOptionsSnapshot(2).buffer_bytes, tuned.buffer_bytes);
}

// ---------------------------------------------------------------------------
// Real-IO backend (FileEngine): the deterministic surface matches; only
// wall-clock latencies may differ.
// ---------------------------------------------------------------------------

std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

std::string UniqueDir(const std::string& tag) {
  return TestBase() + "/camal_lc_test_" + tag + "_" +
         std::to_string(FileEngine::NextUniqueId());
}

/// Hibernates and wakes two of four file shards twice, against an eager
/// twin serving the same batches. The hibernating engine runs with the
/// durability layer off or on; the eager twin never logs, since
/// durability I/O is uncounted and must move no count.
void HibernateWakeRehibernateMatchesEager(bool durable) {
  tune::SystemSetup setup = SmallSetup(4);
  setup.num_entries = 3000;
  setup.total_memory_bits = 16 * 3000;
  const lsm::Options total = tune::MonkeyDefaultConfig(setup).ToOptions(setup);

  FileEngineConfig hib_cfg;
  hib_cfg.workdir = UniqueDir(durable ? "hib_durable" : "hib");
  hib_cfg.durable = durable;
  hib_cfg.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
  FileEngine hib(setup.num_shards, total, hib_cfg);

  FileEngineConfig eager_cfg;
  eager_cfg.workdir = UniqueDir("eager");
  eager_cfg.lifecycle = ShardLifecycleConfig{/*lazy=*/false, 0};
  FileEngine eager(setup.num_shards, total, eager_cfg);

  workload::KeySpace keys_a(setup.num_entries, setup.seed);
  workload::BulkLoad(&hib, keys_a);
  workload::KeySpace keys_b(setup.num_entries, setup.seed);
  workload::BulkLoad(&eager, keys_b);

  workload::KeySpace gen_keys(setup.num_entries, setup.seed);
  const std::vector<Op> ops = GenerateOps(setup, 3000, &gen_keys, 99);
  std::vector<Op> low, high;
  SplitByShard(eager, ops, 2, &low, &high);
  ASSERT_GT(low.size(), 600u);
  ASSERT_GT(high.size(), 600u);
  Op scan;
  scan.kind = OpKind::kScan;
  scan.key = 0;
  scan.scan_len = 64;

  auto slice = [](const std::vector<Op>& src, size_t from, size_t count) {
    return std::vector<Op>(src.begin() + from, src.begin() + from + count);
  };
  const std::vector<std::vector<Op>> batches = {
      slice(low, 0, 300),  slice(low, 300, 300),  // shards 2-3 freeze
      slice(high, 0, 300),                        // wake from the logs
      slice(low, 600, std::min(size_t{300}, low.size() - 600)),
      slice(low, 0, 300),                         // shards 2-3 freeze again
      {scan},                                     // wake-all
      slice(high, 300, high.size() - 300)};

  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::vector<Op>& batch = batches[b];
    std::vector<OpResult> got(batch.size());
    std::vector<OpResult> want(batch.size());
    hib.ExecuteOps(batch.data(), batch.size(), got.data());
    eager.ExecuteOps(batch.data(), batch.size(), want.data());
    // Real clocks: latency differs run to run; everything else is owed
    // bit-exactly.
    ExpectSameResults(got, want, /*compare_latency=*/false);
    if (b == 1) {
      // Two low-only batches passed: the high shards went to sleep.
      EXPECT_EQ(hib.ShardLifecycle(2), ShardState::kHibernated);
      EXPECT_EQ(hib.ShardLifecycle(3), ShardState::kHibernated);
    }
    if (b == 2) {
      EXPECT_EQ(hib.ShardLifecycle(2), ShardState::kMaterialized);
      EXPECT_EQ(hib.ShardLifecycle(3), ShardState::kMaterialized);
    }
    if (b == 5) {
      EXPECT_EQ(hib.MaterializedShards(), 4u);
    }
  }

  ExpectSameCounters(hib.AggregateCounters(), eager.AggregateCounters());
  EXPECT_EQ(hib.CostSnapshot().block_reads, eager.CostSnapshot().block_reads);
  EXPECT_EQ(hib.CostSnapshot().block_writes,
            eager.CostSnapshot().block_writes);
  for (size_t s = 0; s < setup.num_shards; ++s) {
    ExpectSameCounters(hib.ShardCounters(s), eager.ShardCounters(s));
    EXPECT_EQ(hib.ShardRunCount(s), eager.ShardRunCount(s)) << "shard " << s;
    EXPECT_EQ(hib.ShardEntries(s), eager.ShardEntries(s)) << "shard " << s;
  }
  EXPECT_EQ(hib.TotalEntries(), eager.TotalEntries());
  EXPECT_EQ(hib.DiskEntries(), eager.DiskEntries());
}

TEST(ShardLifecycleTest, HibernateWakeRehibernateMatchesEagerOnFile) {
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "not durable");
    HibernateWakeRehibernateMatchesEager(durable);
  }
}

// ---------------------------------------------------------------------------
// Batch size one: every op is its own `ExecuteOps` call, so every op is one
// idle epoch, one batch plan and one profiler fold.
// ---------------------------------------------------------------------------

constexpr size_t kSingleOpCheckpoint = 250;  // ops between lifecycle checks

/// A shard-skewed mixed stream of gets, puts, deletes and a few scans:
/// hot low-index shards stay awake while the cold ones keep falling idle.
std::vector<Op> SingleOpStream(const tune::SystemSetup& setup, size_t n) {
  workload::KeySpace keys(setup.num_entries, setup.seed);
  workload::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = setup.scan_len;
  gen_cfg.shard_skew = 1.0;
  gen_cfg.num_shards = setup.num_shards;
  model::WorkloadSpec spec{0.3, 0.3, 0.04, 0.36};
  spec.delete_frac = 0.25;
  workload::OperationGenerator gen(spec, &keys, gen_cfg, /*seed=*/23);
  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) ops.push_back(workload::ToEngineOp(gen.Next()));
  return ops;
}

/// The lifecycle of every shard, one letter each: C(old), M(aterialized),
/// H(ibernated).
std::string LifecycleLetters(const StorageEngine& eng) {
  std::string out;
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    const ShardState state = eng.ShardLifecycle(s);
    out += state == ShardState::kCold           ? 'C'
           : state == ShardState::kMaterialized ? 'M'
                                                : 'H';
  }
  return out;
}

/// The hibernating engine's lifecycle after every `kSingleOpCheckpoint`
/// single-op batches of `SingleOpStream(SmallSetup(8), 2000)`. Both
/// backends decide it through one ShardSet, so it holds for each.
const char* const kSingleOpLifecycle[] = {
    "HHMHMHHH", "MMHHHMHH", "MMMMMMMM", "MMHMHHHH",
    "MMMMMMMM", "MMHMHHHH", "HHMHHHHM", "MMHHHHHH",
};

constexpr OpKind kAllKinds[] = {OpKind::kGet, OpKind::kPut, OpKind::kDelete,
                                OpKind::kScan};

TEST(ShardLifecycleTest, SingleOpBatchesMatchEagerOnSim) {
  const tune::SystemSetup setup = SmallSetup(8);
  const std::vector<Op> ops = SingleOpStream(setup, 2000);

  workload::KeySpace keys_a(setup.num_entries, setup.seed);
  auto hib = MakeSimEngine(
      setup, keys_a,
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/3});
  workload::KeySpace keys_b(setup.num_entries, setup.seed);
  auto eager =
      MakeSimEngine(setup, keys_b, ShardLifecycleConfig{/*lazy=*/false, 0});

  std::vector<std::string> lifecycle;
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    std::vector<OpResult> got(1), want(1);
    hib->ExecuteOps(&ops[i], 1, got.data());
    eager->ExecuteOps(&ops[i], 1, want.data());
    ExpectSameResults(got, want, /*compare_latency=*/true);
    if ((i + 1) % kSingleOpCheckpoint == 0) {
      lifecycle.push_back(LifecycleLetters(*hib));
      EXPECT_EQ(LifecycleLetters(*eager), "MMMMMMMM");
    }
  }
  EXPECT_EQ(lifecycle, std::vector<std::string>(std::begin(kSingleOpLifecycle),
                                                std::end(kSingleOpLifecycle)));

  ExpectSameCounters(hib->AggregateCounters(), eager->AggregateCounters());
  for (size_t s = 0; s < setup.num_shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSameCounters(hib->ShardCounters(s), eager->ShardCounters(s));
    const sim::DeviceSnapshot a = hib->ShardCostSnapshot(s);
    const sim::DeviceSnapshot b = eager->ShardCostSnapshot(s);
    EXPECT_EQ(a.block_reads, b.block_reads);
    EXPECT_EQ(a.block_writes, b.block_writes);
    EXPECT_EQ(a.elapsed_ns, b.elapsed_ns);  // bit-exact
    EXPECT_EQ(hib->ShardEntries(s), eager->ShardEntries(s));
  }

  // The profiler's cells, pinned bit for bit: {ops, ios, latency_ns} per
  // shard and op kind (get, put, delete, scan).
  struct Cell {
    uint64_t ops, ios;
    double latency_ns;
  };
  const Cell want[8][4] = {
      {{435u, 209u, 0x1.2b4f97a529fc2p+24},
       {183u, 321u, 0x1.57f49c1c629d6p+23},
       {51u, 62u, 0x1.0ad9dd5dce53p+21},
       {28u, 534u, 0x1.7601649f01cc8p+25}},
      {{238u, 132u, 0x1.7b8e4d62654bcp+23},
       {102u, 192u, 0x1.979fad76e4fap+22},
       {30u, 24u, 0x1.bdcdc0ff0a88p+19},
       {8u, 155u, 0x1.b587832d3594p+23}},
      {{141u, 78u, 0x1.be6025c9cd1f8p+22},
       {73u, 142u, 0x1.266294a350b98p+22},
       {23u, 31u, 0x1.1fe2e1411e7p+20},
       {15u, 285u, 0x1.8fa97408f7d9p+24}},
      {{117u, 68u, 0x1.7f6356c721a68p+22},
       {52u, 142u, 0x1.1a88302ab48a8p+22},
       {20u, 29u, 0x1.0be902773abep+20},
       {5u, 95u, 0x1.08d69526499ep+23}},
      {{96u, 38u, 0x1.b8aa736e08f1p+21},
       {34u, 51u, 0x1.b05c7d4297bp+20},
       {9u, 12u, 0x1.bc7478a2f3dp+18},
       {6u, 110u, 0x1.37c0fb4800d2p+23}},
      {{78u, 37u, 0x1.b1b828c2be6bp+21},
       {35u, 30u, 0x1.1b1fec5a7ca5p+20},
       {8u, 35u, 0x1.19f0fa87ce84p+20},
       {6u, 121u, 0x1.509e11a9e57cp+23}},
      {{65u, 34u, 0x1.897cc19288f4p+21},
       {30u, 105u, 0x1.9e4cc9d28f37p+21},
       {10u, 13u, 0x1.f3220c939e7p+18},
       {3u, 51u, 0x1.1f41ba64ca4cp+22}},
      {{56u, 31u, 0x1.6390b180bda7p+21},
       {28u, 118u, 0x1.dd5f1eb096a7p+21},
       {13u, 0u, 0x1.964p+11},
       {2u, 44u, 0x1.ed566a6af308p+21}},
  };
  for (size_t s = 0; s < setup.num_shards; ++s) {
    for (size_t k = 0; k < 4; ++k) {
      SCOPED_TRACE("shard " + std::to_string(s) + " kind " +
                   std::to_string(k));
      const OpCostWindow got = hib->ShardOpCostWindow(s, kAllKinds[k]);
      const OpCostWindow twin = eager->ShardOpCostWindow(s, kAllKinds[k]);
      EXPECT_EQ(got.ops, twin.ops);
      EXPECT_EQ(got.ios, twin.ios);
      EXPECT_EQ(got.latency_ns, twin.latency_ns);
      EXPECT_EQ(got.ops, want[s][k].ops);
      EXPECT_EQ(got.ios, want[s][k].ios);
      EXPECT_EQ(got.latency_ns, want[s][k].latency_ns);
    }
  }
}

TEST(ShardLifecycleTest, SingleOpBatchesMatchEagerOnFile) {
  const tune::SystemSetup setup = SmallSetup(8);
  const size_t num_ops = 1000;
  const std::vector<Op> ops = SingleOpStream(setup, num_ops);
  const lsm::Options total = tune::MonkeyDefaultConfig(setup).ToOptions(setup);

  FileEngineConfig hib_cfg;
  hib_cfg.workdir = UniqueDir("single_hib");
  hib_cfg.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/3};
  FileEngine hib(setup.num_shards, total, hib_cfg);
  FileEngineConfig eager_cfg;
  eager_cfg.workdir = UniqueDir("single_eager");
  eager_cfg.lifecycle = ShardLifecycleConfig{/*lazy=*/false, 0};
  FileEngine eager(setup.num_shards, total, eager_cfg);
  workload::KeySpace keys_a(setup.num_entries, setup.seed);
  workload::BulkLoad(&hib, keys_a);
  workload::KeySpace keys_b(setup.num_entries, setup.seed);
  workload::BulkLoad(&eager, keys_b);

  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    std::vector<OpResult> got(1), want(1);
    hib.ExecuteOps(&ops[i], 1, got.data());
    eager.ExecuteOps(&ops[i], 1, want.data());
    ExpectSameResults(got, want, /*compare_latency=*/false);
    if ((i + 1) % kSingleOpCheckpoint == 0) {
      EXPECT_EQ(LifecycleLetters(hib),
                kSingleOpLifecycle[i / kSingleOpCheckpoint]);
    }
  }

  ExpectSameCounters(hib.AggregateCounters(), eager.AggregateCounters());
  for (size_t s = 0; s < setup.num_shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSameCounters(hib.ShardCounters(s), eager.ShardCounters(s));
    EXPECT_EQ(hib.ShardCostSnapshot(s).block_reads,
              eager.ShardCostSnapshot(s).block_reads);
    EXPECT_EQ(hib.ShardCostSnapshot(s).block_writes,
              eager.ShardCostSnapshot(s).block_writes);
    EXPECT_EQ(hib.ShardRunCount(s), eager.ShardRunCount(s));
    EXPECT_EQ(hib.ShardEntries(s), eager.ShardEntries(s));
    for (const OpKind kind : kAllKinds) {
      EXPECT_EQ(hib.ShardOpCostWindow(s, kind).ops,
                eager.ShardOpCostWindow(s, kind).ops);
      EXPECT_EQ(hib.ShardOpCostWindow(s, kind).ios,
                eager.ShardOpCostWindow(s, kind).ios);
    }
  }
  EXPECT_EQ(hib.TotalEntries(), eager.TotalEntries());
  EXPECT_EQ(hib.DiskEntries(), eager.DiskEntries());
}

// ---------------------------------------------------------------------------
// Cross-backend parity: the simulated and the real-IO engine route,
// materialize, hibernate, wake, and defer reconfigurations identically.
// ---------------------------------------------------------------------------

void ExpectSameOptions(const lsm::Options& a, const lsm::Options& b) {
  EXPECT_EQ(a.size_ratio, b.size_ratio);
  EXPECT_EQ(a.entry_bytes, b.entry_bytes);
  EXPECT_EQ(a.buffer_bytes, b.buffer_bytes);
  EXPECT_EQ(a.bloom_bits, b.bloom_bits);
  EXPECT_EQ(a.block_cache_bytes, b.block_cache_bytes);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.runs_per_level, b.runs_per_level);
  EXPECT_EQ(a.file_bytes, b.file_bytes);
  EXPECT_EQ(a.io_queue_depth, b.io_queue_depth);
}

void ExpectSameLifecycle(const StorageEngine& sim, const StorageEngine& file) {
  ASSERT_EQ(sim.NumShards(), file.NumShards());
  for (size_t s = 0; s < sim.NumShards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(sim.ShardLifecycle(s), file.ShardLifecycle(s));
    ExpectSameOptions(sim.ShardOptionsSnapshot(s),
                      file.ShardOptionsSnapshot(s));
  }
  EXPECT_EQ(sim.MaterializedShards(), file.MaterializedShards());
  std::vector<size_t> sim_resident, file_resident;
  sim.AppendResidentShards(&sim_resident);
  file.AppendResidentShards(&file_resident);
  EXPECT_EQ(sim_resident, file_resident);
}

/// The highest-index shard in `state`, or NumShards() when there is none.
size_t LastShardIn(const StorageEngine& eng, ShardState state) {
  for (size_t s = eng.NumShards(); s-- > 0;) {
    if (eng.ShardLifecycle(s) == state) return s;
  }
  return eng.NumShards();
}

TEST(ShardLifecycleTest, BackendsMakeIdenticalLifecycleDecisions) {
  const tune::SystemSetup setup = SmallSetup(8);
  const lsm::Options total = tune::MonkeyDefaultConfig(setup).ToOptions(setup);
  const ShardLifecycleConfig lc{/*lazy=*/true, /*hibernate_after_batches=*/2};
  ShardedEngine sim(setup.num_shards, total, setup.MakeDeviceConfig(), lc);
  FileEngineConfig cfg;
  cfg.workdir = UniqueDir("parity");
  cfg.lifecycle = lc;
  FileEngine file(setup.num_shards, total, cfg);

  // Skewed point traffic with no generated scans: hot low-index shards,
  // rarely-touched high-index ones that materialize late and keep
  // falling idle. Scans are scheduled explicitly (every sixth batch) to
  // exercise wake-all.
  workload::KeySpace keys(setup.num_entries, setup.seed);
  workload::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = setup.scan_len;
  gen_cfg.shard_skew = 2.0;
  gen_cfg.num_shards = setup.num_shards;
  workload::OperationGenerator gen(model::WorkloadSpec{0.3, 0.3, 0.0, 0.4},
                                   &keys, gen_cfg, /*seed=*/7);

  // Shard-local retunes: a cold shard defers its new options to
  // materialization; a hibernated one is reconfigured asleep. The buffer
  // only grows, so the file backend has no buffered overflow to wake for.
  auto retune = [&](size_t s) {
    lsm::Options opts = sim.ShardOptionsSnapshot(s);
    opts.bloom_bits = opts.bloom_bits / 2 + 3;
    opts.buffer_bytes *= 2;
    opts.block_cache_bytes /= 2;
    sim.ReconfigureShard(s, opts);
    file.ReconfigureShard(s, opts);
    ExpectSameLifecycle(sim, file);
  };
  const size_t coldest = setup.num_shards - 1;
  retune(coldest);
  EXPECT_EQ(file.ShardLifecycle(coldest), ShardState::kCold);

  bool retuned_hibernated = false;
  size_t hibernated_batches = 0;
  size_t found_gets = 0;
  size_t scan_hits = 0;
  for (size_t b = 0; b < 30; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    std::vector<Op> batch;
    for (size_t i = 0; i < 64; ++i) {
      batch.push_back(workload::ToEngineOp(gen.Next()));
    }
    if (b % 6 == 5) {
      Op scan;
      scan.kind = OpKind::kScan;
      scan.key = batch.front().key;
      scan.scan_len = 32;
      batch.insert(batch.begin() + 32, scan);
    }
    std::vector<OpResult> sim_results(batch.size());
    std::vector<OpResult> file_results(batch.size());
    sim.ExecuteOps(batch.data(), batch.size(), sim_results.data());
    file.ExecuteOps(batch.data(), batch.size(), file_results.data());
    ExpectSameLifecycle(sim, file);
    // Both engines hold the same logical contents, so every op's logical
    // outcome agrees across backends.
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(sim_results[i].found, file_results[i].found) << "op " << i;
      EXPECT_EQ(sim_results[i].scan_hits, file_results[i].scan_hits)
          << "op " << i;
      found_gets += sim_results[i].found ? 1 : 0;
      scan_hits += sim_results[i].scan_hits;
    }

    const size_t asleep = LastShardIn(sim, ShardState::kHibernated);
    if (asleep == sim.NumShards()) continue;
    ++hibernated_batches;
    if (!retuned_hibernated) {
      retune(asleep);
      EXPECT_EQ(file.ShardLifecycle(asleep), ShardState::kHibernated);
      retuned_hibernated = true;
    }
  }
  EXPECT_TRUE(retuned_hibernated);
  EXPECT_GT(hibernated_batches, 1u);
  EXPECT_GT(found_gets, 0u);
  EXPECT_GT(scan_hits, 0u);
}

}  // namespace
}  // namespace camal::engine
