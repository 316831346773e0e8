// Real-IO backend (engine::FileEngine): working-directory lifecycle,
// O_DIRECT fallback, point-op vs batched-pipeline equivalence, runtime
// per-shard reconfiguration under in-flight batches, arbiter budget
// conservation on real files, golden counters and run-file bytes for a
// leveling and a tiering cell, a tiered merge + scan oracle, streaming
// merges that span several read and write chunks, an all-tombstone merge
// that leaves no run behind, scans that read no block past their last
// entry, and the
// sim-vs-real smoke: the model-recommended tuning is no worse than the
// default tuning on the file backend (compared on real, deterministic I/O
// counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "camal/classic_tuner.h"
#include "camal/evaluator.h"
#include "camal/memory_arbiter.h"
#include "camal/sample.h"
#include "engine/file_engine.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::engine {
namespace {

namespace fs = std::filesystem;

/// Base directory for this suite's file sets. CI points it at a tmpfs
/// mount (CAMAL_FILE_WORKDIR=/dev/shm/...) so the engine-label suite can
/// run the real-IO paths without touching slow disks.
std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

std::string UniqueDir(const std::string& tag) {
  return TestBase() + "/camal_fe_test_" + tag + "_" +
         std::to_string(FileEngine::NextUniqueId());
}

lsm::Options SmallOptions() {
  lsm::Options opts;
  opts.buffer_bytes = 64 * 128;  // 64 entries per shard slice
  opts.bloom_bits = 8 * 4000;
  opts.block_cache_bytes = 8 * 4096;
  return opts;
}

/// SmallOptions under tiering with three runs per level: every level-0
/// merge folds at least three runs together.
lsm::Options TieredOptions() {
  lsm::Options opts = SmallOptions();
  opts.policy = lsm::CompactionPolicy::kTiering;
  opts.size_ratio = 4.0;
  opts.runs_per_level = 3;
  return opts;
}

/// CRC-32C folded over every `run_*.cam` file of one shard directory, in
/// file-name order, each file's name hashed ahead of its bytes.
uint32_t ShardRunDigest(const std::string& shard_dir) {
  std::vector<std::string> names;
  for (const auto& f : fs::directory_iterator(shard_dir)) {
    const std::string name = f.path().filename().string();
    if (name.rfind("run_", 0) == 0 && f.path().extension() == ".cam") {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  uint32_t crc = 0;
  for (const std::string& name : names) {
    std::ifstream in(shard_dir + "/" + name, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    crc = util::Crc32c(name.data(), name.size(), crc);
    crc = util::Crc32c(bytes.data(), bytes.size(), crc);
  }
  return crc;
}

tune::SystemSetup FileSetup(uint64_t entries, size_t shards) {
  tune::SystemSetup setup;
  setup.num_entries = entries;
  setup.total_memory_bits = 16 * entries;
  setup.num_shards = shards;
  setup.backend = tune::EngineBackend::kFile;
  setup.file_workdir = TestBase();
  return setup;
}

/// The canonical steady-state stream of the engine suites.
workload::ExecutionResult RunStream(StorageEngine* eng,
                                    workload::KeySpace* keys, size_t num_ops,
                                    double skew = 0.0,
                                    workload::BatchObserver* hook = nullptr,
                                    size_t batch_ops = 256) {
  workload::ExecutorConfig exec;
  exec.num_ops = num_ops;
  exec.seed = 77;
  exec.batch_ops = batch_ops;
  exec.generator.scan_len = 16;
  exec.generator.shard_skew = skew;
  exec.generator.num_shards = eng->NumShards();
  exec.hook = hook;
  return workload::Execute(eng, model::WorkloadSpec{0.2, 0.3, 0.2, 0.3}, exec,
                           keys);
}

TEST(FileEngineTest, WorkdirLifecycleCreatesAndRemoves) {
  const std::string dir = UniqueDir("lifecycle");
  ASSERT_FALSE(fs::exists(dir));
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    FileEngine eng(2, SmallOptions(), cfg);
    for (uint64_t k = 0; k < 500; ++k) eng.Put(2 * k, k);
    eng.FlushMemtable();
    EXPECT_TRUE(fs::exists(dir + "/shard_0"));
    EXPECT_TRUE(fs::exists(dir + "/shard_1"));
    // At least one run file persisted per shard.
    size_t files = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) ++files;
    }
    EXPECT_GT(files, 0u);
  }
  // Destruction removes the directory the engine created.
  EXPECT_FALSE(fs::exists(dir));
}

TEST(FileEngineTest, KeepFilesLeavesRunsBehind) {
  const std::string dir = UniqueDir("keep");
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.keep_files = true;
    FileEngine eng(1, SmallOptions(), cfg);
    for (uint64_t k = 0; k < 200; ++k) eng.Put(2 * k, k);
    eng.FlushMemtable();
  }
  EXPECT_TRUE(fs::exists(dir + "/shard_0"));
  fs::remove_all(dir);
}

TEST(FileEngineTest, PreexistingCallerDirectoryIsPreserved) {
  const std::string dir = UniqueDir("caller_owned");
  fs::create_directories(dir);
  const std::string sibling = dir + "/unrelated.txt";
  { std::ofstream(sibling) << "keep me"; }
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    FileEngine eng(1, SmallOptions(), cfg);
    eng.Put(2, 1);
    eng.FlushMemtable();
  }
  // Only the engine's shard subtrees are removed, never sibling content.
  EXPECT_TRUE(fs::exists(sibling));
  EXPECT_FALSE(fs::exists(dir + "/shard_0"));
  fs::remove_all(dir);
}

TEST(FileEngineTest, DefaultWorkdirIsUniqueAndRemoved) {
  std::string wd0, wd1;
  {
    FileEngine a(1, SmallOptions(), FileEngineConfig{});
    FileEngine b(1, SmallOptions(), FileEngineConfig{});
    wd0 = a.workdir();
    wd1 = b.workdir();
    EXPECT_NE(wd0, wd1);
    EXPECT_TRUE(fs::exists(wd0));
    EXPECT_TRUE(fs::exists(wd1));
  }
  EXPECT_FALSE(fs::exists(wd0));
  EXPECT_FALSE(fs::exists(wd1));
}

TEST(FileEngineTest, BasicReadYourWrites) {
  FileEngineConfig cfg;
  cfg.workdir = UniqueDir("rw");
  FileEngine eng(4, SmallOptions(), cfg);
  const workload::KeySpace keys(3000, 42);
  workload::BulkLoad(&eng, keys);
  EXPECT_EQ(eng.TotalEntries(), 3000u);

  uint64_t value = 0;
  for (uint64_t r = 0; r < keys.num_keys(); ++r) {
    ASSERT_TRUE(eng.Get(keys.KeyAt(r), &value)) << "rank " << r;
  }
  // Odd keys are guaranteed misses.
  for (uint64_t k = 1; k < 999; k += 2) {
    EXPECT_FALSE(eng.Get(k, &value));
  }
  // Deletes shadow older versions.
  eng.Delete(keys.KeyAt(7));
  EXPECT_FALSE(eng.Get(keys.KeyAt(7), &value));
  eng.FlushMemtable();
  EXPECT_FALSE(eng.Get(keys.KeyAt(7), &value));
}

TEST(FileEngineTest, ScanMatchesReferenceModel) {
  FileEngineConfig cfg;
  cfg.workdir = UniqueDir("scan");
  FileEngine eng(3, SmallOptions(), cfg);

  std::map<uint64_t, uint64_t> reference;
  util::Random rng(9);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t key = 2 * rng.Uniform(2000);
    if (rng.Bernoulli(0.15)) {
      eng.Delete(key);
      reference.erase(key);
    } else {
      eng.Put(key, i);
      reference[key] = static_cast<uint64_t>(i);
    }
  }

  for (uint64_t start : {0ull, 100ull, 999ull, 2500ull, 3999ull}) {
    std::vector<lsm::Entry> got;
    eng.Scan(start, 25, &got);
    auto it = reference.lower_bound(start);
    size_t i = 0;
    for (; i < 25 && it != reference.end(); ++i, ++it) {
      ASSERT_LT(i, got.size()) << "start " << start;
      EXPECT_EQ(got[i].key, it->first);
      EXPECT_EQ(got[i].value, it->second);
    }
    EXPECT_EQ(got.size(), i);
  }
}

TEST(FileEngineTest, DirectIoAndBufferedProduceIdenticalResults) {
  // The engine probes the filesystem and falls back to buffered I/O when
  // O_DIRECT is refused; logical results and real I/O *counts* must be
  // identical either way (only timings differ).
  FileEngineConfig direct_cfg;
  direct_cfg.workdir = UniqueDir("direct");
  direct_cfg.try_direct_io = true;
  FileEngineConfig buffered_cfg;
  buffered_cfg.workdir = UniqueDir("buffered");
  buffered_cfg.try_direct_io = false;

  FileEngine direct(2, SmallOptions(), direct_cfg);
  FileEngine buffered(2, SmallOptions(), buffered_cfg);
  EXPECT_FALSE(buffered.direct_io());

  workload::KeySpace keys_a(2000, 42);
  workload::KeySpace keys_b(2000, 42);
  workload::BulkLoad(&direct, keys_a);
  workload::BulkLoad(&buffered, keys_b);
  const workload::ExecutionResult ra = RunStream(&direct, &keys_a, 1500);
  const workload::ExecutionResult rb = RunStream(&buffered, &keys_b, 1500);

  EXPECT_EQ(ra.lookups_found, rb.lookups_found);
  EXPECT_EQ(ra.lookups_missed, rb.lookups_missed);
  EXPECT_EQ(ra.total_ios, rb.total_ios);
  EXPECT_EQ(direct.CostSnapshot().block_reads,
            buffered.CostSnapshot().block_reads);
  EXPECT_EQ(direct.CostSnapshot().block_writes,
            buffered.CostSnapshot().block_writes);
  EXPECT_EQ(direct.TotalEntries(), buffered.TotalEntries());
}

TEST(FileEngineTest, PointOpsAndExecuteOpsEquivalent) {
  // The batched pipeline must serve exactly what op-at-a-time serving
  // serves: same outcomes, same real I/O counts, same end state.
  FileEngineConfig cfg_a;
  cfg_a.workdir = UniqueDir("point");
  FileEngineConfig cfg_b;
  cfg_b.workdir = UniqueDir("batched");
  FileEngine point(3, SmallOptions(), cfg_a);
  FileEngine batched(3, SmallOptions(), cfg_b);

  // A deterministic mixed stream, including misses and deletes.
  std::vector<Op> ops;
  util::Random rng(31);
  for (int i = 0; i < 4000; ++i) {
    Op op;
    const double roll = rng.NextDouble();
    if (roll < 0.45) {
      op.kind = OpKind::kPut;
      op.key = 2 * rng.Uniform(1500);
      op.value = static_cast<uint64_t>(i);
    } else if (roll < 0.8) {
      op.kind = OpKind::kGet;
      op.key = rng.Uniform(3000);  // half will be odd = misses
    } else if (roll < 0.9) {
      op.kind = OpKind::kDelete;
      op.key = 2 * rng.Uniform(1500);
    } else {
      op.kind = OpKind::kScan;
      op.key = rng.Uniform(3000);
      op.scan_len = 16;
    }
    ops.push_back(op);
  }

  // Point-op serving.
  size_t point_found = 0, point_scan_hits = 0;
  std::vector<lsm::Entry> scan_buf;
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kPut:
        point.Put(op.key, op.value);
        break;
      case OpKind::kDelete:
        point.Delete(op.key);
        break;
      case OpKind::kGet: {
        uint64_t v = 0;
        if (point.Get(op.key, &v)) ++point_found;
        break;
      }
      case OpKind::kScan:
        scan_buf.clear();
        point_scan_hits += point.Scan(op.key, op.scan_len, &scan_buf);
        break;
    }
  }

  // Batched serving in uneven batch slices.
  size_t batched_found = 0, batched_scan_hits = 0;
  size_t at = 0;
  const size_t slices[] = {1, 7, 64, 256, 1000};
  size_t slice = 0;
  while (at < ops.size()) {
    const size_t n = std::min(slices[slice++ % 5], ops.size() - at);
    std::vector<OpResult> results(n);
    batched.ExecuteOps(ops.data() + at, n, results.data());
    for (size_t i = 0; i < n; ++i) {
      if (ops[at + i].kind == OpKind::kGet && results[i].found) {
        ++batched_found;
      }
      batched_scan_hits += results[i].scan_hits;
    }
    at += n;
  }

  EXPECT_EQ(point_found, batched_found);
  EXPECT_EQ(point_scan_hits, batched_scan_hits);
  EXPECT_EQ(point.TotalEntries(), batched.TotalEntries());
  EXPECT_EQ(point.DiskEntries(), batched.DiskEntries());
  EXPECT_EQ(point.CostSnapshot().block_reads,
            batched.CostSnapshot().block_reads);
  EXPECT_EQ(point.CostSnapshot().block_writes,
            batched.CostSnapshot().block_writes);
  for (size_t s = 0; s < point.NumShards(); ++s) {
    EXPECT_EQ(point.ShardEntries(s), batched.ShardEntries(s));
    EXPECT_EQ(point.ShardCostSnapshot(s).block_reads,
              batched.ShardCostSnapshot(s).block_reads);
  }
}

TEST(FileEngineTest, PooledExecuteOpsMatchesSerial) {
  // The per-shard submission lists run concurrently when a pool is
  // attached; logical results and real I/O counts must match the serial
  // execution exactly (shard state — file set, cache, clock — is fully
  // shard-local).
  FileEngineConfig cfg_a;
  cfg_a.workdir = UniqueDir("serial_exec");
  FileEngineConfig cfg_b;
  cfg_b.workdir = UniqueDir("pooled_exec");
  FileEngine serial(4, SmallOptions(), cfg_a);
  FileEngine pooled(4, SmallOptions(), cfg_b);
  util::ThreadPool pool(3);
  pooled.set_pool(&pool);

  workload::KeySpace keys_a(2500, 42);
  workload::KeySpace keys_b(2500, 42);
  workload::BulkLoad(&serial, keys_a);
  workload::BulkLoad(&pooled, keys_b);
  const workload::ExecutionResult ra = RunStream(&serial, &keys_a, 2000);
  const workload::ExecutionResult rb = RunStream(&pooled, &keys_b, 2000);

  EXPECT_EQ(ra.lookups_found, rb.lookups_found);
  EXPECT_EQ(ra.lookups_missed, rb.lookups_missed);
  EXPECT_EQ(ra.total_ios, rb.total_ios);
  EXPECT_EQ(serial.TotalEntries(), pooled.TotalEntries());
  for (size_t s = 0; s < serial.NumShards(); ++s) {
    EXPECT_EQ(serial.ShardCostSnapshot(s).block_reads,
              pooled.ShardCostSnapshot(s).block_reads);
    EXPECT_EQ(serial.ShardCostSnapshot(s).block_writes,
              pooled.ShardCostSnapshot(s).block_writes);
    EXPECT_EQ(serial.ShardEntries(s), pooled.ShardEntries(s));
  }
}

TEST(FileEngineTest, RealClocksAccumulatePerShard) {
  FileEngineConfig cfg;
  cfg.workdir = UniqueDir("clocks");
  FileEngine eng(2, SmallOptions(), cfg);
  workload::KeySpace keys(2000, 42);
  workload::BulkLoad(&eng, keys);
  const workload::ExecutionResult res = RunStream(&eng, &keys, 1000);

  // Per-op latencies are real measurements: positive, and their sum is
  // reflected in the engine clocks.
  EXPECT_GT(res.MeanLatencyNs(), 0.0);
  EXPECT_GT(res.total_ios, 0u);
  double shard_sum = 0.0;
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    const sim::DeviceSnapshot snap = eng.ShardCostSnapshot(s);
    EXPECT_GT(snap.elapsed_ns, 0.0);
    shard_sum += snap.elapsed_ns;
  }
  EXPECT_DOUBLE_EQ(shard_sum, eng.CostSnapshot().elapsed_ns);
  // The execution window is part of the engine's lifetime clock.
  EXPECT_LE(res.total_ns, eng.CostSnapshot().elapsed_ns * (1.0 + 1e-9));
}

/// Reconfigures one shard between batches — the arbiter's mutation shape,
/// driven mid-phase while batches are in flight.
class ShrinkShardHook : public workload::BatchObserver {
 public:
  void OnBatchEvent(StorageEngine* engine,
                    const workload::BatchEvent&) override {
    ++batches_;
    if (batches_ % 3 != 0) return;
    const size_t s = batches_ % engine->NumShards();
    lsm::Options opts = engine->ShardOptionsSnapshot(s);
    // Alternate shrinking and growing the shard's footprint.
    if (grow_) {
      opts.buffer_bytes *= 2;
      opts.block_cache_bytes *= 2;
    } else {
      opts.buffer_bytes = std::max<uint64_t>(opts.entry_bytes * 4,
                                             opts.buffer_bytes / 2);
      opts.block_cache_bytes /= 2;
    }
    grow_ = !grow_;
    engine->ReconfigureShard(s, opts);
    ++reconfigures_;
  }

  size_t reconfigures() const { return reconfigures_; }

 private:
  size_t batches_ = 0;
  size_t reconfigures_ = 0;
  bool grow_ = false;
};

TEST(FileEngineTest, ReconfigureShardUnderInFlightBatches) {
  FileEngineConfig cfg;
  cfg.workdir = UniqueDir("reconf");
  FileEngine eng(4, SmallOptions(), cfg);
  workload::KeySpace keys(3000, 42);
  workload::BulkLoad(&eng, keys);

  ShrinkShardHook hook;
  RunStream(&eng, &keys, 3000, /*skew=*/0.0, &hook, /*batch_ops=*/128);
  EXPECT_GT(hook.reconfigures(), 0u);

  // The engine stays fully readable after repeated mid-flight resizes:
  // the stream only updates existing keys (delete_frac is 0), so every
  // key remains live.
  uint64_t value = 0;
  for (uint64_t r = 0; r < keys.num_keys(); ++r) {
    ASSERT_TRUE(eng.Get(keys.KeyAt(r), &value)) << "rank " << r;
  }

  // Shrunken buffers take effect: the buffered residue across all shards
  // stays within the sum of the *current* per-shard capacities.
  uint64_t capacity_sum = 0;
  for (size_t s = 0; s < eng.NumShards(); ++s) {
    capacity_sum += eng.ShardOptionsSnapshot(s).BufferEntries();
  }
  EXPECT_LE(eng.TotalEntries() - eng.DiskEntries(), capacity_sum);
}

TEST(FileEngineTest, ReconfigureShardResizesFootprintImmediately) {
  FileEngineConfig cfg;
  cfg.workdir = UniqueDir("resize");
  FileEngine eng(1, SmallOptions(), cfg);  // 1 shard: memtable observable
  for (uint64_t k = 0; k < 40; ++k) eng.Put(2 * k, k);
  ASSERT_GT(eng.TotalEntries(), eng.DiskEntries());  // buffered residue

  lsm::Options shrunk = eng.ShardOptionsSnapshot(0);
  shrunk.buffer_bytes = shrunk.entry_bytes * 8;
  shrunk.block_cache_bytes = 0;
  shrunk.bloom_bits /= 2;
  eng.ReconfigureShard(0, shrunk);

  // The snapshot reflects the new options verbatim (this is the surface
  // the arbiter's conservation accounting reads).
  const lsm::Options live = eng.ShardOptionsSnapshot(0);
  EXPECT_EQ(live.buffer_bytes, shrunk.buffer_bytes);
  EXPECT_EQ(live.block_cache_bytes, 0u);
  EXPECT_EQ(live.bloom_bits, shrunk.bloom_bits);
  EXPECT_EQ(eng.ShardBudgetSnapshot(0).TotalBits(),
            ShardBudget::FromOptions(shrunk).TotalBits());
  // The over-capacity memtable flushed on reconfigure.
  EXPECT_EQ(eng.TotalEntries(), eng.DiskEntries());
}

// Invalid options die on every way into the engine — construction, a
// total reconfigure, and a per-shard reconfigure of a live or a cold
// shard — instead of being accepted: size_ratio < 2 leaves every level
// capacity at zero (a flush would merge into ever-deeper levels without
// end), and an io_queue_depth past the bound would size a ring with that
// many slot buffers.
TEST(FileEngineDeathTest, InvalidOptionsDieOnEveryWayIn) {
  FileEngineConfig cfg;
  cfg.workdir = UniqueDir("invalid");
  lsm::Options flat = SmallOptions();
  flat.size_ratio = 1.0;
  EXPECT_DEATH(FileEngine(4, flat, cfg), "Validate");

  FileEngine eng(4, SmallOptions(), cfg);
  eng.Put(1, 1);
  const size_t live = eng.ShardIndex(1);
  const size_t cold = (live + 1) % eng.NumShards();
  ASSERT_EQ(eng.ShardLifecycle(live), ShardState::kMaterialized);
  ASSERT_EQ(eng.ShardLifecycle(cold), ShardState::kCold);
  lsm::Options deep = eng.ShardOptionsSnapshot(live);
  deep.io_queue_depth = 2048;
  EXPECT_DEATH(eng.ReconfigureShard(live, deep), "Validate");
  EXPECT_DEATH(eng.ReconfigureShard(cold, deep), "Validate");
  EXPECT_DEATH(eng.Reconfigure(flat), "Validate");
}

TEST(FileEngineTest, ArbiterConservesBudgetOnFileBackend) {
  // The memory arbiter talks only to the StorageEngine surface; on the
  // file backend its rounds must conserve the total budget exactly while
  // moving memory toward hot shards, and every applied per-shard budget
  // must respect the floor.
  const size_t kShards = 4;
  tune::SystemSetup setup;
  setup.num_entries = 8000;
  setup.total_memory_bits = 16 * 8000;
  const lsm::Options total = tune::MonkeyDefaultConfig(setup).ToOptions(setup);

  FileEngineConfig cfg;
  cfg.workdir = UniqueDir("arbiter");
  FileEngine eng(kShards, total, cfg);
  workload::KeySpace keys(setup.num_entries, setup.seed);
  workload::BulkLoad(&eng, keys);

  tune::ArbiterOptions arb_opts;
  arb_opts.period_ops = 512;
  tune::MemoryArbiter arbiter(setup, total, kShards, arb_opts);
  const uint64_t total_bits = arbiter.total_bits();

  RunStream(&eng, &keys, 6000, /*skew=*/1.2, &arbiter, /*batch_ops=*/256);

  ASSERT_GT(arbiter.rounds(), 0u);
  EXPECT_GT(arbiter.moves(), 0u) << "skewed traffic should move memory";

  // Conservation: the arbitrated budgets sum to the system total exactly;
  // the engine-side applied budgets never exceed it (floor divisions can
  // only round down) and respect the per-shard floor.
  uint64_t arbited = 0, applied = 0;
  for (size_t s = 0; s < kShards; ++s) {
    arbited += arbiter.BudgetBits(s);
    applied += eng.ShardBudgetSnapshot(s).TotalBits();
    EXPECT_GE(arbiter.BudgetBits(s), arbiter.floor_bits());
  }
  EXPECT_EQ(arbited, total_bits);
  EXPECT_LE(applied, total_bits);
  // Budgets actually diverged from the even split (hot shard 0 gained).
  EXPECT_NE(arbiter.BudgetBits(0), total_bits / kShards);
}

TEST(FileEngineTest, DurabilityLayerKeepsCountersBitIdentical) {
  // The golden no-reopen guarantee: with the durability layer on, every
  // manifest/WAL/filter-file byte is written outside the counted cost
  // clocks, so logical results and all I/O counters are bit-identical to
  // a durable-off engine serving the same stream — durability shows up
  // only in wall-clock.
  FileEngineConfig plain_cfg;
  plain_cfg.workdir = UniqueDir("plain");
  FileEngineConfig durable_cfg;
  durable_cfg.workdir = UniqueDir("durable");
  durable_cfg.durable = true;
  durable_cfg.wal_sync = fileio::WalSyncPolicy::kNone;  // CI-friendly

  FileEngine plain(3, SmallOptions(), plain_cfg);
  FileEngine durable(3, SmallOptions(), durable_cfg);
  EXPECT_FALSE(plain.durable());
  EXPECT_TRUE(durable.durable());

  workload::KeySpace keys_a(2500, 42);
  workload::KeySpace keys_b(2500, 42);
  workload::BulkLoad(&plain, keys_a);
  workload::BulkLoad(&durable, keys_b);
  const workload::ExecutionResult ra = RunStream(&plain, &keys_a, 2000);
  const workload::ExecutionResult rb = RunStream(&durable, &keys_b, 2000);

  EXPECT_EQ(ra.lookups_found, rb.lookups_found);
  EXPECT_EQ(ra.lookups_missed, rb.lookups_missed);
  EXPECT_EQ(ra.total_ios, rb.total_ios);
  EXPECT_EQ(plain.TotalEntries(), durable.TotalEntries());
  EXPECT_EQ(plain.DiskEntries(), durable.DiskEntries());
  for (size_t s = 0; s < plain.NumShards(); ++s) {
    EXPECT_EQ(plain.ShardCostSnapshot(s).block_reads,
              durable.ShardCostSnapshot(s).block_reads)
        << "shard " << s;
    EXPECT_EQ(plain.ShardCostSnapshot(s).block_writes,
              durable.ShardCostSnapshot(s).block_writes)
        << "shard " << s;
    EXPECT_EQ(plain.ShardEntries(s), durable.ShardEntries(s));
    EXPECT_EQ(plain.ShardRunCount(s), durable.ShardRunCount(s));
  }
}

TEST(FileEngineTest, EvaluatorMeasuresOnFileBackend) {
  // SystemSetup::backend = kFile routes Evaluator measurements through
  // the real-IO engine: costs are real clocks, I/O counts deterministic.
  tune::SystemSetup setup = FileSetup(3000, 2);
  const tune::Evaluator evaluator(setup);
  const model::WorkloadSpec mix{0.25, 0.25, 0.25, 0.25};
  const tune::Measurement m = evaluator.Measure(
      mix, tune::MonkeyDefaultConfig(setup), /*num_ops=*/1500, /*salt=*/1);
  EXPECT_GT(m.mean_latency_ns, 0.0);
  EXPECT_GT(m.ios_per_op, 0.0);
  EXPECT_GT(m.build_ns, 0.0);
  EXPECT_GT(m.total_cost_ns, m.build_ns);

  // I/O counts are a deterministic function of the op stream: a repeated
  // measurement at the same salt sees the same ios_per_op.
  const tune::Measurement m2 = evaluator.Measure(
      mix, tune::MonkeyDefaultConfig(setup), /*num_ops=*/1500, /*salt=*/1);
  EXPECT_DOUBLE_EQ(m.ios_per_op, m2.ios_per_op);
}

TEST(FileEngineTest, EvaluatorTimesRecoveryWhenAsked) {
  // measure_recovery: the evaluator closes the measured engine cleanly,
  // times a reopen=true recovery of the same file set, and removes the
  // files afterwards. The timing is real wall-clock (positive, noisy);
  // the measurement itself is unchanged.
  tune::SystemSetup setup = FileSetup(3000, 2);
  setup.file_durable = true;
  setup.file_wal_sync = fileio::WalSyncPolicy::kNone;
  setup.measure_recovery = true;
  const tune::Evaluator evaluator(setup);
  const model::WorkloadSpec mix{0.25, 0.25, 0.25, 0.25};
  const tune::Measurement m = evaluator.Measure(
      mix, tune::MonkeyDefaultConfig(setup), /*num_ops=*/1200, /*salt=*/2);
  EXPECT_GT(m.recovery_ns, 0.0);
  EXPECT_GT(m.ios_per_op, 0.0);

  // Off by default: no recovery pass, no timing.
  tune::SystemSetup plain = FileSetup(3000, 2);
  const tune::Evaluator plain_eval(plain);
  const tune::Measurement p = plain_eval.Measure(
      mix, tune::MonkeyDefaultConfig(plain), /*num_ops=*/1200, /*salt=*/2);
  EXPECT_EQ(p.recovery_ns, 0.0);
  // The durability knobs never change what is measured: deterministic
  // I/O counts match between durable and plain measurements.
  EXPECT_DOUBLE_EQ(m.ios_per_op, p.ios_per_op);
}

TEST(FileEngineTest, SimRecommendedTuningTransfersToFileBackend) {
  // The sim-vs-real smoke of the ROADMAP: the closed-form model's
  // recommended tuning — derived entirely on the simulated cost model —
  // must be no worse than the default (well-tuned RocksDB) configuration
  // when both serve the same stream on the *real* backend. Compared on
  // real I/O counts, which are deterministic (latency comparisons on CI
  // machines are not).
  tune::SystemSetup setup = FileSetup(6000, 1);
  const model::WorkloadSpec mix{0.2, 0.3, 0.2, 0.3};
  const tune::TunerOptions topts;
  const tune::ClassicTuner classic(setup, topts);
  const tune::TuningConfig recommended = classic.Recommend(mix);
  const tune::TuningConfig fallback = tune::MonkeyDefaultConfig(setup);

  const tune::Evaluator evaluator(setup);
  const tune::Measurement m_rec =
      evaluator.Measure(mix, recommended, /*num_ops=*/4000, /*salt=*/3);
  const tune::Measurement m_def =
      evaluator.Measure(mix, fallback, /*num_ops=*/4000, /*salt=*/3);

  // "No worse" with a 5% tolerance for discretization differences.
  EXPECT_LE(m_rec.ios_per_op, m_def.ios_per_op * 1.05)
      << "recommended " << recommended.ToString() << " vs default "
      << fallback.ToString();
}

/// Per-shard state a file-backend golden cell pins exactly.
struct ShardGolden {
  uint64_t block_reads;
  uint64_t block_writes;
  uint64_t compaction_block_reads;
  uint64_t compaction_block_writes;
  uint64_t merges;
  uint64_t flushes;
  uint64_t entries;
  size_t runs;
  uint32_t run_digest;
};

bool operator==(const ShardGolden& a, const ShardGolden& b) {
  return a.block_reads == b.block_reads && a.block_writes == b.block_writes &&
         a.compaction_block_reads == b.compaction_block_reads &&
         a.compaction_block_writes == b.compaction_block_writes &&
         a.merges == b.merges && a.flushes == b.flushes &&
         a.entries == b.entries && a.runs == b.runs &&
         a.run_digest == b.run_digest;
}

std::ostream& operator<<(std::ostream& os, const ShardGolden& g) {
  return os << "{" << g.block_reads << ", " << g.block_writes << ", "
            << g.compaction_block_reads << ", " << g.compaction_block_writes
            << ", " << g.merges << ", " << g.flushes << ", " << g.entries
            << ", " << g.runs << ", 0x" << std::hex << g.run_digest
            << std::dec << "u}";
}

/// Serves a fixed-seed stream of overwrites, deletes, gets and scans on a
/// 3-shard file engine, flushes, and checks every shard's counters and run
/// files (CRC-32C over their bytes) against the recorded values.
void CheckFileBackendGolden(const lsm::Options& opts, const std::string& tag,
                            uint64_t disk_entries,
                            const std::vector<ShardGolden>& expected) {
  const std::string dir = UniqueDir(tag);
  std::vector<ShardGolden> got;
  uint64_t got_disk_entries = 0;
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.keep_files = true;
    FileEngine eng(3, opts, cfg);
    util::Random rng(2024);
    std::vector<lsm::Entry> scan_buf;
    for (int i = 0; i < 6000; ++i) {
      const double roll = rng.NextDouble();
      const uint64_t key = rng.Uniform(2400);
      if (roll < 0.55) {
        eng.Put(key & ~1ull, static_cast<uint64_t>(i));
      } else if (roll < 0.7) {
        eng.Delete(key & ~1ull);
      } else if (roll < 0.9) {
        uint64_t value = 0;
        eng.Get(key, &value);
      } else {
        scan_buf.clear();
        eng.Scan(key, 16, &scan_buf);
      }
    }
    eng.FlushMemtable();
    for (size_t s = 0; s < eng.NumShards(); ++s) {
      const sim::DeviceSnapshot io = eng.ShardCostSnapshot(s);
      const EngineCounters c = eng.ShardCounters(s);
      got.push_back({io.block_reads, io.block_writes, c.compaction_block_reads,
                     c.compaction_block_writes, c.merges, c.flushes,
                     eng.ShardEntries(s), eng.ShardRunCount(s), 0});
    }
    got_disk_entries = eng.DiskEntries();
  }
  for (size_t s = 0; s < got.size(); ++s) {
    got[s].run_digest = ShardRunDigest(dir + "/shard_" + std::to_string(s));
  }
  fs::remove_all(dir);

  EXPECT_EQ(got_disk_entries, disk_entries);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s], expected[s]) << "shard " << s;
  }
}

TEST(FileEngineTest, LevelingCountersAndRunFilesGolden) {
  // Recorded before the compaction merge moved to lsm::MergeSorted: the
  // file backend's merges, scans and run files must reproduce exactly.
  CheckFileBackendGolden(SmallOptions(), "golden_leveling", 1462,
                         {{1490, 124, 116, 61, 57, 63, 749, 6, 0x192896b5u},
                          {1578, 142, 138, 73, 66, 69, 405, 3, 0x4942c657u},
                          {1661, 135, 132, 70, 63, 65, 308, 2, 0xcaa997dbu}});
}

TEST(FileEngineTest, TieringCountersAndRunFilesGolden) {
  CheckFileBackendGolden(TieredOptions(), "golden_tiering", 1625,
                         {{2482, 84, 72, 21, 18, 63, 912, 9, 0xbeb31145u},
                          {2514, 96, 92, 27, 22, 69, 405, 3, 0xb6e49367u},
                          {2627, 91, 88, 26, 21, 65, 308, 2, 0x90376336u}});
}

TEST(FileEngineTest, TieredMergeAndScanMatchReferenceModel) {
  // Tiering folds several runs that overwrite the same keys. Scans must
  // see only the newest version of each key and skip every tombstone,
  // including a memtable whose first keys past the scan start are all
  // deletes. Checked against a std::map after every chunk and again after
  // a clean durable reopen.
  const std::string dir = UniqueDir("tiered_oracle");
  const lsm::Options opts = TieredOptions();
  constexpr uint64_t kDomain = 600;
  std::map<uint64_t, uint64_t> ref;

  auto check_scan = [&](FileEngine& eng, uint64_t start, size_t n) {
    std::vector<lsm::Entry> got;
    const size_t hits = eng.Scan(start, n, &got);
    ASSERT_EQ(hits, got.size());
    auto it = ref.lower_bound(start);
    size_t i = 0;
    for (; i < n && it != ref.end(); ++i, ++it) {
      ASSERT_LT(i, got.size()) << "start " << start;
      ASSERT_EQ(got[i].key, it->first) << "start " << start;
      ASSERT_EQ(got[i].value, it->second) << "key " << it->first;
      ASSERT_FALSE(got[i].tombstone);
    }
    ASSERT_EQ(got.size(), i) << "start " << start;
  };
  auto check_all = [&](FileEngine& eng) {
    check_scan(eng, 0, kDomain + 1);
    for (uint64_t k = 0; k < kDomain; ++k) {
      uint64_t value = 0;
      const auto it = ref.find(k);
      ASSERT_EQ(eng.Get(k, &value), it != ref.end()) << "key " << k;
      if (it != ref.end()) {
        ASSERT_EQ(value, it->second) << "key " << k;
      }
    }
  };

  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.durable = true;
    cfg.keep_files = true;  // the reopen below owns cleanup
    cfg.wal_sync = fileio::WalSyncPolicy::kNone;
    FileEngine eng(2, opts, cfg);
    util::Random rng(5);
    uint64_t stamp = 0;
    for (int chunk = 0; chunk < 40; ++chunk) {
      for (int i = 0; i < 150; ++i) {
        const uint64_t key = rng.Uniform(kDomain);
        if (rng.Bernoulli(0.25)) {
          eng.Delete(key);
          ref.erase(key);
        } else {
          eng.Put(key, ++stamp);
          ref[key] = stamp;
        }
        if (i % 25 == 24) {
          check_scan(eng, rng.Uniform(kDomain), 1 + rng.Uniform(20));
        }
      }
      // Fresh deletes over a key range put a head of tombstones in front
      // of every scan that starts there.
      const uint64_t start = rng.Uniform(kDomain - 40);
      for (uint64_t k = start; k < start + 32; ++k) {
        eng.Delete(k);
        ref.erase(k);
      }
      check_scan(eng, start, 8);
      eng.Put(start + 35, ++stamp);
      ref[start + 35] = stamp;
      check_scan(eng, start, 8);
      check_all(eng);
      if (HasFatalFailure()) break;
    }
    EXPECT_GT(eng.AggregateCounters().merges, 0u);
  }
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    FileEngine eng(2, opts, cfg);
    check_all(eng);
    for (uint64_t start : {0ull, 17ull, 300ull, 599ull}) {
      check_scan(eng, start, 12);
    }
  }
  fs::remove_all(dir);
}

/// Names of one shard directory's files with extension `ext`, sorted.
std::vector<std::string> ShardFiles(const std::string& shard_dir,
                                    const std::string& ext) {
  std::vector<std::string> names;
  for (const auto& f : fs::directory_iterator(shard_dir)) {
    if (f.path().extension() == ext) {
      names.push_back(f.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// 512-byte blocks (21 records each): a run of a few thousand entries
/// spans several compaction read chunks and several run-writer chunks.
FileEngineConfig SmallBlockConfig(const std::string& dir) {
  FileEngineConfig cfg;
  cfg.workdir = dir;
  cfg.block_bytes = 512;
  return cfg;
}

/// One shard whose buffer holds every entry the tests write, so each run
/// comes from an explicit FlushMemtable and, under leveling, the second
/// flush merges level 0 into the empty level 1.
lsm::Options BigBufferOptions() {
  lsm::Options opts;
  opts.buffer_bytes = 10000 * 128;
  opts.bloom_bits = 10 * 10000;
  return opts;
}

TEST(FileEngineTest, MultiChunkMergeMatchesReferenceAndCountsEveryBlock) {
  const std::string dir = UniqueDir("multichunk");
  const std::string shard_dir = dir + "/shard_0";
  constexpr uint64_t kEpb = 512 / 24;
  auto blocks_of = [](uint64_t entries) { return (entries + kEpb - 1) / kEpb; };
  std::map<uint64_t, uint64_t> ref;
  {
    FileEngine eng(1, BigBufferOptions(), SmallBlockConfig(dir));
    util::Random rng(11);
    // First run: 4000 keys, ~191 blocks.
    for (uint64_t k = 0; k < 8000; k += 2) {
      eng.Put(k, k + 1);
      ref[k] = k + 1;
    }
    eng.FlushMemtable();
    ASSERT_EQ(eng.AggregateCounters().merges, 0u);
    const std::vector<std::string> first = ShardFiles(shard_dir, ".cam");
    ASSERT_EQ(first.size(), 1u);
    const uint64_t first_blocks =
        fs::file_size(shard_dir + "/" + first[0]) / 512;
    ASSERT_EQ(first_blocks, blocks_of(4000));

    // Second run: overwrites, new keys and deletes over the same range.
    std::map<uint64_t, bool> second;  // key -> tombstone
    for (int i = 0; i < 3000; ++i) {
      const uint64_t key = rng.Uniform(9000);
      if (rng.Bernoulli(0.25)) {
        eng.Delete(key);
        ref.erase(key);
        second[key] = true;
      } else {
        eng.Put(key, 100000 + static_cast<uint64_t>(i));
        ref[key] = 100000 + static_cast<uint64_t>(i);
        second[key] = false;
      }
    }
    const EngineCounters before = eng.AggregateCounters();
    const sim::DeviceSnapshot io_before = eng.CostSnapshot();
    eng.FlushMemtable();  // flush, then merge level 0 into level 1
    const EngineCounters after = eng.AggregateCounters();
    const sim::DeviceSnapshot io_after = eng.CostSnapshot();
    ASSERT_EQ(after.merges - before.merges, 1u);

    const std::vector<std::string> merged = ShardFiles(shard_dir, ".cam");
    ASSERT_EQ(merged.size(), 1u);
    const uint64_t out_blocks =
        fs::file_size(shard_dir + "/" + merged[0]) / 512;
    // The deepest level drops tombstones: the output holds the live keys.
    EXPECT_EQ(out_blocks, blocks_of(ref.size()));
    EXPECT_EQ(eng.DiskEntries(), ref.size());
    const uint64_t second_blocks = blocks_of(second.size());
    EXPECT_EQ(after.compaction_block_reads - before.compaction_block_reads,
              first_blocks + second_blocks);
    EXPECT_EQ(after.compaction_block_writes - before.compaction_block_writes,
              out_blocks);
    EXPECT_EQ(io_after.block_reads - io_before.block_reads,
              first_blocks + second_blocks);
    EXPECT_EQ(io_after.block_writes - io_before.block_writes,
              second_blocks + out_blocks);
    EXPECT_EQ(ShardFiles(shard_dir, ".blm").size(), 1u);

    for (uint64_t k = 0; k < 9000; ++k) {
      uint64_t value = 0;
      const auto it = ref.find(k);
      ASSERT_EQ(eng.Get(k, &value), it != ref.end()) << "key " << k;
      if (it != ref.end()) {
        ASSERT_EQ(value, it->second) << "key " << k;
      }
    }
    std::vector<lsm::Entry> all;
    eng.Scan(0, ref.size() + 10, &all);
    ASSERT_EQ(all.size(), ref.size());
    auto it = ref.begin();
    for (const lsm::Entry& e : all) {
      ASSERT_EQ(e.key, it->first);
      ASSERT_EQ(e.value, it->second);
      ++it;
    }
  }
  fs::remove_all(dir);
}

TEST(FileEngineTest, ScanReadsNoBlockPastItsLastEntry) {
  const std::string dir = UniqueDir("scan_stop");
  constexpr uint64_t kEpb = 512 / 24;  // 21 records per block
  {
    lsm::Options opts = BigBufferOptions();
    opts.block_cache_bytes = 0;
    FileEngine eng(1, opts, SmallBlockConfig(dir));
    for (uint64_t k = 0; k < 4 * kEpb; ++k) eng.Put(k * 2, k);
    eng.FlushMemtable();  // one run of four blocks, no cache
    ASSERT_EQ(eng.ShardRunCount(0), 1u);
    // From the first key of the run and of its second block: exactly one
    // block's entries read that block only; one entry more reads the next.
    for (uint64_t first : {uint64_t{0}, kEpb * 2}) {
      for (size_t len : {kEpb, kEpb + 1}) {
        const Op op{OpKind::kScan, first, 0, len};
        OpResult r;
        eng.ExecuteOps(&op, 1, &r);
        EXPECT_EQ(r.scan_hits, len) << "start " << first;
        EXPECT_EQ(r.ios, len == kEpb ? 1u : 2u)
            << "start " << first << " len " << len;
      }
    }
  }
  fs::remove_all(dir);
}

TEST(FileEngineTest, AllTombstoneMergeLeavesNoRunBehind) {
  const std::string dir = UniqueDir("all_tombstones");
  const std::string shard_dir = dir + "/shard_0";
  {
    FileEngine eng(1, BigBufferOptions(), SmallBlockConfig(dir));
    for (uint64_t k = 0; k < 3000; ++k) eng.Put(k, k);
    eng.FlushMemtable();  // run_1
    for (uint64_t k = 0; k < 3000; ++k) eng.Delete(k);
    eng.FlushMemtable();  // run_2, then a merge that drops everything
    EXPECT_EQ(eng.AggregateCounters().merges, 1u);
    EXPECT_EQ(eng.AggregateCounters().compaction_block_writes, 0u);
    EXPECT_EQ(eng.DiskEntries(), 0u);
    EXPECT_EQ(eng.ShardRunCount(0), 0u);
    EXPECT_TRUE(ShardFiles(shard_dir, ".cam").empty());
    EXPECT_TRUE(ShardFiles(shard_dir, ".blm").empty());
    uint64_t value = 0;
    EXPECT_FALSE(eng.Get(17, &value));

    // The empty merge took no run id: the next run is run_3.
    eng.Put(5, 6);
    eng.FlushMemtable();
    EXPECT_EQ(ShardFiles(shard_dir, ".cam"),
              std::vector<std::string>{"run_3.cam"});
    EXPECT_EQ(ShardFiles(shard_dir, ".blm"),
              std::vector<std::string>{"run_3.blm"});
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace camal::engine
