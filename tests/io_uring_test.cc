// io_uring read-submission path of engine::FileEngine: ring wrapper unit
// coverage, uring-vs-pread bit-equality (logical results, per-op I/O
// counts, EngineCounters) over mixed batches at several queue depths and
// pool sizes, backend/fallback reporting, and mid-batch ReconfigureShard
// determinism on the ring path. Auto-skips (with a clear message) when
// the build or kernel lacks io_uring — the pread fallback is then the
// path under test elsewhere (file_engine_test).

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/file_engine.h"
#include "engine/io_ring.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace camal::engine {
namespace {

#define SKIP_WITHOUT_URING()                                                \
  do {                                                                      \
    if (!fileio::IoRingSupported()) {                                       \
      GTEST_SKIP() << "io_uring unavailable (build configured with "        \
                      "CAMAL_WITH_URING=OFF, or the kernel refuses "        \
                      "io_uring_setup); FileEngine stays on its pread "     \
                      "path, which file_engine_test covers";                \
    }                                                                       \
  } while (0)

std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

std::string UniqueDir(const std::string& tag) {
  return TestBase() + "/camal_uring_test_" + tag + "_" +
         std::to_string(FileEngine::NextUniqueId());
}

lsm::Options SmallOptions() {
  lsm::Options opts;
  opts.buffer_bytes = 64 * 128;  // 64 entries per shard slice
  opts.bloom_bits = 8 * 4000;
  opts.block_cache_bytes = 8 * 4096;
  return opts;
}

/// The deterministic mixed stream of the engine suites (puts, hit/miss
/// gets, deletes, scans) — every op kind a submission list can carry.
std::vector<Op> MixedStream(size_t num_ops, uint64_t seed) {
  std::vector<Op> ops;
  ops.reserve(num_ops);
  util::Random rng(seed);
  for (size_t i = 0; i < num_ops; ++i) {
    Op op;
    const double roll = rng.NextDouble();
    if (roll < 0.35) {
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
  return ops;
}

struct StreamOutcome {
  std::vector<bool> found;
  std::vector<uint64_t> ios;
  std::vector<size_t> scan_hits;
  sim::DeviceSnapshot cost;
  EngineCounters counters;
  uint64_t total_entries = 0;
  std::vector<uint64_t> shard_reads;
  std::vector<uint64_t> shard_writes;
};

/// Runs `ops` through ExecuteOps in uneven slices and snapshots every
/// deterministic observable.
StreamOutcome RunBatched(FileEngine* eng, const std::vector<Op>& ops) {
  StreamOutcome o;
  o.found.resize(ops.size());
  o.ios.resize(ops.size());
  o.scan_hits.resize(ops.size());
  size_t at = 0;
  const size_t slices[] = {1, 7, 64, 256, 1000};
  size_t slice = 0;
  while (at < ops.size()) {
    const size_t n = std::min(slices[slice++ % 5], ops.size() - at);
    std::vector<OpResult> results(n);
    eng->ExecuteOps(ops.data() + at, n, results.data());
    for (size_t i = 0; i < n; ++i) {
      o.found[at + i] = results[i].found;
      o.ios[at + i] = results[i].ios;
      o.scan_hits[at + i] = results[i].scan_hits;
    }
    at += n;
  }
  o.cost = eng->CostSnapshot();
  o.counters = eng->AggregateCounters();
  o.total_entries = eng->TotalEntries();
  for (size_t s = 0; s < eng->NumShards(); ++s) {
    o.shard_reads.push_back(eng->ShardCostSnapshot(s).block_reads);
    o.shard_writes.push_back(eng->ShardCostSnapshot(s).block_writes);
  }
  return o;
}

void ExpectBitIdentical(const StreamOutcome& pread, const StreamOutcome& uring,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(pread.found.size(), uring.found.size());
  for (size_t i = 0; i < pread.found.size(); ++i) {
    ASSERT_EQ(pread.found[i], uring.found[i]) << "op " << i;
    ASSERT_EQ(pread.ios[i], uring.ios[i]) << "op " << i;
    ASSERT_EQ(pread.scan_hits[i], uring.scan_hits[i]) << "op " << i;
  }
  EXPECT_EQ(pread.cost.block_reads, uring.cost.block_reads);
  EXPECT_EQ(pread.cost.block_writes, uring.cost.block_writes);
  EXPECT_EQ(pread.counters.flushes, uring.counters.flushes);
  EXPECT_EQ(pread.counters.merges, uring.counters.merges);
  EXPECT_EQ(pread.counters.compaction_block_reads,
            uring.counters.compaction_block_reads);
  EXPECT_EQ(pread.counters.compaction_block_writes,
            uring.counters.compaction_block_writes);
  EXPECT_EQ(pread.counters.transition_ios, uring.counters.transition_ios);
  EXPECT_EQ(pread.total_entries, uring.total_entries);
  EXPECT_EQ(pread.shard_reads, uring.shard_reads);
  EXPECT_EQ(pread.shard_writes, uring.shard_writes);
}

TEST(IoRingTest, ReadsBlocksAtOffsets) {
  SKIP_WITHOUT_URING();
  const std::string path = UniqueDir("raw") + ".dat";
  const int wfd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(wfd, 0);
  std::vector<char> block(4096);
  for (char fill : {'A', 'B', 'C'}) {
    std::memset(block.data(), fill, block.size());
    ASSERT_EQ(::write(wfd, block.data(), block.size()),
              static_cast<ssize_t>(block.size()));
  }
  ::close(wfd);
  const int rfd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(rfd, 0);

  fileio::IoRing ring(4);
  ASSERT_TRUE(ring.ok());
  EXPECT_GE(ring.capacity(), 4u);
  std::vector<std::vector<char>> bufs(3, std::vector<char>(4096));
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.PrepRead(rfd, bufs[i].data(), 4096, i * 4096, i));
  }
  ASSERT_EQ(ring.Submit(), 3);
  std::vector<fileio::IoRing::Completion> comps;
  int got = 0;
  while (got < 3) {
    const int n = ring.WaitCompletions(1, &comps);
    ASSERT_GT(n, 0);
    got += n;
  }
  std::vector<bool> seen(3, false);
  for (const auto& c : comps) {
    ASSERT_LT(c.user_data, 3u);
    EXPECT_EQ(c.result, 4096);
    seen[c.user_data] = true;
    EXPECT_EQ(bufs[c.user_data][0], static_cast<char>('A' + c.user_data));
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
  ::close(rfd);
  ::unlink(path.c_str());
}

TEST(IoUringEngineTest, BackendReportingAndFallbackMatrix) {
  // Depth 1 never engages the ring; a resolved depth above 1 engages it
  // when supported, shard by shard.
  {
    FileEngineConfig cfg;
    cfg.workdir = UniqueDir("depth1");
    cfg.io_queue_depth = 1;
    FileEngine eng(2, SmallOptions(), cfg);
    EXPECT_STREQ(eng.io_backend(), "pread");
    EXPECT_EQ(eng.ShardQueueDepth(0), 1u);
  }
  SKIP_WITHOUT_URING();
  {
    FileEngineConfig cfg;
    cfg.workdir = UniqueDir("depth8");
    cfg.io_queue_depth = 8;
    FileEngine eng(2, SmallOptions(), cfg);
    EXPECT_STREQ(eng.io_backend(), "uring");
    EXPECT_EQ(eng.ShardQueueDepth(0), 8u);
    EXPECT_EQ(eng.ShardQueueDepth(1), 8u);
  }
  {
    // Per-shard options override the engine default.
    lsm::Options opts = SmallOptions();
    opts.io_queue_depth = 32;
    FileEngineConfig cfg;
    cfg.workdir = UniqueDir("opts_override");
    cfg.io_queue_depth = 1;
    FileEngine eng(2, opts, cfg);
    EXPECT_STREQ(eng.io_backend(), "uring");
    EXPECT_EQ(eng.ShardQueueDepth(0), 32u);
  }
  {
    // A shard retuned to depth 1 drops its ring; its sibling keeps the
    // engine default's.
    FileEngineConfig cfg;
    cfg.workdir = UniqueDir("retuned_depth1");
    cfg.io_queue_depth = 8;
    FileEngine eng(2, SmallOptions(), cfg);
    lsm::Options serial = SmallOptions();
    serial.io_queue_depth = 1;
    eng.ReconfigureShard(0, serial);
    EXPECT_EQ(eng.ShardQueueDepth(0), 1u);
    EXPECT_EQ(eng.ShardQueueDepth(1), 8u);
    EXPECT_STREQ(eng.io_backend(), "uring");
  }
}

TEST(IoUringEngineTest, UringMatchesPreadMixedBatches) {
  SKIP_WITHOUT_URING();
  // The determinism contract of the tentpole: at every queue depth and
  // pool size, the ring path must be bit-identical to the pread path in
  // everything except wall-clock.
  const std::vector<Op> ops = MixedStream(4000, 31);
  for (const size_t pool_size : {size_t{1}, size_t{4}}) {
    util::ThreadPool pool(pool_size);

    FileEngineConfig pread_cfg;
    pread_cfg.workdir = UniqueDir("eq_pread");
    FileEngine pread_eng(3, SmallOptions(), pread_cfg);
    if (pool_size > 1) pread_eng.set_pool(&pool);
    const StreamOutcome baseline = RunBatched(&pread_eng, ops);

    // Depth 2 is the smallest that engages a ring.
    for (const uint32_t qd : {2u, 8u, 32u}) {
      FileEngineConfig uring_cfg;
      uring_cfg.workdir = UniqueDir("eq_uring");
      uring_cfg.io_queue_depth = qd;
      FileEngine uring_eng(3, SmallOptions(), uring_cfg);
      ASSERT_STREQ(uring_eng.io_backend(), "uring");
      if (pool_size > 1) uring_eng.set_pool(&pool);
      const StreamOutcome outcome = RunBatched(&uring_eng, ops);
      ExpectBitIdentical(baseline, outcome,
                         "qd=" + std::to_string(qd) +
                             " pool=" + std::to_string(pool_size));
    }
  }
}

TEST(IoUringEngineTest, ZeroCacheStillBitIdentical) {
  SKIP_WITHOUT_URING();
  // With no block cache every access is charged — the replay path must
  // count each one even though the window dedups physical reads.
  lsm::Options opts = SmallOptions();
  opts.block_cache_bytes = 0;
  const std::vector<Op> ops = MixedStream(2500, 47);

  FileEngineConfig pread_cfg;
  pread_cfg.workdir = UniqueDir("nocache_pread");
  FileEngine pread_eng(2, opts, pread_cfg);
  const StreamOutcome baseline = RunBatched(&pread_eng, ops);

  FileEngineConfig uring_cfg;
  uring_cfg.workdir = UniqueDir("nocache_uring");
  uring_cfg.io_queue_depth = 16;
  FileEngine uring_eng(2, opts, uring_cfg);
  const StreamOutcome outcome = RunBatched(&uring_eng, ops);
  ExpectBitIdentical(baseline, outcome, "zero-cache qd=16");
}

TEST(IoUringEngineTest, ReconfigureShardMidBatchDeterministicOnUring) {
  SKIP_WITHOUT_URING();
  // Mid-stream per-shard reconfiguration — including retuning the queue
  // depth itself — must leave the ring path bit-identical to the pread
  // path making the same cache reconfigurations at the same op
  // boundaries at depth 1.
  const std::vector<Op> ops = MixedStream(3000, 83);

  auto run_with_retunes = [&](bool ring, const std::string& tag) {
    FileEngineConfig cfg;
    cfg.workdir = UniqueDir(tag);
    cfg.io_queue_depth = ring ? 8 : 1;
    FileEngine eng(2, SmallOptions(), cfg);
    EXPECT_STREQ(eng.io_backend(), ring ? "uring" : "pread");

    StreamOutcome o;
    o.found.resize(ops.size());
    o.ios.resize(ops.size());
    o.scan_hits.resize(ops.size());
    size_t at = 0;
    size_t batch_no = 0;
    while (at < ops.size()) {
      const size_t n = std::min<size_t>(250, ops.size() - at);
      std::vector<OpResult> results(n);
      eng.ExecuteOps(ops.data() + at, n, results.data());
      for (size_t i = 0; i < n; ++i) {
        o.found[at + i] = results[i].found;
        o.ios[at + i] = results[i].ios;
        o.scan_hits[at + i] = results[i].scan_hits;
      }
      at += n;
      // Between batches: shrink/grow shard 0's cache and flip the queue
      // depth — the dynamic-tuner surface, driven mid-run.
      ++batch_no;
      lsm::Options retune = SmallOptions();
      retune.block_cache_bytes = (batch_no % 2 == 0) ? 4 * 4096 : 16 * 4096;
      if (ring) retune.io_queue_depth = (batch_no % 2 == 0) ? 4 : 32;
      eng.ReconfigureShard(0, retune);
    }
    o.cost = eng.CostSnapshot();
    o.counters = eng.AggregateCounters();
    o.total_entries = eng.TotalEntries();
    for (size_t s = 0; s < eng.NumShards(); ++s) {
      o.shard_reads.push_back(eng.ShardCostSnapshot(s).block_reads);
      o.shard_writes.push_back(eng.ShardCostSnapshot(s).block_writes);
    }
    return o;
  };

  const StreamOutcome pread = run_with_retunes(false, "retune_pread");
  const StreamOutcome uring = run_with_retunes(true, "retune_uring");
  ExpectBitIdentical(pread, uring, "mid-batch retune");
}

}  // namespace
}  // namespace camal::engine
