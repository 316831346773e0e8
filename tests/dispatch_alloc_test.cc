// Heap allocations on the batch dispatch path. A counting global operator
// new tallies every allocation the process makes; each case warms an
// engine (cache filled, plan storage and profiler cells grown) and then
// counts what a second identical pass allocates. `ExecuteOps` plans a
// batch in storage it keeps, and a scan-free batch that routes to one
// shard is one list served on the caller's thread, so a warm single-op
// call — and a warm batch on a one-shard engine — allocates nothing. Below
// the dispatch, the memtable reuses its chunks, the block cache its nodes,
// a file shard its evicted block buffers and its io_uring window storage,
// so a warm miss, a warm ring window and a warm new-key Put allocate
// nothing either.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/file_engine.h"
#include "engine/io_ring.h"
#include "engine/sharded_engine.h"
#include "lsm/options.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(size_t n, size_t align) {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n == 0 ? 1 : n);
  } else if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) {
    p = nullptr;
  }
  if (p != nullptr) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* CountedNew(size_t n, size_t align) {
  void* p = CountedAlloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedNew(n, 0); }
void* operator new[](size_t n) { return CountedNew(n, 0); }
void* operator new(size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace camal::engine {
namespace {

constexpr uint64_t kKeys = 4000;

/// Heap allocations `fn` makes.
template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = g_allocs.load();
  fn();
  return g_allocs.load() - before;
}

std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

/// Options whose block cache holds every block of `kKeys` keys.
lsm::Options CachedOptions() {
  lsm::Options opts;
  opts.buffer_bytes = 256 * opts.entry_bytes;
  opts.bloom_bits = 10 * kKeys;
  opts.block_cache_bytes = 4 << 20;
  return opts;
}

sim::DeviceConfig QuietDevice() {
  sim::DeviceConfig cfg;
  cfg.io_jitter_frac = 0.0;
  return cfg;
}

FileEngineConfig FileConfig(const std::string& tag, bool durable,
                            uint32_t io_queue_depth = 1) {
  FileEngineConfig cfg;
  cfg.workdir = TestBase() + "/camal_dispatch_alloc_" + tag + "_" +
                std::to_string(FileEngine::NextUniqueId());
  cfg.durable = durable;
  cfg.wal_sync = fileio::WalSyncPolicy::kNone;
  cfg.io_queue_depth = io_queue_depth;
  return cfg;
}

/// Gets of every even key `2k`, k < kKeys: all of them hit.
std::vector<Op> HitGets() {
  std::vector<Op> ops(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ops[k].kind = OpKind::kGet;
    ops[k].key = 2 * k;
  }
  return ops;
}

void LoadAndFlush(StorageEngine* eng, uint64_t keys = kKeys) {
  for (uint64_t k = 0; k < keys; ++k) eng->Put(2 * k, k + 1);
  eng->FlushMemtable();
}

/// What the counted pass of `CountedPass` did.
struct PassStats {
  double allocs_per_op = 0.0;
  uint64_t found = 0;
  uint64_t ios = 0;
};

/// Serves `ops` in batches of `batch` ops, twice: a warm-up pass, then a
/// counted one.
PassStats CountedPass(StorageEngine* eng, const std::vector<Op>& ops,
                      size_t batch) {
  std::vector<OpResult> results(ops.size());
  auto pass = [&] {
    for (size_t i = 0; i < ops.size(); i += batch) {
      eng->ExecuteOps(ops.data() + i, std::min(batch, ops.size() - i),
                      results.data() + i);
    }
  };
  pass();
  PassStats stats;
  stats.allocs_per_op = static_cast<double>(CountAllocs(pass)) /
                        static_cast<double>(ops.size());
  for (const OpResult& r : results) {
    stats.found += r.found ? 1 : 0;
    stats.ios += r.ios;
  }
  return stats;
}

/// The counted pass's allocations per op, after checking that every op of
/// it found its key from the cache.
double AllocsPerOp(StorageEngine* eng, const std::vector<Op>& ops,
                   size_t batch) {
  const PassStats stats = CountedPass(eng, ops, batch);
  EXPECT_EQ(stats.found, ops.size());
  EXPECT_EQ(stats.ios, 0u) << "the counted pass must be served from the cache";
  return stats.allocs_per_op;
}

TEST(DispatchAllocTest, SingleOpGetOnWarmFileEngineAllocatesNothing) {
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "not durable");
    FileEngine eng(4, CachedOptions(), FileConfig("get", durable));
    LoadAndFlush(&eng);
    EXPECT_EQ(AllocsPerOp(&eng, HitGets(), 1), 0.0);
  }
}

TEST(DispatchAllocTest, SingleOpGetThroughWarmRingWindowAllocatesNothing) {
  if (!fileio::IoRingSupported()) GTEST_SKIP() << "no io_uring here";
  FileEngine eng(4, CachedOptions(), FileConfig("ring", false, 8));
  ASSERT_STREQ(eng.io_backend(), "uring");
  LoadAndFlush(&eng);
  EXPECT_EQ(AllocsPerOp(&eng, HitGets(), 1), 0.0);
}

// A cache far smaller than the data: nearly every Get misses, reads its
// block into the buffer the previous miss evicted, and evicts in turn.
TEST(DispatchAllocTest, SingleOpGetThatMissesTheCacheAllocatesNothing) {
  constexpr uint64_t kBigKeys = 40000;  // ~59 blocks per shard
  lsm::Options opts = CachedOptions();
  opts.bloom_bits = 10 * kBigKeys;
  opts.block_cache_bytes = 4 * 4096;  // one block per shard
  FileEngine eng(4, opts, FileConfig("miss", false));
  LoadAndFlush(&eng, kBigKeys);
  // Consecutive gets stride over 1,009 keys, more than a shard block spans.
  std::vector<Op> ops(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    ops[i].kind = OpKind::kGet;
    ops[i].key = 2 * (i * 1009 % kBigKeys);
  }
  const PassStats stats = CountedPass(&eng, ops, 1);
  EXPECT_EQ(stats.found, ops.size());
  EXPECT_GE(stats.ios, ops.size() * 9 / 10);
  EXPECT_EQ(stats.allocs_per_op, 0.0);
}

TEST(DispatchAllocTest, SingleOpGetOnWarmSimEngineAllocatesNothing) {
  ShardedEngine eng(4, CachedOptions(), QuietDevice());
  LoadAndFlush(&eng);
  EXPECT_EQ(AllocsPerOp(&eng, HitGets(), 1), 0.0);
}

TEST(DispatchAllocTest, ScanFreeBatchOnOneShardAllocatesNothing) {
  {
    SCOPED_TRACE("file");
    FileEngine eng(1, CachedOptions(), FileConfig("batch", false));
    LoadAndFlush(&eng);
    EXPECT_EQ(AllocsPerOp(&eng, HitGets(), 64), 0.0);
  }
  {
    SCOPED_TRACE("sim");
    ShardedEngine eng(1, CachedOptions(), QuietDevice());
    LoadAndFlush(&eng);
    EXPECT_EQ(AllocsPerOp(&eng, HitGets(), 64), 0.0);
  }
}

/// Allocations of `kKeys` warm single-op update Puts, each overwriting a
/// key the memtable already holds (no memtable node, no flush).
uint64_t UpdatePutAllocs(bool durable) {
  lsm::Options opts = CachedOptions();
  opts.buffer_bytes = 2 * kKeys * opts.entry_bytes;
  FileEngine eng(4, opts, FileConfig("put", durable));
  std::vector<Op> ops(kKeys);
  for (uint64_t k = 0; k < kKeys; ++k) {
    ops[k].kind = OpKind::kPut;
    ops[k].key = 2 * k;
    ops[k].value = k;
    eng.Put(2 * k, k + 1);
  }
  OpResult r;
  auto pass = [&] {
    for (const Op& op : ops) eng.ExecuteOps(&op, 1, &r);
  };
  pass();
  const uint64_t allocs = CountAllocs(pass);
  EXPECT_EQ(eng.AggregateCounters().flushes, 0u);
  return allocs;
}

TEST(DispatchAllocTest, DurableUpdatePutAllocatesNoMoreThanAPlainOne) {
  const uint64_t plain = UpdatePutAllocs(/*durable=*/false);
  const uint64_t durable = UpdatePutAllocs(/*durable=*/true);
  EXPECT_LE(durable, plain) << "per put: " << durable / double(kKeys)
                            << " durable vs " << plain / double(kKeys);
}

// New keys into a memtable whose chunks a flush emptied: the table grows
// into its spare chunks without allocating (a node-per-entry table makes
// at least one allocation per new key).
TEST(DispatchAllocTest, WarmNewKeyPutAllocatesAlmostNothing) {
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "not durable");
    lsm::Options opts = CachedOptions();
    opts.buffer_bytes = 2 * kKeys * opts.entry_bytes;
    FileEngine eng(4, opts, FileConfig("newput", durable));
    std::vector<Op> ops(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
      ops[k].kind = OpKind::kPut;
      ops[k].key = 2 * k + 1;
      ops[k].value = k;
      eng.Put(2 * k, k + 1);
    }
    eng.FlushMemtable();
    const uint64_t flushes = eng.AggregateCounters().flushes;
    OpResult r;
    const uint64_t allocs = CountAllocs([&] {
      for (const Op& op : ops) eng.ExecuteOps(&op, 1, &r);
    });
    EXPECT_EQ(eng.AggregateCounters().flushes, flushes);
    EXPECT_LT(static_cast<double>(allocs) / kKeys, 0.1) << allocs;
  }
}

}  // namespace
}  // namespace camal::engine
