// Peak-heap regression for file-backend compaction. A counting global
// operator new/delete keeps a running total of live heap bytes (the
// allocator's usable size of every block) and its high-water mark. The
// Put that triggers a 100k-entry cascade merge must peak below one whole
// in-memory copy of the merged level (24 bytes per entry): compaction
// streams its inputs through fixed-size block buffers and writes its
// output in fixed-size chunks, so only the output's keys (for the Bloom
// filter) and fences grow with the level.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "engine/file_engine.h"
#include "lsm/options.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void CountAlloc(void* p) {
  const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live = g_live_bytes.fetch_add(bytes) + bytes;
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
}

void* CountedAlloc(size_t n, size_t align) {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n == 0 ? 1 : n);
  } else if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) {
    p = nullptr;
  }
  if (p != nullptr) CountAlloc(p);
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
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
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace camal::engine {
namespace {

std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

TEST(CompactionMemoryTest, CascadeMergePeakHeapStaysBelowOneLevelCopy) {
  constexpr uint64_t kLevel = 100000;  // entries of the big level-0 run
  constexpr uint64_t kSmall = 1000;    // entries per later flush
  lsm::Options opts;
  opts.buffer_bytes = (kLevel + 1) * opts.entry_bytes;
  opts.bloom_bits = 10 * (kLevel + kSmall);
  FileEngineConfig cfg;
  cfg.workdir = TestBase() + "/camal_compaction_memory_test_" +
                std::to_string(FileEngine::NextUniqueId());
  cfg.durable = true;
  cfg.wal_sync = fileio::WalSyncPolicy::kNone;
  {
    FileEngine eng(1, opts, cfg);
    // One big run in level 0, then a small buffer: the merge that follows
    // is large while the memtable the triggering Put frees is small, so
    // the freed memtable cannot hide the merge's own allocations.
    for (uint64_t k = 0; k < kLevel; ++k) eng.Put(2 * k, k);
    eng.FlushMemtable();
    opts.buffer_bytes = kSmall * opts.entry_bytes;
    eng.Reconfigure(opts);
    for (uint64_t k = 0; k < kSmall; ++k) eng.Put(2 * k + 1, k);
    ASSERT_EQ(eng.AggregateCounters().flushes, 1u);
    ASSERT_EQ(eng.AggregateCounters().merges, 0u);

    // The next Put flushes the small buffer. Level 0 then holds two runs
    // and merges them into level 1, which is over its capacity at the
    // small buffer and merges on into level 2: two merges of the whole
    // data set.
    const int64_t base = g_live_bytes.load();
    g_peak_bytes.store(base);
    eng.Put(2 * kLevel, 0);
    const int64_t peak = g_peak_bytes.load() - base;

    ASSERT_EQ(eng.AggregateCounters().flushes, 2u);
    ASSERT_EQ(eng.AggregateCounters().merges, 2u);
    ASSERT_EQ(eng.DiskEntries(), kLevel + kSmall);
    const auto level_copy = static_cast<int64_t>(24 * (kLevel + kSmall));
    EXPECT_LT(peak, level_copy)
        << "peak live heap " << peak << " B during the merging Put";
    std::printf("peak live heap during the merging Put: %lld B (one level "
                "copy: %lld B)\n",
                static_cast<long long>(peak),
                static_cast<long long>(level_copy));
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.workdir, ec);
}

}  // namespace
}  // namespace camal::engine
