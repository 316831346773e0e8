#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/block_cache.h"
#include "lsm/compaction.h"
#include "lsm/lsm_tree.h"
#include "lsm/memtable.h"
#include "lsm/run.h"
#include "sim/device.h"
#include "util/random.h"

namespace camal::lsm {
namespace {

sim::DeviceConfig QuietDevice() {
  sim::DeviceConfig cfg;
  cfg.io_jitter_frac = 0.0;
  return cfg;
}

std::vector<Entry> MakeEntries(int n, uint64_t stride = 2) {
  std::vector<Entry> entries;
  for (int i = 1; i <= n; ++i) {
    entries.push_back(Entry{stride * static_cast<uint64_t>(i),
                            static_cast<uint64_t>(i), false});
  }
  return entries;
}

TEST(MemtableTest, PutGetOverwrite) {
  Memtable mem;
  mem.Put(5, 100, false);
  mem.Put(5, 200, false);
  const Entry* e = mem.Find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, 200u);
  EXPECT_EQ(mem.size(), 1u);
}

TEST(MemtableTest, TombstoneVisible) {
  Memtable mem;
  mem.Put(5, 100, false);
  mem.Put(5, 0, true);
  const Entry* e = mem.Find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->tombstone);
}

TEST(MemtableTest, DrainSortedOrderAndClear) {
  Memtable mem;
  mem.Put(30, 3, false);
  mem.Put(10, 1, false);
  mem.Put(20, 2, false);
  const std::vector<Entry> drained = mem.DrainSorted();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].key, 10u);
  EXPECT_EQ(drained[1].key, 20u);
  EXPECT_EQ(drained[2].key, 30u);
  EXPECT_TRUE(mem.empty());
}

TEST(MemtableTest, LowerBoundWalksFromStartInKeyOrder) {
  Memtable mem;
  for (uint64_t k = 1; k <= 10; ++k) mem.Put(k * 10, k, false);
  std::vector<Entry> out;
  for (auto c = mem.LowerBound(35); !c.done() && out.size() < 3;
       c.advance()) {
    out.push_back(c.head());
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, 40u);
  EXPECT_EQ(out[1].key, 50u);
  EXPECT_EQ(out[2].key, 60u);
  EXPECT_TRUE(mem.LowerBound(101).done());
}

// The memtable charges nothing; the tree that owns it charges a buffer
// insert per write and a tree-depth search per lookup.
TEST(MemtableTest, TreeChargesTheMemtableCosts) {
  sim::Device dev(QuietDevice());
  Options opts;
  LsmTree tree(opts, &dev);
  tree.Get(7, nullptr);  // empty table: depth 1
  EXPECT_EQ(dev.elapsed_ns(), dev.config().cpu_key_compare_ns);
  tree.Put(1, 1);
  EXPECT_EQ(dev.elapsed_ns(), dev.config().cpu_key_compare_ns +
                                  dev.config().cpu_buffer_insert_ns);
  tree.Delete(2);
  tree.Put(3, 3);
  const double before = dev.elapsed_ns();
  EXPECT_TRUE(tree.Get(3, nullptr));
  EXPECT_DOUBLE_EQ(dev.elapsed_ns() - before,
                   dev.config().cpu_key_compare_ns * 2);
}

TEST(RunTest, GetFindsExistingKey) {
  sim::Device dev(QuietDevice());
  BlockCache cache(0);
  ::camal::lsm::Run run(1, MakeEntries(100), 8, 10.0, 128, 0);
  Entry e;
  EXPECT_EQ(run.Get(100, &e, &dev, &cache), Run::LookupOutcome::kFound);
  EXPECT_EQ(e.value, 50u);
  EXPECT_EQ(dev.block_reads(), 1u);
}

TEST(RunTest, FilterBlocksMissesWithoutIo) {
  sim::Device dev(QuietDevice());
  BlockCache cache(0);
  ::camal::lsm::Run run(1, MakeEntries(2000), 8, 14.0, 128, 0);
  int ios = 0;
  for (uint64_t k = 3; k < 203; k += 2) {  // odd keys: absent, in range
    Entry e;
    const auto outcome = run.Get(k, &e, &dev, &cache);
    EXPECT_NE(outcome, Run::LookupOutcome::kFound);
    if (outcome == Run::LookupOutcome::kNotFoundAfterIo) ++ios;
  }
  // At 14 bpk virtually everything is filtered without I/O.
  EXPECT_LE(ios, 3);
  EXPECT_EQ(dev.block_reads(), static_cast<uint64_t>(ios));
}

TEST(RunTest, OutOfRangeKeysSkipWithoutProbeIo) {
  sim::Device dev(QuietDevice());
  BlockCache cache(0);
  ::camal::lsm::Run run(1, MakeEntries(100), 8, 10.0, 128, 0);
  Entry e;
  EXPECT_EQ(run.Get(1, &e, &dev, &cache), Run::LookupOutcome::kFilteredOut);
  EXPECT_EQ(run.Get(99999, &e, &dev, &cache),
            Run::LookupOutcome::kFilteredOut);
  EXPECT_EQ(dev.block_reads(), 0u);
}

TEST(RunTest, CacheAvoidsSecondRead) {
  sim::Device dev(QuietDevice());
  BlockCache cache(16);
  ::camal::lsm::Run run(1, MakeEntries(100), 8, 10.0, 128, 0);
  Entry e;
  run.Get(100, &e, &dev, &cache);
  EXPECT_EQ(dev.block_reads(), 1u);
  run.Get(100, &e, &dev, &cache);
  EXPECT_EQ(dev.block_reads(), 1u);  // second access served by cache
}

TEST(RunTest, FirstGeqBoundaries) {
  sim::Device dev(QuietDevice());
  ::camal::lsm::Run run(1, MakeEntries(10), 4, 10.0, 128, 0);  // keys 2..20 even
  EXPECT_EQ(run.FirstGeq(1, &dev), 0u);
  EXPECT_EQ(run.FirstGeq(2, &dev), 0u);
  EXPECT_EQ(run.FirstGeq(3, &dev), 1u);
  EXPECT_EQ(run.FirstGeq(20, &dev), 9u);
  EXPECT_EQ(run.FirstGeq(21, &dev), 10u);
}

TEST(RunTest, BlockAndFileCounts) {
  sim::Device dev(QuietDevice());
  ::camal::lsm::Run run(7, MakeEntries(100), 8, 10.0, 128, /*file_bytes=*/128 * 25);
  EXPECT_EQ(run.num_blocks(), 13u);  // ceil(100/8)
  EXPECT_EQ(run.num_files(), 4u);    // ceil(100/25)
  EXPECT_EQ(run.id(), 7u);
  EXPECT_EQ(run.min_key(), 2u);
  EXPECT_EQ(run.max_key(), 200u);
}

// The filter is built by whichever Get comes first. Threads racing to make
// that first probe on one shared run must all see the filter a serial
// build gives: the same outcome for every key.
TEST(RunTest, ConcurrentFirstProbesAgree) {
  constexpr int kThreads = 4;
  const std::vector<Entry> entries = MakeEntries(4000);
  std::vector<Run::LookupOutcome> expected;
  {
    sim::Device dev(QuietDevice());
    BlockCache cache(0);
    const ::camal::lsm::Run serial(1, entries, 8, 6.0, 128, 0);
    for (uint64_t k = 1; k <= 8001; ++k) {
      Entry e;
      expected.push_back(serial.Get(k, &e, &dev, &cache));
    }
  }
  const ::camal::lsm::Run shared(1, entries, 8, 6.0, 128, 0);
  std::atomic<int> ready{0};
  std::vector<std::vector<Run::LookupOutcome>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sim::Device dev(QuietDevice());
      BlockCache cache(0);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (uint64_t k = 1; k <= 8001; ++k) {
        Entry e;
        got[t].push_back(shared.Get(k, &e, &dev, &cache));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  size_t false_positives = 0;
  for (Run::LookupOutcome o : expected) {
    false_positives += o == Run::LookupOutcome::kNotFoundAfterIo;
  }
  EXPECT_GT(false_positives, 0u);  // the filter is probed, not bypassed
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected) << t;
}

TEST(CompactionTest, MergeShadowingNewestWins) {
  auto old_run = std::make_shared<const ::camal::lsm::Run>(
      1, std::vector<Entry>{{10, 1, false}, {20, 1, false}}, 8, 0.0, 128, 0);
  auto new_run = std::make_shared<const ::camal::lsm::Run>(
      2, std::vector<Entry>{{10, 2, false}, {30, 2, false}}, 8, 0.0, 128, 0);
  const std::vector<Entry> merged =
      MergeRuns(std::vector<RunPtr>{new_run, old_run}, /*drop_tombstones=*/false);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 10u);
  EXPECT_EQ(merged[0].value, 2u);  // newest version wins
  EXPECT_EQ(merged[1].key, 20u);
  EXPECT_EQ(merged[2].key, 30u);
}

TEST(CompactionTest, TombstonesCarriedWhenNotBottommost) {
  auto old_run = std::make_shared<const ::camal::lsm::Run>(
      1, std::vector<Entry>{{10, 1, false}}, 8, 0.0, 128, 0);
  auto new_run = std::make_shared<const ::camal::lsm::Run>(
      2, std::vector<Entry>{{10, 0, true}}, 8, 0.0, 128, 0);
  const std::vector<Entry> merged = MergeRuns(std::vector<RunPtr>{new_run, old_run}, false);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_TRUE(merged[0].tombstone);
}

TEST(CompactionTest, TombstonesDroppedAtBottom) {
  auto old_run = std::make_shared<const ::camal::lsm::Run>(
      1, std::vector<Entry>{{10, 1, false}, {20, 1, false}}, 8, 0.0, 128, 0);
  auto new_run = std::make_shared<const ::camal::lsm::Run>(
      2, std::vector<Entry>{{10, 0, true}}, 8, 0.0, 128, 0);
  const std::vector<Entry> merged = MergeRuns(std::vector<RunPtr>{new_run, old_run}, true);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].key, 20u);
}

TEST(CompactionTest, ThreeWayMergeKeepsSortedOrder) {
  auto r1 = std::make_shared<const ::camal::lsm::Run>(
      1, std::vector<Entry>{{5, 1, false}, {50, 1, false}}, 8, 0.0, 128, 0);
  auto r2 = std::make_shared<const ::camal::lsm::Run>(
      2, std::vector<Entry>{{10, 2, false}, {40, 2, false}}, 8, 0.0, 128, 0);
  auto r3 = std::make_shared<const ::camal::lsm::Run>(
      3, std::vector<Entry>{{20, 3, false}, {30, 3, false}}, 8, 0.0, 128, 0);
  const std::vector<Entry> merged = MergeRuns(std::vector<RunPtr>{r3, r2, r1}, false);
  ASSERT_EQ(merged.size(), 6u);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].key, merged[i].key);
  }
}

EntrySpan SpanOf(const std::vector<Entry>& entries) {
  return {entries.data(), entries.data() + entries.size()};
}

TEST(MergeSortedTest, NewestSpanWinsAcrossThreeSpans) {
  const std::vector<Entry> newest{{10, 3, false}, {30, 0, true}};
  const std::vector<Entry> middle{
      {10, 2, false}, {20, 2, false}, {30, 2, false}};
  const std::vector<Entry> oldest{
      {5, 1, false}, {10, 1, false}, {20, 1, false}};
  const std::vector<EntrySpan> spans{SpanOf(newest), SpanOf(middle),
                                     SpanOf(oldest)};
  const std::vector<Entry> kept =
      MergeSorted(spans, /*drop_tombstones=*/false);
  const std::vector<Entry> want{
      {5, 1, false}, {10, 3, false}, {20, 2, false}, {30, 0, true}};
  EXPECT_EQ(kept, want);

  const std::vector<Entry> dropped =
      MergeSorted(spans, /*drop_tombstones=*/true);
  const std::vector<Entry> want_dropped{
      {5, 1, false}, {10, 3, false}, {20, 2, false}};
  EXPECT_EQ(dropped, want_dropped);
}

TEST(MergeSortedTest, EmptySpansContributeNothing) {
  const std::vector<Entry> none;
  const std::vector<Entry> some{{1, 1, false}, {4, 4, false}};
  EXPECT_TRUE(MergeSorted({}, false).empty());
  EXPECT_TRUE(MergeSorted({SpanOf(none), SpanOf(none)}, true).empty());
  EXPECT_EQ(MergeSorted({SpanOf(none), SpanOf(some), SpanOf(none)}, false),
            some);
}

TEST(MergeSortedTest, AllTombstonesDropToEmptyOutput) {
  const std::vector<Entry> newer{{2, 0, true}, {6, 0, true}};
  const std::vector<Entry> older{{2, 0, true}, {4, 0, true}};
  EXPECT_TRUE(MergeSorted({SpanOf(newer), SpanOf(older)}, true).empty());
  EXPECT_EQ(MergeSorted({SpanOf(newer), SpanOf(older)}, false).size(), 3u);
}

/// A merge cursor that, like a block-streaming one, hands out a copy of
/// its head entry instead of a reference into the input.
struct CopyingCursor {
  const std::vector<Entry>* entries;
  size_t idx = 0;

  bool done() const { return idx == entries->size(); }
  Entry head() const { return (*entries)[idx]; }
  void advance() { ++idx; }
};

TEST(MergeSortedTest, RandomStreamsMatchReferenceMap) {
  util::Random rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    // Build each span as a key-unique sorted map, newest first; the
    // reference applies them oldest first so newer versions overwrite.
    // Keys collide across spans; some spans are empty, and every tenth
    // trial is all tombstones.
    const double tombstones = trial % 10 == 0 ? 1.0 : 0.3;
    const size_t num_spans = 1 + rng.Uniform(6);
    std::vector<std::vector<Entry>> spans(num_spans);
    for (size_t s = 0; s < num_spans; ++s) {
      std::map<uint64_t, Entry> sorted;
      const uint64_t n = rng.Bernoulli(0.2) ? 0 : rng.Uniform(60);
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t key = rng.Uniform(100);
        sorted[key] = Entry{key, rng.Next(), rng.Bernoulli(tombstones)};
      }
      for (const auto& [key, e] : sorted) spans[s].push_back(e);
    }
    std::map<uint64_t, Entry> reference;
    for (size_t s = num_spans; s-- > 0;) {
      for (const Entry& e : spans[s]) reference[e.key] = e;
    }
    std::vector<EntrySpan> newest_first;
    for (const std::vector<Entry>& span : spans) {
      newest_first.push_back(SpanOf(span));
    }
    for (bool drop : {false, true}) {
      std::vector<Entry> want;
      for (const auto& [key, e] : reference) {
        if (!(drop && e.tombstone)) want.push_back(e);
      }
      const std::vector<Entry> sorted = MergeSorted(newest_first, drop);
      EXPECT_EQ(sorted, want) << "trial " << trial << " drop " << drop;

      // The cursor/sink core over by-value cursors streams the same
      // entries, in the same order, as the span wrapper.
      std::vector<CopyingCursor> cursors;
      for (const std::vector<Entry>& span : spans) cursors.push_back({&span});
      std::vector<Entry> streamed;
      MergeCursors(cursors, drop, [&streamed](const Entry& e) {
        streamed.push_back(e);
        return true;
      });
      EXPECT_EQ(streamed, sorted) << "trial " << trial << " drop " << drop;
      for (const CopyingCursor& c : cursors) EXPECT_TRUE(c.done());
    }
  }
}

/// A merge cursor that counts the `head()` calls made once `*stopped` is
/// set: a block-reading cursor would fetch on such a call.
struct CountingCursor {
  const std::vector<Entry>* entries;
  const bool* stopped;
  size_t* heads_after_stop;
  size_t idx = 0;

  bool done() const { return idx == entries->size(); }
  const Entry& head() const {
    if (*stopped) ++*heads_after_stop;
    return (*entries)[idx];
  }
  void advance() { ++idx; }
};

TEST(MergeCursorsTest, StopEmitsAPrefixAndReadsNoHeadAfterIt) {
  util::Random rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t num_spans = 1 + rng.Uniform(5);
    std::vector<std::vector<Entry>> spans(num_spans);
    for (std::vector<Entry>& span : spans) {
      std::map<uint64_t, Entry> sorted;
      const uint64_t n = rng.Uniform(40);
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t key = rng.Uniform(80);
        sorted[key] = Entry{key, rng.Next(), rng.Bernoulli(0.3)};
      }
      for (const auto& [key, e] : sorted) span.push_back(e);
    }
    std::vector<EntrySpan> newest_first;
    for (const std::vector<Entry>& span : spans) {
      newest_first.push_back(SpanOf(span));
    }
    for (bool drop : {false, true}) {
      const std::vector<Entry> full = MergeSorted(newest_first, drop);
      if (full.empty()) continue;
      const size_t limit = 1 + rng.Uniform(full.size());
      bool stopped = false;
      size_t heads_after_stop = 0;
      std::vector<CountingCursor> cursors;
      for (const std::vector<Entry>& span : spans) {
        cursors.push_back({&span, &stopped, &heads_after_stop});
      }
      std::vector<Entry> out;
      MergeCursors(cursors, drop, [&](const Entry& e) {
        out.push_back(e);
        stopped = out.size() == limit;
        return !stopped;
      });
      ASSERT_EQ(out.size(), limit) << "trial " << trial;
      EXPECT_TRUE(std::equal(out.begin(), out.end(), full.begin()))
          << "trial " << trial << " drop " << drop;
      EXPECT_EQ(heads_after_stop, 0u) << "trial " << trial;
      // Every cursor sits on its first entry past the stop key: the ones
      // that held it advanced past it, and none went further.
      const uint64_t stop_key = out.back().key;
      for (const CountingCursor& c : cursors) {
        const auto past = std::upper_bound(
            c.entries->begin(), c.entries->end(), stop_key,
            [](uint64_t k, const Entry& e) { return k < e.key; });
        EXPECT_EQ(c.idx, static_cast<size_t>(past - c.entries->begin()))
            << "trial " << trial;
      }
    }
  }
}

}  // namespace
}  // namespace camal::lsm
