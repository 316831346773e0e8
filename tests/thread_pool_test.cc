#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace camal::util {
namespace {

TEST(ThreadPoolTest, SubmittedTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
}

TEST(ThreadPoolTest, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_EQ(pool.num_threads(), HardwareThreads());
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ParallelForTest, CoversExactlyTheRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(&pool, 5, 64, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i >= 5 ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool touched = false;
  ParallelFor(&pool, 7, 7, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  int sum = 0;
  ParallelFor(nullptr, 0, 10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelForTest, PropagatesExceptionsToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 100,
                  [](size_t i) {
                    if (i == 37) throw std::runtime_error("task failed");
                  }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 0, 8, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ParallelForTest, NestedLoopsRunInlineWithoutDeadlock) {
  ThreadPool pool(2);
  // Atomic: the outer iteration the calling thread runs is not inside a
  // worker, so its inner loop fans out and its tasks add concurrently.
  std::vector<std::atomic<long>> totals(4);
  ParallelFor(&pool, 0, 4, [&](size_t outer) {
    ParallelFor(&pool, 0, 100, [&](size_t inner) {
      totals[outer].fetch_add(static_cast<long>(inner));
    });
  });
  for (const auto& t : totals) EXPECT_EQ(t.load(), 4950);
}

// The determinism contract: per-task seeds are derived from the task index
// (base_seed ^ index style), so a parallel run fills the output exactly
// like a serial run.
TEST(ParallelForTest, IndexSeededStreamsMatchSerialBitForBit) {
  const uint64_t base_seed = 12345;
  auto run = [&](ThreadPool* pool) {
    std::vector<uint64_t> out(257);
    ParallelFor(pool, 0, out.size(), [&](size_t i) {
      Random rng(base_seed ^ static_cast<uint64_t>(i));
      out[i] = rng.Next() + rng.Uniform(1000);
    });
    return out;
  };
  ThreadPool pool(4);
  EXPECT_EQ(run(nullptr), run(&pool));
}

TEST(GlobalPoolTest, FollowsConfiguredThreadCount) {
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalThreads(), 1);
  EXPECT_EQ(GlobalPool(), nullptr);

  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreads(), 3);
  ThreadPool* pool = GlobalPool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3);

  std::atomic<int> counter{0};
  ParallelFor(pool, 0, 32, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 32);

  SetGlobalThreads(1);  // restore the serial default for other tests
}

}  // namespace
}  // namespace camal::util
