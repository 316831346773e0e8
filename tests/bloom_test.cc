#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/bloom.h"
#include "lsm/monkey.h"
#include "util/random.h"

namespace camal::lsm {
namespace {

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter filter(1000, 10.0);
  for (uint64_t k = 0; k < 1000; ++k) filter.Add(k * 7 + 1);
  for (uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(filter.MayContain(k * 7 + 1));
}

TEST(BloomTest, FprCloseToTheory) {
  const double bpk = 10.0;
  BloomFilter filter(5000, bpk);
  for (uint64_t k = 0; k < 5000; ++k) filter.Add(k * 2);
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) fp += filter.MayContain(2 * i + 1);
  const double fpr = static_cast<double>(fp) / probes;
  const double theory = filter.TheoreticalFpr();
  EXPECT_NEAR(fpr, theory, theory * 1.0 + 0.003);
  EXPECT_LT(fpr, 0.03);
}

TEST(BloomTest, MoreBitsFewerFalsePositives) {
  BloomFilter small(2000, 4.0), big(2000, 12.0);
  for (uint64_t k = 0; k < 2000; ++k) {
    small.Add(k * 2);
    big.Add(k * 2);
  }
  int fp_small = 0, fp_big = 0;
  for (int i = 0; i < 10000; ++i) {
    fp_small += small.MayContain(2 * i + 1);
    fp_big += big.MayContain(2 * i + 1);
  }
  EXPECT_GT(fp_small, fp_big);
}

TEST(BloomTest, AbsentFilterAlwaysTrue) {
  BloomFilter absent;
  EXPECT_TRUE(absent.absent());
  EXPECT_TRUE(absent.MayContain(42));
  EXPECT_EQ(absent.memory_bits(), 0u);
  EXPECT_DOUBLE_EQ(absent.TheoreticalFpr(), 1.0);
}

TEST(BloomTest, TinyBpkDegeneratesToAbsent) {
  BloomFilter filter(1000, 0.2);
  EXPECT_TRUE(filter.absent());
  EXPECT_TRUE(filter.MayContain(1));
}

TEST(BloomTest, MemorySizedByBpk) {
  BloomFilter filter(1000, 8.0);
  EXPECT_NEAR(static_cast<double>(filter.memory_bits()), 8000.0, 64.0);
  EXPECT_DOUBLE_EQ(filter.bits_per_key(), 8.0);
}

TEST(BloomTest, FromPartsRoundTripsProbes) {
  BloomFilter filter(300, 9.0);
  for (uint64_t k = 0; k < 300; ++k) filter.Add(k * 3);
  const BloomFilter copy =
      BloomFilter::FromParts(filter.words(), filter.memory_bits(),
                             filter.num_hashes(), filter.bits_per_key());
  for (uint64_t k = 0; k < 2000; ++k) {
    EXPECT_EQ(copy.MayContain(k), filter.MayContain(k)) << k;
  }
  const BloomFilter absent = BloomFilter::FromParts({}, 0, 0, 0.0);
  EXPECT_TRUE(absent.absent());
  EXPECT_TRUE(absent.MayContain(7));
}

// FromParts is fed from disk (a run's filter file, sized by its manifest
// record): parts that would let MayContain index past the bit array must
// be refused.
TEST(BloomDeathTest, FromPartsRejectsInconsistentParts) {
  BloomFilter filter(100, 10.0);  // 1000 bits in 16 words, 7 hashes
  for (uint64_t k = 0; k < 100; ++k) filter.Add(k);
  const std::vector<uint64_t> words = filter.words();
  ASSERT_EQ(words.size(), 16u);
  const size_t bits = filter.memory_bits();
  const int hashes = filter.num_hashes();
  std::vector<uint64_t> short_words(words.begin(), words.end() - 1);
  EXPECT_DEATH(BloomFilter::FromParts(short_words, bits, hashes, 10.0),
               "CHECK failed");
  EXPECT_DEATH(BloomFilter::FromParts(words, bits + 64, hashes, 10.0),
               "CHECK failed");
  EXPECT_DEATH(BloomFilter::FromParts(words, ~size_t{0}, hashes, 10.0),
               "CHECK failed");
  EXPECT_DEATH(BloomFilter::FromParts(words, bits, 0, 10.0), "CHECK failed");
  EXPECT_DEATH(BloomFilter::FromParts(words, bits, 31, 10.0), "CHECK failed");
  EXPECT_DEATH(BloomFilter::FromParts(words, bits, -1, 10.0), "CHECK failed");
  EXPECT_DEATH(BloomFilter::FromParts(words, 0, 0, 10.0), "CHECK failed");
  EXPECT_DEATH(BloomFilter::FromParts({}, 0, 3, 0.0), "CHECK failed");
}

// The full 200-step log-space bisection MonkeyAllocate used to run. It is
// the reference the early-stopping version must match bit for bit.
std::vector<double> ReferenceMonkeyAllocate(
    double total_bits, const std::vector<uint64_t>& level_entries) {
  constexpr double kLn2Sq = 0.4804530139182014;
  std::vector<double> bpk(level_entries.size(), 0.0);
  if (total_bits <= 0.0) return bpk;
  bool any = false;
  for (uint64_t n : level_entries) any |= (n > 0);
  if (!any) return bpk;
  auto bits_for_mu = [&](double mu) {
    double bits = 0.0;
    for (uint64_t n : level_entries) {
      if (n == 0) continue;
      const double p = mu * static_cast<double>(n);
      if (p >= 1.0) continue;
      bits += static_cast<double>(n) * (-std::log(p)) / kLn2Sq;
    }
    return bits;
  };
  double lo = 1e-30, hi = 1e+6;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = std::sqrt(lo * hi);
    if (bits_for_mu(mid) > total_bits) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double mu = std::sqrt(lo * hi);
  for (size_t i = 0; i < level_entries.size(); ++i) {
    const uint64_t n = level_entries[i];
    if (n == 0) continue;
    const double p = mu * static_cast<double>(n);
    if (p >= 1.0) continue;
    bpk[i] = -std::log(p) / kLn2Sq;
  }
  return bpk;
}

TEST(MonkeyTest, EarlyStopMatchesFullBisectionExactly) {
  util::Random rng(2024);
  std::vector<std::vector<uint64_t>> shapes = {
      {1000, 10000, 100000},
      {0, 1000, 0},
      {1},
      {1, 1, 1, 1},
      {5000, 0, 50000, 500000, 5000000},
      {uint64_t{1} << 40, uint64_t{1} << 41},
  };
  for (int i = 0; i < 40; ++i) {
    std::vector<uint64_t> levels(1 + rng.Uniform(6));
    uint64_t n = 1 + rng.Uniform(5000);
    for (uint64_t& level : levels) {
      level = rng.Bernoulli(0.15) ? 0 : n;
      n *= 2 + rng.Uniform(12);
    }
    shapes.push_back(levels);
  }
  // Budgets from tiny (filters dropped at all but the smallest levels, or
  // everywhere) through realistic bits-per-key to huge, where the budget
  // covers every mu the bisection tries and `lo` never moves.
  const std::vector<double> per_key = {1e-9, 1e-3, 0.05, 0.5, 1.0, 2.5, 5.0,
                                       8.0,  10.0, 16.0, 40.0, 1e3, 1e9, 1e30};
  for (const std::vector<uint64_t>& levels : shapes) {
    double entries = 0.0;
    for (uint64_t n : levels) entries += static_cast<double>(n);
    for (double bpk : per_key) {
      const double budget = bpk * entries;
      const std::vector<double> got = MonkeyAllocate(budget, levels);
      const std::vector<double> want = ReferenceMonkeyAllocate(budget, levels);
      ASSERT_EQ(got.size(), want.size());
      for (size_t l = 0; l < got.size(); ++l) {
        EXPECT_EQ(got[l], want[l])
            << "level " << l << " of " << levels.size() << ", bpk " << bpk;
      }
    }
  }
}

TEST(MonkeyTest, BudgetRoughlyConsumed) {
  const std::vector<uint64_t> levels = {1000, 10000, 100000};
  const double budget = 10.0 * 111000;
  const std::vector<double> bpk = MonkeyAllocate(budget, levels);
  double used = 0.0;
  for (size_t i = 0; i < levels.size(); ++i) {
    used += bpk[i] * static_cast<double>(levels[i]);
  }
  EXPECT_NEAR(used, budget, budget * 0.01);
}

TEST(MonkeyTest, DeeperLevelsFewerBitsPerKey) {
  const std::vector<uint64_t> levels = {1000, 10000, 100000};
  const std::vector<double> bpk = MonkeyAllocate(10.0 * 111000, levels);
  EXPECT_GT(bpk[0], bpk[1]);
  EXPECT_GT(bpk[1], bpk[2]);
}

TEST(MonkeyTest, TinyBudgetDropsDeepFilters) {
  const std::vector<uint64_t> levels = {100, 1000, 100000};
  const std::vector<double> bpk = MonkeyAllocate(2000.0, levels);
  // The deepest level is too big to filter with such a small budget.
  EXPECT_EQ(bpk[2], 0.0);
  EXPECT_GT(bpk[0], 0.0);
}

TEST(MonkeyTest, ZeroBudgetAllZero) {
  const std::vector<double> bpk = MonkeyAllocate(0.0, {100, 1000});
  EXPECT_EQ(bpk[0], 0.0);
  EXPECT_EQ(bpk[1], 0.0);
}

TEST(MonkeyTest, EmptyLevelsIgnored) {
  const std::vector<double> bpk = MonkeyAllocate(10000.0, {0, 1000, 0});
  EXPECT_EQ(bpk[0], 0.0);
  EXPECT_EQ(bpk[2], 0.0);
  EXPECT_NEAR(bpk[1], 10.0, 0.1);
}

TEST(MonkeyTest, ZeroResultCostDecreasesWithBudget) {
  const std::vector<uint64_t> levels = {1000, 10000, 100000};
  const double lo = MonkeyZeroResultIoCost(1.0 * 111000, levels);
  const double mid = MonkeyZeroResultIoCost(5.0 * 111000, levels);
  const double hi = MonkeyZeroResultIoCost(12.0 * 111000, levels);
  EXPECT_GT(lo, mid);
  EXPECT_GT(mid, hi);
}

TEST(MonkeyTest, MonkeyBeatsUniformAllocation) {
  // The Monkey allocation should yield no more expected false-positive I/O
  // than uniform bits-per-key across levels.
  const std::vector<uint64_t> levels = {500, 5000, 50000};
  const double total_entries = 55500;
  const double budget = 8.0 * total_entries;
  const double monkey_cost = MonkeyZeroResultIoCost(budget, levels);
  constexpr double kLn2Sq = 0.4804530139182014;
  double uniform_cost = 0.0;
  for (uint64_t n : levels) {
    (void)n;
    uniform_cost += std::exp(-8.0 * kLn2Sq);
  }
  EXPECT_LE(monkey_cost, uniform_cost + 1e-9);
}

}  // namespace
}  // namespace camal::lsm
