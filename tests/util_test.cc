#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32c.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/zipf.h"

namespace camal::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, InvalidArgumentCarriesMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_NE(s.ToString().find("bad knob"), std::string::npos);
}

TEST(StatusTest, NotFound) {
  Status s = Status::NotFound("key");
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_FALSE(s.IsInvalidArgument());
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RandomTest, UniformWithinBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Random rng(9);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) ++hits[rng.Uniform(8)];
  for (int h : hits) EXPECT_GT(h, 700);  // expectation 1000
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianMoments) {
  Random rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RandomTest, BernoulliRate) {
  Random rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  Random rng(3);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[zipf.Next(&rng)];
  for (int h : hits) EXPECT_NEAR(h, 1000, 200);
}

TEST(ZipfTest, RanksWithinDomain) {
  Random rng(5);
  ZipfGenerator zipf(100, 0.9);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(zipf.Next(&rng), 100u);
}

TEST(ZipfTest, SkewConcentratesOnHotRanks) {
  Random rng(7);
  ZipfGenerator zipf(1000, 0.9);
  int top10 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) top10 += (zipf.Next(&rng) < 10);
  // With theta=0.9 the head is heavily hit; uniform would give 1%.
  EXPECT_GT(static_cast<double>(top10) / n, 0.25);
}

TEST(ZipfTest, HigherThetaMoreSkew) {
  Random rng1(9), rng2(9);
  ZipfGenerator mild(1000, 0.3), hot(1000, 0.9);
  int mild_top = 0, hot_top = 0;
  for (int i = 0; i < 10000; ++i) {
    mild_top += (mild.Next(&rng1) < 10);
    hot_top += (hot.Next(&rng2) < 10);
  }
  EXPECT_GT(hot_top, mild_top);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.Add(3.0);
  EXPECT_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentileSketchTest, Quantiles) {
  PercentileSketch sketch;
  for (int i = 1; i <= 100; ++i) sketch.Add(i);
  EXPECT_NEAR(sketch.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(sketch.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(sketch.Quantile(0.5), 50.5, 1.0);
  EXPECT_NEAR(sketch.Quantile(0.9), 90.1, 1.0);
  EXPECT_NEAR(sketch.Mean(), 50.5, 1e-9);
}

TEST(PercentileSketchTest, EmptyReturnsZero) {
  PercentileSketch sketch;
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.Mean(), 0.0);
}

TEST(PercentileSketchTest, InterleavedAddAndQuery) {
  PercentileSketch sketch;
  sketch.Add(10.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 10.0);
  sketch.Add(20.0);
  sketch.Add(0.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 10.0);
}

TEST(Crc32cTest, StandardCheckVector) {
  // The CRC-32C catalogue's check value for the ASCII digits 1-9.
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable(digits, 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(digits, 0), 0u);
}

TEST(Crc32cTest, DispatchedPathMatchesTableOnRandomBuffers) {
  // On hosts with SSE4.2 `Crc32c` runs the hardware instruction; either
  // way it must agree with the table path byte for byte: every alignment
  // of the start (the hardware loop aligns to 8 bytes first), lengths
  // that leave every possible tail, and arbitrary continuation seeds.
  Random rng(29);
  std::vector<unsigned char> buf(5000 + 16);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = rng.Uniform(16);
    const size_t len = trial < 64 ? static_cast<size_t>(trial)
                                  : rng.Uniform(5001);
    const uint32_t seed =
        trial % 3 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    const unsigned char* p = buf.data() + offset;
    ASSERT_EQ(Crc32c(p, len, seed), Crc32cPortable(p, len, seed))
        << "offset " << offset << " len " << len << " seed " << seed;
  }
}

TEST(Crc32cTest, SeedContinuesAStreamAcrossSplits) {
  Random rng(31);
  std::vector<unsigned char> buf(777);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t cut = 0; cut <= buf.size(); cut += 37) {
    const uint32_t head = Crc32c(buf.data(), cut);
    EXPECT_EQ(Crc32c(buf.data() + cut, buf.size() - cut, head), whole)
        << "cut " << cut;
  }
}

}  // namespace
}  // namespace camal::util
