#include "lsm/bloom.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"
#include "util/status.h"

namespace camal::lsm {

namespace {
constexpr double kLn2 = 0.6931471805599453;
constexpr double kMinUsefulBpk = 0.5;
constexpr int kMaxHashes = 30;

using util::Fmix64;
}  // namespace

BloomFilter::BloomFilter(size_t num_entries, double bits_per_key) {
  if (num_entries == 0 || bits_per_key < kMinUsefulBpk) return;
  bits_per_key_ = bits_per_key;
  num_bits_ = std::max<size_t>(
      64, static_cast<size_t>(std::llround(
              static_cast<double>(num_entries) * bits_per_key)));
  words_.assign((num_bits_ + 63) / 64, 0);
  num_hashes_ =
      std::max(1, static_cast<int>(std::llround(bits_per_key * kLn2)));
  num_hashes_ = std::min(num_hashes_, kMaxHashes);
}

BloomFilter BloomFilter::FromParts(std::vector<uint64_t> words,
                                   size_t num_bits, int num_hashes,
                                   double bits_per_key) {
  CAMAL_CHECK(words.size() == num_bits / 64 + (num_bits % 64 != 0 ? 1 : 0));
  CAMAL_CHECK(num_bits == 0 ? num_hashes == 0
                            : num_hashes >= 1 && num_hashes <= kMaxHashes);
  BloomFilter f;
  f.words_ = std::move(words);
  f.num_bits_ = num_bits;
  f.num_hashes_ = num_hashes;
  f.bits_per_key_ = bits_per_key;
  return f;
}

void BloomFilter::Add(uint64_t key) {
  if (absent()) return;
  uint64_t h1 = Fmix64(key);
  const uint64_t h2 = Fmix64(key ^ 0x9e3779b97f4a7c15ULL) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t bit = h1 % num_bits_;
    words_[bit >> 6] |= (1ULL << (bit & 63));
    h1 += h2;
  }
}

bool BloomFilter::MayContain(uint64_t key) const {
  if (absent()) return true;
  uint64_t h1 = Fmix64(key);
  const uint64_t h2 = Fmix64(key ^ 0x9e3779b97f4a7c15ULL) | 1;
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t bit = h1 % num_bits_;
    if ((words_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
    h1 += h2;
  }
  return true;
}

double BloomFilter::TheoreticalFpr() const {
  if (absent()) return 1.0;
  return std::min(1.0, std::exp(-bits_per_key_ * kLn2 * kLn2));
}

}  // namespace camal::lsm
