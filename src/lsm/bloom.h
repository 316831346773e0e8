#ifndef CAMAL_LSM_BLOOM_H_
#define CAMAL_LSM_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace camal::lsm {

/// Standard Bloom filter over 64-bit keys with double hashing.
///
/// A filter built with fewer than ~0.5 bits per key is degenerate and is
/// represented as "absent": `MayContain` always returns true and the filter
/// consumes no memory. This mirrors Monkey's behaviour of dropping filters
/// at the deepest levels when the memory budget runs out.
class BloomFilter {
 public:
  /// Creates an absent (always-true) filter.
  BloomFilter() = default;

  /// Creates a filter sized for `num_entries` keys at `bits_per_key` bits.
  BloomFilter(size_t num_entries, double bits_per_key);

  void Add(uint64_t key);

  /// Returns false only if `key` was definitely never added.
  bool MayContain(uint64_t key) const;

  double bits_per_key() const { return bits_per_key_; }
  size_t memory_bits() const { return num_bits_; }
  bool absent() const { return num_bits_ == 0; }

  /// Expected false-positive rate exp(-bpk * ln^2 2), clamped to [~0, 1].
  double TheoreticalFpr() const;

  // Serialization surface (the file backend's per-run filter files): raw
  // internal state, enough to reconstruct a filter that answers every
  // probe identically.
  const std::vector<uint64_t>& words() const { return words_; }
  int num_hashes() const { return num_hashes_; }

  /// Reconstructs a filter from previously exported internals. The parts
  /// come from disk, so they are checked: `words` must hold exactly
  /// ceil(num_bits / 64) words, and a present filter (num_bits > 0) needs
  /// 1..30 hashes while an absent one carries none. Anything else aborts,
  /// since probing it would read past the bit array.
  static BloomFilter FromParts(std::vector<uint64_t> words, size_t num_bits,
                               int num_hashes, double bits_per_key);

 private:
  std::vector<uint64_t> words_;
  size_t num_bits_ = 0;
  int num_hashes_ = 0;
  double bits_per_key_ = 0.0;
};

}  // namespace camal::lsm

#endif  // CAMAL_LSM_BLOOM_H_
