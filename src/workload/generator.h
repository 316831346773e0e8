#ifndef CAMAL_WORKLOAD_GENERATOR_H_
#define CAMAL_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "model/workload_spec.h"
#include "util/random.h"
#include "util/zipf.h"

namespace camal::workload {

/// The kinds of operations a workload stream emits.
enum class OpType {
  kZeroResultLookup,
  kNonZeroResultLookup,
  kRangeLookup,
  kWrite,
  kDelete,
};

/// One generated operation.
struct Operation {
  OpType type = OpType::kWrite;
  uint64_t key = 0;
  uint64_t value = 0;
  size_t scan_len = 0;
};

/// Manages the live key population: existing keys are shuffled even
/// integers (so hot Zipfian ranks are scattered across the key space) and
/// odd integers are guaranteed misses for zero-result lookups.
class KeySpace {
 public:
  KeySpace(uint64_t num_keys, uint64_t seed);

  uint64_t num_keys() const { return keys_.size(); }
  uint64_t KeyAt(uint64_t rank) const { return keys_[rank]; }

  /// A key guaranteed absent from the store.
  uint64_t MissingKey(util::Random* rng) const;

  /// Appends a brand-new key (for insert-heavy dynamic phases) and returns
  /// it.
  uint64_t AppendKey();

  /// All keys in insertion order (used for the initial bulk load).
  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  std::vector<uint64_t> keys_;
  uint64_t next_even_;
};

/// Stream generation knobs.
struct GeneratorConfig {
  /// Range-lookup selectivity in entries (s).
  size_t scan_len = 16;
  /// When true, write operations insert new keys (growing the data); when
  /// false they update existing keys (steady state).
  bool insert_new_keys = false;
  /// Per-tenant traffic hotness: when > 0 (and `num_shards` > 1), key
  /// draws are rejection-resampled so shard s of a hash-partitioned
  /// engine receives traffic proportional to 1/(s+1)^shard_skew — hot
  /// low-index shards, cold high-index ones. 0 (the default) changes
  /// nothing: the stream is bit-identical to the unbiased generator.
  /// Inserted *new* keys stay unbiased (appending a key fixes its shard).
  double shard_skew = 0.0;
  /// Shard count of the served engine (keys route by
  /// `engine::ShardOf`). Only read when `shard_skew` > 0.
  size_t num_shards = 1;
};

/// Draws operations matching a WorkloadSpec's mix, key skew, and delete
/// fraction.
class OperationGenerator {
 public:
  OperationGenerator(const model::WorkloadSpec& spec, KeySpace* keys,
                     const GeneratorConfig& config, uint64_t seed);

  Operation Next();

  /// Swaps in a new mix mid-stream (dynamic mode).
  void SetSpec(const model::WorkloadSpec& spec);

 private:
  uint64_t ExistingRank();

  /// True when per-shard traffic biasing is configured.
  bool ShardBiasActive() const {
    return config_.shard_skew > 0.0 && config_.num_shards > 1;
  }

  /// Existing-key / missing-key draws with the per-shard hotness bias
  /// applied (plain draws when the bias is off — no extra randomness is
  /// consumed, keeping the skew-off stream bit-identical).
  uint64_t BiasedExistingKey();
  uint64_t BiasedMissingKey();

  /// Accepts or redraws `key` until its home shard passes the hotness
  /// filter (bounded redraws keep generation O(1) per op).
  template <typename Redraw>
  uint64_t RejectionSample(uint64_t key, Redraw redraw);

  model::WorkloadSpec spec_;
  KeySpace* keys_;
  /// Acceptance probability of shard `shard` (hottest shard = 1):
  /// (1/(shard+1))^shard_skew, computed inline — a precomputed table
  /// would cost O(num_shards) memory per generator (8 MB at a million
  /// tenants) for a value `pow` produces bit-identically on demand.
  double ShardAccept(size_t shard) const;

  GeneratorConfig config_;
  util::Random rng_;
  std::unique_ptr<util::ZipfGenerator> zipf_;
  uint64_t zipf_domain_ = 0;
  uint64_t next_value_ = 1;
};

}  // namespace camal::workload

#endif  // CAMAL_WORKLOAD_GENERATOR_H_
