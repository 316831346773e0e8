#ifndef CAMAL_LSM_RUN_H_
#define CAMAL_LSM_RUN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "lsm/block_cache.h"
#include "lsm/bloom.h"
#include "lsm/entry.h"
#include "sim/device.h"

namespace camal::lsm {

/// One immutable sorted run (SSTable) made of fixed-size blocks with fence
/// pointers and an optional Bloom filter.
///
/// Block contents live in memory, but every block touched on the read path
/// is charged to the simulated device (through the block cache) and every
/// block written at construction time is charged as a sequential write.
///
/// The filter is built on the first `Get`, not at construction: most runs
/// are merged away before any lookup reaches them (bulk load and warmup
/// never probe), and the simulated build cost is charged by the caller that
/// creates the run either way. The bits are the same as an eager build's.
class Run {
 public:
  enum class LookupOutcome {
    kFilteredOut,     ///< Bloom filter said no — zero I/O
    kNotFoundAfterIo,  ///< filter false positive; a block was read in vain
    kFound,           ///< entry located (may be a tombstone)
  };

  /// Builds a run from already-sorted, deduplicated `entries`.
  /// `entries_per_block` is B; `bloom_bits_per_key` sizes the filter
  /// (<= 0 builds no filter). `file_bytes` > 0 splits the run into that many
  /// logical SST files (affects per-lookup metadata CPU only).
  Run(uint64_t id, std::vector<Entry> entries, uint64_t entries_per_block,
      double bloom_bits_per_key, uint64_t entry_bytes, uint64_t file_bytes);

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Point lookup. Charges filter-probe CPU; on a filter pass, charges fence
  /// search CPU and one block access (cache or device). The first call
  /// builds the filter; concurrent first calls are safe.
  LookupOutcome Get(uint64_t key, Entry* out, sim::Device* device,
                    BlockCache* cache) const;

  /// Index of the first entry with key >= `key` (== size() when past end).
  /// Charges fence-pointer search CPU only; block access is charged as the
  /// caller iterates (see ChargeBlockAccess).
  size_t FirstGeq(uint64_t key, sim::Device* device) const;

  /// Charges the block containing entry `idx` as a read-path access
  /// (cache-aware). Used by range scans as their cursor advances.
  void ChargeBlockAccess(size_t idx, sim::Device* device,
                         BlockCache* cache) const;

  const std::vector<Entry>& entries() const { return entries_; }
  const Entry& entry(size_t idx) const { return entries_[idx]; }
  size_t size() const { return entries_.size(); }
  uint64_t id() const { return id_; }
  size_t num_blocks() const { return num_blocks_; }
  size_t num_files() const { return num_files_; }
  uint64_t min_key() const { return entries_.front().key; }
  uint64_t max_key() const { return entries_.back().key; }

 private:
  size_t BlockOf(size_t idx) const { return idx / entries_per_block_; }
  const BloomFilter& Filter() const;

  uint64_t id_;
  std::vector<Entry> entries_;
  uint64_t entries_per_block_;
  size_t num_blocks_;
  size_t num_files_;
  double bloom_bits_per_key_;
  mutable std::once_flag filter_once_;
  mutable BloomFilter filter_;
};

using RunPtr = std::shared_ptr<const Run>;

}  // namespace camal::lsm

#endif  // CAMAL_LSM_RUN_H_
