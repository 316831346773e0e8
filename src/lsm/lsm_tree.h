#ifndef CAMAL_LSM_LSM_TREE_H_
#define CAMAL_LSM_LSM_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/storage_engine.h"
#include "lsm/block_cache.h"
#include "lsm/entry.h"
#include "lsm/memtable.h"
#include "lsm/options.h"
#include "lsm/run.h"
#include "lsm/version.h"
#include "sim/device.h"

namespace camal::lsm {

/// Aggregate counters the tuners and benchmarks read off a tree — the
/// single-tree view of the engine-level counters.
using TreeCounters = engine::EngineCounters;

/// A hibernated tree: the complete logical state of an `LsmTree` in a
/// compact, memtable-free form. `Freeze` produces it without charging the
/// device; the restoring constructor rebuilds a tree that behaves
/// bit-identically to one that was never frozen. The run data (`levels`)
/// is carried by reference-counted immutable runs — the simulated "disk"
/// — while the memtable collapses into a sorted vector.
struct FrozenTreeState {
  Options options;
  std::vector<Entry> memtable;  // sorted by key, tombstones included
  Levels levels;
  TreeCounters counters;
  BlockCache::FrozenState cache;
  uint64_t next_run_id = 1;
  bool transition_active = false;
  // Cached aggregates so hibernated shards answer size queries without
  // rehydrating.
  uint64_t total_entries = 0;
  uint64_t disk_entries = 0;
};

/// A log-structured merge tree over a simulated device.
///
/// Supports both compaction policies from the paper, Monkey-allocated Bloom
/// filters, an LRU block cache, tombstone deletes, the runs-per-level `K`
/// and SST-file-size extension knobs, and lazy online reconfiguration
/// (the DLSM design of Section 6): `Reconfigure` updates the target shape
/// and the structure converges through subsequent natural compactions.
///
/// The batched `ExecuteOps` pipeline is served by the base class's serial
/// implementation (one tree, one device — per-op costs are plain device
/// snapshot deltas); `engine::ShardedEngine` is the parallel override.
class LsmTree : public engine::StorageEngine {
 public:
  /// `device` must outlive the tree; all simulated cost is charged there.
  LsmTree(const Options& options, sim::Device* device);

  /// Rehydrates a tree from a frozen snapshot (shard wake-up). Charges
  /// nothing on `device`; the restored tree is bit-identical — logical
  /// contents, counters, cache state, future cost charges — to the tree
  /// `Freeze` consumed.
  LsmTree(FrozenTreeState state, sim::Device* device);

  /// Destructively exports the tree's complete state (shard hibernation):
  /// the memtable drains into a sorted vector, the levels and cache state
  /// move out, and the husk is left empty (callers destroy it). Charges
  /// nothing on the device.
  std::unique_ptr<FrozenTreeState> Freeze();

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  /// Inserts or updates a key. May trigger a flush and compactions.
  void Put(uint64_t key, uint64_t value) override;

  /// Deletes a key by writing a tombstone.
  void Delete(uint64_t key) override;

  /// Point lookup. Returns true and fills `*value` when the key is live;
  /// false for missing or deleted keys. (`value` may be null.)
  bool Get(uint64_t key, uint64_t* value) override;

  /// Range lookup: appends up to `max_entries` live entries with
  /// key >= start_key, in key order, to `out`. Returns how many were added.
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<Entry>* out) override;

  /// Forces the write buffer to disk (no-op when empty).
  void FlushMemtable() override;

  /// Applies a new configuration lazily (Section 6). Level capacities,
  /// runs-per-level, and Bloom bits-per-key targets change immediately, but
  /// the physical structure only morphs during subsequent flushes and
  /// compactions; the block cache is resized immediately. `entry_bytes`
  /// must not change.
  void Reconfigure(const Options& new_options) override;

  const Options& options() const { return options_; }
  Options ShardOptionsSnapshot(size_t shard) const override {
    CAMAL_CHECK(shard == 0);
    return options_;
  }
  sim::Device* device() { return device_; }
  BlockCache* cache() { return &cache_; }
  const TreeCounters& counters() const { return counters_; }

  /// Engine cost accounting: the tree's single device.
  sim::DeviceSnapshot CostSnapshot() const override {
    return device_->Snapshot();
  }
  engine::EngineCounters AggregateCounters() const override {
    return counters_;
  }

  /// Live view helpers.
  uint64_t TotalEntries() const override {
    return levels_.TotalEntries() + memtable_.size();
  }
  uint64_t DiskEntries() const override { return levels_.TotalEntries(); }
  size_t MemtableSize() const { return memtable_.size(); }
  int NumPopulatedLevels() const { return levels_.DeepestNonEmpty() + 1; }
  std::vector<uint64_t> LevelEntryCounts() const {
    return levels_.EntryCounts();
  }
  std::vector<size_t> LevelRunCounts() const { return levels_.RunCounts(); }
  /// True while the structure still violates the latest configuration.
  bool InTransition() const override { return transition_active_; }

 private:
  uint64_t EntriesPerBlock() const {
    return options_.EntriesPerBlock(device_->config().block_bytes);
  }

  /// Builds a run destined for level `target_level`, charging sequential
  /// writes for its blocks, Bloom build CPU, and file finalize CPU.
  /// `drained_level` (if >= 0) is a level whose current runs are being
  /// replaced by this run and must not count toward the Monkey allocation.
  RunPtr BuildRun(std::vector<Entry> entries, size_t target_level,
                  int drained_level);

  /// Bits-per-key the Monkey allocation assigns to `target_level` given the
  /// current shape plus `incoming` entries at that level, with
  /// `drained_level`'s current contents excluded (-1 = none).
  double BloomBpkForLevel(size_t target_level, uint64_t incoming,
                          int drained_level) const;

  /// Buffers a write, charging the buffer insert, and flushes a full
  /// memtable.
  void BufferWrite(uint64_t key, uint64_t value, bool tombstone);

  /// Restores the level invariants (runs <= K, bytes <= capacity) starting
  /// at `level_idx`, cascading deeper as needed.
  void NormalizeFrom(size_t level_idx);

  /// Merges all runs of `level_idx` into one new run placed at
  /// `output_level`, charging compaction I/O and CPU.
  RunPtr MergeLevelIntoRun(size_t level_idx, size_t output_level);

  Options options_;
  sim::Device* device_;
  BlockCache cache_;
  Memtable memtable_;
  Levels levels_;
  TreeCounters counters_;
  uint64_t next_run_id_ = 1;
  bool transition_active_ = false;
};

}  // namespace camal::lsm

#endif  // CAMAL_LSM_LSM_TREE_H_
