#ifndef CAMAL_ENGINE_SHARDED_ENGINE_H_
#define CAMAL_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/shard_set.h"
#include "engine/storage_engine.h"
#include "lsm/lsm_tree.h"
#include "sim/device.h"

namespace camal::util {
class ThreadPool;
}  // namespace camal::util

namespace camal::engine {

/// N independent `lsm::LsmTree` shards behind a deterministic hash
/// partitioner — the multi-tenant serving engine. Each shard owns its own
/// simulated device and its own options; the total memory budget of the
/// system-wide options is divided evenly across shards.
///
/// Routing, budget split, shard lifecycle (lazy materialization, idle
/// hibernation), batch partitioning and scan scatter-gather live in the
/// `ShardSet` shared with `FileEngine`; this class supplies the simulated
/// shard: a tree on its own device, frozen into `lsm::FrozenTreeState`
/// when it hibernates. Lifecycle transitions charge nothing and preserve
/// all state bit-exactly, so logical results, per-op costs, and
/// `EngineCounters` are identical to an eager engine serving the same
/// stream:
///   - a cold shard is observationally an empty tree (empty-tree probes
///     charge nothing and contribute exact zeros to scan cost sums);
///   - materialization builds exactly the state eager construction built
///     (shard i's device seed is a pure function of i);
///   - freeze/restore round-trips the complete tree state, cache LRU
///     order and counters included.
///
/// `ExecuteOps` is the async serving path: the per-shard operation lists
/// of a batch run concurrently on `pool()` workers with intra-shard order
/// preserved, and per-op results are merged back into submission order.
/// Because every shard owns its device (including its jitter stream), the
/// results are bit-identical to serial execution at any thread count.
///
/// With one shard the engine is bit-identical to driving the tree
/// directly: shard 0 uses the caller's device config verbatim (including
/// its jitter seed), options pass through undivided, and `Scan` forwards
/// without a merge layer.
class ShardedEngine : public StorageEngine {
 public:
  /// `total_options` is the system-wide configuration; each shard receives
  /// `ShardOptions(total_options, num_shards)`. Shard 0's device uses
  /// `device_config` verbatim; shard i > 0 derives an independent jitter
  /// stream from it (seed ⊕ i), so distinct shards never share correlated
  /// jitter. `lifecycle` controls lazy instantiation and hibernation; the
  /// default (lazy, no hibernation) is bit-identical to eager
  /// construction.
  ShardedEngine(size_t num_shards, const lsm::Options& total_options,
                const sim::DeviceConfig& device_config,
                const ShardLifecycleConfig& lifecycle = {});

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  void Put(uint64_t key, uint64_t value) override;
  void Delete(uint64_t key) override;
  bool Get(uint64_t key, uint64_t* value) override;
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<lsm::Entry>* out) override;

  /// Batched execution with concurrent per-shard sub-batches (serial when
  /// no pool is attached). Deterministic: bit-identical results for any
  /// `pool()` value.
  void ExecuteOps(const Op* ops, size_t count, OpResult* results) override;
  using StorageEngine::ExecuteOps;

  void FlushMemtable() override;

  /// Divides `new_total_options`'s memory budget across shards and applies
  /// the slice to every shard as `ReconfigureShard` would; cold shards
  /// record it as their materialization target.
  void Reconfigure(const lsm::Options& new_total_options) override;

  /// Applies `options` to one shard as-is (shard-local budget). A
  /// materialized shard reconfigures its live tree; a hibernated shard is
  /// reconfigured frozen, in place, and stays asleep; a cold shard stays
  /// cold and materializes with `options` later (deferred reconfiguration
  /// of an empty tree is observationally identical to applying it now).
  void ReconfigureShard(size_t shard, const lsm::Options& options) override;

  size_t NumShards() const override { return set_.num_shards(); }
  size_t ShardIndex(uint64_t key) const override {
    return set_.ShardIndex(key);
  }

  lsm::Options ShardOptionsSnapshot(size_t shard) const override;

  ShardState ShardLifecycle(size_t shard) const override {
    return set_.Lifecycle(shard);
  }
  size_t MaterializedShards() const override {
    return set_.MaterializedShards();
  }
  void AppendResidentShards(std::vector<size_t>* out) const override {
    set_.AppendResidentShards(out);
  }

  sim::DeviceSnapshot CostSnapshot() const override;
  sim::DeviceSnapshot ShardCostSnapshot(size_t shard) const override;
  EngineCounters AggregateCounters() const override;
  EngineCounters ShardCounters(size_t shard) const override;

  uint64_t TotalEntries() const override;
  uint64_t DiskEntries() const override;
  uint64_t ShardEntries(size_t shard) const override;
  bool InTransition() const override;

  /// Attaches (or detaches, with nullptr) the worker pool `ExecuteOps` and
  /// `Scan` fan shard-local work across. Not owned; must outlive its use.
  /// No pool — and any call made from inside a pool worker — runs inline.
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* pool() const { return pool_; }

  /// Direct shard access (tests, per-shard inspection). Materializes the
  /// shard (waking it if hibernated) — access implies intent to touch.
  lsm::LsmTree* shard(size_t i);
  sim::Device* shard_device(size_t i);

  /// `engine::ShardOptions`, under the name callers have always used.
  static lsm::Options ShardOptions(const lsm::Options& total,
                                   size_t num_shards) {
    return engine::ShardOptions(total, num_shards);
  }

 private:
  struct Shard {
    std::unique_ptr<sim::Device> device;           // survives hibernation
    std::unique_ptr<lsm::LsmTree> tree;            // iff materialized
    std::unique_ptr<lsm::FrozenTreeState> frozen;  // iff hibernated
  };
  using Shards = ShardSet<Shard, ShardedEngine>;
  friend Shards;

  // ShardSet backend: lifecycle transitions of one simulated shard.
  void CreateShard(size_t s, Shard& shard, const lsm::Options& options);
  void WakeShard(size_t s, Shard& shard);
  void FreezeShard(size_t s, Shard& shard);

  sim::Device* EnsureDevice(size_t s, Shard& shard);

  sim::DeviceConfig device_config_;
  Shards set_;
  util::ThreadPool* pool_ = nullptr;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_SHARDED_ENGINE_H_
