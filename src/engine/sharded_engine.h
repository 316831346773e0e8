#ifndef CAMAL_ENGINE_SHARDED_ENGINE_H_
#define CAMAL_ENGINE_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/shard_set.h"
#include "engine/storage_engine.h"
#include "lsm/lsm_tree.h"
#include "sim/device.h"

namespace camal::engine {

/// One simulated shard's state: a tree on its own device while
/// materialized, the tree's frozen state while hibernated.
struct SimShard {
  std::unique_ptr<sim::Device> device;           // survives hibernation
  std::unique_ptr<lsm::LsmTree> tree;            // iff materialized
  std::unique_ptr<lsm::FrozenTreeState> frozen;  // iff hibernated
};

/// N independent `lsm::LsmTree` shards behind a deterministic hash
/// partitioner — the multi-tenant serving engine. Each shard owns its own
/// simulated device and its own options; the total memory budget of the
/// system-wide options is divided evenly across shards.
///
/// The whole `StorageEngine` surface — routing, budget split, shard
/// lifecycle (lazy materialization, idle hibernation), batch fan-out,
/// scan gathers and views — is the `ShardSet` base shared with
/// `FileEngine`; this class supplies the simulated shard: a tree on its
/// own device, frozen into `lsm::FrozenTreeState` when it hibernates.
/// Lifecycle transitions charge nothing and preserve all state
/// bit-exactly, so logical results, per-op costs, and `EngineCounters`
/// are identical to an eager engine serving the same stream:
///   - a cold shard is observationally an empty tree (empty-tree probes
///     charge nothing and contribute exact zeros to scan cost sums);
///   - materialization builds exactly the state eager construction built
///     (shard i's device seed is a pure function of i);
///   - freeze/restore round-trips the complete tree state, cache LRU
///     order and counters included.
///
/// `ExecuteOps` runs the per-shard operation lists of a batch
/// concurrently on `pool()` workers. Because every shard owns its device
/// (including its jitter stream), the results are bit-identical to
/// serial execution at any thread count.
///
/// With one shard the engine is bit-identical to driving the tree
/// directly: shard 0 uses the caller's device config verbatim (including
/// its jitter seed), options pass through undivided, and `Scan` forwards
/// without a merge layer.
class ShardedEngine : public ShardSet<ShardedEngine, SimShard> {
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
  friend ShardSet<ShardedEngine, SimShard>;

  // ShardSet backend: lifecycle transitions of one simulated shard.
  void CreateShard(size_t s, SimShard& shard, const lsm::Options& options);
  void WakeShard(size_t s, SimShard& shard);
  void FreezeShard(size_t s, SimShard& shard);

  // ShardSet backend: work on a live shard. Each op is priced by
  // diffing the shard's device around it.
  void ServeList(SimShard& shard, ShardList& list);
  void WriteSlot(SimShard& shard, uint64_t key, uint64_t value,
                 bool tombstone) {
    if (tombstone) {
      shard.tree->Delete(key);
    } else {
      shard.tree->Put(key, value);
    }
  }
  bool GetSlot(SimShard& shard, uint64_t key, uint64_t* value) {
    return shard.tree->Get(key, value);
  }
  size_t ScanSlot(SimShard& shard, uint64_t start_key, size_t max_entries,
                  std::vector<lsm::Entry>* out) {
    return shard.tree->Scan(start_key, max_entries, out);
  }
  void FlushSlot(SimShard& shard) { shard.tree->FlushMemtable(); }
  /// A live tree reconfigures itself; a frozen one is reconfigured in
  /// place and stays asleep.
  void ReconfigureSlot(size_t s, Entry& e, const lsm::Options& options);

  // ShardSet backend: the view of a live or frozen tree.
  lsm::Options SlotOptions(const Entry& e) const {
    return e.slot.tree ? e.slot.tree->options() : e.slot.frozen->options;
  }
  EngineCounters SlotCounters(const Entry& e) const {
    return e.slot.tree ? e.slot.tree->counters() : e.slot.frozen->counters;
  }
  sim::DeviceSnapshot SlotCost(const SimShard& shard) const {
    return shard.device->Snapshot();
  }
  uint64_t SlotEntries(const Entry& e) const {
    return e.slot.tree ? e.slot.tree->TotalEntries()
                       : e.slot.frozen->total_entries;
  }
  uint64_t SlotDiskEntries(const Entry& e) const {
    return e.slot.tree ? e.slot.tree->DiskEntries()
                       : e.slot.frozen->disk_entries;
  }
  bool SlotInTransition(const Entry& e) const {
    return e.slot.tree ? e.slot.tree->InTransition()
                       : e.slot.frozen->transition_active;
  }

  sim::Device* EnsureDevice(size_t s, SimShard& shard);

  sim::DeviceConfig device_config_;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_SHARDED_ENGINE_H_
