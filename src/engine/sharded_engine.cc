#include "engine/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace camal::engine {

namespace {

/// In-place reconfiguration of a hibernated shard: same observable effect
/// as waking it, calling `LsmTree::Reconfigure`, and re-freezing — the
/// cache truncates from the LRU end, the transition flag is recomputed —
/// but O(cache keys) instead of a full rehydration.
void ReconfigureFrozen(lsm::FrozenTreeState* frozen, const lsm::Options& opts,
                       uint64_t block_bytes) {
  CAMAL_CHECK(opts.entry_bytes == frozen->options.entry_bytes);
  frozen->options = opts;
  const uint64_t capacity = opts.block_cache_bytes / block_bytes;
  frozen->cache.capacity = capacity;
  if (frozen->cache.keys_mru_to_lru.size() > capacity) {
    frozen->cache.keys_mru_to_lru.resize(capacity);
  }
  frozen->transition_active = frozen->levels.AnyLevelOverflows(opts);
}

}  // namespace

ShardedEngine::ShardedEngine(size_t num_shards,
                             const lsm::Options& total_options,
                             const sim::DeviceConfig& device_config,
                             const ShardLifecycleConfig& lifecycle)
    : device_config_(device_config),
      set_(this, num_shards, total_options, lifecycle) {
  set_.MaterializeIfEager();
}

sim::Device* ShardedEngine::EnsureDevice(size_t s, Shard& shard) {
  if (shard.device == nullptr) {
    sim::DeviceConfig cfg = device_config_;
    // Shard 0 keeps the caller's jitter stream (1-shard bit-identity with
    // the direct-tree path); later shards derive independent streams. The
    // seed is a pure function of the shard index, so a shard that
    // materializes late gets exactly the device eager construction would
    // have given it.
    if (s > 0) cfg.jitter_seed = util::HashCombine(cfg.jitter_seed, s);
    shard.device = std::make_unique<sim::Device>(cfg);
  }
  return shard.device.get();
}

void ShardedEngine::CreateShard(size_t s, Shard& shard,
                                const lsm::Options& options) {
  shard.tree = std::make_unique<lsm::LsmTree>(options, EnsureDevice(s, shard));
}

void ShardedEngine::WakeShard(size_t /*s*/, Shard& shard) {
  shard.tree = std::make_unique<lsm::LsmTree>(std::move(*shard.frozen),
                                              shard.device.get());
  shard.frozen.reset();
}

void ShardedEngine::FreezeShard(size_t /*s*/, Shard& shard) {
  // The device stays: its jitter stream is mid-sequence.
  shard.frozen = shard.tree->Freeze();
  shard.tree.reset();
}

void ShardedEngine::Put(uint64_t key, uint64_t value) {
  set_.Activate(set_.ShardIndex(key)).tree->Put(key, value);
}

void ShardedEngine::Delete(uint64_t key) {
  set_.Activate(set_.ShardIndex(key)).tree->Delete(key);
}

bool ShardedEngine::Get(uint64_t key, uint64_t* value) {
  return set_.Activate(set_.ShardIndex(key)).tree->Get(key, value);
}

size_t ShardedEngine::Scan(uint64_t start_key, size_t max_entries,
                           std::vector<lsm::Entry>* out) {
  return set_.Scan(pool_, max_entries, out,
                   [&](Shard& shard, std::vector<lsm::Entry>* slice) {
                     return shard.tree->Scan(start_key, max_entries, slice);
                   });
}

void ShardedEngine::ExecuteOps(const Op* ops, size_t count,
                               OpResult* results) {
  if (count == 0) return;
  Shards::Batch batch;
  set_.PlanBatch(ops, count, &batch);

  // Per-(scan, probed shard) bookkeeping, indexed slot * stride + k so
  // concurrent writers touch disjoint elements. Snapshots (not deltas) are
  // recorded so the merge below can reproduce the historical "sum the
  // devices, then diff the totals" floating-point arithmetic exactly.
  const size_t stride = batch.lists.size();
  const size_t num_scans = batch.scan_op.size();
  std::vector<sim::DeviceSnapshot> scan_before(num_scans * stride);
  std::vector<sim::DeviceSnapshot> scan_after(num_scans * stride);
  std::vector<size_t> scan_counts(num_scans * stride, 0);

  util::ParallelFor(pool_, 0, stride, [&](size_t k) {
    lsm::LsmTree* tree = batch.slots[k]->tree.get();
    sim::Device* dev = batch.slots[k]->device.get();
    std::vector<lsm::Entry> scratch;
    for (size_t i : batch.lists[k]) {
      const Op& op = ops[i];
      if (op.kind == OpKind::kScan) {
        const size_t slot = batch.scan_slot[i] * stride + k;
        scratch.clear();
        scan_before[slot] = dev->Snapshot();
        scan_counts[slot] = tree->Scan(op.key, op.scan_len, &scratch);
        scan_after[slot] = dev->Snapshot();
        continue;
      }
      OpResult r;
      const sim::DeviceSnapshot before = dev->Snapshot();
      switch (op.kind) {
        case OpKind::kGet: {
          uint64_t value = 0;
          r.found = tree->Get(op.key, &value);
          break;
        }
        case OpKind::kPut:
          tree->Put(op.key, op.value);
          break;
        case OpKind::kDelete:
          tree->Delete(op.key);
          break;
        case OpKind::kScan:
          break;  // handled above
      }
      const sim::DeviceSnapshot delta = dev->Snapshot().Delta(before);
      r.latency_ns = delta.elapsed_ns;
      r.ios = delta.TotalIos();
      results[i] = r;
    }
  });

  // Deterministic gather for the scans: sum the per-shard snapshots in
  // ascending shard order (the lists are sorted whenever scans exist),
  // diff the totals (the serial-equivalent cost — the same bits the old
  // caller-side CostSnapshot() diff produced; absent cold shards would
  // have contributed exact zeros), and cap the combined hit count at the
  // probe limit.
  for (size_t slot = 0; slot < num_scans; ++slot) {
    sim::DeviceSnapshot total_before, total_after;
    size_t hits = 0;
    for (size_t k = 0; k < stride; ++k) {
      total_before += scan_before[slot * stride + k];
      total_after += scan_after[slot * stride + k];
      hits += scan_counts[slot * stride + k];
    }
    const sim::DeviceSnapshot delta = total_after.Delta(total_before);
    const size_t i = batch.scan_op[slot];
    OpResult r;
    r.latency_ns = delta.elapsed_ns;
    r.ios = delta.TotalIos();
    r.scan_hits = std::min(ops[i].scan_len, hits);
    results[i] = r;
  }

  set_.EndBatch();
  ProfileBatch(ops, count, results);
}

void ShardedEngine::FlushMemtable() {
  // Hibernated shards holding buffered writes wake to flush them; the
  // rest stay asleep (their flush would be a no-op). Cold shards are
  // empty by construction.
  set_.WakeIf(
      [](const Shard& shard) { return !shard.frozen->memtable.empty(); });
  set_.ForEachResident([](Shard& shard) { shard.tree->FlushMemtable(); });
}

void ShardedEngine::Reconfigure(const lsm::Options& new_total_options) {
  set_.Reconfigure(new_total_options,
                   [&](size_t s, const lsm::Options& per_shard) {
                     ReconfigureShard(s, per_shard);
                   });
}

void ShardedEngine::ReconfigureShard(size_t shard,
                                     const lsm::Options& options) {
  Shards::Entry* e = set_.ReconfigureShard(shard, options);
  if (e == nullptr) return;  // cold: deferred to materialization
  if (e->slot.tree != nullptr) {
    e->slot.tree->Reconfigure(options);
  } else {
    ReconfigureFrozen(e->slot.frozen.get(), options,
                      e->slot.device->config().block_bytes);
  }
}

lsm::Options ShardedEngine::ShardOptionsSnapshot(size_t shard) const {
  if (const Shards::Entry* e = set_.Find(shard)) {
    if (e->slot.tree != nullptr) return e->slot.tree->options();
    if (e->slot.frozen != nullptr) return e->slot.frozen->options;
  }
  return set_.EffectiveOptions(shard);
}

sim::DeviceSnapshot ShardedEngine::CostSnapshot() const {
  // Ascending shard order — the floating-point sum must be reproducible,
  // and the hashed map iterates in no useful order. Shards with no entry
  // have charged nothing and contribute the same exact zeros their fresh
  // device would.
  sim::DeviceSnapshot total;
  for (size_t s : set_.SortedIds()) total += ShardCostSnapshot(s);
  return total;
}

sim::DeviceSnapshot ShardedEngine::ShardCostSnapshot(size_t shard) const {
  const Shards::Entry* e = set_.Find(shard);
  if (e == nullptr || e->slot.device == nullptr) return sim::DeviceSnapshot{};
  return e->slot.device->Snapshot();
}

EngineCounters ShardedEngine::AggregateCounters() const {
  // Integer sums are order-free, so the map iterates directly.
  EngineCounters total;
  for (const auto& [s, e] : set_.entries()) {
    if (e.slot.tree != nullptr) {
      total += e.slot.tree->counters();
    } else if (e.slot.frozen != nullptr) {
      total += e.slot.frozen->counters;
    }
  }
  return total;
}

EngineCounters ShardedEngine::ShardCounters(size_t shard) const {
  if (const Shards::Entry* e = set_.Find(shard)) {
    if (e->slot.tree != nullptr) return e->slot.tree->counters();
    if (e->slot.frozen != nullptr) return e->slot.frozen->counters;
  }
  return EngineCounters{};
}

uint64_t ShardedEngine::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& [s, e] : set_.entries()) total += ShardEntries(s);
  return total;
}

uint64_t ShardedEngine::DiskEntries() const {
  uint64_t total = 0;
  for (const auto& [s, e] : set_.entries()) {
    if (e.slot.tree != nullptr) {
      total += e.slot.tree->DiskEntries();
    } else if (e.slot.frozen != nullptr) {
      total += e.slot.frozen->disk_entries;
    }
  }
  return total;
}

uint64_t ShardedEngine::ShardEntries(size_t shard) const {
  if (const Shards::Entry* e = set_.Find(shard)) {
    if (e->slot.tree != nullptr) return e->slot.tree->TotalEntries();
    if (e->slot.frozen != nullptr) return e->slot.frozen->total_entries;
  }
  return 0;
}

bool ShardedEngine::InTransition() const {
  for (const auto& [s, e] : set_.entries()) {
    if (e.slot.tree != nullptr && e.slot.tree->InTransition()) return true;
    if (e.slot.frozen != nullptr && e.slot.frozen->transition_active) {
      return true;
    }
  }
  return false;
}

lsm::LsmTree* ShardedEngine::shard(size_t i) {
  CAMAL_CHECK(i < set_.num_shards());
  return set_.Activate(i).tree.get();
}

sim::Device* ShardedEngine::shard_device(size_t i) {
  return EnsureDevice(i, set_.SlotOf(i));
}

}  // namespace camal::engine
