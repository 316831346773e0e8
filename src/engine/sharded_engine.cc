#include "engine/sharded_engine.h"

#include <utility>

#include "util/random.h"
#include "util/status.h"

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
    : ShardSet(num_shards, total_options, lifecycle),
      device_config_(device_config) {
  MaterializeIfEager();
}

sim::Device* ShardedEngine::EnsureDevice(size_t s, SimShard& shard) {
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

void ShardedEngine::CreateShard(size_t s, SimShard& shard,
                                const lsm::Options& options) {
  shard.tree = std::make_unique<lsm::LsmTree>(options, EnsureDevice(s, shard));
}

void ShardedEngine::WakeShard(size_t /*s*/, SimShard& shard) {
  shard.tree = std::make_unique<lsm::LsmTree>(std::move(*shard.frozen),
                                              shard.device.get());
  shard.frozen.reset();
}

void ShardedEngine::FreezeShard(size_t /*s*/, SimShard& shard) {
  // The device stays: its jitter stream is mid-sequence.
  shard.frozen = shard.tree->Freeze();
  shard.tree.reset();
}

void ShardedEngine::ServeList(SimShard& shard, ShardList& list) {
  for (size_t i : list.indices) {
    const Op& op = list.ops[i];
    if (op.kind == OpKind::kScan) {
      ServeScan(shard, list, i);
      continue;
    }
    OpResult r;
    const sim::DeviceSnapshot before = shard.device->Snapshot();
    if (op.kind == OpKind::kGet) {
      r.found = GetSlot(shard, op.key, nullptr);
    } else {
      WriteSlot(shard, op.key, op.value, op.kind == OpKind::kDelete);
    }
    const sim::DeviceSnapshot delta = shard.device->Snapshot().Delta(before);
    r.latency_ns = delta.elapsed_ns;
    r.ios = delta.TotalIos();
    list.results[i] = r;
  }
}

void ShardedEngine::ReconfigureSlot(size_t /*s*/, Entry& e,
                                    const lsm::Options& options) {
  if (e.slot.tree != nullptr) {
    e.slot.tree->Reconfigure(options);
  } else {
    ReconfigureFrozen(e.slot.frozen.get(), options,
                      e.slot.device->config().block_bytes);
  }
}

lsm::LsmTree* ShardedEngine::shard(size_t i) {
  CAMAL_CHECK(i < NumShards());
  return Activate(i).tree.get();
}

sim::Device* ShardedEngine::shard_device(size_t i) {
  return EnsureDevice(i, SlotOf(i));
}

}  // namespace camal::engine
