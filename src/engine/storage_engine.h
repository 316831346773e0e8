#ifndef CAMAL_ENGINE_STORAGE_ENGINE_H_
#define CAMAL_ENGINE_STORAGE_ENGINE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lsm/entry.h"
#include "lsm/options.h"
#include "sim/device.h"
#include "util/status.h"

namespace camal::engine {

/// Aggregate compaction/flush counters exposed by every storage engine.
/// For a single LSM-tree these are the tree's own counters; a sharded
/// engine reports the sum over its shards.
struct EngineCounters {
  uint64_t compaction_block_reads = 0;
  uint64_t compaction_block_writes = 0;
  /// Compaction I/O performed while the engine was morphing toward a new
  /// configuration (dynamic mode, Section 6 of the paper).
  uint64_t transition_ios = 0;
  uint64_t flushes = 0;
  uint64_t merges = 0;

  EngineCounters& operator+=(const EngineCounters& other) {
    compaction_block_reads += other.compaction_block_reads;
    compaction_block_writes += other.compaction_block_writes;
    transition_ios += other.transition_ios;
    flushes += other.flushes;
    merges += other.merges;
    return *this;
  }
};

/// The memory a shard currently holds across the three arbitrable pools —
/// the currency of per-tenant memory arbitration. Budgets are always a
/// *view* of the shard's live `lsm::Options`; the options remain the
/// authority the engine is configured with.
struct ShardBudget {
  uint64_t buffer_bytes = 0;
  uint64_t bloom_bits = 0;
  uint64_t block_cache_bytes = 0;

  static ShardBudget FromOptions(const lsm::Options& options) {
    return ShardBudget{options.buffer_bytes, options.bloom_bits,
                       options.block_cache_bytes};
  }

  /// Total memory in bits (the unit budgets are arbitrated in).
  uint64_t TotalBits() const {
    return 8 * buffer_bytes + bloom_bits + 8 * block_cache_bytes;
  }
};

/// Lifecycle state of one shard in an engine with lazy instantiation.
/// Cold shards have never been touched and hold no in-memory structures;
/// materialized shards are live; hibernated shards released their
/// in-memory structures into a frozen snapshot and rehydrate
/// transparently on the next operation that touches them.
enum class ShardState : uint8_t {
  kCold,
  kMaterialized,
  kHibernated,
};

/// Shard-lifecycle knobs shared by the engines that support lazy
/// instantiation (`ShardedEngine`, `FileEngine`). The defaults — lazy on,
/// hibernation off — are bit-identical to the historical eager engines:
/// cold shards are observationally empty, and materializing one on first
/// touch reproduces exactly the state eager construction would have
/// produced.
struct ShardLifecycleConfig {
  /// Defer shard instantiation to the first operation that touches the
  /// shard. Off forces eager construction of every shard (the historical
  /// behavior, useful for A/B golden tests).
  bool lazy = true;
  /// Hibernate a materialized shard after it has sat idle for this many
  /// `ExecuteOps` batches (its frozen snapshot preserves all state
  /// bit-exactly). 0 disables hibernation.
  size_t hibernate_after_batches = 0;
};

/// The operation kinds of the batched request pipeline. The workload layer
/// distinguishes zero- from non-zero-result lookups when it *generates*
/// operations; by the time an op reaches the engine both are a `kGet`.
enum class OpKind : uint8_t {
  kGet,
  kPut,
  kDelete,
  kScan,
};

/// One operation of a batch submitted to `StorageEngine::ExecuteOps`.
struct Op {
  OpKind kind = OpKind::kGet;
  uint64_t key = 0;
  /// Payload for kPut.
  uint64_t value = 0;
  /// Maximum entries for kScan.
  size_t scan_len = 0;
};

/// Per-operation outcome and cost, attributed by the engine itself: the
/// simulated time and I/O the operation consumed on the device(s) it
/// touched. Callers no longer price operations by diffing engine-wide
/// cost snapshots around each call.
struct OpResult {
  /// Simulated latency of this operation (serial-equivalent: a scan that
  /// probes N shard devices costs the sum of the probes).
  double latency_ns = 0.0;
  /// Blocks read + written by this operation.
  uint64_t ios = 0;
  /// kGet: whether the key was live.
  bool found = false;
  /// kScan: how many entries the range probe produced. Batched scans
  /// report counts and costs only; use `Scan` directly when the entries
  /// themselves are needed.
  size_t scan_hits = 0;
};

/// Number of `OpKind` values — sizes per-kind aggregation arrays.
inline constexpr size_t kNumOpKinds = 4;

/// One always-on measurement window of a per-(shard, op-kind) cost
/// profiler: how many ops of the kind the shard served since the last
/// reset, and what they measurably cost. For simulated backends the
/// costs are the bit-deterministic device clocks; for `FileEngine` they
/// are real monotonic-clock latencies and real pread/pwrite block
/// counts — the measured side of the sim-vs-real calibration loop.
struct OpCostWindow {
  uint64_t ops = 0;
  uint64_t ios = 0;
  double latency_ns = 0.0;

  /// Measured blocks per operation (0 for an empty window).
  double IosPerOp() const {
    return ops == 0 ? 0.0 : static_cast<double>(ios) / static_cast<double>(ops);
  }
  /// Measured latency per operation in ns (0 for an empty window).
  double LatencyPerOp() const {
    return ops == 0 ? 0.0 : latency_ns / static_cast<double>(ops);
  }

  OpCostWindow& operator+=(const OpCostWindow& other) {
    ops += other.ops;
    ios += other.ios;
    latency_ns += other.latency_ns;
    return *this;
  }
};

/// \brief Abstract key-value serving engine — the boundary between the
/// execution stack (workload::Execute, tune::Evaluator, tune::DynamicTuner)
/// and a concrete storage backend.
///
/// Implementations: `lsm::LsmTree` (one simulated tree, one device),
/// `ShardedEngine` (N trees behind a hash partitioner, simulated), and
/// `FileEngine` (real files + real clocks). The tuning layers talk only
/// to this surface, so any backend slots in unchanged.
///
/// **Contract.** The serving hot path is `ExecuteOps`: the caller submits
/// a batch and receives one `OpResult` per op, in submission order, with
/// per-op cost attributed by the engine. The base implementation runs the
/// batch serially and prices each op by diffing `CostSnapshot()` (exactly
/// what callers historically did); `ShardSet`, the base of both sharded
/// engines, overrides it to execute shard-local sub-batches concurrently
/// while producing bit-identical results. Every serving path —
/// closed-loop (`workload::Execute`, `tune::DynamicTuner`) and open-loop
/// (`serve::Gateway`) — submits through `ExecuteOps`. The point-op virtuals (`Put`/`Get`/`Delete`/
/// `Scan`) are a compatibility and testing surface, not a serving
/// entrypoint: use them for bulk loads, assertions, and probing entries,
/// and expect them to agree with `ExecuteOps` — executing a stream
/// through either path must produce the same logical outcomes and the
/// same I/O accounting. `CostSnapshot()` remains for whole-window
/// accounting (e.g. pricing an ingest phase). Multi-device engines report
/// the *sum* over their devices, i.e. the serial-equivalent time.
///
/// **Thread-safety.** Engines are externally synchronized: callers must
/// not invoke two methods concurrently on the same engine. Any
/// parallelism (shard fan-out) happens *inside* `ExecuteOps` (and
/// scatter-gather `Scan`), over state that is fully shard-local.
///
/// **Determinism.** Given the same operation sequence, logical results
/// and I/O *counts* are deterministic for every implementation, at any
/// internal thread count. Simulated backends additionally make the cost
/// clocks (`latency_ns`, `CostSnapshot().elapsed_ns`) bit-reproducible;
/// the real-IO backend measures them with monotonic clocks, so only its
/// timings vary between runs.
class StorageEngine {
 public:
  /// Engines own their storage (trees/devices/file sets); destruction
  /// releases it. Virtual: engines are deleted through this interface.
  virtual ~StorageEngine() = default;

  /// Inserts or updates a key. May trigger flushes and compactions.
  virtual void Put(uint64_t key, uint64_t value) = 0;

  /// Deletes a key by writing a tombstone.
  virtual void Delete(uint64_t key) = 0;

  /// Point lookup. Returns true and fills `*value` when the key is live;
  /// false for missing or deleted keys. (`value` may be null.)
  virtual bool Get(uint64_t key, uint64_t* value) = 0;

  /// Range lookup: appends up to `max_entries` live entries with
  /// key >= start_key, in globally sorted key order, to `out`. Returns how
  /// many were added.
  virtual size_t Scan(uint64_t start_key, size_t max_entries,
                      std::vector<lsm::Entry>* out) = 0;

  /// Executes `count` operations in submission order, writing one result
  /// per op to `results[0..count)`. The base implementation runs serially;
  /// overrides may execute independent sub-streams concurrently but must
  /// preserve per-key ordering and produce results bit-identical to the
  /// serial execution.
  virtual void ExecuteOps(const Op* ops, size_t count, OpResult* results);

  /// Convenience wrapper over the pointer form.
  std::vector<OpResult> ExecuteOps(const std::vector<Op>& ops) {
    std::vector<OpResult> results(ops.size());
    ExecuteOps(ops.data(), ops.size(), results.data());
    return results;
  }

  /// Forces buffered writes to disk (no-op when empty).
  virtual void FlushMemtable() = 0;

  /// Applies a new configuration lazily (Section 6). For sharded engines
  /// `new_options` describes the *total* system budget, divided evenly
  /// across shards.
  virtual void Reconfigure(const lsm::Options& new_options) = 0;

  // --- Sharding surface -------------------------------------------------

  /// Number of independent partitions. 1 for a single tree.
  virtual size_t NumShards() const { return 1; }

  /// Deterministic partition a point operation on `key` routes to.
  virtual size_t ShardIndex(uint64_t key) const {
    (void)key;
    return 0;
  }

  /// Reconfigures one shard with *shard-local* options (the dynamic tuner
  /// retunes shards independently as their local mixes drift). The default
  /// serves single-shard engines.
  virtual void ReconfigureShard(size_t shard, const lsm::Options& options) {
    CAMAL_CHECK(shard == 0);
    Reconfigure(options);
  }

  /// Lifecycle state of one shard. Eagerly constructed engines report
  /// every shard as materialized (the default).
  virtual ShardState ShardLifecycle(size_t shard) const {
    CAMAL_CHECK(shard < NumShards());
    return ShardState::kMaterialized;
  }

  /// Number of shards currently holding in-memory structures (cold and
  /// hibernated shards excluded). Equals `NumShards()` for eager engines.
  virtual size_t MaterializedShards() const { return NumShards(); }

  /// Appends the indices of all materialized shards, ascending — the
  /// active set a per-window pass (e.g. the memory arbiter's scan
  /// accounting) should visit instead of iterating every shard. Eager
  /// engines append every shard.
  virtual void AppendResidentShards(std::vector<size_t>* out) const {
    for (size_t s = 0; s < NumShards(); ++s) out->push_back(s);
  }

  /// Live configuration one shard currently runs with (budgets are
  /// shard-local, shape knobs as last applied). This is the surface the
  /// memory arbiter and the observability layer read budgets from.
  virtual lsm::Options ShardOptionsSnapshot(size_t shard) const = 0;

  /// Memory budget one shard currently holds — a view of its options.
  ShardBudget ShardBudgetSnapshot(size_t shard) const {
    return ShardBudget::FromOptions(ShardOptionsSnapshot(shard));
  }

  // --- Cost accounting --------------------------------------------------

  /// Point-in-time aggregate of simulated I/O + time across the engine's
  /// devices. Diff two snapshots to price a whole execution window (per-op
  /// costs come from `ExecuteOps` instead).
  virtual sim::DeviceSnapshot CostSnapshot() const = 0;

  /// Point-in-time cost of one shard's device(s) — the per-tenant cost
  /// clock the memory arbiter and per-shard bench columns read. The
  /// default serves single-shard engines.
  virtual sim::DeviceSnapshot ShardCostSnapshot(size_t shard) const {
    CAMAL_CHECK(shard == 0);
    return CostSnapshot();
  }

  /// Accumulated measurement window of one (shard, op kind) cell of the
  /// always-on cost profiler — every op that flowed through `ExecuteOps`
  /// since construction or the last `ResetOpCostWindows()`. Shards that
  /// never served an op of the kind report an empty window. Scans are
  /// attributed to the home shard of their start key (a deterministic
  /// approximation: a scatter-gather scan's cost lands on one cell).
  OpCostWindow ShardOpCostWindow(size_t shard, OpKind kind) const {
    const auto it = op_cost_windows_.find(shard);
    if (it == op_cost_windows_.end()) return OpCostWindow{};
    return it->second[static_cast<size_t>(kind)];
  }

  /// Sum of one op kind's measurement windows across all shards.
  OpCostWindow OpCostWindowTotal(OpKind kind) const {
    OpCostWindow total;
    for (const auto& [shard, cells] : op_cost_windows_) {
      (void)shard;
      total += cells[static_cast<size_t>(kind)];
    }
    return total;
  }

  /// Starts a fresh measurement window on every (shard, op kind) cell.
  void ResetOpCostWindows() { op_cost_windows_.clear(); }

  /// Aggregate compaction/flush counters.
  virtual EngineCounters AggregateCounters() const = 0;

  /// Compaction/flush counters of one shard.
  virtual EngineCounters ShardCounters(size_t shard) const {
    CAMAL_CHECK(shard == 0);
    return AggregateCounters();
  }

  // --- Scale views ------------------------------------------------------

  /// Live entries across the whole engine (memtables + disk structures).
  virtual uint64_t TotalEntries() const = 0;
  /// Entries persisted in on-disk structures (excludes write buffers).
  virtual uint64_t DiskEntries() const = 0;

  /// Live entries held by one shard (memtable + disk).
  virtual uint64_t ShardEntries(size_t shard) const {
    CAMAL_CHECK(shard == 0);
    return TotalEntries();
  }

  /// True while any shard's structure still violates its latest
  /// configuration.
  virtual bool InTransition() const = 0;

 protected:
  /// Folds one executed batch into the per-(shard, op-kind) measurement
  /// windows. Implementations call this at the end of `ExecuteOps` with
  /// the results they produced; the profiler only observes — it never
  /// changes results, and its map is O(shards that served traffic).
  void ProfileBatch(const Op* ops, size_t count, const OpResult* results) {
    for (size_t i = 0; i < count; ++i) {
      OpCostWindow& cell =
          op_cost_windows_[ShardIndex(ops[i].key)][static_cast<size_t>(
              ops[i].kind)];
      cell.ops += 1;
      cell.ios += results[i].ios;
      cell.latency_ns += results[i].latency_ns;
    }
  }

 private:
  /// Sparse per-shard profiler cells (only shards that served traffic).
  std::unordered_map<size_t, std::array<OpCostWindow, kNumOpKinds>>
      op_cost_windows_;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_STORAGE_ENGINE_H_
