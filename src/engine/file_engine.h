#ifndef CAMAL_ENGINE_FILE_ENGINE_H_
#define CAMAL_ENGINE_FILE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/file_ops.h"
#include "engine/shard_set.h"
#include "engine/storage_engine.h"
#include "engine/wal.h"
#include "lsm/options.h"

namespace camal::engine {

/// Construction-time knobs of the real-IO backend.
struct FileEngineConfig {
  /// Working directory the engine persists its run files under. Created
  /// (recursively) when missing. Empty selects a unique directory under
  /// the system temp dir. Unless `keep_files` is set, the directory and
  /// everything in it are removed when the engine is destroyed.
  std::string workdir;
  /// Attempt to open run files with O_DIRECT (unbuffered device I/O, the
  /// paper's testbed configuration). Filesystems that refuse it (tmpfs,
  /// some overlayfs) silently fall back to buffered I/O; `direct_io()`
  /// reports what actually stuck.
  bool try_direct_io = true;
  /// Leave the working directory (and all run files) behind on
  /// destruction — for post-mortem inspection.
  bool keep_files = false;
  /// Size of one on-disk block: the read unit, the fence-pointer
  /// granularity, and the O_DIRECT alignment. Must be a power of two and
  /// a multiple of 512.
  uint64_t block_bytes = 4096;
  /// Engine-default number of block reads a shard keeps in flight
  /// (1 = serial `pread`, no overlap). Per-shard
  /// `lsm::Options::io_queue_depth` overrides this when nonzero — that is
  /// the knob the tuner drives. A shard whose resolved depth exceeds 1
  /// submits its reads on an io_uring ring when the build and kernel
  /// support one, and falls back to `pread` otherwise. Whatever the depth,
  /// logical results, per-op I/O counts, and all `EngineCounters` are
  /// bit-identical — only wall-clock changes.
  uint32_t io_queue_depth = 1;
  /// Injectable time source for the profiling clocks, in nanoseconds.
  /// Null (the default) reads the steady monotonic clock. Tests inject a
  /// virtual clock here so measured latencies — and everything downstream
  /// of them: cost-profiler windows, calibration fits, racing verdicts —
  /// are deterministic instead of real-time-dependent. Logical results
  /// and I/O *counts* never depend on the clock.
  std::function<double()> clock_ns;
  /// Durability layer master switch. When set, every shard keeps a
  /// manifest (append-only log of its file-set structure) and a WAL (its
  /// memtable contents), so a crash or restart can reconstruct the exact
  /// logical state. Off by default: the engine is first a measurement
  /// backend, and with `durable=false` nothing below exists on the hot
  /// path — all I/O counters stay bit-identical to pre-durability builds.
  /// Durability I/O (manifest, WAL, filter files) is never charged to the
  /// shard clocks even when enabled.
  bool durable = false;
  /// Reconstruct shards from an existing workdir's manifests instead of
  /// starting empty (implies `durable`). Recovery = manifest replay (run
  /// metadata: fences, Blooms, levels — run files are reopened, never
  /// rebuilt or rescanned) + WAL tail replay (memtable contents), with
  /// CRC-invalid tails truncated and unreferenced files removed.
  bool reopen = false;
  /// When WAL/manifest bytes are fsynced (see `fileio::WalSyncPolicy`).
  /// `kNone` still survives clean close + reopen; only crash durability
  /// needs `kBatch`/`kAlways`.
  fileio::WalSyncPolicy wal_sync = fileio::WalSyncPolicy::kBatch;
  /// Rotate (rewrite as one snapshot record) a shard's manifest once it
  /// exceeds this many records. 0 disables rotation.
  uint32_t manifest_rotate_records = 128;
  /// Injectable seam for all mutating file operations (null = raw
  /// syscalls). Tests substitute fault models to build deterministic
  /// crash-point matrices; production never pays more than a virtual
  /// dispatch per syscall.
  fileio::FileOps* file_ops = nullptr;
  /// Shard lifecycle: lazy instantiation (a cold shard holds no memtable,
  /// Bloom filters, cache, block buffers, or file descriptors) and
  /// idle-shard hibernation (a hibernated shard releases its in-memory
  /// structures and leaves its manifest and WAL as its one image, written
  /// uncounted, and unsynced on a non-durable engine; the next touching op
  /// wakes it by replaying them, as recovery does). Both transitions leave
  /// logical results, per-op I/O counts, and `EngineCounters`
  /// bit-identical to an eager engine.
  ShardLifecycleConfig lifecycle;
};

/// One file-set shard's state (defined in file_engine.cc), owned through a
/// deleter defined there too, so code that never sees the type may still
/// hold and destroy shards.
struct FileShard;
struct FileShardDeleter {
  void operator()(FileShard* shard) const;
};
using FileShardPtr = std::unique_ptr<FileShard, FileShardDeleter>;

/// \brief Real-IO storage backend: an LSM engine whose sorted runs are
/// append-only files on a real filesystem, with costs measured by
/// monotonic clocks instead of the simulated device.
///
/// `FileEngine` is the second `StorageEngine` implementation (next to the
/// `sim::Device`-priced `lsm::LsmTree`/`ShardedEngine` stack) and exists
/// to validate that model-driven tunings transfer from the simulator to
/// an actual device. It shares the simulated engine's `ShardSet` base —
/// routing, budget split, lifecycle, batch fan-out, scan gathers and
/// scatter-gather `Scan` over N hash-partitioned shards — and keeps a
/// per-shard memtable, Bloom filters and block cache, but every run is a
/// real file and every read-path block access is a real `pread`.
///
/// The level policy is its own, not the simulated tree's: a flush adds a
/// run to level 0, and a level holding more than K runs (or more entries
/// than its capacity) is rewritten whole into one run appended to the next
/// level. At K = 1 each level therefore holds at most one run and every
/// second arrival merges it down; the size ratio T acts only through level
/// capacity, which does not bind for T >= 3. 400k random puts into one
/// shard with a 2,048-entry buffer leave 4 runs after 191 merges and
/// 15,596 compaction block writes at T = 3, 4, 10 and 20 alike, where the
/// simulated tree writes 101,632 to 196,800 blocks over the same T values.
///
/// Cost accounting is truthful, not simulated: per-shard clocks accumulate
/// wall time measured around each operation plus real block read/write
/// counts, and `ShardCostSnapshot(shard)` reports them in the same
/// `sim::DeviceSnapshot` currency the rest of the stack consumes. The
/// tuning layers (`tune::MemoryArbiter`, `tune::DynamicTuner`) therefore
/// run against this backend unchanged, observing real costs.
///
/// File layout: `workdir/shard_<s>/run_<id>.cam`, each an immutable
/// append-only file of fixed-size blocks written once at flush/compaction
/// time. Fence pointers (first key per block) and Bloom filters live in
/// memory; reads fetch single blocks through the shared LRU
/// `lsm::BlockCache`, carrying each block's bytes, sized by
/// `Options::block_cache_bytes`.
///
/// Determinism: given the same operation sequence, file structure, flush
/// points, Bloom decisions, cache behavior, and therefore **all I/O
/// counters and logical results** (found flags, scan hits) are
/// deterministic. Only the clock-measured latencies vary run to run —
/// they are real.
///
/// Thread-safety: externally synchronized, like every `StorageEngine`.
/// Shard state is fully shard-local, so `ExecuteOps` may fan per-shard
/// submission lists across an attached pool (see `set_pool`).
class FileEngine : public ShardSet<FileEngine, FileShardPtr> {
 public:
  /// Creates `num_shards` file-set shards under `config.workdir`.
  /// `total_options` is the system-wide configuration; each shard receives
  /// the same even slice `ShardOptions` hands a simulated shard, so budget
  /// arithmetic (and the arbiter's conserved total) is identical across
  /// backends.
  FileEngine(size_t num_shards, const lsm::Options& total_options,
             const FileEngineConfig& config);
  ~FileEngine() override;

  /// True when run files are actually being read with O_DIRECT (the
  /// constructor probes the working directory's filesystem once).
  bool direct_io() const { return direct_io_; }

  /// The read-submission backend that actually engages inside
  /// `ExecuteOps`: "uring" when the build carries the ring path, the
  /// kernel accepted `io_uring_setup`, and a resolved depth above 1 gave
  /// at least one shard a live ring; "pread" otherwise (the automatic
  /// fallback). For cold/hibernated shards the answer is predicted from
  /// their effective options — the same resolution materialization will
  /// perform — so the report is stable across lifecycle transitions.
  const char* io_backend() const;

  /// The queue depth a shard's ring currently runs at (after applying the
  /// shard-options override); 1 on the pread path. Predicted from the
  /// effective options for cold/hibernated shards (see `io_backend`).
  uint32_t ShardQueueDepth(size_t shard) const;

  /// The resolved working directory (useful when `workdir` was empty).
  const std::string& workdir() const { return workdir_; }

  /// Whether the durability layer (manifest + WAL) is active — true when
  /// `durable` or `reopen` was configured.
  bool durable() const { return config_.durable; }

  /// Number of live run files in one shard (observability/tests).
  size_t ShardRunCount(size_t shard) const;

  /// Process-unique suffix source for callers that create many engines
  /// under one base directory (the Evaluator's file-backend measurements).
  static uint64_t NextUniqueId();

 private:
  using Slot = FileShardPtr;
  friend ShardSet<FileEngine, Slot>;

  // ShardSet backend: lifecycle transitions of one file-set shard.
  /// Creates shard `s`'s directory, logs, cache and ring.
  void CreateShard(size_t s, Slot& slot, const lsm::Options& options);
  /// Wakes a hibernated shard the way recovery rebuilds a live one:
  /// replays its manifest, rebuilds it from the run metadata and the WAL,
  /// and refills its block cache from the keys its `kHibernate` record
  /// logged. A non-durable shard whose image is not whole stops instead.
  void WakeShard(size_t s, Slot& slot);
  /// Logs a shard's `kHibernate` record behind its committed WAL (writing
  /// both logs first on a non-durable engine) and releases its in-memory
  /// state.
  void FreezeShard(size_t s, Slot& slot);

  // ShardSet backend: work on a live shard, timed on the shard clock.
  /// Serves one batch list: maximal runs of consecutive gets go through
  /// the shard's io_uring window when it has a ring, every other op is
  /// timed on its own, and the list's logged writes land in one WAL group
  /// commit.
  void ServeList(Slot& slot, ShardList& list);
  /// The single-op write, committed to the WAL as its own batch.
  void WriteSlot(Slot& slot, uint64_t key, uint64_t value, bool tombstone);
  bool GetSlot(Slot& slot, uint64_t key, uint64_t* value);
  size_t ScanSlot(Slot& slot, uint64_t start_key, size_t max_entries,
                  std::vector<lsm::Entry>* out);
  void FlushSlot(Slot& slot);
  /// Applies shard-local options at runtime: the block cache resizes
  /// immediately, a memtable over the new buffer capacity flushes, and
  /// future runs size their Bloom filters from the new budget. Existing
  /// run files converge through later flushes/compactions (lazy, like the
  /// simulated tree). A hibernated shard is updated asleep unless its
  /// buffered writes overflow the new capacity.
  void ReconfigureSlot(size_t s, Entry& e, const lsm::Options& options);

  // ShardSet backend: the view of a live or hibernated shard. Costs are
  // real: block_reads/block_writes are actual pread/pwrite block counts,
  // elapsed_ns is accumulated monotonic wall time.
  lsm::Options SlotOptions(const Entry& e) const;
  EngineCounters SlotCounters(const Entry& e) const;
  sim::DeviceSnapshot SlotCost(const Slot& slot) const;
  uint64_t SlotEntries(const Entry& e) const;
  uint64_t SlotDiskEntries(const Entry& e) const;
  bool SlotInTransition(const Entry& e) const;

  /// `reopen=true` startup: scans the workdir for shard directories and
  /// reconstructs each from its manifest + WAL.
  void RecoverShards();

  /// Rebuilds one shard from `dir`'s manifest (levels, Blooms, fences,
  /// hibernation status) and WAL tail (memtable), truncating torn log
  /// tails and deleting unreferenced files.
  void RecoverShard(size_t s, const std::string& dir);

  FileEngineConfig config_;
  std::string workdir_;
  bool created_workdir_ = false;
  bool direct_io_ = false;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_FILE_ENGINE_H_
