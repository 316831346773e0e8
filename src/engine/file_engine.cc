#include "engine/file_engine.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "engine/io_ring.h"
#include "engine/manifest.h"
#include "lsm/block_cache.h"
#include "lsm/bloom.h"
#include "lsm/compaction.h"
#include "lsm/memtable.h"
#include "util/crc32c.h"
#include "util/search.h"
#include "util/status.h"

namespace camal::engine {

// Implementation-detail types live in a named namespace (not an anonymous
// one) because they appear as members of FileShard, which has external
// linkage.
namespace fileio {

namespace fs = std::filesystem;

/// On-disk record: fixed 24 bytes so blocks decode by offset arithmetic.
/// The layout is private to this engine (run files are ephemeral
/// measurement artifacts, not an interchange format).
struct DiskEntry {
  uint64_t key = 0;
  uint64_t value = 0;
  uint64_t flags = 0;  // bit 0: tombstone
};
static_assert(sizeof(DiskEntry) == 24, "record layout must stay 24 bytes");

constexpr uint64_t kTombstoneFlag = 1;

/// Aborts with errno context; real-IO failures are environment errors the
/// measurement cannot recover from (same policy as CAMAL_CHECK).
inline void SysCheck(bool ok, const char* what, const std::string& path) {
  if (ok) return;
  std::fprintf(stderr, "FileEngine: %s failed for '%s': %s\n", what,
               path.c_str(), std::strerror(errno));
  std::abort();
}

inline double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Profiling-clock read: the injected virtual clock when one is
/// configured, the steady monotonic clock otherwise. Every timing site of
/// the engine reads through this so tests can make measured latencies
/// deterministic.
inline double Now(const FileEngineConfig& cfg) {
  return cfg.clock_ns ? cfg.clock_ns() : NowNs();
}

/// One immutable sorted run persisted as an append-only file
/// (`run_<id>.cam`), with its Bloom filter's words beside it in
/// `run_<id>.blm`. Fence pointers (first key per block) and the filter
/// stay in memory; block contents are fetched by pread.
struct FileRun {
  uint64_t id = 0;
  std::string path;
  int fd = -1;
  uint64_t num_entries = 0;
  std::vector<uint64_t> fence;  // first key of each block
  lsm::BloomFilter filter;
  /// CRC-32C of the filter words, computed once when the filter is built
  /// or loaded, so manifest records and snapshots never recompute it.
  uint32_t filter_crc = 0;
  uint64_t min_key = 0;
  uint64_t max_key = 0;

  ~FileRun() {
    if (fd >= 0) ::close(fd);
  }
  size_t num_blocks() const { return fence.size(); }
};
using FileRunPtr = std::shared_ptr<FileRun>;

/// Real per-shard cost clock: actual block reads/writes plus accumulated
/// monotonic wall time, reported through the `sim::DeviceSnapshot`
/// currency so the arbiter and bench observability read it unchanged.
struct Clock {
  uint64_t block_reads = 0;
  uint64_t block_writes = 0;
  double elapsed_ns = 0.0;

  sim::DeviceSnapshot Snapshot() const {
    return sim::DeviceSnapshot{block_reads, block_writes, elapsed_ns};
  }
};

inline uint64_t EntriesPerBlock(uint64_t block_bytes) {
  return block_bytes / sizeof(DiskEntry);
}

inline const DiskEntry* BlockRecords(const lsm::Block& block) {
  return reinterpret_cast<const DiskEntry*>(block.data());
}

inline lsm::Entry ToEntry(const DiskEntry& d) {
  return lsm::Entry{d.key, d.value, (d.flags & kTombstoneFlag) != 0};
}

inline std::string RunPath(const std::string& dir, uint64_t id) {
  return dir + "/run_" + std::to_string(id) + ".cam";
}

inline std::string FilterPath(const std::string& dir, uint64_t id) {
  return dir + "/run_" + std::to_string(id) + ".blm";
}

inline uint32_t FilterCrc(const lsm::BloomFilter& filter) {
  return util::Crc32c(filter.words().data(),
                      filter.words().size() * sizeof(uint64_t));
}

/// Reads exactly `n` bytes at `offset`. False on an error or early EOF.
inline bool PreadAll(int fd, void* buf, size_t n, uint64_t offset) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (got <= 0) return false;
    p += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

inline int OpenRead(const std::string& path, bool direct) {
  int flags = O_RDONLY;
  if (direct) flags |= O_DIRECT;
  int fd = ::open(path.c_str(), flags);
  if (fd < 0 && direct) fd = ::open(path.c_str(), O_RDONLY);
  SysCheck(fd >= 0, "open", path);
  return fd;
}

/// Per-shard storage of one io_uring Get window (`ExecuteGetWindow`),
/// emptied after each window and never freed, so a warm window allocates
/// nothing.
struct GetWindow {
  /// A block the window's lookups reached. `bytes` comes from a cache
  /// peek or a ring completion and is null while the block is queued or
  /// in flight; the ops parked on it meanwhile form a FIFO list threaded
  /// through `next_parked` (-1 ends it).
  struct Fetch {
    uint64_t key = 0;
    const FileRun* run = nullptr;
    size_t blk = 0;
    lsm::BlockPtr bytes;
    int64_t first_parked = -1;
    int64_t last_parked = -1;
  };
  std::vector<Fetch> fetches;
  lsm::KeyIndex by_key;  // cache key -> index into `fetches`
  std::vector<int64_t> next_parked;  // per window op
  std::vector<uint32_t> backlog;  // fetches waiting for a free ring slot
  size_t backlog_head = 0;        // FIFO front of `backlog`
  std::vector<uint32_t> slot_fetch;  // ring slot -> fetch in flight there
  std::vector<std::shared_ptr<lsm::Block>> slot_bytes;  // its read target
  std::vector<uint32_t> free_slots;
  std::vector<IoRing::Completion> comps;

  /// The bytes the window holds for a block (replay's miss source).
  const lsm::BlockPtr& Bytes(uint64_t key) const {
    const uint32_t f = by_key.Find(key);
    CAMAL_CHECK(f != lsm::KeyIndex::kNone && fetches[f].bytes != nullptr);
    return fetches[f].bytes;
  }
};

}  // namespace fileio

/// One shard: a file set (levels of runs) plus memtable, Bloom filters,
/// block cache (carrying each block's bytes), live options, and its own
/// cost clock. All state is shard-local so per-shard submission lists can
/// run concurrently.
struct FileShard {
  lsm::Options options;
  std::string dir;
  lsm::Memtable memtable;
  /// levels[l] holds runs oldest-to-newest (read newest first).
  std::vector<std::vector<fileio::FileRunPtr>> levels;
  lsm::BlockCache cache{0};
  /// Block buffers that left the cache, read into again once nothing
  /// else holds them (`TakeBlock`), and the alignment new ones get: the
  /// block size under O_DIRECT, none beyond the default otherwise.
  std::vector<lsm::BlockPtr> spare_blocks;
  size_t block_align = 1;
  fileio::Clock clock;
  EngineCounters counters;
  uint64_t next_run_id = 1;
  uint64_t disk_entries = 0;
  /// Ring path state (null/empty on the pread path): the shard-owned
  /// submission ring, the window storage, and the resolved queue depth
  /// (shard options override the engine default).
  std::unique_ptr<fileio::IoRing> ring;
  fileio::GetWindow window;
  uint32_t io_depth = 1;

  /// Durability state (null on a live shard with
  /// `FileEngineConfig::durable` off — the layer then has zero hot-path
  /// presence). The manifest logs every structural transition of the file
  /// set; the WAL logs memtable contents, stamped with `wal_epoch`. A flush
  /// bumps the epoch (in the manifest's kFlush record, the durable marker
  /// that older WAL entries now live in a run) and resets the WAL.
  std::unique_ptr<fileio::Manifest> manifest;
  std::unique_ptr<fileio::Wal> wal;
  uint64_t wal_epoch = 0;

  /// Hibernation state. While hibernated, the heavy members above
  /// (memtable, levels and their fds, cache contents, spare blocks, ring
  /// and window storage, log writers) are released, and the shard's
  /// manifest and WAL are its one image; the cheap residuals below keep
  /// the observability surface (entries, run counts, transition status)
  /// answerable without waking.
  uint64_t hib_memtable_size = 0;
  /// Per-level (run count, entry count) at hibernation time.
  std::vector<std::pair<uint64_t, uint64_t>> hib_level_shape;
};

void FileShardDeleter::operator()(FileShard* shard) const { delete shard; }

namespace {

using fileio::BlockRecords;
using fileio::DiskEntry;
using fileio::EntriesPerBlock;
using fileio::FileRun;
using fileio::FileRunPtr;
using fileio::kTombstoneFlag;
using fileio::Now;
using fileio::NowNs;
using fileio::SysCheck;
using fileio::ToEntry;
namespace fs = std::filesystem;

/// Spare block buffers a shard keeps at most; a buffer that leaves the
/// cache beyond them is freed once its last reader lets go.
constexpr size_t kSpareBlocks = 32;

/// A block buffer to read into: a spare that nothing else holds (no cache
/// entry, scan cursor or ring window), else a new one.
std::shared_ptr<lsm::Block> TakeBlock(FileShard& sh,
                                      const FileEngineConfig& cfg) {
  std::vector<lsm::BlockPtr>& spare = sh.spare_blocks;
  for (size_t i = spare.size(); i-- > 0;) {
    if (spare[i].use_count() != 1) continue;
    // Sole owner of a buffer that was created mutable: safe to refill.
    auto block = std::const_pointer_cast<lsm::Block>(std::move(spare[i]));
    spare[i] = std::move(spare.back());
    spare.pop_back();
    return block;
  }
  return std::make_shared<lsm::Block>(cfg.block_bytes, sh.block_align);
}

/// Keeps a buffer that left the cache for a later `TakeBlock`. One buffer
/// can leave twice (a ring window's replay re-inserts a block it peeked),
/// and is kept once.
void RecycleBlock(FileShard& sh, lsm::BlockPtr block) {
  std::vector<lsm::BlockPtr>& spare = sh.spare_blocks;
  if (block == nullptr || spare.size() == kSpareBlocks ||
      std::find(spare.begin(), spare.end(), block) != spare.end()) {
    return;
  }
  spare.push_back(std::move(block));
}

/// Reads block `blk` of `run` with one pread straight into a recycled or
/// new buffer. Uncounted: a read-path miss counts it
/// (`FetchBlock`), a wake refill does not.
lsm::BlockPtr ReadBlock(FileShard& sh, const FileEngineConfig& cfg,
                        const FileRun& run, size_t blk) {
  std::shared_ptr<lsm::Block> block = TakeBlock(sh, cfg);
  SysCheck(fileio::PreadAll(run.fd, block->data(), cfg.block_bytes,
                            blk * cfg.block_bytes),
           "pread", run.path);
  return block;
}

/// Cache-aware fetch of block `blk` of `run`, the read path's one block
/// access. A hit hands back the cached buffer (zero copies). A miss counts
/// one block read and reads the block, or takes it from `window` when the
/// ring already fetched it, then shares that one buffer between the caller
/// and the cache; the buffer the insert pushed out is kept for reuse.
lsm::BlockPtr FetchBlock(FileShard& sh, const FileEngineConfig& cfg,
                         const FileRun& run, size_t blk,
                         const fileio::GetWindow* window = nullptr) {
  const uint64_t key = lsm::BlockCache::MakeKey(run.id, blk);
  lsm::BlockPtr block;
  if (sh.cache.Lookup(key, &block)) return block;
  block = window != nullptr ? window->Bytes(key) : ReadBlock(sh, cfg, run, blk);
  ++sh.clock.block_reads;
  RecycleBlock(sh, sh.cache.Insert(key, block));
  return block;
}

/// Fence search: the block of `run` whose key range covers `key`, i.e. the
/// last block whose first key is <= `key` (`key` >= the run's min key).
size_t FenceBlock(const FileRun& run, uint64_t key) {
  return util::UpperBound(run.fence.data(), run.fence.size(), key) - 1;
}

/// Number of records in block `blk` of `run` (the last block may be short).
uint64_t RecordsIn(const FileRun& run, size_t blk, uint64_t epb) {
  return std::min(epb, run.num_entries - blk * epb);
}

/// In-block search: the slot of the first of a block's `count` records
/// whose key is >= `key` (`count` when there is none).
uint64_t SeekInBlock(const lsm::BlockPtr& block, uint64_t count,
                     uint64_t key) {
  return util::LowerBound(BlockRecords(*block), count, key,
                          [](const DiskEntry& d) { return d.key; });
}

/// How a point lookup ended.
enum class GetOutcome {
  kAbsent,   ///< no live version (never written, or a tombstone)
  kFound,    ///< a live version; `*value` holds it
  kBlocked,  ///< `read` had no bytes for a block yet
};

/// The file engine's one point lookup: the memtable, then every run,
/// levels top down and newest first within a level. A run that may hold
/// `key` (key range, then Bloom filter) has the block the fence search
/// names read through `read(run, blk)`, which returns the block's bytes or
/// null when they are not available yet. A Bloom false positive pays that
/// read in vain, exactly like the simulated engine's kNotFoundAfterIo
/// outcome, and moves on to the next run.
template <typename Read>
GetOutcome LookupKey(const FileShard& sh, uint64_t epb, uint64_t key,
                     uint64_t* value, Read&& read) {
  if (const lsm::Entry* buffered = sh.memtable.Find(key)) {
    if (buffered->tombstone) return GetOutcome::kAbsent;
    if (value != nullptr) *value = buffered->value;
    return GetOutcome::kFound;
  }
  for (const auto& level : sh.levels) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      const FileRun& run = **rit;
      if (key < run.min_key || key > run.max_key) continue;
      if (!run.filter.MayContain(key)) continue;
      const size_t blk = FenceBlock(run, key);
      const lsm::BlockPtr block = read(run, blk);
      if (block == nullptr) return GetOutcome::kBlocked;
      const uint64_t count = RecordsIn(run, blk, epb);
      const uint64_t slot = SeekInBlock(block, count, key);
      const DiskEntry* found = BlockRecords(*block) + slot;
      if (slot == count || found->key != key) continue;
      if (found->flags & kTombstoneFlag) return GetOutcome::kAbsent;
      if (value != nullptr) *value = found->value;
      return GetOutcome::kFound;
    }
  }
  return GetOutcome::kAbsent;
}

/// Point lookup through the block cache. Misses pread, or, given a
/// `window`, take the bytes an io_uring window fetched.
bool DoGet(FileShard& sh, const FileEngineConfig& cfg, uint64_t key,
           uint64_t* value, const fileio::GetWindow* window = nullptr) {
  return LookupKey(sh, EntriesPerBlock(cfg.block_bytes), key, value,
                   [&](const FileRun& run, size_t blk) {
                     return FetchBlock(sh, cfg, run, blk, window);
                   }) == GetOutcome::kFound;
}

// --------------------------------------------------------------- durability

/// Whether durability writes should reach the platter before the engine
/// proceeds (the `wal_sync` policy knob, gated on the layer being on).
bool DurableSync(const FileEngineConfig& cfg) {
  return cfg.durable && cfg.wal_sync != fileio::WalSyncPolicy::kNone;
}

/// Creates (or truncates) `path` for writing through the FileOps seam.
/// With `direct`, O_DIRECT is tried first (every write must then be
/// block-aligned).
int CreateForWrite(const FileEngineConfig& cfg, const std::string& path,
                   bool direct) {
  fileio::FileOps* ops = cfg.file_ops;
  constexpr int kFlags = O_WRONLY | O_CREAT | O_TRUNC;
  int fd = direct ? ops->Open(path, kFlags | O_DIRECT, 0644) : -1;
  if (fd < 0) fd = ops->Open(path, kFlags, 0644);
  SysCheck(fd >= 0, "open(write)", path);
  return fd;
}

/// Writes all `size` bytes of `data` at `offset` through the FileOps seam.
void PWriteAll(const FileEngineConfig& cfg, int fd, const char* data,
               uint64_t size, uint64_t offset, const std::string& path) {
  uint64_t off = 0;
  while (off < size) {
    const int64_t n =
        cfg.file_ops->PWrite(fd, data + off, size - off, offset + off);
    SysCheck(n > 0, "pwrite", path);
    off += static_cast<uint64_t>(n);
  }
}

/// Creates (or truncates) `path` and writes the filter's words into it,
/// fsyncing under `DurableSync` before the close.
void WriteFilterFile(const FileEngineConfig& cfg, const std::string& path,
                     const lsm::BloomFilter& filter) {
  const int fd = CreateForWrite(cfg, path, /*direct=*/false);
  PWriteAll(cfg, fd, reinterpret_cast<const char*>(filter.words().data()),
            filter.words().size() * sizeof(uint64_t), 0, path);
  if (DurableSync(cfg)) SysCheck(cfg.file_ops->Fsync(fd) == 0, "fsync", path);
  cfg.file_ops->Close(fd);
}

/// Manifest-side metadata of a built run: everything recovery needs to
/// reopen it without reading a block.
fileio::ManifestRunMeta RunMetaOf(const FileRun& run) {
  fileio::ManifestRunMeta meta;
  meta.id = run.id;
  meta.num_entries = run.num_entries;
  meta.min_key = run.min_key;
  meta.max_key = run.max_key;
  meta.fence = run.fence;
  meta.bloom_bits = run.filter.memory_bits();
  meta.bloom_hashes = static_cast<uint32_t>(run.filter.num_hashes());
  meta.bloom_bpk = run.filter.bits_per_key();
  meta.bloom_crc = run.filter_crc;
  return meta;
}

/// Loads a run's filter from its `.blm` file, straight into the filter's
/// word vector, checked against the size and CRC its record logged.
/// Returns false when the file is missing, has the wrong size, or fails
/// the CRC.
bool LoadFilterFile(const std::string& path,
                    const fileio::ManifestRunMeta& meta,
                    lsm::BloomFilter* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const size_t bytes = (meta.bloom_bits + 63) / 64 * sizeof(uint64_t);
  std::vector<uint64_t> words(bytes / sizeof(uint64_t));
  struct stat st;
  const bool read = ::fstat(fd, &st) == 0 &&
                    static_cast<uint64_t>(st.st_size) == bytes &&
                    fileio::PreadAll(fd, words.data(), bytes, 0);
  ::close(fd);
  if (!read || util::Crc32c(words.data(), bytes) != meta.bloom_crc) {
    return false;
  }
  *out = lsm::BloomFilter::FromParts(std::move(words), meta.bloom_bits,
                                     static_cast<int>(meta.bloom_hashes),
                                     meta.bloom_bpk);
  return true;
}

/// Rebuilds a run's filter from the keys in its run file, as `RunWriter`
/// built it. Construction is deterministic, so the result is bit-identical
/// to the filter the record describes. Reads through one aligned block
/// buffer and is uncounted, like the rest of recovery.
lsm::BloomFilter RebuildFilter(const FileEngineConfig& cfg, const FileRun& run,
                               const fileio::ManifestRunMeta& meta) {
  lsm::BloomFilter filter(run.num_entries, meta.bloom_bpk);
  const uint64_t epb = EntriesPerBlock(cfg.block_bytes);
  lsm::Block buf(cfg.block_bytes, cfg.block_bytes);
  for (size_t blk = 0; blk < run.num_blocks(); ++blk) {
    SysCheck(fileio::PreadAll(run.fd, buf.data(), cfg.block_bytes,
                              blk * cfg.block_bytes),
             "pread(filter rebuild)", run.path);
    const uint64_t count = std::min(epb, run.num_entries - blk * epb);
    const auto* records = reinterpret_cast<const DiskEntry*>(buf.data());
    for (uint64_t i = 0; i < count; ++i) filter.Add(records[i].key);
  }
  return filter;
}

/// Reopens a run from its logged metadata: opens the run file for reads
/// and loads its filter file. A missing or damaged filter file is rebuilt
/// from the run's keys and rewritten, so it never fails recovery; a
/// rebuilt filter that disagrees with the logged CRC means the run file
/// itself no longer matches the manifest, and aborts.
FileRunPtr OpenRun(FileShard& sh, const FileEngineConfig& cfg,
                   bool direct_io, fileio::ManifestRunMeta meta) {
  auto run = std::make_shared<FileRun>();
  run->id = meta.id;
  run->path = fileio::RunPath(sh.dir, meta.id);
  run->num_entries = meta.num_entries;
  run->min_key = meta.min_key;
  run->max_key = meta.max_key;
  run->fence = std::move(meta.fence);
  run->filter_crc = meta.bloom_crc;
  run->fd = fileio::OpenRead(run->path, direct_io);
  const std::string filter_path = fileio::FilterPath(sh.dir, meta.id);
  if (!LoadFilterFile(filter_path, meta, &run->filter)) {
    run->filter = RebuildFilter(cfg, *run, meta);
    CAMAL_CHECK(run->filter.memory_bits() == meta.bloom_bits &&
                fileio::FilterCrc(run->filter) == meta.bloom_crc);
    WriteFilterFile(cfg, filter_path, run->filter);
  }
  return run;
}

/// The live shard's full structural state, as a manifest rotation
/// snapshot.
fileio::RecoveredShardState SnapshotShardState(const FileShard& sh) {
  fileio::RecoveredShardState st;
  st.valid = true;
  st.options = sh.options;
  st.wal_epoch = sh.wal_epoch;
  st.next_run_id = sh.next_run_id;
  st.levels.resize(sh.levels.size());
  for (size_t l = 0; l < sh.levels.size(); ++l) {
    st.levels[l].reserve(sh.levels[l].size());
    for (const FileRunPtr& r : sh.levels[l]) {
      st.levels[l].push_back(RunMetaOf(*r));
    }
  }
  return st;
}

/// Compacts the manifest to one snapshot record once it outgrows the
/// configured threshold. Called only at quiescent points (after a flush
/// cascade settles, after reconfigure/wake) where the in-memory state is
/// the authoritative truth.
void MaybeRotateManifest(FileShard& sh, const FileEngineConfig& cfg) {
  // The threshold check comes first: most calls do not rotate, and the
  // snapshot copies every live run's fences.
  if (sh.manifest == nullptr ||
      !sh.manifest->ShouldRotate(cfg.manifest_rotate_records)) {
    return;
  }
  sh.manifest->Rotate(SnapshotShardState(sh));
}

uint64_t LevelEntries(const std::vector<FileRunPtr>& level) {
  uint64_t total = 0;
  for (const FileRunPtr& r : level) total += r->num_entries;
  return total;
}

/// Per-level (run count, entry count) of a live shard's file set.
std::vector<std::pair<uint64_t, uint64_t>> LevelShape(const FileShard& sh) {
  std::vector<std::pair<uint64_t, uint64_t>> shape;
  shape.reserve(sh.levels.size());
  for (const auto& level : sh.levels) {
    shape.emplace_back(level.size(), LevelEntries(level));
  }
  return shape;
}

/// Bits-per-key for a new run: the shard's Bloom budget spread uniformly
/// over its (post-build) disk entries. Uniform rather than Monkey-curved:
/// the real backend validates *budget* tunings; the per-level curve is a
/// sim-side refinement.
double BloomBpk(const FileShard& sh, uint64_t incoming) {
  const uint64_t total = std::max<uint64_t>(1, sh.disk_entries + incoming);
  return std::min(50.0, static_cast<double>(sh.options.bloom_bits) /
                            static_cast<double>(total));
}

/// Blocks per `pwrite` of a run being written, and per `pread` of a
/// compaction input. Fixed, so neither flush nor compaction holds memory
/// that grows with the size of the runs it reads or writes.
constexpr uint64_t kRunWriteBlocks = 64;
constexpr uint64_t kCompactionReadBlocks = 16;

/// Streams one new run file from sorted, deduplicated entries. Records
/// pack densely into an aligned chunk of whole blocks (`kRunWriteBlocks`,
/// or fewer when the run cannot fill that many), and each full chunk goes
/// to the file in one pwrite through the FileOps seam. The file opens on
/// the first entry, so a writer that receives none builds no run and takes
/// no run id. The Bloom filter's size depends on the final entry count, so
/// the writer keeps the keys (8 bytes each) and builds the filter in
/// `Finish`.
class RunWriter {
 public:
  /// `max_entries` bounds what the caller will add; the key buffer is
  /// reserved once to it.
  RunWriter(FileShard& sh, const FileEngineConfig& cfg, bool direct_io,
            uint64_t max_entries)
      : sh_(sh),
        cfg_(cfg),
        direct_io_(direct_io),
        max_entries_(max_entries),
        epb_(EntriesPerBlock(cfg.block_bytes)) {}

  ~RunWriter() {
    if (fd_ >= 0) cfg_.file_ops->Close(fd_);  // abandoned mid-build
  }

  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  void Add(const lsm::Entry& e) {
    if (run_ == nullptr) Open();
    if (slot_ == 0) {
      if (chunk_blocks_ == chunk_capacity_) WriteChunk();
      block_ = chunk_->data() + chunk_blocks_++ * cfg_.block_bytes;
      run_->fence.push_back(e.key);
    }
    // Pages start at multiples of block_bytes; 24 does not divide 4096, so
    // each page tail stays zero padding, never decoded (per-block record
    // counts derive from num_entries).
    const DiskEntry record{e.key, e.value, e.tombstone ? kTombstoneFlag : 0};
    std::memcpy(block_ + slot_ * sizeof(DiskEntry), &record, sizeof(record));
    keys_.push_back(e.key);
    if (++slot_ == epb_) {
      ZeroTail(epb_);
      slot_ = 0;
    }
  }

  /// Writes the last chunk, makes the run durable, then builds, writes and
  /// makes durable its filter file (both before the manifest record that
  /// names the run commits), and opens the run for reads. Returns null
  /// when no entry was added. The filter's bits per key come from
  /// `BloomBpk` over the shard's disk entries as they stand now.
  FileRunPtr Finish() {
    if (run_ == nullptr) return nullptr;
    if (slot_ != 0) ZeroTail(slot_);
    WriteChunk();
    if (DurableSync(cfg_)) {
      SysCheck(cfg_.file_ops->Fsync(fd_) == 0, "fsync", run_->path);
    }
    cfg_.file_ops->Close(fd_);
    fd_ = -1;
    chunk_.reset();
    sh_.clock.block_writes += run_->num_blocks();

    run_->num_entries = keys_.size();
    run_->min_key = keys_.front();
    run_->max_key = keys_.back();
    run_->filter = lsm::BloomFilter(keys_.size(), BloomBpk(sh_, keys_.size()));
    for (uint64_t key : keys_) run_->filter.Add(key);
    keys_ = {};
    run_->filter_crc = fileio::FilterCrc(run_->filter);
    WriteFilterFile(cfg_, fileio::FilterPath(sh_.dir, run_->id), run_->filter);
    run_->fd = fileio::OpenRead(run_->path, direct_io_);
    return std::move(run_);
  }

 private:
  void Open() {
    run_ = std::make_shared<FileRun>();
    run_->id = sh_.next_run_id++;
    run_->path = fileio::RunPath(sh_.dir, run_->id);
    fd_ = CreateForWrite(cfg_, run_->path, direct_io_);
    const uint64_t max_blocks = (max_entries_ + epb_ - 1) / epb_;
    chunk_capacity_ = std::min(kRunWriteBlocks, max_blocks);
    chunk_ = std::make_unique<lsm::Block>(chunk_capacity_ * cfg_.block_bytes,
                                          cfg_.block_bytes);
    keys_.reserve(max_entries_);
    run_->fence.reserve(max_blocks);
  }

  /// Zeroes the current block past its first `records` records.
  void ZeroTail(uint64_t records) const {
    const size_t used = records * sizeof(DiskEntry);
    std::memset(block_ + used, 0, cfg_.block_bytes - used);
  }

  /// Appends the chunk's filled blocks to the file and empties it.
  void WriteChunk() {
    const uint64_t bytes = chunk_blocks_ * cfg_.block_bytes;
    PWriteAll(cfg_, fd_, chunk_->data(), bytes, written_bytes_, run_->path);
    written_bytes_ += bytes;
    chunk_blocks_ = 0;
  }

  FileShard& sh_;
  const FileEngineConfig& cfg_;
  const bool direct_io_;
  const uint64_t max_entries_;
  const uint64_t epb_;
  FileRunPtr run_;
  int fd_ = -1;
  std::unique_ptr<lsm::Block> chunk_;
  uint64_t chunk_capacity_ = 0;  // blocks the chunk holds
  uint64_t chunk_blocks_ = 0;    // blocks started in the chunk
  char* block_ = nullptr;        // the block being filled
  uint64_t slot_ = 0;            // next record slot in `block_`
  uint64_t written_bytes_ = 0;
  std::vector<uint64_t> keys_;
};

/// Compaction input: streams one run's records front to back through its
/// own aligned buffer, `kCompactionReadBlocks` blocks (or the whole run,
/// if smaller) per pread. Bypasses the cache and counts every block it
/// reads once as a block read and once as a compaction read. A merge
/// cursor for `lsm::MergeCursors`.
class CompactionCursor {
 public:
  CompactionCursor(FileShard& sh, const FileEngineConfig& cfg,
                   const FileRun& run)
      : sh_(&sh),
        cfg_(&cfg),
        run_(&run),
        epb_(EntriesPerBlock(cfg.block_bytes)),
        buf_(std::make_unique<lsm::Block>(
            std::min<uint64_t>(kCompactionReadBlocks, run.num_blocks()) *
                cfg.block_bytes,
            cfg.block_bytes)) {
    if (!done()) Load();
  }

  bool done() const { return idx_ == run_->num_entries; }
  const lsm::Entry& head() const { return head_; }

  void advance() {
    if (++idx_ == run_->num_entries) return;
    if (++slot_ == epb_) {
      slot_ = 0;
      if (++block_ == blocks_) {
        Load();
        return;
      }
    }
    Decode();
  }

 private:
  /// Reads the chunk that starts at the block holding `idx_`.
  void Load() {
    const uint64_t first = idx_ / epb_;
    blocks_ = std::min<uint64_t>(kCompactionReadBlocks,
                                 run_->num_blocks() - first);
    SysCheck(fileio::PreadAll(run_->fd, buf_->data(),
                              blocks_ * cfg_->block_bytes,
                              first * cfg_->block_bytes),
             "pread", run_->path);
    sh_->clock.block_reads += blocks_;
    sh_->counters.compaction_block_reads += blocks_;
    block_ = 0;
    slot_ = 0;
    Decode();
  }

  void Decode() {
    DiskEntry record;
    std::memcpy(&record,
                buf_->data() + block_ * cfg_->block_bytes +
                    slot_ * sizeof(DiskEntry),
                sizeof(record));
    head_ = ToEntry(record);
  }

  FileShard* sh_;
  const FileEngineConfig* cfg_;
  const FileRun* run_;
  uint64_t epb_;
  std::unique_ptr<lsm::Block> buf_;
  uint64_t idx_ = 0;     // entry index of head_ within the run
  uint64_t blocks_ = 0;  // blocks in the buffer
  uint64_t block_ = 0;   // buffer block holding head_
  uint64_t slot_ = 0;    // record slot of head_ within its block
  lsm::Entry head_;
};

/// Merges every run of level `l` into one run pushed to level `l + 1`
/// (newest-wins on duplicate keys; tombstones drop when the output
/// becomes the deepest populated level), then unlinks the inputs. The
/// inputs stream through their cursors into the run writer, so the merge
/// never holds a whole run in memory.
void MergeLevelDown(FileShard& sh, const FileEngineConfig& cfg,
                    bool direct_io, size_t l) {
  std::vector<FileRunPtr> inputs = std::move(sh.levels[l]);
  sh.levels[l].clear();
  if (sh.levels.size() <= l + 1) sh.levels.resize(l + 2);

  bool deeper_data = false;
  for (size_t d = l + 1; d < sh.levels.size(); ++d) {
    if (!sh.levels[d].empty()) deeper_data = true;
  }

  // The output's Bloom bits per key are sized against the disk entries
  // left once the inputs are gone.
  const uint64_t drained = LevelEntries(inputs);
  sh.disk_entries -= drained;

  // The level's runs are stored oldest-to-newest; the shared merge core
  // takes them newest first so the freshest version of each key wins, and
  // drops tombstones when nothing deeper is left for them to shadow.
  std::vector<CompactionCursor> newest_first;
  newest_first.reserve(inputs.size());
  for (auto it = inputs.rbegin(); it != inputs.rend(); ++it) {
    newest_first.emplace_back(sh, cfg, **it);
  }
  RunWriter writer(sh, cfg, direct_io, drained);
  lsm::MergeCursors(newest_first, !deeper_data,
                    [&writer](const lsm::Entry& e) {
                      writer.Add(e);
                      return true;
                    });
  newest_first.clear();  // release the read buffers before the filter
  FileRunPtr run = writer.Finish();

  std::vector<fileio::ManifestRunMeta> added;
  if (run != nullptr) {
    sh.counters.compaction_block_writes += run->num_blocks();
    sh.disk_entries += run->num_entries;
    if (sh.manifest != nullptr) added.push_back(RunMetaOf(*run));
    sh.levels[l + 1].push_back(std::move(run));
  }
  ++sh.counters.merges;

  if (sh.manifest != nullptr) {
    // One composite record carries removed inputs and the added output:
    // the transition commits atomically (CRC framing — a torn record is
    // ignored wholesale), so recovery sees the old file set or the new
    // one, never a mix. Only after it commits may the inputs disappear.
    std::vector<uint64_t> removed;
    removed.reserve(inputs.size());
    for (const FileRunPtr& r : inputs) removed.push_back(r->id);
    sh.manifest->LogCompact(static_cast<uint32_t>(l), removed, added);
  }
  for (const FileRunPtr& r : inputs) {
    cfg.file_ops->Unlink(r->path);
    cfg.file_ops->Unlink(fileio::FilterPath(sh.dir, r->id));
  }
}

/// Restores the level invariants (runs <= K, entries <= capacity) from
/// level 0 downward, cascading merges as needed.
void Normalize(FileShard& sh, const FileEngineConfig& cfg, bool direct_io) {
  for (size_t l = 0; l < sh.levels.size(); ++l) {
    while (sh.options.LevelOverflows(l, sh.levels[l].size(),
                                     LevelEntries(sh.levels[l]))) {
      MergeLevelDown(sh, cfg, direct_io, l);
    }
  }
}

/// Drains the memtable into a new level-0 run (no-op when empty). The
/// memtable feeds the run writer in place.
void FlushShard(FileShard& sh, const FileEngineConfig& cfg, bool direct_io) {
  if (sh.memtable.empty()) return;
  RunWriter writer(sh, cfg, direct_io, sh.memtable.size());
  for (auto c = sh.memtable.LowerBound(0); !c.done(); c.advance()) {
    writer.Add(c.head());
  }
  sh.memtable.Clear();
  FileRunPtr run = writer.Finish();
  if (sh.levels.empty()) sh.levels.resize(1);
  sh.disk_entries += run->num_entries;
  if (sh.manifest != nullptr) {
    // The epoch bump rides in the kFlush record: once it commits, every
    // WAL entry logged under the old epoch is durable in the run and will
    // be filtered out of replay — so a crash between this commit and the
    // WAL reset below cannot double-apply them.
    ++sh.wal_epoch;
    sh.manifest->LogFlush(sh.wal_epoch, RunMetaOf(*run));
    sh.wal->Reset();
  }
  sh.levels[0].push_back(std::move(run));
  ++sh.counters.flushes;
  Normalize(sh, cfg, direct_io);
  MaybeRotateManifest(sh, cfg);
}

/// Untimed single-shard write (`WriteSlot` and the list server time it on
/// the shard clock).
void DoPut(FileShard& sh, const FileEngineConfig& cfg, bool direct_io,
           uint64_t key, uint64_t value, bool tombstone) {
  if (sh.memtable.size() >= sh.options.BufferEntries()) {
    FlushShard(sh, cfg, direct_io);
  }
  sh.memtable.Put(key, value, tombstone);
  const lsm::Entry e{key, value, tombstone};
  // Logged at the *current* epoch, buffered until the enclosing batch (or
  // single-op call) commits — group commit on batch boundaries.
  if (sh.wal != nullptr) sh.wal->Append(sh.wal_epoch, &e, 1);
}

/// The queue depth a shard running `options` resolves: shard options
/// override the engine default when nonzero.
uint32_t ResolvedQueueDepth(const lsm::Options& options,
                            const FileEngineConfig& cfg) {
  return std::max<uint32_t>(
      1, options.io_queue_depth > 0
             ? static_cast<uint32_t>(options.io_queue_depth)
             : cfg.io_queue_depth);
}

/// Whether a shard at `depth` engages a ring: the build carries the ring
/// path, the kernel accepts io_uring_setup (probed once per process), and
/// overlap is actually requested (depth > 1); depth 1 keeps the pread path
/// byte for byte.
bool RingWouldEngage(uint32_t depth) {
  return depth > 1 && fileio::IoRingSupported();
}

/// Resolves the shard's effective queue depth and (re)builds its ring and
/// window storage. A no-op when nothing changed, so arbiter-driven reconfigs
/// stay cheap. `ResolvedQueueDepth` and `RingWouldEngage` also answer
/// queue-depth/backend queries for shards that have no live ring state yet
/// (cold) or released it (hibernated).
void SetupShardRing(FileShard& sh, const FileEngineConfig& cfg) {
  const uint32_t depth = ResolvedQueueDepth(sh.options, cfg);
  const bool engage = RingWouldEngage(depth);
  if (depth == sh.io_depth && engage == (sh.ring != nullptr)) return;
  sh.io_depth = depth;
  sh.ring.reset();
  sh.window = {};
  if (!engage) return;
  auto ring = std::make_unique<fileio::IoRing>(depth);
  if (!ring->ok()) return;  // per-shard setup failure: pread fallback
  sh.ring = std::move(ring);
  sh.window.slot_fetch.resize(depth);
  sh.window.slot_bytes.resize(depth);
  sh.window.free_slots.reserve(depth);
  sh.window.comps.reserve(depth);
}

/// Opens empty logs for a shard: stale files from an earlier engine in a
/// reused directory must not be appended to.
void OpenFreshLogs(FileShard& sh, const FileEngineConfig& cfg,
                   fileio::WalSyncPolicy wal_sync) {
  fileio::FileOps* ops = cfg.file_ops;
  ops->Unlink(fileio::Manifest::PathFor(sh.dir));
  ops->Unlink(fileio::Wal::PathFor(sh.dir));
  sh.manifest =
      std::make_unique<fileio::Manifest>(ops, sh.dir, DurableSync(cfg));
  sh.wal = std::make_unique<fileio::Wal>(ops, sh.dir, wal_sync);
}

/// Rewrites the WAL to hold exactly the memtable, as one record of the
/// live epoch, and commits it.
void RewriteWal(FileShard& sh) {
  sh.wal->Reset();
  const std::vector<lsm::Entry> entries = sh.memtable.Sorted();
  sh.wal->Append(sh.wal_epoch, entries.data(), entries.size());
  sh.wal->Commit();
}

/// Rebuilds a shard live from its image: `st`, the replayed manifest, and
/// `wal`, its read WAL. Reopens every run from its logged metadata,
/// replays the WAL tail of the shard's epoch into the memtable, and
/// reopens (repairing) both logs. Fences come from the manifest and each
/// filter from its CRC-checked `.blm` file, so no block is read unless a
/// filter file is damaged and must be rebuilt. The I/O is uncounted
/// (clocks start at zero, like any fresh engine). The shard's dir, options
/// and WAL epoch must already be set.
void RebuildLiveShard(FileShard& sh, const FileEngineConfig& cfg,
                      bool direct_io, fileio::RecoveredShardState* st,
                      const fileio::WalReplay& wal) {
  sh.disk_entries = 0;
  sh.block_align = direct_io ? cfg.block_bytes : 1;
  sh.levels.resize(st->levels.size());
  for (size_t l = 0; l < st->levels.size(); ++l) {
    sh.levels[l].reserve(st->levels[l].size());
    for (fileio::ManifestRunMeta& meta : st->levels[l]) {
      FileRunPtr run = OpenRun(sh, cfg, direct_io, std::move(meta));
      sh.disk_entries += run->num_entries;
      sh.levels[l].push_back(std::move(run));
    }
  }

  // WAL tail replay: only records stamped with the recovered epoch are
  // live (older ones were flushed into a run before the epoch bumped);
  // within the epoch, later records win, same as the memtable they log.
  bool wal_clean = !wal.tail_torn;
  for (const fileio::WalReplayRecord& rec : wal.records) {
    if (rec.epoch != sh.wal_epoch) {
      wal_clean = false;
      continue;
    }
    for (const lsm::Entry& e : rec.entries) {
      sh.memtable.Put(e.key, e.value, e.tombstone);
    }
  }

  // Repair the logs: truncate torn manifest tails. A WAL that holds only
  // whole records of the live epoch replays to this memtable as it stands,
  // so the writer resumes appending at its end; otherwise it is rewritten
  // to exactly the recovered memtable (dropping dead epochs and torn
  // bytes).
  sh.manifest = std::make_unique<fileio::Manifest>(
      cfg.file_ops, sh.dir, DurableSync(cfg), st->num_records);
  if (st->tail_torn) sh.manifest->TruncateTail(st->valid_bytes);
  sh.wal = std::make_unique<fileio::Wal>(cfg.file_ops, sh.dir, cfg.wal_sync);
  if (!wal_clean) RewriteWal(sh);

  sh.cache.Resize(sh.options.block_cache_bytes / cfg.block_bytes);
  sh.io_depth = 0;  // force SetupShardRing to resolve from scratch
  SetupShardRing(sh, cfg);
}

/// Stops the wake of a non-durable shard whose image is not whole: a
/// manifest that is invalid, torn or not hibernated, a torn WAL, or a WAL
/// whose live entries differ from the count `kHibernate` logged. Nothing
/// else holds the shard's buffered writes, so it cannot wake without
/// losing or altering them.
void CheckWholeImage(const FileShard& sh, bool manifest_valid,
                     const fileio::RecoveredShardState& st,
                     const fileio::WalReplay& wal) {
  uint64_t logged = 0;
  for (const fileio::WalReplayRecord& rec : wal.records) {
    if (rec.epoch == sh.wal_epoch) logged += rec.entries.size();
  }
  if (!manifest_valid || st.tail_torn || !st.hibernated || wal.tail_torn ||
      logged != st.hib_memtable_entries) {
    std::fprintf(stderr,
                 "FileEngine: the hibernation manifest or WAL of '%s' is "
                 "damaged; the shard cannot wake\n",
                 sh.dir.c_str());
    std::abort();
  }
}

/// Refills a woken shard's block cache from `keys` (most recent first) up
/// to its capacity, which may have shrunk while the shard slept, inserting
/// least-recent first so promotion lands every key in its original
/// recency slot. Uncounted reads: the cache held these bytes when the
/// shard went to sleep.
void RefillCache(FileShard& sh, const FileEngineConfig& cfg,
                 const std::vector<uint64_t>& keys) {
  std::unordered_map<uint64_t, const FileRun*> run_by_id;
  for (const auto& level : sh.levels) {
    for (const FileRunPtr& run : level) run_by_id.emplace(run->id, run.get());
  }
  const size_t restore =
      std::min<size_t>(keys.size(), sh.cache.capacity_blocks());
  for (size_t i = restore; i-- > 0;) {
    const auto [run_id, blk] = lsm::BlockCache::SplitKey(keys[i]);
    const auto rit = run_by_id.find(run_id);
    CAMAL_CHECK(rit != run_by_id.end());
    sh.cache.Insert(keys[i], ReadBlock(sh, cfg, *rit->second, blk));
  }
}

/// Executes a maximal run of consecutive `kGet` ops from one shard's
/// submission list with reads overlapped on the shard's io_uring ring (up
/// to `sh.io_depth` in flight), reproducing the serial pread path's
/// logical results and I/O accounting exactly.
///
/// Why two phases: a Get's *logical* block-access sequence — which runs
/// pass the range/Bloom checks, which fence block each probes, where the
/// probe chain stops — depends only on the immutable file set and the
/// key, never on cache state (a cached block holds the same bytes as the
/// file). The cache only decides which accesses are charged as reads and
/// how the LRU evolves, and those decisions depend on strict op order.
/// So:
///
///   Phase A (discovery) runs every op's lookup over the blocks at hand:
///   the window's content table, then the cache through non-promoting
///   `Peek`. An op whose next block is neither parks on it, and the block
///   is fetched on the ring (once per window); its completion reruns the
///   parked ops.
///   Phase B (replay) runs the pread path's own Get for each op in
///   submission order, serving its cache misses from the content table —
///   producing exactly the serial path's per-op `ios`, `block_reads`, and
///   final LRU state.
///
/// Physical reads can only decrease (in-window duplicate fetches dedup);
/// every counter the engine reports is bit-identical to the pread path.
/// Window wall time is attributed evenly across the window's ops (real
/// latencies are allowed to vary; counters are the determinism contract).
void ExecuteGetWindow(FileShard& sh, const FileEngineConfig& cfg, const Op* ops,
                      const size_t* op_idx, size_t window, OpResult* results) {
  using Fetch = fileio::GetWindow::Fetch;
  const uint64_t epb = EntriesPerBlock(cfg.block_bytes);
  const uint32_t depth = sh.io_depth;
  const double t0 = Now(cfg);

  // The window's content table (`w.fetches`, keyed by `w.by_key`) holds
  // every block a lookup reached: cache peeks, and fetches queued, in
  // flight or completed. Replay serves its misses from it.
  fileio::GetWindow& w = sh.window;
  w.next_parked.assign(window, -1);
  w.free_slots.clear();
  for (uint32_t i = 0; i < depth; ++i) w.free_slots.push_back(i);
  uint32_t inflight = 0;

  // Runs op `si`'s lookup as far as the blocks at hand go, parking it on
  // the first block that is missing.
  auto discover = [&](size_t si) {
    LookupKey(sh, epb, ops[op_idx[si]].key, nullptr,
              [&](const FileRun& run, size_t blk) -> lsm::BlockPtr {
                const uint64_t key = lsm::BlockCache::MakeKey(run.id, blk);
                uint32_t f = w.by_key.Find(key);
                if (f == lsm::KeyIndex::kNone) {
                  f = static_cast<uint32_t>(w.fetches.size());
                  w.fetches.push_back(Fetch{key, &run, blk, nullptr, -1, -1});
                  w.by_key.Insert(key, f);
                  if (!sh.cache.Peek(key, &w.fetches[f].bytes)) {
                    w.backlog.push_back(f);
                  }
                }
                Fetch& fetch = w.fetches[f];
                if (fetch.bytes != nullptr) return fetch.bytes;
                const auto op = static_cast<int64_t>(si);
                w.next_parked[si] = -1;
                if (fetch.last_parked < 0) {
                  fetch.first_parked = op;
                } else {
                  w.next_parked[static_cast<size_t>(fetch.last_parked)] = op;
                }
                fetch.last_parked = op;
                return nullptr;
              });
  };

  // Moves backlog entries into free ring slots, each reading into a
  // recycled or new block buffer, and submits them.
  auto pump = [&] {
    while (inflight < depth && w.backlog_head < w.backlog.size()) {
      const uint32_t slot = w.free_slots.back();
      w.free_slots.pop_back();
      const uint32_t f = w.backlog[w.backlog_head++];
      const Fetch& fetch = w.fetches[f];
      w.slot_fetch[slot] = f;
      w.slot_bytes[slot] = TakeBlock(sh, cfg);
      const bool prepped = sh.ring->PrepRead(
          fetch.run->fd, w.slot_bytes[slot]->data(),
          static_cast<unsigned>(cfg.block_bytes), fetch.blk * cfg.block_bytes,
          slot);
      CAMAL_CHECK(prepped);
      ++inflight;
    }
    const int submitted = sh.ring->Submit();
    SysCheck(submitted >= 0, "io_uring_enter(submit)", sh.dir);
  };

  // Phase A: discover every op in submission order, then drain
  // completions, rerunning parked ops (which may queue further fetches)
  // until every lookup has all its blocks at hand.
  for (size_t si = 0; si < window; ++si) discover(si);
  pump();
  while (inflight > 0) {
    w.comps.clear();
    const int n = sh.ring->WaitCompletions(1, &w.comps);
    SysCheck(n > 0, "io_uring_enter(wait)", sh.dir);
    for (const fileio::IoRing::Completion& c : w.comps) {
      const auto slot = static_cast<uint32_t>(c.user_data);
      const uint32_t f = w.slot_fetch[slot];
      SysCheck(c.result == static_cast<int32_t>(cfg.block_bytes), "ring read",
               w.fetches[f].run->path);
      w.fetches[f].bytes = std::move(w.slot_bytes[slot]);
      w.free_slots.push_back(slot);
      --inflight;
      int64_t si = w.fetches[f].first_parked;
      w.fetches[f].first_parked = w.fetches[f].last_parked = -1;
      while (si >= 0) {
        const int64_t next = w.next_parked[static_cast<size_t>(si)];
        discover(static_cast<size_t>(si));
        si = next;
      }
    }
    pump();
  }

  // Phase B: the serial Get, op by op, charging reads and evolving the
  // LRU exactly as the pread path would have.
  for (size_t si = 0; si < window; ++si) {
    const uint64_t reads_before = sh.clock.block_reads;
    OpResult r;
    r.found = DoGet(sh, cfg, ops[op_idx[si]].key, nullptr, &w);
    r.ios = sh.clock.block_reads - reads_before;
    results[op_idx[si]] = r;
  }
  // Empty the window storage; a buffer only it held is free for reuse.
  for (const Fetch& f : w.fetches) w.by_key.Erase(f.key);
  w.fetches.clear();
  w.backlog.clear();
  w.backlog_head = 0;
  const double dt = Now(cfg) - t0;
  sh.clock.elapsed_ns += dt;
  const double per_op = dt / static_cast<double>(window);
  for (size_t si = 0; si < window; ++si) {
    results[op_idx[si]].latency_ns = per_op;
  }
}

/// One source of a shard-local range scan: the memtable, walked in place,
/// when `run` is null; else one run, read block by block through the
/// cache. A run cursor reads the block under its position on the first
/// `head()` there, so a scan reads no block past the last entry it needs,
/// and it decodes each position once. A merge cursor for
/// `lsm::MergeCursors`.
class ScanCursor {
 public:
  /// The memtable from its first entry >= `start_key`.
  ScanCursor(const FileShard& sh, uint64_t start_key)
      : mem_(sh.memtable.LowerBound(start_key)) {}

  /// `run` from its first entry >= `start_key`. A start inside the run's
  /// key range reads the block the fence search names to find it.
  ScanCursor(FileShard& sh, const FileEngineConfig& cfg, const FileRun& run,
             uint64_t start_key)
      : sh_(&sh),
        cfg_(&cfg),
        run_(&run),
        epb_(EntriesPerBlock(cfg.block_bytes)) {
    if (start_key <= run.min_key) return;
    if (start_key > run.max_key) {
      idx_ = run.num_entries;
      return;
    }
    const size_t blk = FenceBlock(run, start_key);
    Load(blk);
    // Past the block's last record, the start is the next block's first
    // entry: the fence search guarantees its key is >= start_key.
    idx_ = blk * epb_ + SeekInBlock(block_, RecordsIn(run, blk, epb_),
                                    start_key);
  }

  bool done() const {
    return run_ == nullptr ? mem_.done() : idx_ == run_->num_entries;
  }

  const lsm::Entry& head() const {
    if (run_ == nullptr) return mem_.head();
    if (!decoded_) {
      if (idx_ / epb_ != block_idx_) Load(idx_ / epb_);
      head_ = ToEntry(BlockRecords(*block_)[idx_ % epb_]);
      decoded_ = true;
    }
    return head_;
  }

  void advance() {
    if (run_ == nullptr) {
      mem_.advance();
    } else {
      ++idx_;
      decoded_ = false;
    }
  }

 private:
  void Load(uint64_t blk) const {
    block_ = FetchBlock(*sh_, *cfg_, *run_, blk);
    block_idx_ = blk;
  }

  FileShard* sh_ = nullptr;
  const FileEngineConfig* cfg_ = nullptr;
  const FileRun* run_ = nullptr;
  uint64_t epb_ = 1;
  lsm::Memtable::Cursor mem_;
  uint64_t idx_ = 0;  // entry index of the head within the run
  // The block holding the head, shared with the cache (eviction-safe),
  // and the head decoded from it.
  mutable lsm::BlockPtr block_;
  mutable uint64_t block_idx_ = ~uint64_t{0};  // none yet
  mutable lsm::Entry head_;
  mutable bool decoded_ = false;
};

/// Shard-local range scan: merges the memtable and every run, newest
/// first (newest wins, tombstones suppress), appending up to
/// `max_entries` live entries to `out`. Block fetches are cache-aware
/// real reads.
size_t DoScanShard(FileShard& sh, const FileEngineConfig& cfg,
                   uint64_t start_key, size_t max_entries,
                   std::vector<lsm::Entry>* out) {
  if (max_entries == 0) return 0;
  // The memtable is the newest source, walked over its whole tail:
  // tombstones in it can shadow run entries arbitrarily far into the
  // scan. Then come the runs, levels top down and newest first.
  std::vector<ScanCursor> cursors;
  cursors.emplace_back(sh, start_key);
  for (const auto& level : sh.levels) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      cursors.emplace_back(sh, cfg, **rit, start_key);
    }
  }
  size_t added = 0;
  lsm::MergeCursors(cursors, /*drop_tombstones=*/true,
                    [&](const lsm::Entry& e) {
                      out->push_back(e);
                      return ++added < max_entries;
                    });
  return added;
}

/// Per-level (run count, entry count) of a shard: live, or as it was frozen
/// at hibernation.
std::vector<std::pair<uint64_t, uint64_t>> ShapeOf(const FileShard& sh,
                                                   ShardState state) {
  return state == ShardState::kHibernated ? sh.hib_level_shape
                                          : LevelShape(sh);
}

}  // namespace

// ----------------------------------------------------- construction/teardown

uint64_t FileEngine::NextUniqueId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

FileEngine::FileEngine(size_t num_shards, const lsm::Options& total_options,
                       const FileEngineConfig& config)
    : ShardSet(num_shards, total_options, config.lifecycle), config_(config) {
  CAMAL_CHECK(config_.block_bytes >= 512 &&
              (config_.block_bytes & (config_.block_bytes - 1)) == 0);
  // Normalize the durability knobs once: reopening implies the layer is
  // on, and a null seam resolves to raw syscalls so every mutation site
  // can call through `config_.file_ops` unconditionally.
  if (config_.reopen) config_.durable = true;
  if (config_.file_ops == nullptr) config_.file_ops = fileio::FileOps::Real();

  workdir_ = config_.workdir;
  if (workdir_.empty()) {
    workdir_ = (fs::temp_directory_path() /
                ("camal_file_engine_" + std::to_string(::getpid()) + "_" +
                 std::to_string(NextUniqueId())))
                   .string();
  }
  std::error_code ec;
  created_workdir_ = fs::create_directories(workdir_, ec);
  SysCheck(!ec, "create_directories", workdir_);

  // Probe the working directory's filesystem for O_DIRECT support once:
  // filesystems without it (tmpfs, some network/overlay mounts) refuse at
  // open(2) time, and the engine falls back to buffered I/O.
  if (config_.try_direct_io) {
    const std::string probe = workdir_ + "/.direct_probe";
    const int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_DIRECT, 0644);
    if (fd >= 0) {
      direct_io_ = true;
      ::close(fd);
    }
    ::unlink(probe.c_str());
  }

  // No slots yet: every shard is cold until recovered or touched.
  if (config_.reopen) RecoverShards();
  MaterializeIfEager();
}

FileEngine::~FileEngine() {
  // Clean close: anything still buffered in a WAL lands (and, per policy,
  // syncs) so `reopen=true` restores the exact logical state. Hibernated
  // shards committed theirs when they went to sleep.
  for (const auto& [s, e] : entries()) {
    if (config_.durable && e.slot->wal != nullptr) e.slot->wal->Commit();
    // Close every run fd before touching the directory tree.
    for (auto& level : e.slot->levels) level.clear();
  }
  if (config_.keep_files) return;
  std::error_code ec;
  if (created_workdir_) {
    fs::remove_all(workdir_, ec);
  } else {
    // The caller owned the directory before us: remove only our shard
    // subtrees, never sibling content. Cold shards never created theirs.
    for (const auto& [s, e] : entries()) fs::remove_all(e.slot->dir, ec);
  }
}

void FileEngine::RecoverShards() {
  // Every shard that ever materialized left a directory; everything else
  // stays cold (a cold shard is empty, which is exactly what the twin
  // engine that never crashed would report for it).
  std::vector<std::pair<size_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(workdir_)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("shard_", 0) != 0) continue;
    char* end = nullptr;
    const unsigned long long s = std::strtoull(name.c_str() + 6, &end, 10);
    if (end == nullptr || *end != '\0') continue;  // not ours
    // Reopened with a smaller shard count?
    CAMAL_CHECK(s < NumShards());
    found.emplace_back(static_cast<size_t>(s), entry.path().string());
  }
  // Deterministic recovery order (directory iteration order is not).
  std::sort(found.begin(), found.end());
  for (const auto& [s, dir] : found) RecoverShard(s, dir);
}

void FileEngine::RecoverShard(size_t s, const std::string& dir) {
  fileio::RecoveredShardState st;
  if (!fileio::RecoverManifest(fileio::Manifest::PathFor(dir), &st)) {
    // No replayable manifest (absent, empty, or corrupt from record 0):
    // nothing durable ever committed here, so the shard recovers to the
    // empty (cold) state and the leftovers go.
    std::error_code ec;
    fs::remove_all(dir, ec);
    return;
  }

  Slot sh(new FileShard());
  sh->options = st.options;
  sh->dir = dir;
  sh->wal_epoch = st.wal_epoch;
  sh->next_run_id = st.next_run_id;

  // Sweep orphans: files the durable state does not reference — run files
  // whose introducing record never committed, rotation tmp files.
  {
    std::set<std::string> keep = {"MANIFEST", "WAL"};
    for (const auto& level : st.levels) {
      for (const fileio::ManifestRunMeta& run : level) {
        const std::string stem = "run_" + std::to_string(run.id);
        keep.insert(stem + ".cam");
        keep.insert(stem + ".blm");
      }
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (keep.count(name) == 0) {
        config_.file_ops->Unlink(entry.path().string());
      }
    }
  }

  if (st.hibernated) {
    // Restored asleep: residuals only, no descriptors, no heap state — the
    // next touching op wakes it by replaying these logs again. A torn tail
    // goes now, so an options record logged while it sleeps lands behind
    // whole records.
    sh->hib_memtable_size = st.hib_memtable_entries;
    sh->hib_level_shape = st.hib_shape;
    for (const auto& [runs, entries] : st.hib_shape) {
      sh->disk_entries += entries;
    }
    if (st.tail_torn) {
      fileio::Manifest(config_.file_ops, dir, DurableSync(config_))
          .TruncateTail(st.valid_bytes);
    }
    Adopt(s, std::move(sh), ShardState::kHibernated);
    return;
  }

  RebuildLiveShard(*sh, config_, direct_io_, &st,
                   fileio::ReadWal(fileio::Wal::PathFor(dir)));
  MaybeRotateManifest(*sh, config_);
  Adopt(s, std::move(sh), ShardState::kMaterialized);
}

void FileEngine::CreateShard(size_t s, Slot& slot,
                             const lsm::Options& options) {
  slot.reset(new FileShard());
  FileShard& sh = *slot;
  sh.options = options;
  sh.dir = workdir_ + "/shard_" + std::to_string(s);
  std::error_code ec;
  fs::create_directories(sh.dir, ec);
  SysCheck(!ec, "create_directories", sh.dir);
  if (config_.durable) {
    // A fresh shard starts fresh logs (reopen=false deliberately ignores
    // an earlier engine's).
    OpenFreshLogs(sh, config_, config_.wal_sync);
    sh.manifest->LogInit(s, sh.options);
  }
  sh.cache.Resize(sh.options.block_cache_bytes / config_.block_bytes);
  sh.block_align = direct_io_ ? config_.block_bytes : 1;
  sh.io_depth = 0;  // force SetupShardRing to resolve from scratch
  SetupShardRing(sh, config_);
}

// The woken shard behaves bit-identically — same lookup outcomes, same
// charged reads, same LRU evolution — to one that never slept. The
// in-memory options stay authoritative: a non-durable shard reconfigured
// asleep logs nothing. A durable shard logs `kWake`; a non-durable one
// closes and deletes both logs again, so that while live it holds only
// run files.
void FileEngine::WakeShard(size_t /*s*/, Slot& slot) {
  FileShard& sh = *slot;
  const std::string manifest = fileio::Manifest::PathFor(sh.dir);
  const std::string wal_path = fileio::Wal::PathFor(sh.dir);
  fileio::RecoveredShardState st;
  const bool valid = fileio::RecoverManifest(manifest, &st);
  const fileio::WalReplay wal = fileio::ReadWal(wal_path);
  if (config_.durable) {
    CAMAL_CHECK(valid);
  } else {
    CheckWholeImage(sh, valid, st, wal);
  }
  RebuildLiveShard(sh, config_, direct_io_, &st, wal);
  if (config_.durable) {
    sh.manifest->LogWake();
    MaybeRotateManifest(sh, config_);
  } else {
    sh.manifest.reset();
    sh.wal.reset();
    config_.file_ops->Unlink(manifest);
    config_.file_ops->Unlink(wal_path);
  }
  RefillCache(sh, config_, st.hib_cache_keys);
  sh.hib_memtable_size = 0;
  sh.hib_level_shape.clear();
}

// The WAL holds the memtable, the manifest the run metadata, and the
// `kHibernate` record the memtable's entry count, the level shape and the
// cache's keys in recency order. A non-durable engine keeps no logs while
// a shard is live, so it writes the pair here, unsynced: a snapshot
// manifest and a one-record WAL. All of this I/O is uncounted —
// hibernation is a resource-management event, not workload cost — so
// every clock and counter stays bit-identical to an eager engine.
void FileEngine::FreezeShard(size_t /*s*/, Slot& slot) {
  FileShard& sh = *slot;
  if (!config_.durable) {
    OpenFreshLogs(sh, config_, fileio::WalSyncPolicy::kNone);
    sh.manifest->LogSnapshot(SnapshotShardState(sh));
    RewriteWal(sh);
  }
  // Buffered writes reach the WAL before the record that puts the shard
  // to sleep: a restart that finds `kHibernate` restores the shard asleep.
  sh.wal->Commit();
  sh.hib_level_shape = LevelShape(sh);
  sh.manifest->LogHibernate(sh.memtable.size(), sh.hib_level_shape,
                            sh.cache.Freeze().keys_mru_to_lru);
  // A hibernated shard holds no descriptors, heap state or cache contents
  // (freezing emptied the cache); the residuals answer size and
  // transition queries while it sleeps.
  sh.manifest.reset();
  sh.wal.reset();
  sh.hib_memtable_size = sh.memtable.size();
  sh.memtable = lsm::Memtable();
  sh.levels.clear();  // closes every run fd
  sh.spare_blocks = {};
  sh.ring.reset();
  sh.window = {};
  sh.io_depth = 1;
}

// --------------------------------------------------------------- shard work

void FileEngine::ServeList(Slot& slot, ShardList& list) {
  FileShard& sh = *slot;
  const std::vector<size_t>& indices = list.indices;
  for (size_t li = 0; li < indices.size();) {
    const size_t i = indices[li];
    const Op& op = list.ops[i];
    // Ring path: a maximal run of consecutive gets becomes one overlapped
    // submission window. Puts/deletes (may flush or compact) and scans
    // (content-dependent cursors) stay synchronous barriers, executed
    // exactly as on the pread path.
    if (sh.ring != nullptr && op.kind == OpKind::kGet) {
      size_t end = li + 1;
      while (end < indices.size() &&
             list.ops[indices[end]].kind == OpKind::kGet) {
        ++end;
      }
      ExecuteGetWindow(sh, config_, list.ops, indices.data() + li, end - li,
                       list.results);
      li = end;
      continue;
    }
    ++li;
    if (op.kind == OpKind::kScan) {
      ServeScan(slot, list, i);
      continue;
    }
    const uint64_t ios_before = sh.clock.block_reads + sh.clock.block_writes;
    const double t0 = Now(config_);
    OpResult r;
    if (op.kind == OpKind::kGet) {
      r.found = DoGet(sh, config_, op.key, nullptr);
    } else {
      const bool tombstone = op.kind == OpKind::kDelete;
      DoPut(sh, config_, direct_io_, op.key, tombstone ? 0 : op.value,
            tombstone);
    }
    const double dt = Now(config_) - t0;
    r.latency_ns = dt;
    r.ios = sh.clock.block_reads + sh.clock.block_writes - ios_before;
    sh.clock.elapsed_ns += dt;
    list.results[i] = r;
  }
  // Group commit: the shard's whole batch of logged writes lands in one
  // pwrite (+ one fsync under kBatch). Untimed — durability overhead is
  // measured by bench_recovery, not charged to op latencies.
  if (sh.wal != nullptr) sh.wal->Commit();
}

void FileEngine::WriteSlot(Slot& slot, uint64_t key, uint64_t value,
                           bool tombstone) {
  FileShard& sh = *slot;
  const double t0 = Now(config_);
  DoPut(sh, config_, direct_io_, key, value, tombstone);
  if (sh.wal != nullptr) sh.wal->Commit();  // single-op "batch"
  sh.clock.elapsed_ns += Now(config_) - t0;
}

bool FileEngine::GetSlot(Slot& slot, uint64_t key, uint64_t* value) {
  FileShard& sh = *slot;
  const double t0 = Now(config_);
  const bool found = DoGet(sh, config_, key, value);
  sh.clock.elapsed_ns += Now(config_) - t0;
  return found;
}

size_t FileEngine::ScanSlot(Slot& slot, uint64_t start_key,
                            size_t max_entries, std::vector<lsm::Entry>* out) {
  FileShard& sh = *slot;
  const double t0 = Now(config_);
  const size_t n = DoScanShard(sh, config_, start_key, max_entries, out);
  sh.clock.elapsed_ns += Now(config_) - t0;
  return n;
}

void FileEngine::FlushSlot(Slot& slot) {
  FileShard& sh = *slot;
  const double t0 = Now(config_);
  FlushShard(sh, config_, direct_io_);
  sh.clock.elapsed_ns += Now(config_) - t0;
}

void FileEngine::ReconfigureSlot(size_t s, Entry& e,
                                 const lsm::Options& options) {
  FileShard& sh = *e.slot;
  CAMAL_CHECK(options.entry_bytes == sh.options.entry_bytes);
  if (e.state == ShardState::kHibernated) {
    // In-place update while asleep, unless the buffered writes now
    // overflow the new capacity — then the shard must wake to flush,
    // exactly as the live path would.
    sh.options = options;
    if (sh.hib_memtable_size < options.BufferEntries()) {
      if (config_.durable) {
        // The shard's writers are closed while it sleeps; a short-lived
        // one records the change so a restart wakes into the new config.
        fileio::Manifest(config_.file_ops, sh.dir, DurableSync(config_))
            .LogOptions(options);
      }
      return;
    }
    Activate(s);
  }
  const double t0 = Now(config_);
  sh.options = options;
  if (sh.manifest != nullptr) sh.manifest->LogOptions(options);
  // The cache resizes immediately; a memtable over the new buffer
  // capacity flushes now; run files converge lazily through subsequent
  // flush/compaction cascades (InTransition reports the interim).
  sh.cache.Resize(options.block_cache_bytes / config_.block_bytes);
  if (sh.memtable.size() >= sh.options.BufferEntries()) {
    FlushShard(sh, config_, direct_io_);
  }
  // A changed io_queue_depth rebuilds the shard's ring and slot buffers
  // (no-op otherwise). Counters stay identical at any depth, so the
  // tuner may retune this knob mid-run like any other.
  SetupShardRing(sh, config_);
  MaybeRotateManifest(sh, config_);
  sh.clock.elapsed_ns += Now(config_) - t0;
}

// ---------------------------------------------------------------- shard view

lsm::Options FileEngine::SlotOptions(const Entry& e) const {
  return e.slot->options;
}

EngineCounters FileEngine::SlotCounters(const Entry& e) const {
  return e.slot->counters;
}

sim::DeviceSnapshot FileEngine::SlotCost(const Slot& slot) const {
  return slot->clock.Snapshot();
}

uint64_t FileEngine::SlotEntries(const Entry& e) const {
  const FileShard& sh = *e.slot;
  return sh.disk_entries + (e.state == ShardState::kHibernated
                                ? sh.hib_memtable_size
                                : sh.memtable.size());
}

uint64_t FileEngine::SlotDiskEntries(const Entry& e) const {
  return e.slot->disk_entries;
}

bool FileEngine::SlotInTransition(const Entry& e) const {
  // A hibernated shard's frozen shape is judged against its (possibly
  // updated-in-place) options, exactly as the live shape is.
  const auto shape = ShapeOf(*e.slot, e.state);
  for (size_t l = 0; l < shape.size(); ++l) {
    if (e.slot->options.LevelOverflows(l, shape[l].first, shape[l].second)) {
      return true;
    }
  }
  return false;
}

uint32_t FileEngine::ShardQueueDepth(size_t s) const {
  const Entry* e = Find(s);
  if (e != nullptr && e->state == ShardState::kMaterialized) {
    return e->slot->ring != nullptr ? e->slot->io_depth : 1;
  }
  // Cold/hibernated: predict the depth materialization will resolve.
  const lsm::Options& options =
      e != nullptr ? e->slot->options : EffectiveOptions(s);
  const uint32_t depth = ResolvedQueueDepth(options, config_);
  return RingWouldEngage(depth) ? depth : 1;
}

const char* FileEngine::io_backend() const {
  // A live ring answers directly. Otherwise predict whether a hibernated
  // or cold shard would engage one on materialization: such shards run
  // either their recorded options or the engine default, so checking
  // those covers every case without an O(total shards) walk.
  auto engages = [&](const lsm::Options& options) {
    return RingWouldEngage(ResolvedQueueDepth(options, config_));
  };
  for (const auto& [s, e] : entries()) {
    if (e.state == ShardState::kMaterialized ? e.slot->ring != nullptr
                                             : engages(e.slot->options)) {
      return "uring";
    }
  }
  return AnyColdOptions(engages) ? "uring" : "pread";
}

size_t FileEngine::ShardRunCount(size_t s) const {
  const Entry* e = Find(s);
  if (e == nullptr) return 0;
  size_t runs = 0;
  for (const auto& [count, entries] : ShapeOf(*e->slot, e->state)) {
    runs += count;
  }
  return runs;
}

}  // namespace camal::engine
