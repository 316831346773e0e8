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
#include <deque>
#include <filesystem>
#include <list>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/io_ring.h"
#include "engine/manifest.h"
#include "lsm/bloom.h"
#include "lsm/compaction.h"
#include "util/crc32c.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace camal::engine {

// Implementation-detail types live in a named namespace (not an anonymous
// one) because they appear as members of FileEngine::Shard, which has
// external linkage.
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

/// Block-aligned heap buffer (O_DIRECT wants aligned reads and writes; the
/// same buffers serve the buffered fallback). Allocated through the aligned
/// `operator new`, so heap accounting that replaces it sees these too.
struct AlignedDeleter {
  size_t align = 0;
  void operator()(char* p) const {
    ::operator delete[](p, std::align_val_t(align));
  }
};
using AlignedBuf = std::unique_ptr<char[], AlignedDeleter>;

inline AlignedBuf AllocAligned(size_t bytes, size_t align) {
  return AlignedBuf(
      static_cast<char*>(::operator new[](bytes, std::align_val_t(align))),
      AlignedDeleter{align});
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

/// An immutable cached block. Shared ownership lets cache hits hand the
/// caller a reference instead of a copy (runs are append-only, so block
/// bytes never change once read), and keeps a block a scan cursor holds
/// alive across an eviction.
using BlockPtr = std::shared_ptr<const std::vector<char>>;

/// LRU block cache that carries block *contents* (unlike the simulated
/// `lsm::BlockCache`, which only tracks hit/miss — a real backend must
/// serve cached bytes, not just skip a charge).
class ContentCache {
 public:
  explicit ContentCache(uint64_t capacity_blocks)
      : capacity_(capacity_blocks) {}

  /// Returns the cached block (promoted to MRU) or nullptr.
  BlockPtr Lookup(uint64_t key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  /// Returns the cached block without promoting it. The ring path's
  /// discovery pass peeks so that resolving access sequences never
  /// perturbs the LRU order its replay pass reproduces.
  BlockPtr Peek(uint64_t key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second->second;
  }

  void Insert(uint64_t key, BlockPtr content) {
    if (capacity_ == 0) return;
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      it->second->second = std::move(content);
      return;
    }
    lru_.emplace_front(key, std::move(content));
    map_[key] = lru_.begin();
    EvictToCapacity();
  }

  void Resize(uint64_t capacity_blocks) {
    capacity_ = capacity_blocks;
    EvictToCapacity();
  }

  /// Cache keys in recency order, most-recent first (hibernation
  /// snapshots persist this so rehydration rebuilds the exact LRU state).
  std::vector<uint64_t> KeysMruToLru() const {
    std::vector<uint64_t> keys;
    keys.reserve(map_.size());
    for (const auto& [key, content] : lru_) {
      (void)content;
      keys.push_back(key);
    }
    return keys;
  }

 private:
  void EvictToCapacity() {
    while (map_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

  uint64_t capacity_;
  std::list<std::pair<uint64_t, BlockPtr>> lru_;
  std::unordered_map<uint64_t,
                     std::list<std::pair<uint64_t, BlockPtr>>::iterator>
      map_;
};

inline uint64_t CacheKey(uint64_t run_id, uint64_t block_idx) {
  return (run_id << 22) | (block_idx & ((1ULL << 22) - 1));
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

inline const DiskEntry* BlockRecords(const std::vector<char>& block) {
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

}  // namespace fileio

/// One shard: a file set (levels of runs) plus memtable, Bloom filters,
/// content cache, live options, and its own cost clock. All state is
/// shard-local so per-shard submission lists can run concurrently.
struct FileEngine::Shard {
  lsm::Options options;
  std::string dir;
  std::map<uint64_t, lsm::Entry> memtable;
  /// levels[l] holds runs oldest-to-newest (read newest first).
  std::vector<std::vector<fileio::FileRunPtr>> levels;
  fileio::ContentCache cache{0};
  fileio::Clock clock;
  EngineCounters counters;
  uint64_t next_run_id = 1;
  uint64_t disk_entries = 0;
  /// pread target; block-aligned for O_DIRECT.
  fileio::AlignedBuf scratch;
  /// Ring path state (null/empty on the pread path): the shard-owned
  /// submission ring, one aligned read buffer per queue slot, and the
  /// resolved queue depth (shard options override the engine default).
  std::unique_ptr<fileio::IoRing> ring;
  std::vector<fileio::AlignedBuf> ring_bufs;
  uint32_t io_depth = 1;

  /// Durability state (null with `FileEngineConfig::durable` off — the
  /// layer then has zero hot-path presence). The manifest logs every
  /// structural transition of the file set; the WAL logs memtable
  /// contents, stamped with `wal_epoch`. A flush bumps the epoch (in the
  /// manifest's kFlush record, the durable marker that older WAL entries
  /// now live in a run) and resets the WAL.
  std::unique_ptr<fileio::Manifest> manifest;
  std::unique_ptr<fileio::Wal> wal;
  uint64_t wal_epoch = 0;
  /// Manifest record count carried across hibernation (the writer and its
  /// fd close while asleep).
  size_t manifest_records = 0;

  /// Hibernation state. While hibernated, the heavy members above
  /// (memtable, levels and their fds, cache contents, scratch, ring) are
  /// released into the sidecar file `dir + "/hibernate.snap"`; the cheap
  /// residuals below keep the observability surface (entries, run counts,
  /// transition status) answerable without rehydrating.
  uint64_t hib_memtable_size = 0;
  /// Per-level (run count, entry count) at hibernation time.
  std::vector<std::pair<uint64_t, uint64_t>> hib_level_shape;
};

namespace {

using fileio::AllocAligned;
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

/// Cache-aware fetch of block `blk` of `run`. A hit hands back the cached
/// buffer (zero copies); a miss preads into the shard scratch buffer and
/// materializes the bytes into exactly one heap buffer, shared between the
/// caller and the cache.
fileio::BlockPtr FetchBlock(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                            const FileRun& run, size_t blk) {
  const uint64_t key = fileio::CacheKey(run.id, blk);
  if (fileio::BlockPtr hit = sh.cache.Lookup(key)) return hit;
  const ssize_t n = ::pread(run.fd, sh.scratch.get(), cfg.block_bytes,
                            static_cast<off_t>(blk * cfg.block_bytes));
  SysCheck(n == static_cast<ssize_t>(cfg.block_bytes), "pread", run.path);
  auto block = std::make_shared<std::vector<char>>(
      sh.scratch.get(), sh.scratch.get() + cfg.block_bytes);
  ++sh.clock.block_reads;
  sh.cache.Insert(key, block);
  return block;
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

/// Creates (or truncates) `path` and writes `size` bytes into it, fsyncing
/// under `DurableSync` before the close.
void WriteFile(const FileEngineConfig& cfg, const std::string& path,
               const char* data, size_t size) {
  const int fd = CreateForWrite(cfg, path, /*direct=*/false);
  PWriteAll(cfg, fd, data, size, 0, path);
  if (DurableSync(cfg)) SysCheck(cfg.file_ops->Fsync(fd) == 0, "fsync", path);
  cfg.file_ops->Close(fd);
}

void WriteFilterFile(const FileEngineConfig& cfg, const std::string& path,
                     const lsm::BloomFilter& filter) {
  WriteFile(cfg, path, reinterpret_cast<const char*>(filter.words().data()),
            filter.words().size() * sizeof(uint64_t));
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
/// to the filter the record describes. Reads through the shard scratch
/// buffer and is uncounted, like the rest of recovery.
lsm::BloomFilter RebuildFilter(FileEngine::Shard& sh,
                               const FileEngineConfig& cfg, const FileRun& run,
                               const fileio::ManifestRunMeta& meta) {
  lsm::BloomFilter filter(run.num_entries, meta.bloom_bpk);
  const uint64_t epb = EntriesPerBlock(cfg.block_bytes);
  for (size_t blk = 0; blk < run.num_blocks(); ++blk) {
    SysCheck(fileio::PreadAll(run.fd, sh.scratch.get(), cfg.block_bytes,
                              blk * cfg.block_bytes),
             "pread(filter rebuild)", run.path);
    const uint64_t count = std::min(epb, run.num_entries - blk * epb);
    const auto* records = reinterpret_cast<const DiskEntry*>(sh.scratch.get());
    for (uint64_t i = 0; i < count; ++i) filter.Add(records[i].key);
  }
  return filter;
}

/// Reopens a run from its logged metadata: opens the run file for reads
/// and loads its filter file. A missing or damaged filter file is rebuilt
/// from the run's keys and rewritten, so it never fails recovery; a
/// rebuilt filter that disagrees with the logged CRC means the run file
/// itself no longer matches the manifest, and aborts.
FileRunPtr OpenRun(FileEngine::Shard& sh, const FileEngineConfig& cfg,
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
    run->filter = RebuildFilter(sh, cfg, *run, meta);
    CAMAL_CHECK(run->filter.memory_bits() == meta.bloom_bits &&
                fileio::FilterCrc(run->filter) == meta.bloom_crc);
    WriteFilterFile(cfg, filter_path, run->filter);
  }
  return run;
}

/// The live shard's full structural state, as a manifest rotation
/// snapshot.
fileio::RecoveredShardState SnapshotShardState(const FileEngine::Shard& sh) {
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
void MaybeRotateManifest(FileEngine::Shard& sh, const FileEngineConfig& cfg) {
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
std::vector<std::pair<uint64_t, uint64_t>> LevelShape(
    const FileEngine::Shard& sh) {
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
double BloomBpk(const FileEngine::Shard& sh, uint64_t incoming) {
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
  RunWriter(FileEngine::Shard& sh, const FileEngineConfig& cfg,
            bool direct_io, uint64_t max_entries)
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
      block_ = chunk_.get() + chunk_blocks_++ * cfg_.block_bytes;
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
    chunk_ = AllocAligned(chunk_capacity_ * cfg_.block_bytes, cfg_.block_bytes);
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
    PWriteAll(cfg_, fd_, chunk_.get(), bytes, written_bytes_, run_->path);
    written_bytes_ += bytes;
    chunk_blocks_ = 0;
  }

  FileEngine::Shard& sh_;
  const FileEngineConfig& cfg_;
  const bool direct_io_;
  const uint64_t max_entries_;
  const uint64_t epb_;
  FileRunPtr run_;
  int fd_ = -1;
  fileio::AlignedBuf chunk_;
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
  CompactionCursor(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                   const FileRun& run)
      : sh_(&sh),
        cfg_(&cfg),
        run_(&run),
        epb_(EntriesPerBlock(cfg.block_bytes)),
        buf_(AllocAligned(
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
    SysCheck(fileio::PreadAll(run_->fd, buf_.get(),
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
                buf_.get() + block_ * cfg_->block_bytes +
                    slot_ * sizeof(DiskEntry),
                sizeof(record));
    head_ = ToEntry(record);
  }

  FileEngine::Shard* sh_;
  const FileEngineConfig* cfg_;
  const FileRun* run_;
  uint64_t epb_;
  fileio::AlignedBuf buf_;
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
void MergeLevelDown(FileEngine::Shard& sh, const FileEngineConfig& cfg,
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
                    [&writer](const lsm::Entry& e) { writer.Add(e); });
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
void Normalize(FileEngine::Shard& sh, const FileEngineConfig& cfg,
               bool direct_io) {
  for (size_t l = 0; l < sh.levels.size(); ++l) {
    while (sh.options.LevelOverflows(l, sh.levels[l].size(),
                                     LevelEntries(sh.levels[l]))) {
      MergeLevelDown(sh, cfg, direct_io, l);
    }
  }
}

/// Drains the memtable into a new level-0 run (no-op when empty). The
/// memtable feeds the run writer in place.
void FlushShard(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                bool direct_io) {
  if (sh.memtable.empty()) return;
  RunWriter writer(sh, cfg, direct_io, sh.memtable.size());
  for (const auto& [key, entry] : sh.memtable) {
    (void)key;
    writer.Add(entry);
  }
  sh.memtable.clear();
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

/// Untimed single-shard write (the public surface wraps these in the
/// shard clock; ExecuteOps times them per op).
void DoPut(FileEngine::Shard& sh, const FileEngineConfig& cfg, bool direct_io,
           uint64_t key, uint64_t value, bool tombstone) {
  if (sh.memtable.size() >= sh.options.BufferEntries()) {
    FlushShard(sh, cfg, direct_io);
  }
  const lsm::Entry e{key, value, tombstone};
  sh.memtable[key] = e;
  // Logged at the *current* epoch, buffered until the enclosing batch (or
  // single-op call) commits — group commit on batch boundaries.
  if (sh.wal != nullptr) sh.wal->Append(sh.wal_epoch, &e, 1);
}

bool DoGet(FileEngine::Shard& sh, const FileEngineConfig& cfg, uint64_t key,
           uint64_t* value) {
  auto it = sh.memtable.find(key);
  if (it != sh.memtable.end()) {
    if (it->second.tombstone) return false;
    if (value != nullptr) *value = it->second.value;
    return true;
  }
  const uint64_t epb = EntriesPerBlock(cfg.block_bytes);
  for (const auto& level : sh.levels) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      const FileRun& run = **rit;
      if (key < run.min_key || key > run.max_key) continue;
      if (!run.filter.MayContain(key)) continue;
      // Fence search: the block whose first key is the greatest <= key.
      const auto fit =
          std::upper_bound(run.fence.begin(), run.fence.end(), key);
      const size_t blk =
          static_cast<size_t>(std::distance(run.fence.begin(), fit)) - 1;
      const fileio::BlockPtr block = FetchBlock(sh, cfg, run, blk);
      const uint64_t begin = blk * epb;
      const uint64_t count = std::min(epb, run.num_entries - begin);
      const DiskEntry* records = BlockRecords(*block);
      const DiskEntry* end = records + count;
      const DiskEntry* found = std::lower_bound(
          records, end, key,
          [](const DiskEntry& d, uint64_t k) { return d.key < k; });
      if (found != end && found->key == key) {
        if (found->flags & kTombstoneFlag) return false;
        if (value != nullptr) *value = found->value;
        return true;
      }
      // Bloom false positive: the block read was paid in vain, exactly
      // like the simulated engine's kNotFoundAfterIo outcome.
    }
  }
  return false;
}

/// Resolves the shard's effective queue depth (shard options override the
/// engine default when nonzero) and (re)builds its ring + slot buffers.
/// The ring engages when the engine-level probe passed and either the
/// mode forces it (kUring) or overlap is actually requested (depth > 1);
/// kAuto at depth 1 keeps today's pread behavior byte for byte. A no-op
/// when nothing changed, so arbiter-driven reconfigs stay cheap.
void SetupShardRing(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                    bool engine_uring) {
  const uint32_t depth = std::max<uint32_t>(
      1, sh.options.io_queue_depth > 0
             ? static_cast<uint32_t>(sh.options.io_queue_depth)
             : cfg.io_queue_depth);
  const bool engage =
      engine_uring && (cfg.io_mode == IoMode::kUring || depth > 1);
  if (depth == sh.io_depth && engage == (sh.ring != nullptr)) return;
  sh.io_depth = depth;
  sh.ring.reset();
  sh.ring_bufs.clear();
  if (!engage) return;
  auto ring = std::make_unique<fileio::IoRing>(depth);
  if (!ring->ok()) return;  // per-shard setup failure: pread fallback
  sh.ring = std::move(ring);
  sh.ring_bufs.reserve(depth);
  for (uint32_t i = 0; i < depth; ++i) {
    sh.ring_bufs.push_back(AllocAligned(cfg.block_bytes, cfg.block_bytes));
  }
}

/// The queue depth `SetupShardRing` would resolve for `options` — used to
/// answer queue-depth/backend queries for shards that have no live ring
/// state yet (cold) or released it (hibernated).
uint32_t ResolvedQueueDepth(const lsm::Options& options,
                            const FileEngineConfig& cfg) {
  return std::max<uint32_t>(
      1, options.io_queue_depth > 0
             ? static_cast<uint32_t>(options.io_queue_depth)
             : cfg.io_queue_depth);
}

bool RingWouldEngage(uint32_t depth, const FileEngineConfig& cfg,
                     bool engine_uring) {
  return engine_uring && (cfg.io_mode == IoMode::kUring || depth > 1);
}

constexpr uint64_t kSnapMagic = 0x43414d5348494253ULL;  // "CAMSHIBS"

/// Persists a shard's in-memory structures into its sidecar file and
/// releases them. The sidecar carries what materialization cannot rebuild
/// from the run files without charging I/O: the memtable, per-run metadata
/// in the manifest's run encoding (fences, Bloom parameters and the CRC of
/// each run's filter file), and the cache's key recency order. The filter
/// bits themselves stay in each run's `.blm` file. All sidecar I/O is
/// deliberately uncounted — hibernation is a resource-management event,
/// not workload cost — so every clock and counter the engine reports stays
/// bit-identical to an eager engine.
void HibernateShardState(FileEngine::Shard& sh, const FileEngineConfig& cfg) {
  // Buffered writes must be durable before their in-memory home is
  // released (the sidecar is belt, the WAL is suspenders: if the sidecar
  // install is lost to a crash, replay still rebuilds the memtable).
  if (sh.wal != nullptr) sh.wal->Commit();

  fileio::ByteWriter w;
  w.U64(kSnapMagic);
  w.U64(sh.memtable.size());
  for (const auto& [key, e] : sh.memtable) {
    (void)key;
    const DiskEntry d{e.key, e.value, e.tombstone ? kTombstoneFlag : 0};
    w.Bytes(&d, sizeof(d));
  }
  w.U64(sh.levels.size());
  for (const auto& level : sh.levels) {
    w.U64(level.size());
    for (const FileRunPtr& r : level) fileio::EncodeRunMeta(&w, RunMetaOf(*r));
  }
  w.U64Vec(sh.cache.KeysMruToLru());
  const std::string image = w.Take();

  // Install atomically: write a tmp image, (durably) complete it, then
  // rename into place — a crash leaves either no sidecar or a whole one,
  // never a torn one.
  fileio::FileOps* ops = cfg.file_ops;
  const std::string path = sh.dir + "/hibernate.snap";
  const std::string tmp = path + ".tmp";
  ops->Unlink(tmp);  // a crashed predecessor's leftovers
  WriteFile(cfg, tmp, image.data(), image.size());
  SysCheck(ops->Rename(tmp, path) == 0, "rename(hibernate)", path);

  // Registering the sidecar in the manifest is what makes hibernation
  // survive the process: a reopened engine sees the kHibernate record and
  // restores the shard asleep. Crash before this record commits → the
  // manifest still says "live" and recovery takes the WAL path (the stray
  // sidecar is swept as an orphan).
  sh.hib_level_shape = LevelShape(sh);
  if (sh.manifest != nullptr) {
    sh.manifest->LogHibernate(sh.memtable.size(), sh.hib_level_shape);
    // A hibernated shard holds no descriptors: the log writers close too
    // (the record count survives in a residual for the wake reopen).
    sh.manifest_records = sh.manifest->record_count();
    sh.manifest.reset();
    sh.wal.reset();
  }

  // Cheap residuals (with the level shape above) keep size/transition
  // queries answerable while asleep.
  sh.hib_memtable_size = sh.memtable.size();
  sh.memtable.clear();
  sh.levels.clear();  // closes every run fd
  sh.cache.Resize(0);
  sh.scratch.reset();
  sh.ring.reset();
  sh.ring_bufs.clear();
  sh.io_depth = 1;
}

/// Rehydrates a hibernated shard from its sidecar: reopens run files and
/// their filter files (the same CRC-checked loader recovery uses), and
/// refills the block cache to its exact pre-hibernation recency order with
/// uncounted preads. The woken shard behaves bit-identically — same lookup
/// outcomes, same charged reads, same LRU evolution — to one that never
/// slept.
void WakeShardState(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                    bool direct_io, bool engine_uring) {
  const std::string path = sh.dir + "/hibernate.snap";
  std::string image;
  {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    SysCheck(fd >= 0, "open(wake)", path);
    struct stat st;
    SysCheck(::fstat(fd, &st) == 0, "fstat(wake)", path);
    image.resize(static_cast<size_t>(st.st_size));
    SysCheck(fileio::PreadAll(fd, image.data(), image.size(), 0), "pread(wake)",
             path);
    ::close(fd);
  }
  fileio::ByteReader r(image);
  CAMAL_CHECK(r.U64() == kSnapMagic);
  const uint64_t mem_count = r.U64();
  for (uint64_t i = 0; i < mem_count && r.ok(); ++i) {
    DiskEntry d;
    r.Bytes(&d, sizeof(d));
    sh.memtable.emplace_hint(sh.memtable.end(), d.key, ToEntry(d));
  }
  // A filter file that must be rebuilt reads its run through the scratch
  // buffer.
  sh.scratch = AllocAligned(cfg.block_bytes, cfg.block_bytes);
  const uint64_t num_levels = r.U64();
  CAMAL_CHECK(r.ok() && num_levels <= r.Remaining());
  sh.levels.resize(num_levels);
  std::unordered_map<uint64_t, const FileRun*> run_by_id;
  for (uint64_t l = 0; l < num_levels; ++l) {
    const uint64_t num_runs = r.U64();
    CAMAL_CHECK(r.ok() && num_runs <= r.Remaining());
    sh.levels[l].reserve(num_runs);
    for (uint64_t ri = 0; ri < num_runs; ++ri) {
      fileio::ManifestRunMeta meta = fileio::DecodeRunMeta(&r);
      CAMAL_CHECK(r.ok());
      FileRunPtr run = OpenRun(sh, cfg, direct_io, std::move(meta));
      run_by_id.emplace(run->id, run.get());
      sh.levels[l].push_back(std::move(run));
    }
  }
  const std::vector<uint64_t> keys = r.U64Vec();
  CAMAL_CHECK(r.ok() && r.AtEnd());
  cfg.file_ops->Unlink(path);

  const uint64_t capacity = sh.options.block_cache_bytes / cfg.block_bytes;
  sh.cache.Resize(capacity);

  if (cfg.durable) {
    // Reopen the log writers the shard closed at hibernation and record
    // the transition. A crash between the sidecar unlink above and this
    // record landing is safe: the manifest still says "hibernated", and
    // recovery, finding no sidecar, falls back to the live path — run
    // metadata from the manifest, memtable from the WAL (committed before
    // the sidecar was written).
    sh.manifest = std::make_unique<fileio::Manifest>(
        cfg.file_ops, sh.dir, DurableSync(cfg), sh.manifest_records);
    sh.wal = std::make_unique<fileio::Wal>(cfg.file_ops, sh.dir, cfg.wal_sync);
    sh.manifest->LogWake();
  }
  // Refill most-recent-first up to the (possibly shrunk-while-asleep)
  // capacity, inserting least-recent first so promotion lands every key
  // in its original recency slot. Uncounted reads: the cache held these
  // bytes when the shard went to sleep.
  const size_t restore = std::min<size_t>(keys.size(), capacity);
  for (size_t i = restore; i-- > 0;) {
    const uint64_t ckey = keys[i];
    const uint64_t run_id = ckey >> 22;
    const uint64_t blk = ckey & ((1ULL << 22) - 1);
    const auto rit = run_by_id.find(run_id);
    CAMAL_CHECK(rit != run_by_id.end());
    const FileRun& run = *rit->second;
    const ssize_t n = ::pread(run.fd, sh.scratch.get(), cfg.block_bytes,
                              static_cast<off_t>(blk * cfg.block_bytes));
    SysCheck(n == static_cast<ssize_t>(cfg.block_bytes), "pread(wake)",
             run.path);
    sh.cache.Insert(ckey, std::make_shared<std::vector<char>>(
                              sh.scratch.get(),
                              sh.scratch.get() + cfg.block_bytes));
  }

  sh.io_depth = 0;  // force SetupShardRing to resolve from scratch
  SetupShardRing(sh, cfg, engine_uring);
  sh.hib_memtable_size = 0;
  sh.hib_level_shape.clear();
  MaybeRotateManifest(sh, cfg);
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
///   Phase A (discovery) resolves every op's ordered access list with
///   ring-overlapped reads, consulting the cache through non-promoting
///   `Peek` and a window content table that dedups in-flight blocks.
///   Phase B (replay) walks the ops serially in submission order,
///   replaying `Lookup`/`Insert` against the real cache — producing
///   exactly the serial path's per-op `ios`, `block_reads`, and final
///   LRU state.
///
/// Physical reads can only decrease (in-window duplicate fetches dedup);
/// every counter the engine reports is bit-identical to the pread path.
/// Window wall time is attributed evenly across the window's ops (real
/// latencies are allowed to vary; counters are the determinism contract).
void ExecuteGetWindow(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                      const Op* ops, const size_t* op_idx, size_t window,
                      OpResult* results) {
  const uint64_t epb = EntriesPerBlock(cfg.block_bytes);
  const uint32_t depth = sh.io_depth;
  const double t0 = Now(cfg);

  // Flattened probe order: runs newest-first within each level, levels
  // top-down — exactly the order DoGet walks.
  std::vector<const FileRun*> probe;
  for (const auto& level : sh.levels) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      probe.push_back(rit->get());
    }
  }

  struct GetState {
    uint64_t key = 0;
    size_t next_run = 0;  // next probe[] candidate to consider
    bool resolved = false;
    bool found = false;
    bool waiting = false;  // parked on pending_key's content
    uint64_t pending_key = 0;
    const FileRun* pending_run = nullptr;
    size_t pending_blk = 0;
    std::vector<uint64_t> accesses;  // cache keys, in probe order
  };
  std::vector<GetState> states(window);

  // Window content table: block bytes by cache key, filled from cache
  // peeks and ring completions. Replay inserts into the cache from here.
  std::unordered_map<uint64_t, fileio::BlockPtr> contents;
  // Ops parked on a block that is queued or in flight.
  std::unordered_map<uint64_t, std::vector<size_t>> waiters;
  // Blocks requested but not yet completed (dedups fetches).
  std::unordered_set<uint64_t> requested;
  struct Fetch {
    uint64_t key = 0;
    const FileRun* run = nullptr;
    size_t blk = 0;
  };
  std::deque<Fetch> backlog;  // waiting for a free ring slot
  std::vector<uint64_t> slot_key(depth, 0);
  std::vector<const FileRun*> slot_run(depth, nullptr);
  std::vector<uint32_t> free_slots;
  free_slots.reserve(depth);
  for (uint32_t i = 0; i < depth; ++i) free_slots.push_back(i);
  uint32_t inflight = 0;

  // Advances one op until it resolves or parks on a block that is not
  // available yet (registering it as a waiter and queueing the fetch).
  auto advance = [&](size_t si) {
    GetState& st = states[si];
    while (!st.resolved) {
      if (st.waiting) {
        auto cit = contents.find(st.pending_key);
        if (cit == contents.end()) return;  // still in flight
        st.waiting = false;
        const FileRun& run = *st.pending_run;
        const uint64_t begin = st.pending_blk * epb;
        const uint64_t count = std::min(epb, run.num_entries - begin);
        const DiskEntry* records = BlockRecords(*cit->second);
        const DiskEntry* end = records + count;
        const DiskEntry* hit = std::lower_bound(
            records, end, st.key,
            [](const DiskEntry& d, uint64_t k) { return d.key < k; });
        if (hit != end && hit->key == st.key) {
          st.found = (hit->flags & kTombstoneFlag) == 0;
          st.resolved = true;
          return;
        }
        continue;  // Bloom false positive: on to the next candidate run
      }
      const FileRun* run = nullptr;
      size_t blk = 0;
      while (st.next_run < probe.size()) {
        const FileRun* r = probe[st.next_run++];
        if (st.key < r->min_key || st.key > r->max_key) continue;
        if (!r->filter.MayContain(st.key)) continue;
        const auto fit =
            std::upper_bound(r->fence.begin(), r->fence.end(), st.key);
        blk = static_cast<size_t>(std::distance(r->fence.begin(), fit)) - 1;
        run = r;
        break;
      }
      if (run == nullptr) {
        st.resolved = true;  // every candidate exhausted: a miss
        return;
      }
      const uint64_t ckey = fileio::CacheKey(run->id, blk);
      st.accesses.push_back(ckey);
      st.pending_key = ckey;
      st.pending_run = run;
      st.pending_blk = blk;
      st.waiting = true;
      if (contents.count(ckey) != 0) continue;  // fetched earlier this window
      if (fileio::BlockPtr peeked = sh.cache.Peek(ckey)) {
        contents.emplace(ckey, std::move(peeked));
        continue;
      }
      if (requested.insert(ckey).second) backlog.push_back(Fetch{ckey, run, blk});
      waiters[ckey].push_back(si);
      return;
    }
  };

  // Moves backlog entries into free ring slots and submits them.
  auto pump = [&] {
    while (inflight < depth && !backlog.empty()) {
      const Fetch f = backlog.front();
      backlog.pop_front();
      const uint32_t slot = free_slots.back();
      free_slots.pop_back();
      slot_key[slot] = f.key;
      slot_run[slot] = f.run;
      const bool prepped =
          sh.ring->PrepRead(f.run->fd, sh.ring_bufs[slot].get(),
                            static_cast<unsigned>(cfg.block_bytes),
                            f.blk * cfg.block_bytes, slot);
      CAMAL_CHECK(prepped);
      ++inflight;
    }
    const int submitted = sh.ring->Submit();
    SysCheck(submitted >= 0, "io_uring_enter(submit)", sh.dir);
  };

  // Phase A: seed every op in submission order, then drain completions,
  // re-advancing parked ops (which may queue further fetches) until all
  // access sequences are resolved.
  {
    // Memtable hits resolve with zero block accesses, like DoGet.
    for (size_t si = 0; si < window; ++si) {
      GetState& st = states[si];
      st.key = ops[op_idx[si]].key;
      auto it = sh.memtable.find(st.key);
      if (it != sh.memtable.end()) {
        st.resolved = true;
        st.found = !it->second.tombstone;
      }
    }
    for (size_t si = 0; si < window; ++si) advance(si);
    pump();
    std::vector<fileio::IoRing::Completion> comps;
    while (inflight > 0) {
      comps.clear();
      const int n = sh.ring->WaitCompletions(1, &comps);
      SysCheck(n > 0, "io_uring_enter(wait)", sh.dir);
      for (const fileio::IoRing::Completion& c : comps) {
        const auto slot = static_cast<uint32_t>(c.user_data);
        const FileRun* run = slot_run[slot];
        SysCheck(c.result == static_cast<int32_t>(cfg.block_bytes),
                 "ring read", run->path);
        const uint64_t ckey = slot_key[slot];
        contents.emplace(
            ckey, std::make_shared<std::vector<char>>(
                      sh.ring_bufs[slot].get(),
                      sh.ring_bufs[slot].get() + cfg.block_bytes));
        free_slots.push_back(slot);
        --inflight;
        auto wit = waiters.find(ckey);
        if (wit != waiters.end()) {
          const std::vector<size_t> parked = std::move(wit->second);
          waiters.erase(wit);
          for (size_t si : parked) advance(si);
        }
      }
      pump();
    }
  }

  // Phase B: replay cache decisions serially in submission order. This
  // charges per-op reads and evolves the LRU exactly as the pread path
  // would have.
  for (size_t si = 0; si < window; ++si) {
    GetState& st = states[si];
    CAMAL_CHECK(st.resolved);
    uint64_t ios = 0;
    for (uint64_t ckey : st.accesses) {
      if (sh.cache.Lookup(ckey) != nullptr) continue;  // a (promoted) hit
      ++ios;
      auto cit = contents.find(ckey);
      CAMAL_CHECK(cit != contents.end());
      sh.cache.Insert(ckey, cit->second);
    }
    sh.clock.block_reads += ios;
    OpResult r;
    r.found = st.found;
    r.ios = ios;
    results[op_idx[si]] = r;
  }
  const double dt = Now(cfg) - t0;
  sh.clock.elapsed_ns += dt;
  const double per_op = dt / static_cast<double>(window);
  for (size_t si = 0; si < window; ++si) {
    results[op_idx[si]].latency_ns = per_op;
  }
}

/// Shard-local range scan: merges the memtable with run cursors (newest
/// wins, tombstones suppress), appending up to `max_entries` live entries
/// to `out`. Block fetches are cache-aware real reads.
size_t DoScanShard(FileEngine::Shard& sh, const FileEngineConfig& cfg,
                   uint64_t start_key, size_t max_entries,
                   std::vector<lsm::Entry>* out) {
  if (max_entries == 0) return 0;
  const uint64_t epb = EntriesPerBlock(cfg.block_bytes);

  // The memtable is the newest source, walked in place over its whole
  // tail: tombstones in it can shadow run entries arbitrarily far into the
  // scan. Then come the runs, ordered newest-to-oldest.
  auto mem = sh.memtable.lower_bound(start_key);
  const auto mem_end = sh.memtable.end();
  struct RunCursor {
    const FileRun* run = nullptr;
    uint64_t idx = 0;
    int64_t block = -1;
    fileio::BlockPtr block_data;  // shared with the cache; eviction-safe
  };
  std::vector<RunCursor> cursors;
  for (const auto& level : sh.levels) {
    for (auto rit = level.rbegin(); rit != level.rend(); ++rit) {
      const FileRun& run = **rit;
      RunCursor c;
      c.run = &run;
      if (start_key <= run.min_key) {
        c.idx = 0;
      } else if (start_key > run.max_key) {
        c.idx = run.num_entries;
      } else {
        const auto fit =
            std::upper_bound(run.fence.begin(), run.fence.end(), start_key);
        const size_t blk =
            static_cast<size_t>(std::distance(run.fence.begin(), fit)) - 1;
        c.block_data = FetchBlock(sh, cfg, run, blk);
        c.block = static_cast<int64_t>(blk);
        const uint64_t begin = blk * epb;
        const uint64_t count = std::min(epb, run.num_entries - begin);
        const DiskEntry* records = BlockRecords(*c.block_data);
        uint64_t i = 0;
        while (i < count && records[i].key < start_key) ++i;
        // i == count means the next block's first key >= start_key (the
        // fence search guarantees it).
        c.idx = begin + i;
      }
      cursors.push_back(std::move(c));
    }
  }

  auto entry_at = [&](RunCursor& c) -> lsm::Entry {
    const auto blk = static_cast<int64_t>(c.idx / epb);
    if (blk != c.block) {
      c.block_data = FetchBlock(sh, cfg, *c.run, static_cast<size_t>(blk));
      c.block = blk;
    }
    return ToEntry(BlockRecords(*c.block_data)[c.idx % epb]);
  };
  auto key_at = [&](RunCursor& c) { return entry_at(c).key; };

  size_t added = 0;
  while (added < max_entries) {
    bool any = mem != mem_end;
    uint64_t min_key = any ? mem->first : 0;
    for (RunCursor& c : cursors) {
      if (c.idx >= c.run->num_entries) continue;
      const uint64_t k = key_at(c);
      if (!any || k < min_key) {
        min_key = k;
        any = true;
      }
    }
    if (!any) break;

    // Every source positioned at min_key advances; the newest one's entry
    // is the visible version.
    bool taken = false;
    auto take = [&](const lsm::Entry& e) {
      if (taken) return;
      taken = true;
      if (!e.tombstone) {
        out->push_back(e);
        ++added;
      }
    };
    if (mem != mem_end && mem->first == min_key) {
      take(mem->second);
      ++mem;
    }
    for (RunCursor& c : cursors) {
      if (c.idx >= c.run->num_entries || key_at(c) != min_key) continue;
      take(entry_at(c));
      ++c.idx;
    }
  }
  return added;
}

}  // namespace

// ----------------------------------------------------- construction/teardown

uint64_t FileEngine::NextUniqueId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

FileEngine::FileEngine(size_t num_shards, const lsm::Options& total_options,
                       const FileEngineConfig& config)
    : config_(config), set_(this, num_shards, total_options, config.lifecycle) {
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

  // Ring capability resolves once per engine: the build must carry the
  // ring path and the kernel must accept io_uring_setup. Whether a given
  // shard actually engages its ring also depends on mode and depth
  // (SetupShardRing); everything else falls back to pread automatically.
  use_uring_ = config_.io_mode != IoMode::kPread && fileio::IoRingSupported();

  // No slots yet: every shard is cold until recovered or touched.
  if (config_.reopen) RecoverShards();
  set_.MaterializeIfEager();
}

FileEngine::~FileEngine() {
  // Clean close: anything still buffered in a WAL lands (and, per policy,
  // syncs) so `reopen=true` restores the exact logical state. Hibernated
  // shards committed theirs when they went to sleep.
  for (const auto& [s, e] : set_.entries()) {
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
    for (const auto& [s, e] : set_.entries()) fs::remove_all(e.slot->dir, ec);
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
    CAMAL_CHECK(s < set_.num_shards());
    found.emplace_back(static_cast<size_t>(s), entry.path().string());
  }
  // Deterministic recovery order (directory iteration order is not).
  std::sort(found.begin(), found.end());
  for (const auto& [s, dir] : found) RecoverShard(s, dir);
}

void FileEngine::RecoverShard(size_t s, const std::string& dir) {
  fileio::FileOps* ops = config_.file_ops;
  fileio::RecoveredShardState st;
  if (!fileio::RecoverManifest(fileio::Manifest::PathFor(dir), &st)) {
    // No replayable manifest (absent, empty, or corrupt from record 0):
    // nothing durable ever committed here, so the shard recovers to the
    // empty (cold) state and the leftovers go.
    std::error_code ec;
    fs::remove_all(dir, ec);
    return;
  }

  auto sh = std::make_unique<Shard>();
  sh->options = st.options;
  sh->dir = dir;
  sh->wal_epoch = st.wal_epoch;
  sh->next_run_id = st.next_run_id;

  // A manifest that says "hibernated" is believed only if the sidecar
  // made it to disk; otherwise (crash in the hibernate window) the shard
  // recovers live from run metadata + WAL.
  const std::string sidecar = dir + "/hibernate.snap";
  const bool hibernated = st.hibernated && fs::exists(sidecar);

  // Sweep orphans: files the durable state does not reference — run files
  // whose introducing record never committed, rotation/sidecar tmp files,
  // a sidecar the manifest no longer claims.
  {
    std::set<std::string> keep = {"MANIFEST", "WAL"};
    if (hibernated) keep.insert("hibernate.snap");
    for (const auto& level : st.levels) {
      for (const fileio::ManifestRunMeta& run : level) {
        const std::string stem = "run_" + std::to_string(run.id);
        keep.insert(stem + ".cam");
        keep.insert(stem + ".blm");
      }
    }
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (keep.count(name) == 0) ops->Unlink(entry.path().string());
    }
  }

  const bool sync = DurableSync(config_);
  if (hibernated) {
    // Restored asleep: residuals only, no descriptors, no heap state —
    // the next touching op wakes it through the ordinary sidecar path.
    sh->hib_memtable_size = st.hib_memtable_entries;
    sh->hib_level_shape = st.hib_shape;
    for (const auto& level : st.levels) {
      for (const fileio::ManifestRunMeta& run : level) {
        sh->disk_entries += run.num_entries;
      }
    }
    sh->manifest_records = st.num_records;
    if (st.tail_torn) {
      fileio::Manifest temp(ops, dir, sync, st.num_records);
      temp.TruncateTail(st.valid_bytes);
    }
    set_.Adopt(s, std::move(sh), ShardState::kHibernated);
    return;
  }

  // Live shard: reopen every run from its logged metadata. Fences come
  // from the manifest and each filter from its CRC-checked `.blm` file, so
  // no block is read unless a filter file is damaged and must be rebuilt
  // (through the scratch buffer). Recovery I/O is uncounted (clocks start
  // at zero, like any fresh engine).
  sh->scratch = AllocAligned(config_.block_bytes, config_.block_bytes);
  sh->levels.resize(st.levels.size());
  for (size_t l = 0; l < st.levels.size(); ++l) {
    sh->levels[l].reserve(st.levels[l].size());
    for (fileio::ManifestRunMeta& meta : st.levels[l]) {
      FileRunPtr run = OpenRun(*sh, config_, direct_io_, std::move(meta));
      sh->disk_entries += run->num_entries;
      sh->levels[l].push_back(std::move(run));
    }
  }

  // WAL tail replay: only records stamped with the recovered epoch are
  // live (older ones were flushed into a run before the epoch bumped);
  // within the epoch, later records win, same as the memtable they log.
  const fileio::WalReplay replay = fileio::ReadWal(fileio::Wal::PathFor(dir));
  bool wal_clean = !replay.tail_torn;
  for (const fileio::WalReplayRecord& rec : replay.records) {
    if (rec.epoch != sh->wal_epoch) {
      wal_clean = false;
      continue;
    }
    for (const lsm::Entry& e : rec.entries) sh->memtable[e.key] = e;
  }

  // Repair the logs: truncate torn manifest tails, and compact the
  // manifest if it has grown past the rotation threshold. A WAL that holds
  // only whole records of the live epoch replays to this memtable as it
  // stands, so the writer resumes appending at its end; otherwise it is
  // rewritten to exactly the recovered memtable (dropping dead epochs and
  // torn bytes).
  sh->manifest = std::make_unique<fileio::Manifest>(ops, dir, sync,
                                                    st.num_records);
  if (st.tail_torn) sh->manifest->TruncateTail(st.valid_bytes);
  sh->wal = std::make_unique<fileio::Wal>(ops, dir, config_.wal_sync);
  if (!wal_clean) {
    sh->wal->Reset();
    std::vector<lsm::Entry> entries;
    entries.reserve(sh->memtable.size());
    for (const auto& [key, e] : sh->memtable) {
      (void)key;
      entries.push_back(e);
    }
    sh->wal->Append(sh->wal_epoch, entries.data(), entries.size());
    sh->wal->Commit();
  }
  MaybeRotateManifest(*sh, config_);

  sh->cache.Resize(sh->options.block_cache_bytes / config_.block_bytes);
  sh->io_depth = 0;  // force SetupShardRing to resolve from scratch
  SetupShardRing(*sh, config_, use_uring_);
  set_.Adopt(s, std::move(sh), ShardState::kMaterialized);
}

void FileEngine::CreateShard(size_t s, std::unique_ptr<Shard>& slot,
                             const lsm::Options& options) {
  slot = std::make_unique<Shard>();
  Shard& sh = *slot;
  sh.options = options;
  sh.dir = workdir_ + "/shard_" + std::to_string(s);
  std::error_code ec;
  fs::create_directories(sh.dir, ec);
  SysCheck(!ec, "create_directories", sh.dir);
  if (config_.durable) {
    // A fresh shard starts fresh logs; stale files from an earlier engine
    // in a reused directory (reopen=false deliberately ignores them) must
    // not be appended to.
    config_.file_ops->Unlink(fileio::Manifest::PathFor(sh.dir));
    config_.file_ops->Unlink(fileio::Wal::PathFor(sh.dir));
    sh.manifest = std::make_unique<fileio::Manifest>(
        config_.file_ops, sh.dir, DurableSync(config_));
    sh.manifest->LogInit(s, sh.options);
    sh.wal = std::make_unique<fileio::Wal>(config_.file_ops, sh.dir,
                                           config_.wal_sync);
  }
  sh.cache.Resize(sh.options.block_cache_bytes / config_.block_bytes);
  sh.scratch = AllocAligned(config_.block_bytes, config_.block_bytes);
  sh.io_depth = 0;  // force SetupShardRing to resolve from scratch
  SetupShardRing(sh, config_, use_uring_);
}

void FileEngine::WakeShard(size_t /*s*/, std::unique_ptr<Shard>& slot) {
  WakeShardState(*slot, config_, direct_io_, use_uring_);
}

void FileEngine::FreezeShard(size_t /*s*/, std::unique_ptr<Shard>& slot) {
  HibernateShardState(*slot, config_);
}

// ------------------------------------------------------------ public surface

void FileEngine::Put(uint64_t key, uint64_t value) {
  Shard& sh = *set_.Activate(set_.ShardIndex(key));
  const double t0 = Now(config_);
  DoPut(sh, config_, direct_io_, key, value, /*tombstone=*/false);
  if (sh.wal != nullptr) sh.wal->Commit();  // single-op "batch"
  sh.clock.elapsed_ns += Now(config_) - t0;
}

void FileEngine::Delete(uint64_t key) {
  Shard& sh = *set_.Activate(set_.ShardIndex(key));
  const double t0 = Now(config_);
  DoPut(sh, config_, direct_io_, key, 0, /*tombstone=*/true);
  if (sh.wal != nullptr) sh.wal->Commit();  // single-op "batch"
  sh.clock.elapsed_ns += Now(config_) - t0;
}

bool FileEngine::Get(uint64_t key, uint64_t* value) {
  Shard& sh = *set_.Activate(set_.ShardIndex(key));
  const double t0 = Now(config_);
  const bool found = DoGet(sh, config_, key, value);
  sh.clock.elapsed_ns += Now(config_) - t0;
  return found;
}

size_t FileEngine::Scan(uint64_t start_key, size_t max_entries,
                        std::vector<lsm::Entry>* out) {
  // Each shard's probe is timed on its own clock.
  return set_.Scan(pool_, max_entries, out,
                   [&](std::unique_ptr<Shard>& slot,
                       std::vector<lsm::Entry>* slice) {
                     Shard& sh = *slot;
                     const double t0 = Now(config_);
                     const size_t n = DoScanShard(sh, config_, start_key,
                                                  max_entries, slice);
                     sh.clock.elapsed_ns += Now(config_) - t0;
                     return n;
                   });
}

void FileEngine::ExecuteOps(const Op* ops, size_t count, OpResult* results) {
  if (count == 0) return;
  Shards::Batch batch;
  set_.PlanBatch(ops, count, &batch);

  // Per-(scan, probed shard) bookkeeping: real duration, real I/O count,
  // and live hits, indexed slot * stride + k so concurrent writers touch
  // disjoint elements.
  const size_t stride = batch.lists.size();
  const size_t num_scans = batch.scan_op.size();
  std::vector<double> scan_ns(num_scans * stride, 0.0);
  std::vector<uint64_t> scan_ios(num_scans * stride, 0);
  std::vector<size_t> scan_hits(num_scans * stride, 0);

  util::ParallelFor(pool_, 0, stride, [&](size_t k) {
    Shard& sh = **batch.slots[k];
    std::vector<lsm::Entry> scratch;
    const std::vector<size_t>& list = batch.lists[k];
    for (size_t li = 0; li < list.size();) {
      const size_t i = list[li];
      const Op& op = ops[i];
      // Ring path: a maximal run of consecutive gets becomes one
      // overlapped submission window. Puts/deletes (may flush or
      // compact) and scans (content-dependent cursors) stay synchronous
      // barriers, executed exactly as on the pread path.
      if (sh.ring != nullptr && op.kind == OpKind::kGet) {
        size_t end = li + 1;
        while (end < list.size() && ops[list[end]].kind == OpKind::kGet) {
          ++end;
        }
        ExecuteGetWindow(sh, config_, ops, list.data() + li, end - li,
                         results);
        li = end;
        continue;
      }
      ++li;
      const uint64_t ios_before = sh.clock.block_reads + sh.clock.block_writes;
      const double t0 = Now(config_);
      if (op.kind == OpKind::kScan) {
        const size_t slot = batch.scan_slot[i] * stride + k;
        scratch.clear();
        scan_hits[slot] =
            DoScanShard(sh, config_, op.key, op.scan_len, &scratch);
        const double dt = Now(config_) - t0;
        scan_ns[slot] = dt;
        scan_ios[slot] =
            sh.clock.block_reads + sh.clock.block_writes - ios_before;
        sh.clock.elapsed_ns += dt;
        continue;
      }
      OpResult r;
      switch (op.kind) {
        case OpKind::kGet:
          r.found = DoGet(sh, config_, op.key, nullptr);
          break;
        case OpKind::kPut:
          DoPut(sh, config_, direct_io_, op.key, op.value, false);
          break;
        case OpKind::kDelete:
          DoPut(sh, config_, direct_io_, op.key, 0, true);
          break;
        case OpKind::kScan:
          break;  // handled above
      }
      const double dt = Now(config_) - t0;
      r.latency_ns = dt;
      r.ios = sh.clock.block_reads + sh.clock.block_writes - ios_before;
      sh.clock.elapsed_ns += dt;
      results[i] = r;
    }
    // Group commit: the shard's whole batch of logged writes lands in one
    // pwrite (+ one fsync under kBatch). Untimed — durability overhead is
    // measured by bench_recovery, not charged to op latencies.
    if (sh.wal != nullptr) sh.wal->Commit();
  });

  // Gather the scans: a probe ran on every resident shard (cold shards
  // would have contributed zero reads and zero hits); the op's latency is
  // the sum of its per-shard probe times (serial-equivalent, the
  // simulated engine's convention), its I/O the sum of real reads.
  for (size_t slot = 0; slot < num_scans; ++slot) {
    OpResult r;
    size_t hits = 0;
    for (size_t k = 0; k < stride; ++k) {
      r.latency_ns += scan_ns[slot * stride + k];
      r.ios += scan_ios[slot * stride + k];
      hits += scan_hits[slot * stride + k];
    }
    const size_t i = batch.scan_op[slot];
    r.scan_hits = std::min(ops[i].scan_len, hits);
    results[i] = r;
  }

  set_.EndBatch();
  ProfileBatch(ops, count, results);
}

void FileEngine::FlushMemtable() {
  // Hibernated shards holding buffered writes wake to flush them; the
  // rest stay asleep (their flush would be a no-op). Cold shards are
  // empty by construction.
  set_.WakeIf([](const std::unique_ptr<Shard>& slot) {
    return slot->hib_memtable_size > 0;
  });
  set_.ForEachResident([&](std::unique_ptr<Shard>& slot) {
    const double t0 = Now(config_);
    FlushShard(*slot, config_, direct_io_);
    slot->clock.elapsed_ns += Now(config_) - t0;
  });
}

void FileEngine::Reconfigure(const lsm::Options& new_total_options) {
  set_.Reconfigure(new_total_options,
                   [&](size_t s, const lsm::Options& per_shard) {
                     ReconfigureShard(s, per_shard);
                   });
}

void FileEngine::ReconfigureShard(size_t s, const lsm::Options& options) {
  Shards::Entry* e = set_.ReconfigureShard(s, options);
  if (e == nullptr) return;  // cold: deferred to materialization
  Shard& sh = *e->slot;
  CAMAL_CHECK(options.entry_bytes == sh.options.entry_bytes);
  if (e->state == ShardState::kHibernated) {
    // In-place update while asleep, unless the buffered writes now
    // overflow the new capacity — then the shard must wake to flush,
    // exactly as the live path would.
    sh.options = options;
    if (sh.hib_memtable_size < options.BufferEntries()) {
      if (config_.durable) {
        // The shard's writers are closed while it sleeps; a short-lived
        // one records the change so a restart wakes into the new config.
        fileio::Manifest temp(config_.file_ops, sh.dir, DurableSync(config_),
                              sh.manifest_records);
        temp.LogOptions(options);
        sh.manifest_records = temp.record_count();
      }
      return;
    }
    set_.Activate(s);
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
  SetupShardRing(sh, config_, use_uring_);
  MaybeRotateManifest(sh, config_);
  sh.clock.elapsed_ns += Now(config_) - t0;
}

uint32_t FileEngine::ShardQueueDepth(size_t s) const {
  const Shards::Entry* e = set_.Find(s);
  if (e != nullptr && e->state == ShardState::kMaterialized) {
    return e->slot->ring != nullptr ? e->slot->io_depth : 1;
  }
  // Cold/hibernated: predict the depth materialization will resolve.
  const lsm::Options& options =
      e != nullptr ? e->slot->options : set_.EffectiveOptions(s);
  const uint32_t depth = ResolvedQueueDepth(options, config_);
  return RingWouldEngage(depth, config_, use_uring_) ? depth : 1;
}

const char* FileEngine::io_backend() const {
  // A live ring answers directly. Otherwise predict whether a hibernated
  // or cold shard would engage one on materialization: such shards run
  // either their recorded options or the engine default, so checking
  // those covers every case without an O(total shards) walk.
  auto engages = [&](const lsm::Options& options) {
    return RingWouldEngage(ResolvedQueueDepth(options, config_), config_,
                           use_uring_);
  };
  for (const auto& [s, e] : set_.entries()) {
    if (e.state == ShardState::kMaterialized ? e.slot->ring != nullptr
                                             : engages(e.slot->options)) {
      return "uring";
    }
  }
  return set_.AnyColdOptions(engages) ? "uring" : "pread";
}

lsm::Options FileEngine::ShardOptionsSnapshot(size_t s) const {
  const Shards::Entry* e = set_.Find(s);
  return e != nullptr ? e->slot->options : set_.EffectiveOptions(s);
}

sim::DeviceSnapshot FileEngine::CostSnapshot() const {
  // Ascending shard order, matching the simulated engine's convention
  // (clock values here are real measurements, but a stable summation
  // order keeps the aggregate reproducible given fixed per-shard clocks —
  // e.g. under an injected virtual clock).
  sim::DeviceSnapshot total;
  for (size_t s : set_.SortedIds()) total += ShardCostSnapshot(s);
  return total;
}

sim::DeviceSnapshot FileEngine::ShardCostSnapshot(size_t s) const {
  const Shards::Entry* e = set_.Find(s);
  return e == nullptr ? sim::DeviceSnapshot{} : e->slot->clock.Snapshot();
}

EngineCounters FileEngine::AggregateCounters() const {
  EngineCounters total;
  for (const auto& [s, e] : set_.entries()) total += e.slot->counters;
  return total;
}

EngineCounters FileEngine::ShardCounters(size_t s) const {
  const Shards::Entry* e = set_.Find(s);
  return e == nullptr ? EngineCounters{} : e->slot->counters;
}

uint64_t FileEngine::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& [s, e] : set_.entries()) total += ShardEntries(s);
  return total;
}

uint64_t FileEngine::DiskEntries() const {
  uint64_t total = 0;
  for (const auto& [s, e] : set_.entries()) total += e.slot->disk_entries;
  return total;
}

uint64_t FileEngine::ShardEntries(size_t s) const {
  const Shards::Entry* e = set_.Find(s);
  if (e == nullptr) return 0;
  const Shard& sh = *e->slot;
  return sh.disk_entries + (e->state == ShardState::kHibernated
                                ? sh.hib_memtable_size
                                : sh.memtable.size());
}

bool FileEngine::InTransition() const {
  for (const auto& [s, e] : set_.entries()) {
    // A hibernated shard's frozen shape is judged against its (possibly
    // updated-in-place) options, exactly as the live shape is.
    const Shard& sh = *e.slot;
    const auto shape = e.state == ShardState::kHibernated ? sh.hib_level_shape
                                                          : LevelShape(sh);
    for (size_t l = 0; l < shape.size(); ++l) {
      if (sh.options.LevelOverflows(l, shape[l].first, shape[l].second)) {
        return true;
      }
    }
  }
  return false;
}

size_t FileEngine::ShardRunCount(size_t s) const {
  const Shards::Entry* e = set_.Find(s);
  if (e == nullptr) return 0;
  const Shard& sh = *e->slot;
  size_t runs = 0;
  for (const auto& [count, entries] : e->state == ShardState::kHibernated
                                          ? sh.hib_level_shape
                                          : LevelShape(sh)) {
    runs += count;
  }
  return runs;
}

}  // namespace camal::engine
