#ifndef CAMAL_ENGINE_MANIFEST_H_
#define CAMAL_ENGINE_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/record_log.h"
#include "lsm/options.h"

namespace camal::engine::fileio {

/// \brief Per-shard manifest: an append-only, CRC-framed log of every
/// structural change to a shard's file set, from which `reopen=true`
/// reconstructs the shard (levels, fences, Bloom parameters, hibernation
/// status) without reading a single run block, and from which a
/// hibernated shard wakes.
///
/// Record types (first payload byte), layout version 3:
///
///   | tag | record     | payload                                          |
///   |-----|------------|--------------------------------------------------|
///   | 1   | kInit      | version, shard id, per-shard `lsm::Options`      |
///   | 2   | kOptions   | new per-shard `lsm::Options`                     |
///   | 3   | kFlush     | new WAL epoch, the level-0 run added             |
///   | 4   | kCompact   | source level, removed run ids, added runs        |
///   | 5   | kHibernate | memtable entry count, level shape, cache keys    |
///   | 6   | kWake      | (empty)                                          |
///   | 7   | kSnapshot  | full shard state (rotation compacts to this)     |
///
/// A hibernated shard has no other image: the manifest up to its
/// `kHibernate` record plus the WAL (the memtable) is everything a wake
/// needs, and `kHibernate` adds the block cache's keys, most recent first,
/// so the wake can refill the cache in its old recency order. A snapshot
/// carries no cache keys: the engine snapshots only live shards (rotation
/// runs only while a shard is awake, and a non-durable engine's
/// hibernation writes a snapshot followed by a `kHibernate` record).
///
/// Structural transitions are **composite single records** on purpose: a
/// compaction's removed-inputs and added-output land in one CRC frame, so
/// the log can never durably tear between "runs removed" and "run added" —
/// any crash leaves either the old state or the new one, nothing between.
///
/// A run's metadata (fences, Bloom size, hash count, bits per key, and the
/// CRC-32C of its filter) rides in the record that introduces it. The
/// filter's bits live beside the run, in `run_<id>.blm`, written and
/// fsynced before that record commits, so a record's size does not grow
/// with the Bloom budget and rotation snapshots never rewrite filter bits.
/// Recovery reopens run files for reading and loads each filter file
/// against its logged CRC; it never rescans a run unless that filter file
/// is missing or damaged.

/// Metadata of one immutable run, as logged/recovered.
struct ManifestRunMeta {
  uint64_t id = 0;
  uint64_t num_entries = 0;
  uint64_t min_key = 0;
  uint64_t max_key = 0;
  std::vector<uint64_t> fence;
  uint64_t bloom_bits = 0;
  uint32_t bloom_hashes = 0;
  double bloom_bpk = 0.0;
  /// CRC-32C of the run's filter file (`run_<id>.blm`, the raw filter
  /// words).
  uint32_t bloom_crc = 0;
};

/// The state a manifest replay yields — everything the engine needs to
/// rebuild a shard minus the WAL tail (memtable contents).
struct RecoveredShardState {
  /// False: no usable manifest (absent, empty, or corrupt from record 0) —
  /// the shard recovers to the empty state.
  bool valid = false;
  lsm::Options options;
  /// WAL records stamped with this epoch are live (everything older was
  /// made durable-in-runs by the flush that bumped the epoch).
  uint64_t wal_epoch = 0;
  /// One past the largest run id the log ever mentioned — keeps new run
  /// files from colliding with deleted ones.
  uint64_t next_run_id = 1;
  /// levels[l] holds runs oldest-to-newest, exactly as the live shard does.
  std::vector<std::vector<ManifestRunMeta>> levels;
  bool hibernated = false;
  uint64_t hib_memtable_entries = 0;
  /// Per-level (run count, entry count) residuals while hibernated.
  std::vector<std::pair<uint64_t, uint64_t>> hib_shape;
  /// The block cache's keys at hibernation, most recent first.
  std::vector<uint64_t> hib_cache_keys;
  /// Parse telemetry: bytes of intact log (truncation point when torn),
  /// whether a torn tail followed, and how many records replayed.
  uint64_t valid_bytes = 0;
  bool tail_torn = false;
  size_t num_records = 0;
};

/// Replays the manifest at `path` into `out`. Returns `out->valid`. Reads
/// only — repairs (tail truncation, rotation) are the writer's job.
bool RecoverManifest(const std::string& path, RecoveredShardState* out);

/// Append-side handle on one shard's manifest. Every `Log*` call frames,
/// commits (one pwrite), and — when `sync` is set — fsyncs before
/// returning, so a record is on its way to disk before the engine acts on
/// the transition it describes.
class Manifest {
 public:
  /// Opens (creating if missing) `<shard_dir>/MANIFEST`. `known_records`
  /// seeds the rotation counter after recovery.
  Manifest(FileOps* ops, const std::string& shard_dir, bool sync,
           size_t known_records = 0);

  /// Truncates a recovery-detected torn tail: everything past
  /// `valid_bytes` is discarded before the first append.
  void TruncateTail(uint64_t valid_bytes);

  void LogInit(uint64_t shard, const lsm::Options& options);
  void LogOptions(const lsm::Options& options);
  void LogFlush(uint64_t new_epoch, const ManifestRunMeta& run);
  void LogCompact(uint32_t src_level, const std::vector<uint64_t>& removed,
                  const std::vector<ManifestRunMeta>& added);
  void LogHibernate(uint64_t memtable_entries,
                    const std::vector<std::pair<uint64_t, uint64_t>>& shape,
                    const std::vector<uint64_t>& cache_keys);
  void LogWake();
  /// Logs `state` as one `kSnapshot` record: the first record of a log
  /// written whole rather than grown.
  void LogSnapshot(const RecoveredShardState& state);

  /// Whether the log has grown past `rotate_records` (0: never rotate).
  /// Callers check this before building the snapshot `Rotate` needs.
  bool ShouldRotate(uint32_t rotate_records) const {
    return rotate_records != 0 && records_ > rotate_records;
  }

  /// Compacts the log to one `kSnapshot` record: writes `MANIFEST.tmp`,
  /// fsyncs it, and renames over `MANIFEST` — the rename is the atomic
  /// commit point. A failed rename is tolerated: the tmp file is unlinked
  /// and the old (equivalent, longer) log stays authoritative. Returns
  /// whether rotation happened.
  bool Rotate(const RecoveredShardState& state);

  size_t record_count() const { return records_; }
  const std::string& path() const { return path_; }

  /// The manifest path for a shard directory (shared with recovery).
  static std::string PathFor(const std::string& shard_dir) {
    return shard_dir + "/MANIFEST";
  }

 private:
  void Log(const std::string& payload);

  FileOps* ops_;
  std::string path_;
  bool sync_;
  size_t records_ = 0;
  std::unique_ptr<RecordWriter> writer_;
};

}  // namespace camal::engine::fileio

#endif  // CAMAL_ENGINE_MANIFEST_H_
