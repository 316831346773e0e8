#include "engine/manifest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace camal::engine::fileio {

namespace {

// Version 2: run records carry their filter file's CRC, not its words.
// Version 3: kHibernate carries the block cache's keys.
constexpr uint32_t kManifestVersion = 3;

/// Reads a record's layout version. A CRC-valid record of another layout
/// cannot be decoded as this one: replaying it as a torn tail would
/// truncate the log, and treating the shard as empty would delete its
/// runs, so the process stops instead.
void CheckVersion(ByteReader* r) {
  const uint32_t version = r->U32();
  if (!r->ok() || version == kManifestVersion) return;
  std::fprintf(stderr,
               "manifest: record layout version %u, this build reads %u\n",
               version, kManifestVersion);
  std::abort();
}

enum RecordTag : uint8_t {
  kInit = 1,
  kOptions = 2,
  kFlush = 3,
  kCompact = 4,
  kHibernate = 5,
  kWake = 6,
  kSnapshot = 7,
};

// The fewest bytes one encoded run takes (an empty fence), one level of a
// snapshot (its run count) and one level of a hibernation shape: the
// bounds that decoded counts are checked against before anything is
// allocated for them.
constexpr uint64_t kMinRunMetaBytes = 4 * 8 + 4 + 8 + 4 + 8 + 4;
constexpr uint64_t kMinLevelBytes = 4;
constexpr uint64_t kShapeLevelBytes = 2 * 8;

void EncodeOptions(ByteWriter* w, const lsm::Options& o) {
  w->F64(o.size_ratio);
  w->U64(o.entry_bytes);
  w->U64(o.buffer_bytes);
  w->U64(o.bloom_bits);
  w->U64(o.block_cache_bytes);
  w->U8(o.policy == lsm::CompactionPolicy::kTiering ? 1 : 0);
  w->U32(static_cast<uint32_t>(o.runs_per_level));
  w->U64(o.file_bytes);
  w->U32(static_cast<uint32_t>(o.io_queue_depth));
}

lsm::Options DecodeOptions(ByteReader* r) {
  lsm::Options o;
  o.size_ratio = r->F64();
  o.entry_bytes = r->U64();
  o.buffer_bytes = r->U64();
  o.bloom_bits = r->U64();
  o.block_cache_bytes = r->U64();
  o.policy = r->U8() == 1 ? lsm::CompactionPolicy::kTiering
                          : lsm::CompactionPolicy::kLeveling;
  o.runs_per_level = static_cast<int>(r->U32());
  o.file_bytes = r->U64();
  o.io_queue_depth = static_cast<int>(r->U32());
  return o;
}

void EncodeRunMeta(ByteWriter* w, const ManifestRunMeta& run) {
  w->U64(run.id);
  w->U64(run.num_entries);
  w->U64(run.min_key);
  w->U64(run.max_key);
  w->U64Vec(run.fence);
  w->U64(run.bloom_bits);
  w->U32(run.bloom_hashes);
  w->F64(run.bloom_bpk);
  w->U32(run.bloom_crc);
}

/// Decodes what `EncodeRunMeta` wrote; a short buffer flips `r->ok()`.
ManifestRunMeta DecodeRunMeta(ByteReader* r) {
  ManifestRunMeta run;
  run.id = r->U64();
  run.num_entries = r->U64();
  run.min_key = r->U64();
  run.max_key = r->U64();
  run.fence = r->U64Vec();
  run.bloom_bits = r->U64();
  run.bloom_hashes = r->U32();
  run.bloom_bpk = r->F64();
  run.bloom_crc = r->U32();
  return run;
}

void EncodeShape(ByteWriter* w,
                 const std::vector<std::pair<uint64_t, uint64_t>>& shape) {
  w->U32(static_cast<uint32_t>(shape.size()));
  for (const auto& [runs, entries] : shape) {
    w->U64(runs);
    w->U64(entries);
  }
}

std::vector<std::pair<uint64_t, uint64_t>> DecodeShape(ByteReader* r) {
  std::vector<std::pair<uint64_t, uint64_t>> shape(r->Count(kShapeLevelBytes));
  for (auto& [runs, entries] : shape) {
    runs = r->U64();
    entries = r->U64();
  }
  return shape;
}

/// Decodes a run count and that many runs into `out`. False as soon as
/// the reader fails.
bool DecodeRuns(ByteReader* r, std::vector<ManifestRunMeta>* out) {
  const uint32_t n = r->Count(kMinRunMetaBytes);
  out->reserve(out->size() + n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    out->push_back(DecodeRunMeta(r));
  }
  return r->ok();
}

std::string EncodeSnapshot(const RecoveredShardState& st, uint64_t shard) {
  ByteWriter w;
  w.U8(kSnapshot);
  w.U32(kManifestVersion);
  w.U64(shard);
  EncodeOptions(&w, st.options);
  w.U64(st.wal_epoch);
  w.U64(st.next_run_id);
  w.U32(static_cast<uint32_t>(st.levels.size()));
  for (const auto& level : st.levels) {
    w.U32(static_cast<uint32_t>(level.size()));
    for (const ManifestRunMeta& run : level) EncodeRunMeta(&w, run);
  }
  w.U8(st.hibernated ? 1 : 0);
  w.U64(st.hib_memtable_entries);
  EncodeShape(&w, st.hib_shape);
  return w.Take();
}

void ClearHibernation(RecoveredShardState* st) {
  st->hibernated = false;
  st->hib_memtable_entries = 0;
  st->hib_shape.clear();
  st->hib_cache_keys.clear();
}

/// Applies one record to the replay state. Returns false, leaving the
/// state untouched, when the payload is malformed (the decoder ran out of
/// bytes, a count exceeds what is left, or bytes trail the record) — the
/// caller treats that record as the start of a torn tail. Each case
/// decodes its whole record before it changes anything.
bool ApplyRecord(std::string_view payload, RecoveredShardState* st,
                 uint64_t* max_run_id, bool* initialized) {
  ByteReader r(payload);
  auto whole = [&r] { return r.ok() && r.AtEnd(); };
  switch (r.U8()) {
    case kInit: {
      CheckVersion(&r);
      r.U64();  // shard id (engine derives it from the directory name)
      const lsm::Options options = DecodeOptions(&r);
      if (!whole()) return false;
      st->options = options;
      *initialized = true;
      return true;
    }
    case kOptions: {
      const lsm::Options options = DecodeOptions(&r);
      if (!whole()) return false;
      st->options = options;
      return true;
    }
    case kFlush: {
      const uint64_t epoch = r.U64();
      ManifestRunMeta run = DecodeRunMeta(&r);
      if (!whole()) return false;
      st->wal_epoch = epoch;
      *max_run_id = std::max(*max_run_id, run.id);
      if (st->levels.empty()) st->levels.resize(1);
      st->levels[0].push_back(std::move(run));
      return true;
    }
    case kCompact: {
      const uint32_t src = r.U32();
      const std::vector<uint64_t> removed = r.U64Vec();
      std::vector<ManifestRunMeta> added;
      if (!DecodeRuns(&r, &added) || !whole() || src >= st->levels.size()) {
        return false;
      }
      auto& level = st->levels[src];
      level.erase(std::remove_if(level.begin(), level.end(),
                                 [&](const ManifestRunMeta& run) {
                                   return std::find(removed.begin(),
                                                    removed.end(),
                                                    run.id) != removed.end();
                                 }),
                  level.end());
      if (st->levels.size() <= src + 1) st->levels.resize(src + 2);
      for (ManifestRunMeta& run : added) {
        *max_run_id = std::max(*max_run_id, run.id);
        st->levels[src + 1].push_back(std::move(run));
      }
      return true;
    }
    case kHibernate: {
      const uint64_t memtable_entries = r.U64();
      auto shape = DecodeShape(&r);
      std::vector<uint64_t> cache_keys = r.U64Vec();
      if (!whole()) return false;
      st->hibernated = true;
      st->hib_memtable_entries = memtable_entries;
      st->hib_shape = std::move(shape);
      st->hib_cache_keys = std::move(cache_keys);
      return true;
    }
    case kWake: {
      if (!whole()) return false;
      ClearHibernation(st);
      return true;
    }
    case kSnapshot: {
      CheckVersion(&r);
      r.U64();  // shard id
      const lsm::Options options = DecodeOptions(&r);
      const uint64_t wal_epoch = r.U64();
      const uint64_t next_run_id = r.U64();
      std::vector<std::vector<ManifestRunMeta>> levels(
          r.Count(kMinLevelBytes));
      for (auto& level : levels) {
        if (!DecodeRuns(&r, &level)) return false;
      }
      const bool hibernated = r.U8() == 1;
      const uint64_t memtable_entries = r.U64();
      auto shape = DecodeShape(&r);
      if (!whole()) return false;
      // The snapshot replaces all structural state accumulated so far.
      st->options = options;
      st->wal_epoch = wal_epoch;
      st->levels = std::move(levels);
      ClearHibernation(st);
      st->hibernated = hibernated;
      st->hib_memtable_entries = memtable_entries;
      st->hib_shape = std::move(shape);
      *max_run_id = std::max(*max_run_id, next_run_id - 1);
      *initialized = true;
      return true;
    }
    default:
      return false;  // unknown tag: cannot replay past it
  }
}

}  // namespace

bool RecoverManifest(const std::string& path, RecoveredShardState* out) {
  RecordFileContents log = ReadRecordFile(path);
  if (!log.exists) return false;

  RecoveredShardState st;
  uint64_t max_run_id = 0;
  bool initialized = false;
  uint64_t offset = 0;
  for (std::string_view payload : log.records) {
    if (!ApplyRecord(payload, &st, &max_run_id, &initialized)) {
      // A CRC-valid but undecodable record: treat it and everything after
      // as a torn tail (same repair as physical damage).
      log.torn_tail = true;
      break;
    }
    offset += 8 + payload.size();
    ++st.num_records;
  }
  if (!initialized) return false;  // empty or corrupt-from-record-0

  st.valid = true;
  st.valid_bytes = offset;
  st.tail_torn = log.torn_tail;
  st.next_run_id = max_run_id + 1;
  // Trailing empty levels are an artifact of replay order; the live shard
  // never keeps them either.
  while (!st.levels.empty() && st.levels.back().empty()) st.levels.pop_back();
  *out = std::move(st);
  return true;
}

Manifest::Manifest(FileOps* ops, const std::string& shard_dir, bool sync,
                   size_t known_records)
    : ops_(ops), path_(PathFor(shard_dir)), sync_(sync),
      records_(known_records),
      writer_(std::make_unique<RecordWriter>(ops, path_)) {}

void Manifest::TruncateTail(uint64_t valid_bytes) {
  writer_->TruncateTo(valid_bytes);
}

void Manifest::Log(const std::string& payload) {
  writer_->Append(payload);
  writer_->Commit();
  if (sync_) writer_->Sync();
  ++records_;
}

void Manifest::LogInit(uint64_t shard, const lsm::Options& options) {
  ByteWriter w;
  w.U8(kInit);
  w.U32(kManifestVersion);
  w.U64(shard);
  EncodeOptions(&w, options);
  Log(w.Take());
}

void Manifest::LogOptions(const lsm::Options& options) {
  ByteWriter w;
  w.U8(kOptions);
  EncodeOptions(&w, options);
  Log(w.Take());
}

void Manifest::LogFlush(uint64_t new_epoch, const ManifestRunMeta& run) {
  ByteWriter w;
  w.U8(kFlush);
  w.U64(new_epoch);
  EncodeRunMeta(&w, run);
  Log(w.Take());
}

void Manifest::LogCompact(uint32_t src_level,
                          const std::vector<uint64_t>& removed,
                          const std::vector<ManifestRunMeta>& added) {
  ByteWriter w;
  w.U8(kCompact);
  w.U32(src_level);
  w.U64Vec(removed);
  w.U32(static_cast<uint32_t>(added.size()));
  for (const ManifestRunMeta& run : added) EncodeRunMeta(&w, run);
  Log(w.Take());
}

void Manifest::LogHibernate(
    uint64_t memtable_entries,
    const std::vector<std::pair<uint64_t, uint64_t>>& shape,
    const std::vector<uint64_t>& cache_keys) {
  ByteWriter w;
  w.U8(kHibernate);
  w.U64(memtable_entries);
  EncodeShape(&w, shape);
  w.U64Vec(cache_keys);
  Log(w.Take());
}

void Manifest::LogWake() {
  ByteWriter w;
  w.U8(kWake);
  Log(w.Take());
}

void Manifest::LogSnapshot(const RecoveredShardState& state) {
  Log(EncodeSnapshot(state, /*shard=*/0));
}

bool Manifest::Rotate(const RecoveredShardState& state) {
  const std::string tmp = path_ + ".tmp";
  // A stale tmp from an earlier crashed rotation would otherwise make the
  // fresh writer append after its leftovers.
  ops_->Unlink(tmp);
  {
    RecordWriter snap(ops_, tmp);
    snap.Append(EncodeSnapshot(state, /*shard=*/0));
    snap.Commit();
    snap.Sync();  // the snapshot must be complete before it can be named
  }
  if (ops_->Rename(tmp, path_) != 0) {
    // Rotation is an optimization; the long log stays authoritative.
    ops_->Unlink(tmp);
    return false;
  }
  // The old inode is orphaned; reopen the writer on the new file.
  writer_ = std::make_unique<RecordWriter>(ops_, path_);
  records_ = 1;
  return true;
}

}  // namespace camal::engine::fileio
