#include "engine/manifest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace camal::engine::fileio {

namespace {

// Version 2: run records carry their filter file's CRC, not its words.
constexpr uint32_t kManifestVersion = 2;

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
  w.U32(static_cast<uint32_t>(st.hib_shape.size()));
  for (const auto& [runs, entries] : st.hib_shape) {
    w.U64(runs);
    w.U64(entries);
  }
  return w.Take();
}

/// Applies one decoded record to the replay state. Returns false when the
/// payload is semantically malformed (decoder ran out of bytes) — the
/// caller treats that record as the start of a torn tail.
bool ApplyRecord(std::string_view payload, RecoveredShardState* st,
                 uint64_t* max_run_id, bool* initialized) {
  ByteReader r(payload);
  const uint8_t tag = r.U8();
  switch (tag) {
    case kInit: {
      CheckVersion(&r);
      r.U64();  // shard id (engine derives it from the directory name)
      st->options = DecodeOptions(&r);
      *initialized = true;
      break;
    }
    case kOptions: {
      st->options = DecodeOptions(&r);
      break;
    }
    case kFlush: {
      st->wal_epoch = r.U64();
      ManifestRunMeta run = DecodeRunMeta(&r);
      if (!r.ok()) return false;
      *max_run_id = std::max(*max_run_id, run.id);
      if (st->levels.empty()) st->levels.resize(1);
      st->levels[0].push_back(std::move(run));
      break;
    }
    case kCompact: {
      const uint32_t src = r.U32();
      const std::vector<uint64_t> removed = r.U64Vec();
      const uint32_t added_count = r.U32();
      std::vector<ManifestRunMeta> added;
      added.reserve(added_count);
      for (uint32_t i = 0; i < added_count; ++i) {
        added.push_back(DecodeRunMeta(&r));
        if (!r.ok()) return false;
      }
      if (!r.ok() || src >= st->levels.size()) return false;
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
      break;
    }
    case kHibernate: {
      st->hibernated = true;
      st->hib_memtable_entries = r.U64();
      const uint32_t n = r.U32();
      st->hib_shape.clear();
      for (uint32_t i = 0; i < n; ++i) {
        const uint64_t runs = r.U64();
        const uint64_t entries = r.U64();
        st->hib_shape.emplace_back(runs, entries);
      }
      break;
    }
    case kWake: {
      st->hibernated = false;
      st->hib_memtable_entries = 0;
      st->hib_shape.clear();
      break;
    }
    case kSnapshot: {
      CheckVersion(&r);
      r.U64();  // shard id
      RecoveredShardState snap;
      snap.options = DecodeOptions(&r);
      snap.wal_epoch = r.U64();
      snap.next_run_id = r.U64();
      const uint32_t num_levels = r.U32();
      if (!r.ok()) return false;
      snap.levels.resize(num_levels);
      for (uint32_t l = 0; l < num_levels; ++l) {
        const uint32_t num_runs = r.U32();
        if (!r.ok()) return false;
        snap.levels[l].reserve(num_runs);
        for (uint32_t i = 0; i < num_runs; ++i) {
          snap.levels[l].push_back(DecodeRunMeta(&r));
          if (!r.ok()) return false;
        }
      }
      snap.hibernated = r.U8() == 1;
      snap.hib_memtable_entries = r.U64();
      const uint32_t shape = r.U32();
      for (uint32_t i = 0; i < shape; ++i) {
        const uint64_t runs = r.U64();
        const uint64_t entries = r.U64();
        snap.hib_shape.emplace_back(runs, entries);
      }
      if (!r.ok()) return false;
      // The snapshot replaces all structural state accumulated so far.
      st->options = snap.options;
      st->wal_epoch = snap.wal_epoch;
      st->levels = std::move(snap.levels);
      st->hibernated = snap.hibernated;
      st->hib_memtable_entries = snap.hib_memtable_entries;
      st->hib_shape = std::move(snap.hib_shape);
      *max_run_id = std::max(*max_run_id, snap.next_run_id - 1);
      *initialized = true;
      break;
    }
    default:
      return false;  // unknown tag: cannot replay past it
  }
  return r.ok();
}

}  // namespace

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
    const std::vector<std::pair<uint64_t, uint64_t>>& shape) {
  ByteWriter w;
  w.U8(kHibernate);
  w.U64(memtable_entries);
  w.U32(static_cast<uint32_t>(shape.size()));
  for (const auto& [runs, entries] : shape) {
    w.U64(runs);
    w.U64(entries);
  }
  Log(w.Take());
}

void Manifest::LogWake() {
  ByteWriter w;
  w.U8(kWake);
  Log(w.Take());
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
