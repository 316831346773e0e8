#include "engine/wal.h"

namespace camal::engine::fileio {

namespace {

// Wire layout of one entry inside a WAL record: key, value, flags (bit 0:
// tombstone) — the same 24-byte triple the run files use.
constexpr uint64_t kTombstoneFlag = 1;
constexpr uint64_t kEntryBytes = 3 * sizeof(uint64_t);

// Appends `v`'s bytes as `ByteWriter` would encode them.
template <typename T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

Wal::Wal(FileOps* ops, const std::string& shard_dir, WalSyncPolicy policy)
    : ops_(ops), path_(PathFor(shard_dir)), policy_(policy),
      writer_(std::make_unique<RecordWriter>(ops, path_)) {}

void Wal::Append(uint64_t epoch, const lsm::Entry* entries, size_t n) {
  if (n == 0) return;
  // Encoded straight into the writer's pending buffer, which keeps its
  // storage, so a logged write allocates nothing once warm.
  std::string* w = &writer_->BeginRecord();
  Put<uint64_t>(w, epoch);
  Put<uint32_t>(w, static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) {
    Put<uint64_t>(w, entries[i].key);
    Put<uint64_t>(w, entries[i].value);
    Put<uint64_t>(w, entries[i].tombstone ? kTombstoneFlag : 0);
  }
  writer_->EndRecord();
  if (policy_ == WalSyncPolicy::kAlways) {
    writer_->Commit();
    writer_->Sync();
  }
}

void Wal::Commit() {
  if (!writer_->has_pending()) return;  // nothing new: no write, no sync
  writer_->Commit();
  if (policy_ != WalSyncPolicy::kNone) writer_->Sync();
}

void Wal::Sync() { writer_->Sync(); }

void Wal::Reset() { writer_->Reset(); }

void Wal::TruncateTail(uint64_t valid_bytes) {
  writer_->TruncateTo(valid_bytes);
}

WalReplay ReadWal(const std::string& path) {
  WalReplay out;
  RecordFileContents log = ReadRecordFile(path);
  out.exists = log.exists;
  if (!log.exists) return out;

  uint64_t offset = 0;
  for (std::string_view payload : log.records) {
    ByteReader r(payload);
    WalReplayRecord rec;
    rec.epoch = r.U64();
    const uint32_t n = r.Count(kEntryBytes);
    rec.entries.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      lsm::Entry e;
      e.key = r.U64();
      e.value = r.U64();
      e.tombstone = (r.U64() & kTombstoneFlag) != 0;
      rec.entries.push_back(e);
    }
    if (!r.ok() || !r.AtEnd()) {
      // CRC-valid but undecodable: treat as the start of a torn tail.
      log.torn_tail = true;
      break;
    }
    offset += 8 + payload.size();
    out.records.push_back(std::move(rec));
  }
  out.valid_bytes = offset;
  out.tail_torn = log.torn_tail || offset != log.valid_bytes;
  return out;
}

}  // namespace camal::engine::fileio
