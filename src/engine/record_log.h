#ifndef CAMAL_ENGINE_RECORD_LOG_H_
#define CAMAL_ENGINE_RECORD_LOG_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "engine/file_ops.h"

namespace camal::engine::fileio {

/// \brief CRC-framed append-only record files — the common physical format
/// of the per-shard manifest and WAL.
///
/// Frame layout, repeated back to back from byte 0:
///
///     [u32 payload_length][u32 masked_crc32c(payload)][payload bytes]
///
/// The reader walks frames until the file ends or a frame fails to parse
/// (short header, impossible length, CRC mismatch). Everything from the
/// first bad frame onward is an untrusted torn tail — on an append-only
/// log a record can only be damaged by the crash that also killed every
/// record after it — so recovery truncates there and keeps the prefix.
/// An empty file parses as zero records, cleanly.

/// Appends framed records to a file through a `FileOps` seam. Appends are
/// buffered until `Commit` so a batch of records lands in one write
/// (group commit); `Sync` is the caller's fsync-policy hook.
class RecordWriter {
 public:
  /// Opens (creating if missing) `path` for appending; the write offset
  /// resumes at the current file size.
  RecordWriter(FileOps* ops, std::string path);
  ~RecordWriter();

  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;

  /// Frames `payload` into the pending buffer. Nothing reaches the file
  /// until `Commit`.
  void Append(const std::string& payload);

  /// Frames a record in place: `BeginRecord` reserves the frame header in
  /// the pending buffer and returns that buffer, the caller appends the
  /// payload bytes to it, and `EndRecord` fills the header in. The bytes
  /// are `Append`'s, without a separate payload buffer.
  std::string& BeginRecord();
  void EndRecord();

  /// Writes the pending buffer at the tracked append offset (one pwrite)
  /// and clears it. No-op when nothing is pending.
  void Commit();

  /// `fsync` the underlying file.
  void Sync();

  /// Truncates the file to zero and discards any pending appends — the
  /// WAL-reset primitive (a flush made every logged entry durable in a
  /// run, so the log restarts empty).
  void Reset();

  /// Truncates the file to `offset` bytes (torn-tail repair at recovery).
  /// Pending appends are preserved; the append offset moves to `offset`.
  void TruncateTo(uint64_t offset);

  /// Whether appends are buffered awaiting `Commit`.
  bool has_pending() const { return !pending_.empty(); }

  /// Bytes durably framed so far (committed; excludes pending).
  uint64_t committed_bytes() const { return offset_; }

  /// Records appended since this writer opened (committed or pending).
  size_t appended_records() const { return appended_; }

  const std::string& path() const { return path_; }

 private:
  FileOps* ops_;
  std::string path_;
  int fd_ = -1;
  uint64_t offset_ = 0;
  size_t appended_ = 0;
  std::string pending_;
  /// Where the record `BeginRecord` opened starts in `pending_`.
  size_t record_start_ = 0;
};

/// One parsed record file.
struct RecordFileContents {
  /// True when the file exists and its frames parsed from byte 0 (possibly
  /// zero of them). False: the file is absent.
  bool exists = false;
  /// The file's bytes. A vector, not a string: moving it keeps the views
  /// in `records` valid, where a string's inline buffer would move.
  std::vector<char> bytes;
  /// Parsed payloads, in file order, up to the first bad frame; each is a
  /// view into `bytes`.
  std::vector<std::string_view> records;
  /// Bytes covered by the parsed frames — the truncation point when a torn
  /// tail follows.
  uint64_t valid_bytes = 0;
  /// True when bytes past `valid_bytes` failed to frame (torn tail or
  /// corruption); the tail is untrusted and should be truncated away.
  bool torn_tail = false;
};

/// Reads and verifies every frame of `path` (plain buffered reads — no
/// fault seam: reads cannot corrupt anything).
RecordFileContents ReadRecordFile(const std::string& path);

/// Little-endian primitive serialization of record payloads. Fixed-width
/// encodes (no varint): durability records are dwarfed by the run files
/// they describe, and fixed widths keep the torn-write arithmetic of the
/// fault-injection tests exact.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bytes(const void* p, size_t n) { Raw(p, n); }
  void U64Vec(const std::vector<uint64_t>& v) {
    U32(static_cast<uint32_t>(v.size()));
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(uint64_t));
  }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked reader over one payload. Any out-of-bounds read flips
/// `ok()` to false and returns zeros; decoders check `ok()` once at the
/// end instead of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) : buf_(buf) {}

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  /// Copies `n` raw bytes into `p` (the mirror of `ByteWriter::Bytes`).
  void Bytes(void* p, size_t n) { Raw(p, n); }
  /// Reads an item count whose items take at least `min_item_bytes` each
  /// in what follows. A count the remaining bytes cannot hold flips `ok()`
  /// and reads as 0, so a corrupt count never becomes a multi-gigabyte
  /// allocation or a loop past the payload.
  uint32_t Count(uint64_t min_item_bytes) {
    const uint32_t n = U32();
    if (static_cast<uint64_t>(n) * min_item_bytes > Remaining()) ok_ = false;
    return ok_ ? n : 0;
  }
  std::vector<uint64_t> U64Vec() {
    std::vector<uint64_t> v(Count(sizeof(uint64_t)));
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(uint64_t));
    return v;
  }

  uint64_t Remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }
  bool ok() const { return ok_; }

 private:
  void Raw(void* p, size_t n) {
    if (!ok_ || n > Remaining()) {
      ok_ = false;
      return;
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }

  std::string_view buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace camal::engine::fileio

#endif  // CAMAL_ENGINE_RECORD_LOG_H_
