#include "engine/record_log.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/crc32c.h"

namespace camal::engine::fileio {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 masked CRC.

// A single frame never legitimately approaches this: the largest payloads
// are manifest snapshots of a shard (every run's fences; filter bits live
// in each run's `.blm` file, not here), low megabytes at most. Anything
// bigger is a corrupt length field.
constexpr uint32_t kMaxPayloadBytes = 256u << 20;

void SysCheckRecord(bool ok, const char* what, const std::string& path) {
  if (!ok) {
    std::fprintf(stderr, "record log: %s failed for '%s': %s\n", what,
                 path.c_str(), std::strerror(errno));
    std::abort();
  }
}

}  // namespace

RecordWriter::RecordWriter(FileOps* ops, std::string path)
    : ops_(ops), path_(std::move(path)) {
  fd_ = ops_->Open(path_, O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  SysCheckRecord(fd_ >= 0, "open", path_);
  struct stat st;
  SysCheckRecord(::fstat(fd_, &st) == 0, "fstat", path_);
  offset_ = static_cast<uint64_t>(st.st_size);
}

RecordWriter::~RecordWriter() {
  if (fd_ >= 0) ops_->Close(fd_);
}

void RecordWriter::Append(const std::string& payload) {
  BeginRecord().append(payload);
  EndRecord();
}

std::string& RecordWriter::BeginRecord() {
  record_start_ = pending_.size();
  pending_.append(kFrameHeaderBytes, '\0');
  return pending_;
}

void RecordWriter::EndRecord() {
  char* header = pending_.data() + record_start_;
  const size_t size = pending_.size() - record_start_ - kFrameHeaderBytes;
  const uint32_t len = static_cast<uint32_t>(size);
  const uint32_t crc = util::MaskedCrc32c(header + kFrameHeaderBytes, size);
  std::memcpy(header, &len, sizeof(len));
  std::memcpy(header + sizeof(len), &crc, sizeof(crc));
  ++appended_;
}

void RecordWriter::Commit() {
  if (pending_.empty()) return;
  const int64_t n =
      ops_->PWrite(fd_, pending_.data(), pending_.size(), offset_);
  SysCheckRecord(n == static_cast<int64_t>(pending_.size()), "pwrite", path_);
  offset_ += pending_.size();
  pending_.clear();
}

void RecordWriter::Sync() { SysCheckRecord(ops_->Fsync(fd_) == 0, "fsync", path_); }

void RecordWriter::Reset() {
  pending_.clear();
  SysCheckRecord(ops_->Ftruncate(fd_, 0) == 0, "ftruncate", path_);
  offset_ = 0;
}

void RecordWriter::TruncateTo(uint64_t offset) {
  SysCheckRecord(ops_->Ftruncate(fd_, offset) == 0, "ftruncate", path_);
  offset_ = offset;
}

RecordFileContents ReadRecordFile(const std::string& path) {
  RecordFileContents out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;  // exists = false
  out.exists = true;

  // One allocation sized to the file, and frames parsed in place: growing
  // by doubling and copying every payload out would touch about three
  // times the file's size in fresh pages on every recovery.
  std::vector<char>& bytes = out.bytes;
  struct stat st;
  if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0) {
    bytes.reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);

  size_t pos = 0;
  while (pos + kFrameHeaderBytes <= bytes.size()) {
    uint32_t len, crc;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    std::memcpy(&crc, bytes.data() + pos + sizeof(len), sizeof(crc));
    if (len > kMaxPayloadBytes ||
        pos + kFrameHeaderBytes + len > bytes.size()) {
      break;  // short frame / absurd length: torn tail starts here
    }
    const char* payload = bytes.data() + pos + kFrameHeaderBytes;
    if (util::MaskedCrc32c(payload, len) != crc) break;
    out.records.emplace_back(payload, len);
    pos += kFrameHeaderBytes + len;
    out.valid_bytes = pos;
  }
  out.torn_tail = out.valid_bytes != bytes.size();
  return out;
}

}  // namespace camal::engine::fileio
