#ifndef CAMAL_ENGINE_FILE_OPS_H_
#define CAMAL_ENGINE_FILE_OPS_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <string>

namespace camal::engine::fileio {

/// \brief Injectable seam for every *mutating* file operation of the
/// real-IO backend (run-file builds, manifest/WAL appends, manifest
/// rotation, unlinks).
///
/// The base class IS the production implementation: each virtual forwards
/// straight to the corresponding syscall, so the default path costs one
/// virtual dispatch per syscall — noise next to the syscall itself. Tests
/// subclass it to build deterministic fault models: count mutation sites,
/// crash (throw) at the k-th call, write only a prefix of a record before
/// dying, turn `Fsync` into a lie, or fail `Rename` — which is what makes
/// the durability layer's crash-point matrix (`crash_recovery_test`)
/// enumerable instead of probabilistic.
///
/// Read-side calls (`pread`) stay direct: power loss never corrupts a read,
/// so routing them through the seam would add surface without adding any
/// testable failure mode.
class FileOps {
 public:
  virtual ~FileOps() = default;

  /// `open(2)`. Creation and truncation flags make this a mutation site.
  virtual int Open(const std::string& path, int flags, int mode) {
    return ::open(path.c_str(), flags, mode);
  }

  /// `pwrite(2)` at an explicit offset (append offsets are tracked by the
  /// callers so fault models can reason about exact byte positions).
  virtual int64_t PWrite(int fd, const void* buf, uint64_t count,
                         uint64_t offset) {
    return ::pwrite(fd, buf, count, static_cast<off_t>(offset));
  }

  /// `fsync(2)`.
  virtual int Fsync(int fd) { return ::fsync(fd); }

  /// `rename(2)` — the atomic commit point of manifest rotation.
  virtual int Rename(const std::string& from, const std::string& to) {
    return ::rename(from.c_str(), to.c_str());
  }

  /// `unlink(2)`.
  virtual int Unlink(const std::string& path) {
    return ::unlink(path.c_str());
  }

  /// `ftruncate(2)` — WAL resets and torn-tail truncation.
  virtual int Ftruncate(int fd, uint64_t length) {
    return ::ftruncate(fd, static_cast<off_t>(length));
  }

  /// `close(2)`. Not a durability event, but routed so fault models can
  /// keep an exact ledger of descriptors they handed out.
  virtual int Close(int fd) { return ::close(fd); }

  /// The shared production instance (raw syscalls). Engines resolve a null
  /// `FileEngineConfig::file_ops` to this.
  static FileOps* Real() {
    static FileOps real;
    return &real;
  }
};

}  // namespace camal::engine::fileio

#endif  // CAMAL_ENGINE_FILE_OPS_H_
