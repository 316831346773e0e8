#ifndef CAMAL_PERFBENCH_PROBE_H_
#define CAMAL_PERFBENCH_PROBE_H_

// Outside-in instrumentation: a clock, an in-memory span recorder, a
// counting/timing `fileio::FileOps` subclass, and process probes (RSS,
// filesystem type). Nothing here reaches inside the library; every number
// is taken around calls into its public surface or through the seams it
// already exposes.

#include <sys/vfs.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "engine/file_ops.h"

namespace camal::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One traced interval. Spans of one request share `parent` with the span
/// that caused them; 0 means "no parent".
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Keeps spans in memory (bounded) and writes them out once, at the end of
/// the traced run. Disabled recorders cost one branch per call site.
class SpanRecorder {
 public:
  static constexpr size_t kMaxSpans = 400000;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  uint64_t NewId() { return ++last_id_; }

  void Record(const char* name, uint64_t id, uint64_t parent, int64_t start,
              int64_t end) {
    if (!enabled_) return;
    if (holding_) {
      held_.push_back(Span{name, id, parent, start, end});
      return;
    }
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, id, parent, start, end});
  }

  /// Buffers the spans recorded from now on (the child spans of one op)
  /// until `Release` decides whether the op is worth keeping: the bound on
  /// memory would otherwise be spent on millions of unremarkable ops.
  void Hold() {
    holding_ = enabled_;
    held_.clear();
  }
  void Release(bool keep) {
    holding_ = false;
    if (keep) {
      for (const Span& s : held_) {
        Record(s.name, s.id, s.parent, s.start_ns, s.end_ns);
      }
    }
    held_.clear();
  }

  /// Self time of each span name: its duration minus the part covered by
  /// its direct children (children of one parent never overlap here: the
  /// benchmark is single-threaded around every traced call).
  struct NameTotals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, NameTotals> Totals() const {
    std::map<uint64_t, int64_t> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, NameTotals> out;
    for (const Span& s : spans_) {
      NameTotals& t = out[s.name];
      const int64_t d = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      t.count += 1;
      t.total_ns += d;
      t.self_ns += d - (it == child_ns.end() ? 0 : it->second);
    }
    return out;
  }

  /// Writes {"env": ..., "summary": {...}, "spans": [...]} to `path`.
  bool WriteJson(const std::string& path, const std::string& env_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"env\": %s,\n\"dropped_spans\": %llu,\n\"summary\": {",
                 env_json.c_str(), static_cast<unsigned long long>(dropped_));
    bool first = true;
    for (const auto& [name, t] : Totals()) {
      std::fprintf(f,
                   "%s\n  \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                   "\"self_ns\": %lld}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(t.count),
                   static_cast<long long>(t.total_ns),
                   static_cast<long long>(t.self_ns));
      first = false;
    }
    std::fprintf(f, "},\n\"spans\": [");
    first = true;
    for (const Span& s : spans_) {
      std::fprintf(f, "%s\n  [\"%s\", %llu, %llu, %lld, %lld]",
                   first ? "" : ",", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  /// The span that new child spans attach to (the op or phase in flight).
  uint64_t current_parent = 0;

 private:
  bool enabled_ = false;
  bool holding_ = false;
  uint64_t last_id_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<Span> held_;
};

/// Totals of the mutating file operations one engine issued.
struct FileOpCounts {
  uint64_t pwrite_calls = 0;
  uint64_t pwrite_bytes = 0;
  int64_t pwrite_ns = 0;
  uint64_t fsync_calls = 0;
  int64_t fsync_ns = 0;
};

/// The benchmark's `FileOps`: forwards to the real syscalls, always counts
/// pwrite/fsync calls and bytes, and times them (with spans) only while the
/// recorder is enabled.
class CountingFileOps : public engine::fileio::FileOps {
 public:
  explicit CountingFileOps(SpanRecorder* trace) : trace_(trace) {}

  int64_t PWrite(int fd, const void* buf, uint64_t count,
                 uint64_t offset) override {
    counts.pwrite_calls += 1;
    counts.pwrite_bytes += count;
    if (!trace_->enabled()) return FileOps::PWrite(fd, buf, count, offset);
    const int64_t t0 = NowNs();
    const int64_t r = FileOps::PWrite(fd, buf, count, offset);
    const int64_t t1 = NowNs();
    counts.pwrite_ns += t1 - t0;
    trace_->Record("fileio.pwrite", trace_->NewId(), trace_->current_parent,
                   t0, t1);
    return r;
  }

  int Fsync(int fd) override {
    counts.fsync_calls += 1;
    if (!trace_->enabled()) return FileOps::Fsync(fd);
    const int64_t t0 = NowNs();
    const int r = FileOps::Fsync(fd);
    const int64_t t1 = NowNs();
    counts.fsync_ns += t1 - t0;
    trace_->Record("fileio.fsync", trace_->NewId(), trace_->current_parent, t0,
                   t1);
    return r;
  }

  FileOpCounts counts;

 private:
  SpanRecorder* trace_;
};

/// Resident-set probes from /proc/self/status, in KiB (0 when unreadable).
inline uint64_t StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::stoull(line.substr(prefix.size()));
    }
  }
  return 0;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so a later
/// VmHWM read covers only what happened after this call. Returns false when
/// the kernel refuses, in which case VmHWM still includes earlier peaks.
inline bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// Filesystem type of `path`, by statfs magic.
inline std::string FsType(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace camal::perfbench

#endif  // CAMAL_PERFBENCH_PROBE_H_
