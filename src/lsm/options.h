#ifndef CAMAL_LSM_OPTIONS_H_
#define CAMAL_LSM_OPTIONS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace camal::lsm {

/// Merge policy of the tree (Figure 2 of the paper).
enum class CompactionPolicy {
  kLeveling,  ///< one sorted run per level; in-level merges on arrival
  kTiering,   ///< up to T runs per level; merged together when full
};

/// Tunable parameters of an LSM-tree instance — the configuration point `X`
/// that CAMAL searches over.
struct Options {
  /// Size ratio `T` between adjacent level capacities. Must be >= 2.
  double size_ratio = 10.0;
  /// Size of one key-value entry in bytes (`E`).
  uint64_t entry_bytes = 128;
  /// Memory allocated to the write buffer in bytes (`Mb`).
  uint64_t buffer_bytes = 64 * 1024;
  /// Total memory allocated to Bloom filters in bits (`Mf`), distributed
  /// across levels with the Monkey allocation.
  uint64_t bloom_bits = 8 * 50 * 1024;
  /// Memory allocated to the block cache in bytes (`Mc`).
  uint64_t block_cache_bytes = 0;
  /// Compaction policy.
  CompactionPolicy policy = CompactionPolicy::kLeveling;
  /// Extension knob `K`: maximum sorted runs per level. 0 derives the value
  /// from `policy` (1 for leveling, round(T) for tiering).
  int runs_per_level = 0;
  /// Extension knob: target SST file size in bytes; 0 keeps each sorted run
  /// in a single file.
  uint64_t file_bytes = 0;
  /// Extension knob: block reads kept in flight per shard on the real-IO
  /// backend's ring path (`FileEngine` with io_uring). 0 inherits the
  /// engine-wide `FileEngineConfig::io_queue_depth`; the simulated backend
  /// ignores it. Results and I/O counts are identical at any depth — only
  /// wall-clock changes — which is what makes it safely tunable.
  int io_queue_depth = 0;

  /// Entries that fit in the write buffer (Level 0 capacity).
  uint64_t BufferEntries() const {
    return std::max<uint64_t>(1, buffer_bytes / entry_bytes);
  }

  /// Entries per storage block (`B`).
  uint64_t EntriesPerBlock(uint64_t block_bytes) const {
    return std::max<uint64_t>(1, block_bytes / entry_bytes);
  }

  /// Effective maximum number of runs per level (`K`).
  int MaxRunsPerLevel() const {
    if (runs_per_level > 0) return runs_per_level;
    if (policy == CompactionPolicy::kLeveling) return 1;
    return std::max(2, static_cast<int>(std::llround(size_ratio)));
  }

  /// Capacity in entries of on-disk level `level_idx` (0-based; paper level
  /// `level_idx + 1`): `(Mb/E) * (T-1) * T^level_idx`.
  double LevelCapacityEntries(int level_idx) const {
    return static_cast<double>(BufferEntries()) * (size_ratio - 1.0) *
           std::pow(size_ratio, level_idx);
  }

  /// Whether on-disk level `level_idx`, holding `runs` sorted runs with
  /// `entries` entries in total, violates the level invariants (more than
  /// K runs, or more entries than its capacity). An empty level never
  /// does. Every engine — live tree, frozen snapshot, file set — judges
  /// its levels through this one predicate.
  bool LevelOverflows(size_t level_idx, size_t runs, uint64_t entries) const {
    if (runs == 0) return false;
    if (runs > static_cast<size_t>(MaxRunsPerLevel())) return true;
    return static_cast<double>(entries) >
           LevelCapacityEntries(static_cast<int>(level_idx));
  }

  /// Number of on-disk levels needed for `n` total entries (Equation 1).
  int LevelsForEntries(uint64_t n) const {
    const double ratio =
        static_cast<double>(n) / static_cast<double>(BufferEntries()) + 1.0;
    const int l = static_cast<int>(
        std::ceil(std::log(ratio) / std::log(size_ratio) - 1e-9));
    return std::max(1, l);
  }

  util::Status Validate() const {
    if (size_ratio < 2.0) {
      return util::Status::InvalidArgument("size_ratio must be >= 2");
    }
    if (entry_bytes == 0) {
      return util::Status::InvalidArgument("entry_bytes must be positive");
    }
    if (buffer_bytes < entry_bytes) {
      return util::Status::InvalidArgument(
          "buffer must hold at least one entry");
    }
    if (runs_per_level < 0) {
      return util::Status::InvalidArgument("runs_per_level must be >= 0");
    }
    if (io_queue_depth < 0 || io_queue_depth > 1024) {
      return util::Status::InvalidArgument(
          "io_queue_depth must be in [0, 1024]");
    }
    return util::Status::Ok();
  }
};

}  // namespace camal::lsm

#endif  // CAMAL_LSM_OPTIONS_H_
