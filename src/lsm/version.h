#ifndef CAMAL_LSM_VERSION_H_
#define CAMAL_LSM_VERSION_H_

#include <cstdint>
#include <vector>

#include "lsm/options.h"
#include "lsm/run.h"

namespace camal::lsm {

/// The on-disk shape of the tree: a stack of levels, each holding one or
/// more sorted runs ordered oldest-to-newest.
class Levels {
 public:
  /// Mutable access to level `i` (0-based = paper level i+1); grows the
  /// level vector on demand.
  std::vector<RunPtr>& At(size_t i);
  const std::vector<RunPtr>& At(size_t i) const;

  size_t NumLevels() const { return levels_.size(); }

  /// Entries stored in level `i` across all of its runs.
  uint64_t LevelEntries(size_t i) const;

  /// Entries across all levels (counting shadowed duplicates).
  uint64_t TotalEntries() const;

  /// Index of the deepest level holding at least one run; -1 when empty.
  int DeepestNonEmpty() const;

  /// Per-level entry counts, one slot per allocated level.
  std::vector<uint64_t> EntryCounts() const;

  /// Per-level run counts.
  std::vector<size_t> RunCounts() const;

  /// True when any level violates `opts`' level invariants
  /// (`Options::LevelOverflows`) — the tree's transition predicate.
  bool AnyLevelOverflows(const Options& opts) const;

 private:
  std::vector<std::vector<RunPtr>> levels_;
  static const std::vector<RunPtr> kEmpty;
};

}  // namespace camal::lsm

#endif  // CAMAL_LSM_VERSION_H_
