#include "lsm/version.h"

namespace camal::lsm {

const std::vector<RunPtr> Levels::kEmpty;

std::vector<RunPtr>& Levels::At(size_t i) {
  if (i >= levels_.size()) levels_.resize(i + 1);
  return levels_[i];
}

const std::vector<RunPtr>& Levels::At(size_t i) const {
  if (i >= levels_.size()) return kEmpty;
  return levels_[i];
}

uint64_t Levels::LevelEntries(size_t i) const {
  uint64_t n = 0;
  for (const RunPtr& run : At(i)) n += run->size();
  return n;
}

uint64_t Levels::TotalEntries() const {
  uint64_t n = 0;
  for (size_t i = 0; i < levels_.size(); ++i) n += LevelEntries(i);
  return n;
}

int Levels::DeepestNonEmpty() const {
  for (int i = static_cast<int>(levels_.size()) - 1; i >= 0; --i) {
    if (!levels_[static_cast<size_t>(i)].empty()) return i;
  }
  return -1;
}

std::vector<uint64_t> Levels::EntryCounts() const {
  std::vector<uint64_t> counts(levels_.size(), 0);
  for (size_t i = 0; i < levels_.size(); ++i) counts[i] = LevelEntries(i);
  return counts;
}

std::vector<size_t> Levels::RunCounts() const {
  std::vector<size_t> counts(levels_.size(), 0);
  for (size_t i = 0; i < levels_.size(); ++i) counts[i] = levels_[i].size();
  return counts;
}

bool Levels::AnyLevelOverflows(const Options& opts) const {
  for (size_t i = 0; i < levels_.size(); ++i) {
    if (opts.LevelOverflows(i, levels_[i].size(), LevelEntries(i))) {
      return true;
    }
  }
  return false;
}

}  // namespace camal::lsm
