#include "lsm/compaction.h"

#include <utility>

namespace camal::lsm {

std::vector<Entry> MergeSorted(std::vector<EntrySpan> newest_first,
                               bool drop_tombstones) {
  uint64_t total = 0;
  for (const EntrySpan& s : newest_first) total += s.end - s.begin;
  std::vector<Entry> out;
  out.reserve(total);
  MergeCursors(newest_first, drop_tombstones,
               [&out](const Entry& e) {
                 out.push_back(e);
                 return true;
               });
  return out;
}

std::vector<Entry> MergeRuns(const std::vector<RunPtr>& newest_first,
                             bool drop_tombstones) {
  std::vector<EntrySpan> spans;
  spans.reserve(newest_first.size());
  for (const RunPtr& run : newest_first) {
    const std::vector<Entry>& entries = run->entries();
    spans.push_back({entries.data(), entries.data() + entries.size()});
  }
  return MergeSorted(std::move(spans), drop_tombstones);
}

}  // namespace camal::lsm
