#include "lsm/compaction.h"

#include <cstdint>
#include <limits>
#include <utility>

namespace camal::lsm {

std::vector<Entry> MergeSorted(std::vector<EntrySpan> newest_first,
                               bool drop_tombstones) {
  uint64_t total = 0;
  for (const EntrySpan& s : newest_first) total += s.end - s.begin;
  std::vector<Entry> out;
  out.reserve(total);

  for (;;) {
    uint64_t min_key = std::numeric_limits<uint64_t>::max();
    bool any = false;
    for (const EntrySpan& c : newest_first) {
      if (c.begin == c.end) continue;
      if (!any || c.begin->key < min_key) {
        min_key = c.begin->key;
        any = true;
      }
    }
    if (!any) break;

    bool taken = false;
    for (EntrySpan& c : newest_first) {
      if (c.begin == c.end || c.begin->key != min_key) continue;
      if (!taken) {
        taken = true;
        if (!(drop_tombstones && c.begin->tombstone)) out.push_back(*c.begin);
      }
      ++c.begin;
    }
  }
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
