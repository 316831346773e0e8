#include "lsm/compaction.h"

#include <cstdint>
#include <limits>

namespace camal::lsm {

std::vector<Entry> MergeRuns(const std::vector<RunPtr>& newest_first,
                             bool drop_tombstones) {
  struct Cursor {
    const Entry* at;
    const Entry* end;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(newest_first.size());
  uint64_t total = 0;
  for (const RunPtr& run : newest_first) {
    const std::vector<Entry>& entries = run->entries();
    cursors.push_back({entries.data(), entries.data() + entries.size()});
    total += entries.size();
  }
  std::vector<Entry> out;
  out.reserve(total);

  for (;;) {
    uint64_t min_key = std::numeric_limits<uint64_t>::max();
    bool any = false;
    for (const Cursor& c : cursors) {
      if (c.at == c.end) continue;
      if (!any || c.at->key < min_key) {
        min_key = c.at->key;
        any = true;
      }
    }
    if (!any) break;

    bool taken = false;
    for (Cursor& c : cursors) {
      if (c.at == c.end || c.at->key != min_key) continue;
      if (!taken) {
        taken = true;
        if (!(drop_tombstones && c.at->tombstone)) out.push_back(*c.at);
      }
      ++c.at;
    }
  }
  return out;
}

}  // namespace camal::lsm
