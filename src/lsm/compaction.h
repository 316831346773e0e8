#ifndef CAMAL_LSM_COMPACTION_H_
#define CAMAL_LSM_COMPACTION_H_

#include <vector>

#include "lsm/entry.h"
#include "lsm/run.h"

namespace camal::lsm {

/// A sorted, key-unique range of entries `[begin, end)` read in place.
struct EntrySpan {
  const Entry* begin;
  const Entry* end;
};

/// The one merge rule both engines compact with: merges sorted spans into
/// one sorted, deduplicated entry stream.
///
/// `newest_first` orders the inputs by recency: when the same key appears in
/// several spans, the version from the earliest span in the vector wins.
/// Tombstones are carried through unless `drop_tombstones` is set (legal
/// only when nothing older lies below the output); an input made only of
/// dropped tombstones merges to an empty stream. The spans are taken by
/// value and used as the merge cursors.
std::vector<Entry> MergeSorted(std::vector<EntrySpan> newest_first,
                               bool drop_tombstones);

/// `MergeSorted` over the entries of in-memory runs, newest run first.
std::vector<Entry> MergeRuns(const std::vector<RunPtr>& newest_first,
                             bool drop_tombstones);

}  // namespace camal::lsm

#endif  // CAMAL_LSM_COMPACTION_H_
