#ifndef CAMAL_LSM_COMPACTION_H_
#define CAMAL_LSM_COMPACTION_H_

#include <cstdint>
#include <vector>

#include "lsm/entry.h"
#include "lsm/run.h"

namespace camal::lsm {

/// A sorted, key-unique range of entries `[begin, end)` read in place. It
/// is also the simplest merge cursor (see `MergeCursors`).
struct EntrySpan {
  const Entry* begin;
  const Entry* end;

  bool done() const { return begin == end; }
  const Entry& head() const { return *begin; }
  void advance() { ++begin; }
};

/// The one merge rule of both engines, for compaction and range scans:
/// merges the sorted, key-unique streams behind `newest_first` into one
/// sorted, deduplicated stream handed to `sink`, one entry at a time.
///
/// A cursor exposes `done()`, `head()` (the current entry, valid while
/// not done) and `advance()`. `newest_first` orders the inputs by recency:
/// when the same key appears in several cursors, the version from the
/// earliest cursor in the vector is the one taken and the others are
/// skipped. Tombstones are carried through unless `drop_tombstones` is set
/// (compaction sets it only when nothing older lies below the output; a
/// scan always does, since a tombstone still hides older versions but is
/// never returned); inputs made only of dropped tombstones hand `sink`
/// nothing.
///
/// `sink` returns whether to go on. Every cursor holding a key advances
/// past it before the key's entry reaches the sink, so when the sink
/// returns false the merge stops with no `head()` read past that key: a
/// cursor that reads lazily never fetches data the caller did not need.
/// The cursors are consumed.
template <typename Cursor, typename Sink>
void MergeCursors(std::vector<Cursor>& newest_first, bool drop_tombstones,
                  Sink&& sink) {
  for (;;) {
    uint64_t min_key = 0;
    bool any = false;
    for (const Cursor& c : newest_first) {
      if (c.done()) continue;
      const uint64_t key = c.head().key;
      if (!any || key < min_key) {
        min_key = key;
        any = true;
      }
    }
    if (!any) return;

    bool taken = false;
    Entry newest;
    for (Cursor& c : newest_first) {
      if (c.done() || c.head().key != min_key) continue;
      if (!taken) {
        taken = true;
        newest = c.head();
      }
      c.advance();
    }
    if (!(drop_tombstones && newest.tombstone) && !sink(newest)) return;
  }
}

/// `MergeCursors` over in-memory spans, collected into one vector.
std::vector<Entry> MergeSorted(std::vector<EntrySpan> newest_first,
                               bool drop_tombstones);

/// `MergeSorted` over the entries of in-memory runs, newest run first.
std::vector<Entry> MergeRuns(const std::vector<RunPtr>& newest_first,
                             bool drop_tombstones);

}  // namespace camal::lsm

#endif  // CAMAL_LSM_COMPACTION_H_
