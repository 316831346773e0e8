#ifndef CAMAL_LSM_MEMTABLE_H_
#define CAMAL_LSM_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "lsm/entry.h"
#include "sim/device.h"

namespace camal::lsm {

/// In-memory write buffer (paper Level 0). Keeps the freshest version of
/// each key; flushing drains it into a sorted run.
class Memtable {
 public:
  /// Inserts or overwrites `key`. Charges buffer-insert CPU.
  void Put(uint64_t key, uint64_t value, bool tombstone, sim::Device* device);

  /// Looks up `key`; returns true when present (including tombstones, which
  /// are reported through `out->tombstone`). Charges comparison CPU.
  bool Get(uint64_t key, Entry* out, sim::Device* device) const;

  /// Number of distinct buffered keys.
  size_t size() const { return table_.size(); }
  bool empty() const { return table_.empty(); }

  /// Removes and returns all entries in key order.
  std::vector<Entry> DrainSorted();

  /// Rebuilds the table from `entries` (sorted by key, as produced by
  /// `DrainSorted`), charging nothing: the restore half of shard
  /// hibernation, which must leave all cost clocks untouched.
  void LoadSorted(const std::vector<Entry>& entries);

  using const_iterator = std::map<uint64_t, Entry>::const_iterator;

  /// First buffered entry with key >= `key`; iterating to `end()` visits
  /// the rest in key order (range scans walk it in place and merge with
  /// on-disk runs). Valid until the next Put, drain or load.
  const_iterator LowerBound(uint64_t key) const {
    return table_.lower_bound(key);
  }
  const_iterator end() const { return table_.end(); }

 private:
  std::map<uint64_t, Entry> table_;
};

}  // namespace camal::lsm

#endif  // CAMAL_LSM_MEMTABLE_H_
