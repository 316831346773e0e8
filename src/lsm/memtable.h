#ifndef CAMAL_LSM_MEMTABLE_H_
#define CAMAL_LSM_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "lsm/entry.h"

namespace camal::lsm {

/// In-memory write buffer (paper Level 0), the one memtable of both
/// engines. Keeps the freshest version of each key, tombstones included;
/// flushing drains it into a sorted run. It charges nothing: the engine
/// that owns it prices its inserts and lookups.
///
/// Layout: a key-ordered array of fixed-capacity sorted chunks beside a
/// flat vector of each chunk's first key, so no entry gets its own heap
/// node. A lookup is two binary searches over contiguous memory (the first
/// keys, then one chunk); an insert shifts entries inside one chunk and
/// splits a full chunk in half. Emptied chunks are kept for reuse, so a
/// table that has reached its working size inserts without allocating.
class Memtable {
 public:
  /// Inserts or overwrites `key`.
  void Put(uint64_t key, uint64_t value, bool tombstone);

  /// The buffered version of `key` (a tombstone included), or null. Valid
  /// until the next Put, clear, drain or load.
  const Entry* Find(uint64_t key) const;

  /// Number of distinct buffered keys.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// All entries in key order.
  std::vector<Entry> Sorted() const;

  /// Removes and returns all entries in key order.
  std::vector<Entry> DrainSorted();

  /// Removes every entry, keeping the chunks for reuse.
  void Clear();

  /// Rebuilds the table from `entries` (sorted by key, as produced by
  /// `DrainSorted`): the restore half of shard hibernation.
  void LoadSorted(const std::vector<Entry>& entries);

  struct Chunk;

  /// A forward walk over the entries in key order, in place: a merge
  /// cursor for `MergeCursors`. Valid until the next Put, clear, drain or
  /// load.
  class Cursor {
   public:
    Cursor() = default;

    bool done() const { return chunk_ == end_; }
    const Entry& head() const;
    void advance();

   private:
    friend class Memtable;
    Cursor(const std::unique_ptr<Chunk>* chunk,
           const std::unique_ptr<Chunk>* end, uint32_t idx)
        : chunk_(chunk), end_(end), idx_(idx) {}

    const std::unique_ptr<Chunk>* chunk_ = nullptr;
    const std::unique_ptr<Chunk>* end_ = nullptr;
    uint32_t idx_ = 0;
  };

  /// The first entry with key >= `key`.
  Cursor LowerBound(uint64_t key) const;

  static constexpr uint32_t kChunkEntries = 128;

  struct Chunk {
    uint32_t size = 0;
    Entry entries[kChunkEntries];
  };

 private:
  /// Index of the chunk whose key range covers `key`: the last chunk whose
  /// first key is <= `key`, or chunk 0 when `key` precedes them all.
  /// The table must not be empty.
  size_t ChunkFor(uint64_t key) const;

  /// An empty chunk, reused when one is spare.
  std::unique_ptr<Chunk> NewChunk();

  std::vector<std::unique_ptr<Chunk>> chunks_;  // key order, none empty
  std::vector<uint64_t> first_keys_;  // first key of each chunk
  std::vector<std::unique_ptr<Chunk>> spare_;
  size_t size_ = 0;
};

inline const Entry& Memtable::Cursor::head() const {
  return (*chunk_)->entries[idx_];
}

inline void Memtable::Cursor::advance() {
  if (++idx_ == (*chunk_)->size) {
    ++chunk_;
    idx_ = 0;
  }
}

}  // namespace camal::lsm

#endif  // CAMAL_LSM_MEMTABLE_H_
