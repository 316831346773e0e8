#include "lsm/memtable.h"

#include <algorithm>

#include "util/search.h"

namespace camal::lsm {

namespace {

/// Entries a chunk built by `LoadSorted` receives: room is left for
/// inserts so a restored table does not split on its first writes.
constexpr uint32_t kLoadFill = Memtable::kChunkEntries * 3 / 4;

/// First entry of a chunk with key >= `key`, or its end.
Entry* SeekInChunk(Memtable::Chunk& chunk, uint64_t key) {
  return chunk.entries + util::LowerBound(chunk.entries, chunk.size, key,
                                          [](const Entry& e) { return e.key; });
}

}  // namespace

size_t Memtable::ChunkFor(uint64_t key) const {
  const size_t leq =
      util::UpperBound(first_keys_.data(), first_keys_.size(), key);
  return leq == 0 ? 0 : leq - 1;
}

std::unique_ptr<Memtable::Chunk> Memtable::NewChunk() {
  if (spare_.empty()) return std::make_unique<Chunk>();
  std::unique_ptr<Chunk> chunk = std::move(spare_.back());
  spare_.pop_back();
  return chunk;
}

void Memtable::Put(uint64_t key, uint64_t value, bool tombstone) {
  const Entry entry{key, value, tombstone};
  if (chunks_.empty()) {
    chunks_.push_back(NewChunk());
    first_keys_.push_back(key);
  }
  size_t c = ChunkFor(key);
  Chunk* chunk = chunks_[c].get();
  Entry* pos = SeekInChunk(*chunk, key);
  if (pos != chunk->entries + chunk->size && pos->key == key) {
    *pos = entry;
    return;
  }
  if (chunk->size == kChunkEntries) {
    // Split: the upper half moves to a new chunk right after this one.
    constexpr uint32_t kHalf = kChunkEntries / 2;
    std::unique_ptr<Chunk> upper = NewChunk();
    std::copy(chunk->entries + kHalf, chunk->entries + kChunkEntries,
              upper->entries);
    upper->size = kChunkEntries - kHalf;
    chunk->size = kHalf;
    first_keys_.insert(first_keys_.begin() + static_cast<ptrdiff_t>(c) + 1,
                       upper->entries[0].key);
    chunks_.insert(chunks_.begin() + static_cast<ptrdiff_t>(c) + 1,
                   std::move(upper));
    if (key > first_keys_[c + 1]) chunk = chunks_[++c].get();
    pos = SeekInChunk(*chunk, key);
  }
  std::copy_backward(pos, chunk->entries + chunk->size,
                     chunk->entries + chunk->size + 1);
  *pos = entry;
  ++chunk->size;
  ++size_;
  if (pos == chunk->entries) first_keys_[c] = key;
}

const Entry* Memtable::Find(uint64_t key) const {
  if (chunks_.empty()) return nullptr;
  Chunk& chunk = *chunks_[ChunkFor(key)];
  const Entry* pos = SeekInChunk(chunk, key);
  if (pos == chunk.entries + chunk.size || pos->key != key) return nullptr;
  return pos;
}

Memtable::Cursor Memtable::LowerBound(uint64_t key) const {
  const std::unique_ptr<Chunk>* end = chunks_.data() + chunks_.size();
  if (chunks_.empty()) return Cursor(end, end, 0);
  size_t c = ChunkFor(key);
  Chunk& chunk = *chunks_[c];
  auto idx = static_cast<uint32_t>(SeekInChunk(chunk, key) - chunk.entries);
  // Past this chunk's last entry, the next chunk's first key is > `key`.
  if (idx == chunk.size) {
    ++c;
    idx = 0;
  }
  return Cursor(chunks_.data() + c, end, idx);
}

std::vector<Entry> Memtable::Sorted() const {
  std::vector<Entry> out;
  out.reserve(size_);
  for (const std::unique_ptr<Chunk>& chunk : chunks_) {
    out.insert(out.end(), chunk->entries, chunk->entries + chunk->size);
  }
  return out;
}

std::vector<Entry> Memtable::DrainSorted() {
  std::vector<Entry> out = Sorted();
  Clear();
  return out;
}

void Memtable::Clear() {
  for (std::unique_ptr<Chunk>& chunk : chunks_) {
    chunk->size = 0;
    spare_.push_back(std::move(chunk));
  }
  chunks_.clear();
  first_keys_.clear();
  size_ = 0;
}

void Memtable::LoadSorted(const std::vector<Entry>& entries) {
  Clear();
  for (size_t i = 0; i < entries.size(); i += kLoadFill) {
    std::unique_ptr<Chunk> chunk = NewChunk();
    const size_t n = std::min<size_t>(kLoadFill, entries.size() - i);
    std::copy(entries.begin() + static_cast<ptrdiff_t>(i),
              entries.begin() + static_cast<ptrdiff_t>(i + n), chunk->entries);
    chunk->size = static_cast<uint32_t>(n);
    first_keys_.push_back(chunk->entries[0].key);
    chunks_.push_back(std::move(chunk));
  }
  size_ = entries.size();
}

}  // namespace camal::lsm
