#include "lsm/block_cache.h"

#include <new>

namespace camal::lsm {

namespace {
bool OverAligned(size_t align) {
  return align > __STDCPP_DEFAULT_NEW_ALIGNMENT__;
}
}  // namespace

Block::Block(size_t bytes, size_t align)
    : data_(OverAligned(align) ? static_cast<char*>(::operator new[](
                                     bytes, std::align_val_t(align)))
                               : new char[bytes]),
      align_(align) {}

Block::~Block() {
  if (OverAligned(align_)) {
    ::operator delete[](data_, std::align_val_t(align_));
  } else {
    delete[] data_;
  }
}

// ------------------------------------------------------------------ KeyIndex

void KeyIndex::Insert(uint64_t key, uint32_t value) {
  if ((size_ + 1) * 2 > table_.size()) {
    std::vector<Slot> old = std::move(table_);
    table_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    shift_ = 64;
    for (size_t n = table_.size(); n > 1; n >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.value != kNone) table_[SlotOf(s.key)] = s;
    }
  }
  table_[SlotOf(key)] = Slot{key, value};
  ++size_;
}

void KeyIndex::Erase(uint64_t key) {
  const size_t mask = table_.size() - 1;
  size_t hole = SlotOf(key);
  // Backward shift: pull each later entry of the probe run into the hole
  // when the hole lies between its home slot and where it sits.
  for (size_t j = (hole + 1) & mask; table_[j].value != kNone;
       j = (j + 1) & mask) {
    const size_t home = Home(table_[j].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      table_[hole] = table_[j];
      hole = j;
    }
  }
  table_[hole] = Slot{};
  --size_;
}

void KeyIndex::Release() {
  table_ = {};
  shift_ = 64;
  size_ = 0;
}

// ---------------------------------------------------------------- BlockCache

BlockCache::BlockCache(uint64_t capacity_blocks) : capacity_(capacity_blocks) {}

uint32_t BlockCache::NewNode(uint64_t key, BlockPtr payload) {
  uint32_t n = free_;
  if (n != kNil) {
    free_ = nodes_[n].older;
  } else {
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n].key = key;
  nodes_[n].payload = std::move(payload);
  return n;
}

void BlockCache::Link(uint32_t n, bool at_lru) {
  Node& node = nodes_[n];
  if (at_lru) {
    node.newer = lru_;
    node.older = kNil;
    (lru_ == kNil ? mru_ : nodes_[lru_].older) = n;
    lru_ = n;
  } else {
    node.newer = kNil;
    node.older = mru_;
    (mru_ == kNil ? lru_ : nodes_[mru_].newer) = n;
    mru_ = n;
  }
}

void BlockCache::Unlink(uint32_t n) {
  const Node& node = nodes_[n];
  (node.newer == kNil ? mru_ : nodes_[node.newer].older) = node.older;
  (node.older == kNil ? lru_ : nodes_[node.older].newer) = node.newer;
}

BlockPtr BlockCache::EvictLru() {
  const uint32_t n = lru_;
  Node& node = nodes_[n];
  index_.Erase(node.key);
  Unlink(n);
  BlockPtr payload = std::move(node.payload);
  node.older = free_;
  free_ = n;
  return payload;
}

bool BlockCache::Lookup(uint64_t key, BlockPtr* payload) {
  const uint32_t n = capacity_ == 0 ? kNil : index_.Find(key);
  if (n == kNil) {
    ++misses_;
    return false;
  }
  if (n != mru_) {
    Unlink(n);
    Link(n);
  }
  ++hits_;
  if (payload != nullptr) *payload = nodes_[n].payload;
  return true;
}

bool BlockCache::Peek(uint64_t key, BlockPtr* payload) const {
  const uint32_t n = index_.Find(key);
  if (n == kNil) return false;
  if (payload != nullptr) *payload = nodes_[n].payload;
  return true;
}

BlockPtr BlockCache::Insert(uint64_t key, BlockPtr payload) {
  if (capacity_ == 0) return payload;
  const uint32_t resident = index_.Find(key);
  if (resident != kNil) {
    if (resident != mru_) {
      Unlink(resident);
      Link(resident);
    }
    nodes_[resident].payload.swap(payload);
    return payload;
  }
  BlockPtr evicted;
  if (index_.size() >= capacity_) evicted = EvictLru();
  const uint32_t n = NewNode(key, std::move(payload));
  index_.Insert(key, n);
  Link(n);
  return evicted;
}

void BlockCache::Resize(uint64_t capacity_blocks) {
  capacity_ = capacity_blocks;
  while (index_.size() > capacity_) EvictLru();
}

void BlockCache::Clear() {
  nodes_ = {};
  index_.Release();
  mru_ = lru_ = free_ = kNil;
}

BlockCache::FrozenState BlockCache::Freeze() {
  FrozenState state;
  state.capacity = capacity_;
  state.keys_mru_to_lru.reserve(index_.size());
  for (uint32_t n = mru_; n != kNil; n = nodes_[n].older) {
    state.keys_mru_to_lru.push_back(nodes_[n].key);
  }
  state.hits = hits_;
  state.misses = misses_;
  Clear();
  return state;
}

void BlockCache::Restore(const FrozenState& state) {
  Clear();
  capacity_ = state.capacity;
  hits_ = state.hits;
  misses_ = state.misses;
  nodes_.reserve(state.keys_mru_to_lru.size());
  for (uint64_t key : state.keys_mru_to_lru) {
    const uint32_t n = NewNode(key, nullptr);
    index_.Insert(key, n);
    Link(n, /*at_lru=*/true);
  }
}

}  // namespace camal::lsm
