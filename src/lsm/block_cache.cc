#include "lsm/block_cache.h"

namespace camal::lsm {

BlockCache::BlockCache(uint64_t capacity_blocks) : capacity_(capacity_blocks) {}

bool BlockCache::Lookup(uint64_t key, BlockPtr* payload) {
  if (capacity_ == 0) {
    ++misses_;
    return false;
  }
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  if (payload != nullptr) *payload = it->second->second;
  return true;
}

bool BlockCache::Peek(uint64_t key, BlockPtr* payload) const {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  if (payload != nullptr) *payload = it->second->second;
  return true;
}

void BlockCache::Insert(uint64_t key, BlockPtr payload) {
  if (capacity_ == 0) return;
  auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = std::move(payload);
    return;
  }
  lru_.emplace_front(key, std::move(payload));
  map_[key] = lru_.begin();
  EvictToCapacity();
}

void BlockCache::Resize(uint64_t capacity_blocks) {
  capacity_ = capacity_blocks;
  EvictToCapacity();
}

void BlockCache::Clear() {
  lru_.clear();
  map_.clear();
}

BlockCache::FrozenState BlockCache::Freeze() {
  FrozenState state;
  state.capacity = capacity_;
  state.keys_mru_to_lru.reserve(lru_.size());
  for (const auto& [key, payload] : lru_) state.keys_mru_to_lru.push_back(key);
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
  for (uint64_t key : state.keys_mru_to_lru) {
    lru_.emplace_back(key, nullptr);
    map_[key] = std::prev(lru_.end());
  }
}

void BlockCache::EvictToCapacity() {
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

}  // namespace camal::lsm
