#include "engine/shard_set.h"

#include <algorithm>

namespace camal::engine {

lsm::Options ShardOptions(const lsm::Options& total, size_t num_shards) {
  CAMAL_CHECK(num_shards >= 1);
  if (num_shards == 1) return total;
  lsm::Options per_shard = total;
  const auto n = static_cast<uint64_t>(num_shards);
  per_shard.buffer_bytes =
      std::max<uint64_t>(total.entry_bytes, total.buffer_bytes / n);
  per_shard.bloom_bits = total.bloom_bits / n;
  per_shard.block_cache_bytes = total.block_cache_bytes / n;
  return per_shard;
}

size_t MergeDisjointSlices(const std::vector<std::vector<lsm::Entry>>& slices,
                           size_t max_entries, std::vector<lsm::Entry>* out) {
  // Min-heap of (head key, slice index); each pop advances one slice
  // cursor and may re-push that slice's next head.
  struct Head {
    uint64_t key;
    size_t slice;
  };
  const auto greater = [](const Head& a, const Head& b) {
    return a.key > b.key;
  };
  std::vector<Head> heap;
  heap.reserve(slices.size());
  std::vector<size_t> idx(slices.size(), 0);
  for (size_t s = 0; s < slices.size(); ++s) {
    if (!slices[s].empty()) heap.push_back(Head{slices[s][0].key, s});
  }
  std::make_heap(heap.begin(), heap.end(), greater);

  size_t added = 0;
  while (added < max_entries && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    const size_t s = heap.back().slice;
    heap.pop_back();
    out->push_back(slices[s][idx[s]++]);
    ++added;
    if (idx[s] < slices[s].size()) {
      heap.push_back(Head{slices[s][idx[s]].key, s});
      std::push_heap(heap.begin(), heap.end(), greater);
    }
  }
  return added;
}

}  // namespace camal::engine
