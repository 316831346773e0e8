#include "lsm/run.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace camal::lsm {

Run::Run(uint64_t id, std::vector<Entry> entries, uint64_t entries_per_block,
         double bloom_bits_per_key, uint64_t entry_bytes, uint64_t file_bytes)
    : id_(id),
      entries_(std::move(entries)),
      entries_per_block_(std::max<uint64_t>(1, entries_per_block)),
      bloom_bits_per_key_(bloom_bits_per_key) {
  CAMAL_CHECK(!entries_.empty());
  num_blocks_ = (entries_.size() + entries_per_block_ - 1) / entries_per_block_;
  if (file_bytes > 0) {
    const uint64_t entries_per_file =
        std::max<uint64_t>(1, file_bytes / entry_bytes);
    num_files_ = (entries_.size() + entries_per_file - 1) / entries_per_file;
  } else {
    num_files_ = 1;
  }
}

const BloomFilter& Run::Filter() const {
  std::call_once(filter_once_, [this] {
    filter_ = BloomFilter(entries_.size(), bloom_bits_per_key_);
    if (filter_.absent()) return;
    for (const Entry& e : entries_) filter_.Add(e.key);
  });
  return filter_;
}

Run::LookupOutcome Run::Get(uint64_t key, Entry* out, sim::Device* device,
                            BlockCache* cache) const {
  const sim::DeviceConfig& cfg = device->config();
  device->ChargeCpu(cfg.cpu_bloom_probe_ns);
  if (key < min_key() || key > max_key()) return LookupOutcome::kFilteredOut;
  if (!Filter().MayContain(key)) return LookupOutcome::kFilteredOut;

  // Fence-pointer binary search over blocks, then within-block search.
  // Extra logical SST files add a small metadata binary-search overhead.
  const double fence_depth = std::log2(static_cast<double>(num_blocks_) + 1) +
                             std::log2(static_cast<double>(num_files_) + 1);
  device->ChargeCpu(cfg.cpu_key_compare_ns * fence_depth);

  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, uint64_t k) { return e.key < k; });
  const size_t idx = static_cast<size_t>(it - entries_.begin());
  // One block access regardless of hit or false positive: the filter said
  // "maybe", so the block must be fetched to know.
  ChargeBlockAccess(std::min(idx, entries_.size() - 1), device, cache);
  device->ChargeCpu(cfg.cpu_key_compare_ns *
                    std::log2(static_cast<double>(entries_per_block_) + 1));
  if (it == entries_.end() || it->key != key) {
    return LookupOutcome::kNotFoundAfterIo;
  }
  *out = *it;
  return LookupOutcome::kFound;
}

size_t Run::FirstGeq(uint64_t key, sim::Device* device) const {
  const sim::DeviceConfig& cfg = device->config();
  const double fence_depth = std::log2(static_cast<double>(num_blocks_) + 1) +
                             std::log2(static_cast<double>(num_files_) + 1);
  device->ChargeCpu(cfg.cpu_key_compare_ns * fence_depth);
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, uint64_t k) { return e.key < k; });
  return static_cast<size_t>(it - entries_.begin());
}

void Run::ChargeBlockAccess(size_t idx, sim::Device* device,
                            BlockCache* cache) const {
  const uint64_t key = BlockCache::MakeKey(id_, BlockOf(idx));
  device->ChargeCpu(device->config().cpu_cache_access_ns);
  if (cache != nullptr && cache->Lookup(key)) return;
  device->ReadBlock();
  if (cache != nullptr) cache->Insert(key);
}

}  // namespace camal::lsm
