#include "lsm/memtable.h"

#include <cmath>

namespace camal::lsm {

void Memtable::Put(uint64_t key, uint64_t value, bool tombstone,
                   sim::Device* device) {
  device->ChargeCpu(device->config().cpu_buffer_insert_ns);
  table_[key] = Entry{key, value, tombstone};
}

bool Memtable::Get(uint64_t key, Entry* out, sim::Device* device) const {
  const double depth = table_.empty()
                           ? 1.0
                           : std::log2(static_cast<double>(table_.size()) + 1);
  device->ChargeCpu(device->config().cpu_key_compare_ns * depth);
  auto it = table_.find(key);
  if (it == table_.end()) return false;
  *out = it->second;
  return true;
}

std::vector<Entry> Memtable::DrainSorted() {
  std::vector<Entry> out;
  out.reserve(table_.size());
  for (const auto& [key, entry] : table_) out.push_back(entry);
  table_.clear();
  return out;
}

void Memtable::LoadSorted(const std::vector<Entry>& entries) {
  table_.clear();
  for (const Entry& e : entries) table_.emplace_hint(table_.end(), e.key, e);
}

}  // namespace camal::lsm
