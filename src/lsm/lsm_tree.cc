#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cmath>

#include "lsm/compaction.h"
#include "lsm/monkey.h"
#include "util/status.h"

namespace camal::lsm {

namespace {
constexpr double kBloomBuildNsPerEntry = 30.0;
}  // namespace

LsmTree::LsmTree(const Options& options, sim::Device* device)
    : options_(options),
      device_(device),
      cache_(options.block_cache_bytes / device->config().block_bytes) {
  CAMAL_CHECK(options.Validate().ok());
}

LsmTree::LsmTree(FrozenTreeState state, sim::Device* device)
    : options_(state.options),
      device_(device),
      cache_(0),
      levels_(std::move(state.levels)),
      counters_(state.counters),
      next_run_id_(state.next_run_id),
      transition_active_(state.transition_active) {
  memtable_.LoadSorted(state.memtable);
  cache_.Restore(state.cache);
}

std::unique_ptr<FrozenTreeState> LsmTree::Freeze() {
  auto state = std::make_unique<FrozenTreeState>();
  state->total_entries = TotalEntries();
  state->disk_entries = DiskEntries();
  state->options = options_;
  state->memtable = memtable_.DrainSorted();
  state->levels = std::move(levels_);
  state->counters = counters_;
  state->cache = cache_.Freeze();
  state->next_run_id = next_run_id_;
  state->transition_active = transition_active_;
  return state;
}

void LsmTree::Put(uint64_t key, uint64_t value) {
  BufferWrite(key, value, /*tombstone=*/false);
}

void LsmTree::Delete(uint64_t key) {
  BufferWrite(key, 0, /*tombstone=*/true);
}

void LsmTree::BufferWrite(uint64_t key, uint64_t value, bool tombstone) {
  device_->ChargeCpu(device_->config().cpu_buffer_insert_ns);
  memtable_.Put(key, value, tombstone);
  if (memtable_.size() >= options_.BufferEntries()) FlushMemtable();
}

bool LsmTree::Get(uint64_t key, uint64_t* value) {
  // A memtable lookup is priced as a balanced-tree search.
  const double depth =
      memtable_.empty()
          ? 1.0
          : std::log2(static_cast<double>(memtable_.size()) + 1);
  device_->ChargeCpu(device_->config().cpu_key_compare_ns * depth);
  if (const Entry* buffered = memtable_.Find(key)) {
    if (buffered->tombstone) return false;
    if (value != nullptr) *value = buffered->value;
    return true;
  }
  Entry entry;
  const int deepest = levels_.DeepestNonEmpty();
  for (int level = 0; level <= deepest; ++level) {
    const auto& runs = levels_.At(static_cast<size_t>(level));
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) {  // newest first
      device_->ChargeCpu(device_->config().cpu_run_probe_ns);
      const Run::LookupOutcome outcome =
          (*it)->Get(key, &entry, device_, &cache_);
      if (outcome == Run::LookupOutcome::kFound) {
        if (entry.tombstone) return false;
        if (value != nullptr) *value = entry.value;
        return true;
      }
    }
  }
  return false;
}

namespace {

/// One source of a range scan, read in place: the memtable when `run` is
/// null, else a run from its first entry >= the start key. Consuming an
/// entry charges the iterator step, and entering a run block charges that
/// block's access (cache-aware), in the order the merge consumes them.
struct ScanCursor {
  const Run* run;
  const Entry* pos;  // run cursors: [pos, end) of the run's entries
  const Entry* end;
  Memtable::Cursor mem;  // the memtable cursor
  int64_t last_block;
  uint64_t per_block;
  sim::Device* device;
  BlockCache* cache;

  bool done() const { return run == nullptr ? mem.done() : pos == end; }
  const Entry& head() const { return run == nullptr ? mem.head() : *pos; }
  void advance() {
    device->ChargeCpu(device->config().cpu_iter_next_ns);
    if (run == nullptr) {
      mem.advance();
      return;
    }
    const auto idx = static_cast<size_t>(pos - run->entries().data());
    const auto block = static_cast<int64_t>(idx / per_block);
    if (block != last_block) {
      run->ChargeBlockAccess(idx, device, cache);
      last_block = block;
    }
    ++pos;
  }
};

}  // namespace

size_t LsmTree::Scan(uint64_t start_key, size_t max_entries,
                     std::vector<Entry>* out) {
  if (max_entries == 0) return 0;
  // The memtable is the newest source, walked over its whole tail:
  // tombstones in it shadow run entries arbitrarily far into the scan, so
  // a max_entries-bounded slice could miss live keys. Then come the runs,
  // newest to oldest.
  const uint64_t per_block = EntriesPerBlock();
  std::vector<ScanCursor> cursors;
  cursors.push_back({nullptr, nullptr, nullptr, memtable_.LowerBound(start_key),
                     -1, per_block, device_, &cache_});
  const int deepest = levels_.DeepestNonEmpty();
  for (int level = 0; level <= deepest; ++level) {
    const auto& runs = levels_.At(static_cast<size_t>(level));
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
      device_->ChargeCpu(device_->config().cpu_run_probe_ns);
      const std::vector<Entry>& entries = (*it)->entries();
      const size_t first = (*it)->FirstGeq(start_key, device_);
      cursors.push_back({it->get(), entries.data() + first,
                         entries.data() + entries.size(), {}, -1,
                         per_block, device_, &cache_});
    }
  }
  size_t added = 0;
  MergeCursors(cursors, /*drop_tombstones=*/true, [&](const Entry& e) {
    out->push_back(e);
    return ++added < max_entries;
  });
  return added;
}

void LsmTree::FlushMemtable() {
  if (memtable_.empty()) return;
  std::vector<Entry> entries = memtable_.DrainSorted();
  RunPtr run =
      BuildRun(std::move(entries), /*target_level=*/0, /*drained_level=*/-1);
  levels_.At(0).push_back(std::move(run));
  ++counters_.flushes;
  NormalizeFrom(0);
}

void LsmTree::Reconfigure(const Options& new_options) {
  CAMAL_CHECK(new_options.Validate().ok());
  CAMAL_CHECK(new_options.entry_bytes == options_.entry_bytes);
  options_ = new_options;
  cache_.Resize(new_options.block_cache_bytes /
                device_->config().block_bytes);
  transition_active_ = levels_.AnyLevelOverflows(options_);
  // The structure morphs lazily: violations are resolved by the next
  // natural flush/compaction, not here. An over-full memtable flushes on
  // the next write.
}

RunPtr LsmTree::BuildRun(std::vector<Entry> entries, size_t target_level,
                         int drained_level) {
  CAMAL_CHECK(!entries.empty());
  const double bpk =
      BloomBpkForLevel(target_level, entries.size(), drained_level);
  const uint64_t per_block = EntriesPerBlock();
  const uint64_t n = entries.size();
  auto run = std::make_shared<const Run>(next_run_id_++, std::move(entries),
                                         per_block, bpk, options_.entry_bytes,
                                         options_.file_bytes);
  const uint64_t blocks = run->num_blocks();
  for (uint64_t b = 0; b < blocks; ++b) device_->WriteBlock();
  counters_.compaction_block_writes += blocks;
  device_->ChargeCpu(kBloomBuildNsPerEntry * static_cast<double>(n));
  device_->ChargeCpu(device_->config().cpu_file_finalize_ns *
                     static_cast<double>(run->num_files()));
  if (transition_active_) counters_.transition_ios += blocks;
  return run;
}

double LsmTree::BloomBpkForLevel(size_t target_level, uint64_t incoming,
                                 int drained_level) const {
  std::vector<uint64_t> counts = levels_.EntryCounts();
  if (counts.size() <= target_level) counts.resize(target_level + 1, 0);
  if (drained_level >= 0 &&
      static_cast<size_t>(drained_level) < counts.size()) {
    counts[static_cast<size_t>(drained_level)] = 0;
  }
  counts[target_level] += incoming;
  const std::vector<double> bpk =
      MonkeyAllocate(static_cast<double>(options_.bloom_bits), counts);
  return bpk[target_level];
}

void LsmTree::NormalizeFrom(size_t level_idx) {
  for (size_t i = level_idx;; ++i) {
    auto& runs = levels_.At(i);
    if (runs.empty()) break;

    const auto max_runs = static_cast<size_t>(options_.MaxRunsPerLevel());
    if (runs.size() > max_runs) {
      RunPtr merged = MergeLevelIntoRun(i, i);
      runs.clear();
      runs.push_back(std::move(merged));
    }

    const double cap = options_.LevelCapacityEntries(static_cast<int>(i));
    if (static_cast<double>(levels_.LevelEntries(i)) <= cap) break;

    // Push this level's data down one level.
    RunPtr moving;
    if (runs.size() == 1) {
      moving = runs.front();
    } else {
      moving = MergeLevelIntoRun(i, i + 1);
    }
    runs.clear();
    levels_.At(i + 1).push_back(std::move(moving));
  }
  if (transition_active_ && !levels_.AnyLevelOverflows(options_)) {
    transition_active_ = false;
  }
}

RunPtr LsmTree::MergeLevelIntoRun(size_t level_idx, size_t output_level) {
  const auto& runs = levels_.At(level_idx);
  CAMAL_CHECK(!runs.empty());
  std::vector<RunPtr> newest_first(runs.rbegin(), runs.rend());

  uint64_t input_blocks = 0;
  uint64_t input_entries = 0;
  for (const RunPtr& run : newest_first) {
    input_blocks += run->num_blocks();
    input_entries += run->size();
  }
  for (uint64_t b = 0; b < input_blocks; ++b) device_->ReadBlockSequential();
  counters_.compaction_block_reads += input_blocks;
  if (transition_active_) counters_.transition_ios += input_blocks;
  device_->ChargeCpu(device_->config().cpu_entry_merge_ns *
                     static_cast<double>(input_entries));

  const bool bottommost =
      static_cast<int>(level_idx) >= levels_.DeepestNonEmpty() &&
      output_level >= level_idx;
  std::vector<Entry> merged = MergeRuns(newest_first, bottommost);
  ++counters_.merges;
  // Merging tombstones against each other can annihilate everything.
  if (merged.empty()) {
    merged.push_back(Entry{0, 0, true});
  }
  return BuildRun(std::move(merged), output_level,
                  static_cast<int>(level_idx));
}

}  // namespace camal::lsm
