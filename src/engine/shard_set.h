#ifndef CAMAL_ENGINE_SHARD_SET_H_
#define CAMAL_ENGINE_SHARD_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/storage_engine.h"
#include "lsm/entry.h"
#include "lsm/options.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace camal::engine {

/// The shard `key` routes to among `num_shards` hash partitions: the one
/// router every sharded engine — and any workload biased toward their
/// shards — agrees on.
inline size_t ShardOf(uint64_t key, size_t num_shards) {
  if (num_shards == 1) return 0;
  return static_cast<size_t>(util::Mix64(key) % num_shards);
}

/// The per-shard slice of a total configuration: buffer, Bloom, and
/// block-cache budgets divided by `num_shards` (shape knobs unchanged).
/// Identity when `num_shards` == 1. Every backend splits through this, so
/// budget arithmetic (and the memory arbiter's conserved total) is
/// identical across them.
lsm::Options ShardOptions(const lsm::Options& total, size_t num_shards);

/// Gathers per-shard sorted slices into one globally sorted stream of up
/// to `max_entries` entries via a binary-heap k-way merge: O(total·log k)
/// instead of a linear min-scan's O(total·k). Keys across slices must be
/// pairwise disjoint (hash partitioning guarantees it), so no tie-break
/// is needed and the output order is unique.
size_t MergeDisjointSlices(const std::vector<std::vector<lsm::Entry>>& slices,
                           size_t max_entries, std::vector<lsm::Entry>* out);

/// Every shard-id-keyed decision of a hash-partitioned engine, written
/// once for both backends: the `ShardOf` router, the budget split
/// and per-shard options (validated on every way in), the shard lifecycle
/// (cold → materialized ⇄ hibernated, with idle timers counted in
/// `ExecuteOps` batches), the batch plan (per-shard op lists, scan slots)
/// and the scatter-gather scan. Both backends making identical shard
/// decisions is what lets a tuning measured on one transfer to the other.
///
/// The backend keeps what is backend-specific — how a shard is created,
/// frozen, woken and executed — and plugs in as `Backend`, which must
/// provide (callable from `ShardSet`, e.g. by befriending it):
///
///     void CreateShard(size_t s, Slot& slot, const lsm::Options& options);
///     void WakeShard(size_t s, Slot& slot);    // hibernated -> live
///     void FreezeShard(size_t s, Slot& slot);  // live -> hibernated
///
/// `Slot` is the backend's per-shard state. Slots live in a hashed map
/// with an entry only for shards that were ever touched, so memory is
/// O(active), not O(total) — a million cold tenants cost nothing but the
/// map's empty buckets — and every pass is O(ops + resident), never
/// O(total shards). Entries never move, so slot references stay valid
/// across lifecycle transitions of other shards.
///
/// **Lifecycle.** A cold shard has no live state and is observationally
/// an empty shard: it materializes (with its deferred options, if it was
/// reconfigured while cold) on the first operation that touches it, and
/// scans skip it. With `ShardLifecycleConfig::hibernate_after_batches`
/// set, a materialized shard idle for that many batches freezes; the next
/// touching operation — or any scan — wakes it. The backend's freeze/wake
/// must round-trip the shard's state bit-exactly, which is what keeps a
/// lazy engine observationally identical to an eager one.
///
/// Externally synchronized, like the engines that hold it.
template <typename Slot, typename Backend>
class ShardSet {
 public:
  struct Entry {
    Slot slot{};
    ShardState state = ShardState::kCold;
    uint64_t last_touch_epoch = ~uint64_t{0};  // sentinel: never touched
  };

  /// One `ExecuteOps` batch partitioned into per-shard operation lists in
  /// submission order: a point op joins its routed shard's list, a scan
  /// probe joins every resident shard's list. Each list is exactly the op
  /// subsequence its shard would serve under serial execution, so the
  /// lists may run concurrently (shard state is fully shard-local) with
  /// results bit-identical to serial execution and no barrier inside the
  /// batch.
  struct Batch {
    /// Per-shard op indices, in submission order. Lists are in ascending
    /// shard order whenever the batch has scans (the probe set is the
    /// resident set), which scan gathers rely on.
    std::vector<std::vector<size_t>> lists;
    /// List index -> the shard's slot, resolved before the fan-out so
    /// workers never touch the shard map.
    std::vector<Slot*> slots;
    /// Op index -> scan ordinal (meaningful for scans only).
    std::vector<size_t> scan_slot;
    /// Scan ordinal -> op index.
    std::vector<size_t> scan_op;
  };

  /// `total_options` is the system-wide configuration; each shard starts
  /// from `ShardOptions(total_options, num_shards)`, which must validate.
  ShardSet(Backend* backend, size_t num_shards,
           const lsm::Options& total_options,
           const ShardLifecycleConfig& lifecycle)
      : backend_(backend),
        num_shards_(num_shards),
        lifecycle_(lifecycle),
        default_options_(ShardOptions(total_options, num_shards)) {
    CAMAL_CHECK(default_options_.Validate().ok());
  }

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  size_t num_shards() const { return num_shards_; }

  size_t ShardIndex(uint64_t key) const { return ShardOf(key, num_shards_); }

  /// The options cold shard `s` would materialize with.
  const lsm::Options& EffectiveOptions(size_t s) const {
    const auto it = cold_options_.find(s);
    return it != cold_options_.end() ? it->second : default_options_;
  }

  ShardState Lifecycle(size_t s) const {
    const Entry* e = Find(s);
    return e == nullptr ? ShardState::kCold : e->state;
  }
  size_t MaterializedShards() const { return resident_.size(); }
  void AppendResidentShards(std::vector<size_t>* out) const {
    out->insert(out->end(), resident_.begin(), resident_.end());
  }

  /// The entry of shard `s`, or null when it was never touched.
  const Entry* Find(size_t s) const {
    CAMAL_CHECK(s < num_shards_);
    const auto it = entries_.find(s);
    return it == entries_.end() ? nullptr : &it->second;
  }
  Entry* Find(size_t s) {
    return const_cast<Entry*>(std::as_const(*this).Find(s));
  }

  /// Every touched shard's entry, in no useful order (for order-free
  /// aggregates; see `SortedIds` for reproducible floating-point sums).
  const std::unordered_map<size_t, Entry>& entries() const { return entries_; }

  /// Ids of every touched shard, ascending — O(active log active).
  std::vector<size_t> SortedIds() const {
    std::vector<size_t> ids;
    ids.reserve(entries_.size());
    for (const auto& [s, e] : entries_) ids.push_back(s);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Shard `s`'s slot, adding a cold entry if it has none (for backend
  /// state that outlives the lifecycle, e.g. a simulated device).
  Slot& SlotOf(size_t s) {
    CAMAL_CHECK(s < num_shards_);
    return entries_[s].slot;
  }

  /// Materializes every shard up front when the lifecycle is eager
  /// (`lazy` off). Call once the backend can create shards.
  void MaterializeIfEager() {
    if (lifecycle_.lazy) return;
    for (size_t s = 0; s < num_shards_; ++s) Materialize(s);
  }

  /// Registers a shard the backend reconstructed itself (crash recovery)
  /// as materialized or hibernated.
  void Adopt(size_t s, Slot slot, ShardState state) {
    CAMAL_CHECK(s < num_shards_ && state != ShardState::kCold);
    Entry& e = entries_[s];
    CAMAL_CHECK(e.state == ShardState::kCold);
    e.slot = std::move(slot);
    e.state = state;
    (state == ShardState::kMaterialized ? resident_ : hibernated_).insert(s);
  }

  /// Brings shard `s` to the materialized state (create cold / wake
  /// hibernated), marks it active this batch, and returns its slot.
  Slot& Activate(size_t s) {
    Entry& e = Materialize(s);
    Touch(s, e);
    return e.slot;
  }

  /// Wakes every hibernated shard (scans: their data must be probed).
  void WakeAll() {
    while (!hibernated_.empty()) Materialize(*hibernated_.begin());
  }

  /// Activates the hibernated shards whose slot satisfies `needs_wake`
  /// (e.g. holding buffered writes a flush must drain); the rest sleep on.
  template <typename Pred>
  void WakeIf(Pred&& needs_wake) {
    std::vector<size_t> wake;
    for (size_t s : hibernated_) {
      if (needs_wake(static_cast<const Slot&>(entries_.at(s).slot))) {
        wake.push_back(s);
      }
    }
    for (size_t s : wake) Activate(s);
  }

  /// Calls `fn(slot)` for every materialized shard, ascending.
  template <typename Fn>
  void ForEachResident(Fn&& fn) {
    for (size_t s : resident_) fn(entries_.at(s).slot);
  }

  /// Opens a batch: advances the idle epoch and plans `ops` into `batch`.
  ///
  /// Pass 1 brings every shard the batch drives to the materialized
  /// state. Scans additionally wake all hibernated shards — their data
  /// participates in every range probe — while cold shards stay cold (an
  /// empty shard contributes nothing and charges nothing, so skipping it
  /// is bit-identical to an eager engine probing it). Pass 2 partitions
  /// the batch into `Batch::lists`.
  void PlanBatch(const Op* ops, size_t count, Batch* batch) {
    ++epoch_;
    bool has_scan = false;
    for (size_t i = 0; i < count; ++i) {
      if (ops[i].kind == OpKind::kScan) {
        has_scan = true;
      } else {
        Activate(ShardIndex(ops[i].key));
      }
    }
    if (has_scan) WakeAll();

    std::vector<size_t> list_shard;  // list index -> shard id
    std::vector<std::vector<size_t>>& lists = batch->lists;
    std::unordered_map<size_t, size_t> list_of;
    if (has_scan) {
      // The probe set is the resident set after pass 1, ascending — every
      // point shard of this batch is already in it, so no list is created
      // below and list_shard stays sorted.
      list_shard.assign(resident_.begin(), resident_.end());
      lists.resize(list_shard.size());
      list_of.reserve(2 * list_shard.size());
      for (size_t k = 0; k < list_shard.size(); ++k) {
        list_of.emplace(list_shard[k], k);
        Touch(list_shard[k], entries_.at(list_shard[k]));
      }
    }
    batch->scan_slot.assign(count, 0);
    for (size_t i = 0; i < count; ++i) {
      if (ops[i].kind == OpKind::kScan) {
        batch->scan_slot[i] = batch->scan_op.size();
        batch->scan_op.push_back(i);
        for (auto& list : lists) list.push_back(i);
      } else {
        const size_t s = ShardIndex(ops[i].key);
        const auto [it, inserted] = list_of.try_emplace(s, lists.size());
        if (inserted) {
          lists.emplace_back();
          list_shard.push_back(s);
        }
        lists[it->second].push_back(i);
      }
    }
    batch->slots.resize(lists.size());
    for (size_t k = 0; k < lists.size(); ++k) {
      batch->slots[k] = &entries_.at(list_shard[k]).slot;
    }
  }

  /// Closes a batch: hibernates the shards whose idle timers expired.
  void EndBatch() {
    const uint64_t window = lifecycle_.hibernate_after_batches;
    if (window == 0) return;
    while (!idle_queue_.empty() &&
           idle_queue_.front().second + window <= epoch_) {
      const auto [s, touched] = idle_queue_.front();
      idle_queue_.pop_front();
      // Lazy deletion: only the newest timer of a still-resident shard
      // hibernates it; stale entries (shard re-touched or already asleep)
      // fall through.
      const auto it = entries_.find(s);
      if (it != entries_.end() &&
          it->second.state == ShardState::kMaterialized &&
          it->second.last_touch_epoch == touched) {
        backend_->FreezeShard(s, it->second.slot);
        it->second.state = ShardState::kHibernated;
        resident_.erase(s);
        hibernated_.insert(s);
      }
    }
  }

  /// Scatter-gather range scan. `probe(slot, out)` appends up to
  /// `max_entries` of one shard's sorted live entries to `out` and
  /// returns how many. With one shard the probe writes `out` directly (no
  /// merge layer). Otherwise every shard that holds data is probed —
  /// hibernated shards wake, cold shards are skipped — concurrently on
  /// `pool`, and the disjoint slices are k-way merged.
  template <typename Probe>
  size_t Scan(util::ThreadPool* pool, size_t max_entries,
              std::vector<lsm::Entry>* out, Probe&& probe) {
    if (num_shards_ == 1) return probe(Activate(0), out);
    if (max_entries == 0) return 0;
    WakeAll();
    std::vector<Slot*> probed;
    probed.reserve(resident_.size());
    for (size_t s : resident_) {
      Entry& e = entries_.at(s);
      Touch(s, e);
      probed.push_back(&e.slot);
    }
    // Each probe touches only its own shard's state, so the fan-out is
    // deterministic: shard-local cost is independent of scheduling.
    std::vector<std::vector<lsm::Entry>> slices(probed.size());
    util::ParallelFor(pool, 0, probed.size(),
                      [&](size_t k) { probe(*probed[k], &slices[k]); });
    return MergeDisjointSlices(slices, max_entries, out);
  }

  /// Re-divides a new total budget: cold shards adopt the new slice at
  /// materialization, and `apply(s, per_shard)` runs for every
  /// materialized or hibernated shard (ids gathered first, so `apply` may
  /// change lifecycle states).
  template <typename Apply>
  void Reconfigure(const lsm::Options& new_total_options, Apply&& apply) {
    const lsm::Options per_shard =
        ShardOptions(new_total_options, num_shards_);
    CAMAL_CHECK(per_shard.Validate().ok());
    default_options_ = per_shard;
    cold_options_.clear();
    std::vector<size_t> touched(resident_.begin(), resident_.end());
    touched.insert(touched.end(), hibernated_.begin(), hibernated_.end());
    for (size_t s : touched) apply(s, per_shard);
  }

  /// Validates shard-local `options` for shard `s`. A cold shard records
  /// them as its materialization target and null is returned (deferred
  /// reconfiguration of an empty shard is observationally identical to
  /// applying it now); otherwise the shard's entry is returned for the
  /// backend to apply them, live or frozen.
  Entry* ReconfigureShard(size_t s, const lsm::Options& options) {
    CAMAL_CHECK(options.Validate().ok());
    Entry* e = Find(s);
    if (e != nullptr && e->state != ShardState::kCold) return e;
    CAMAL_CHECK(options.entry_bytes == EffectiveOptions(s).entry_bytes);
    cold_options_[s] = options;
    return nullptr;
  }

  /// True when `pred(options)` holds for the options of at least one cold
  /// shard — checking every recorded override plus, if any cold shard has
  /// none, the default — without an O(total shards) walk.
  template <typename Pred>
  bool AnyColdOptions(Pred&& pred) const {
    const size_t awake = resident_.size() + hibernated_.size();
    if (awake == num_shards_) return false;
    for (const auto& [s, options] : cold_options_) {
      if (pred(options)) return true;
    }
    return cold_options_.size() < num_shards_ - awake &&
           pred(default_options_);
  }

 private:
  Entry& Materialize(size_t s) {
    Entry& e = entries_[s];
    if (e.state == ShardState::kMaterialized) return e;
    if (e.state == ShardState::kHibernated) {
      backend_->WakeShard(s, e.slot);
      hibernated_.erase(s);
    } else {
      const auto it = cold_options_.find(s);
      backend_->CreateShard(
          s, e.slot, it != cold_options_.end() ? it->second : default_options_);
      if (it != cold_options_.end()) cold_options_.erase(it);
    }
    e.state = ShardState::kMaterialized;
    resident_.insert(s);
    return e;
  }

  /// Marks shard `s` active this batch and arms its idle timer.
  void Touch(size_t s, Entry& e) {
    if (lifecycle_.hibernate_after_batches == 0) return;
    if (e.last_touch_epoch == epoch_) return;
    e.last_touch_epoch = epoch_;
    idle_queue_.emplace_back(s, epoch_);
  }

  Backend* backend_;
  size_t num_shards_;
  ShardLifecycleConfig lifecycle_;
  lsm::Options default_options_;
  /// Options applied to a shard while cold, pending materialization.
  std::map<size_t, lsm::Options> cold_options_;
  std::unordered_map<size_t, Entry> entries_;
  /// Materialized shard ids, ascending (scan probe order).
  std::set<size_t> resident_;
  /// Hibernated shard ids (O(hibernated) wake-all, not O(total)).
  std::set<size_t> hibernated_;
  /// Idle tracking: (shard, touch epoch) entries with lazy deletion; a
  /// shard hibernates when its newest entry expires untouched.
  std::deque<std::pair<size_t, uint64_t>> idle_queue_;
  uint64_t epoch_ = 0;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_SHARD_SET_H_
