#ifndef CAMAL_ENGINE_SHARD_SET_H_
#define CAMAL_ENGINE_SHARD_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
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

/// The sharded `StorageEngine`, written once for both backends: the
/// `ShardOf` router, the budget split and per-shard options (validated on
/// every way in), the shard lifecycle (cold → materialized ⇄ hibernated,
/// with idle timers counted in `ExecuteOps` batches), the batch plan and
/// fan-out, the scan gather, the scatter-gather `Scan`, and every
/// aggregate view (sums in ascending shard order where floating point
/// makes order matter). Both backends making identical shard decisions
/// through this one class is what lets a tuning measured on one transfer
/// to the other.
///
/// A backend derives from `ShardSet<Backend, Slot>` (CRTP) and supplies
/// only its per-shard work, as members callable from this base (e.g. by
/// befriending it):
///
///     // lifecycle of one shard
///     void CreateShard(size_t s, Slot& slot, const lsm::Options& options);
///     void WakeShard(size_t s, Slot& slot);    // hibernated -> live
///     void FreezeShard(size_t s, Slot& slot);  // live -> hibernated
///     // work on a live slot
///     void ServeList(Slot& slot, ShardList& list);  // one batch list
///     void WriteSlot(Slot& slot, uint64_t key, uint64_t value,
///                    bool tombstone);
///     bool GetSlot(Slot& slot, uint64_t key, uint64_t* value);
///     size_t ScanSlot(Slot& slot, uint64_t start_key, size_t max_entries,
///                     std::vector<lsm::Entry>* out);
///     void FlushSlot(Slot& slot);
///     // a live or hibernated slot
///     void ReconfigureSlot(size_t s, Entry& e, const lsm::Options& options);
///     // the per-slot view of a materialized or hibernated shard
///     lsm::Options SlotOptions(const Entry& e) const;
///     EngineCounters SlotCounters(const Entry& e) const;
///     sim::DeviceSnapshot SlotCost(const Slot& slot) const;  // any entry
///     uint64_t SlotEntries(const Entry& e) const;
///     uint64_t SlotDiskEntries(const Entry& e) const;
///     bool SlotInTransition(const Entry& e) const;
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
/// scans skip it; the views report it empty, with its effective
/// options. With `ShardLifecycleConfig::hibernate_after_batches` set, a
/// materialized shard idle for that many batches freezes; the next
/// touching operation — or any scan — wakes it. The backend's freeze/wake
/// must round-trip the shard's state bit-exactly, which is what keeps a
/// lazy engine observationally identical to an eager one.
///
/// **Batch plan.** `ExecuteOps` plans each batch into per-shard op lists
/// held in member storage that is cleared, never freed, so a warm engine
/// plans without allocating. Every batch takes the same plan path. A
/// scan-free batch whose point ops all route to one shard (any single-op
/// call; any scan-free batch on one shard) is one list, which
/// `ParallelFor` serves inline on the caller's thread.
///
/// **Single ops.** `Put`/`Delete`/`Get`/`Scan` materialize and touch
/// their shard but do not go through `ExecuteOps`: they advance no idle
/// epoch and feed no `OpCostWindow`.
///
/// Externally synchronized, like every `StorageEngine`.
template <typename Backend, typename Slot>
class ShardSet : public StorageEngine {
 public:
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  // --- Point and range operations -------------------------------------

  void Put(uint64_t key, uint64_t value) final {
    backend().WriteSlot(Activate(ShardIndex(key)), key, value,
                        /*tombstone=*/false);
  }

  void Delete(uint64_t key) final {
    backend().WriteSlot(Activate(ShardIndex(key)), key, 0,
                        /*tombstone=*/true);
  }

  bool Get(uint64_t key, uint64_t* value) final {
    return backend().GetSlot(Activate(ShardIndex(key)), key, value);
  }

  /// Scatter-gather range scan. With one shard the probe writes `out`
  /// directly (no merge layer). Otherwise every shard that holds data is
  /// probed — hibernated shards wake, cold shards are skipped —
  /// concurrently on `pool()`, and the disjoint slices are k-way merged.
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<lsm::Entry>* out) final {
    if (num_shards_ == 1) {
      return backend().ScanSlot(Activate(0), start_key, max_entries, out);
    }
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
    util::ParallelFor(pool_, 0, probed.size(), [&](size_t k) {
      backend().ScanSlot(*probed[k], start_key, max_entries, &slices[k]);
    });
    return MergeDisjointSlices(slices, max_entries, out);
  }

  /// Batched execution: the batch is planned into per-shard op lists, the
  /// lists run concurrently on `pool()` workers (serially with no pool)
  /// with intra-shard order preserved, and per-op results land in
  /// submission order. Logical results and I/O counts are identical at
  /// any pool size; so are the costs of a backend whose clocks are
  /// shard-local and deterministic.
  ///
  /// One list (a scan-free batch routed to one shard, or any batch that
  /// probes one shard) is served inline on the caller's thread; several
  /// fan out on the pool. The plan is reused storage (class comment).
  ///
  /// A scan probes every list's shard; its cost is the gather's
  /// serial-equivalent: the per-shard cost snapshots before and after
  /// each probe, summed in ascending shard order (the lists are sorted
  /// whenever the batch has scans), then diffed — the same bits a
  /// caller-side `CostSnapshot()` diff around a serial scan produces.
  /// Absent cold shards would have contributed exact zeros. Its hit count
  /// is capped at the probe limit.
  void ExecuteOps(const Op* ops, size_t count, OpResult* results) final {
    if (count == 0) return;
    PlanBatch(ops, count, results);
    const size_t stride = plan_.slots.size();
    const size_t num_scans = plan_.scan_op.size();
    // Indexed scan ordinal * stride + list, so concurrent lists write
    // disjoint elements.
    plan_.probes.assign(num_scans * stride, ScanProbe{});
    // One list runs inline (ParallelFor's n == 1 case); capturing only
    // `this` keeps the closure inside std::function's inline buffer.
    util::ParallelFor(pool_, 0, stride,
                      [this](size_t k) { ServePlannedList(k); });
    for (size_t slot = 0; slot < num_scans; ++slot) {
      sim::DeviceSnapshot before, after;
      size_t hits = 0;
      for (size_t k = 0; k < stride; ++k) {
        const ScanProbe& p = plan_.probes[slot * stride + k];
        before += p.before;
        after += p.after;
        hits += p.hits;
      }
      const sim::DeviceSnapshot delta = after.Delta(before);
      const size_t i = plan_.scan_op[slot];
      OpResult r;
      r.latency_ns = delta.elapsed_ns;
      r.ios = delta.TotalIos();
      r.scan_hits = std::min(ops[i].scan_len, hits);
      results[i] = r;
    }
    EndBatch();
    ProfileBatch(ops, count, results);
  }
  using StorageEngine::ExecuteOps;

  /// Flushes every materialized shard. Hibernated shards holding buffered
  /// writes (entries beyond their disk entries) wake to flush them; the
  /// rest stay asleep (their flush would be a no-op). Cold shards are
  /// empty by construction.
  void FlushMemtable() final {
    std::vector<size_t> wake;
    for (size_t s : hibernated_) {
      const Entry& e = entries_.at(s);
      if (backend().SlotEntries(e) > backend().SlotDiskEntries(e)) {
        wake.push_back(s);
      }
    }
    for (size_t s : wake) Activate(s);
    for (size_t s : resident_) backend().FlushSlot(entries_.at(s).slot);
  }

  /// Divides `new_total_options`'s memory budget across shards and applies
  /// the slice to every materialized or hibernated shard as
  /// `ReconfigureShard` would; cold shards adopt it at materialization.
  void Reconfigure(const lsm::Options& new_total_options) final {
    const lsm::Options per_shard =
        ShardOptions(new_total_options, num_shards_);
    CAMAL_CHECK(per_shard.Validate().ok());
    default_options_ = per_shard;
    cold_options_.clear();
    // Ids gathered first: a reconfiguration may wake a shard.
    std::vector<size_t> touched(resident_.begin(), resident_.end());
    touched.insert(touched.end(), hibernated_.begin(), hibernated_.end());
    for (size_t s : touched) ReconfigureShard(s, per_shard);
  }

  /// Applies shard-local `options` to shard `s`. A materialized or
  /// hibernated shard is reconfigured by the backend, live or frozen; a
  /// cold shard stays cold and records them as its materialization
  /// target (deferred reconfiguration of an empty shard is
  /// observationally identical to applying it now).
  void ReconfigureShard(size_t s, const lsm::Options& options) final {
    CAMAL_CHECK(options.Validate().ok());
    Entry* e = Find(s);
    if (e == nullptr || e->state == ShardState::kCold) {
      CAMAL_CHECK(options.entry_bytes == EffectiveOptions(s).entry_bytes);
      cold_options_[s] = options;
      return;
    }
    backend().ReconfigureSlot(s, *e, options);
  }

  // --- Sharding surface -------------------------------------------------

  size_t NumShards() const final { return num_shards_; }

  size_t ShardIndex(uint64_t key) const final {
    return ShardOf(key, num_shards_);
  }

  ShardState ShardLifecycle(size_t s) const final {
    const Entry* e = Find(s);
    return e == nullptr ? ShardState::kCold : e->state;
  }

  size_t MaterializedShards() const final { return resident_.size(); }

  void AppendResidentShards(std::vector<size_t>* out) const final {
    out->insert(out->end(), resident_.begin(), resident_.end());
  }

  lsm::Options ShardOptionsSnapshot(size_t s) const final {
    const Entry* e = Live(s);
    return e == nullptr ? EffectiveOptions(s) : backend().SlotOptions(*e);
  }

  // --- Cost accounting and scale views ----------------------------------

  sim::DeviceSnapshot CostSnapshot() const final {
    // Ascending shard order — the floating-point sum must be
    // reproducible, and the hashed map iterates in no useful order.
    // Shards with no entry have charged nothing and contribute the same
    // exact zeros a fresh shard would.
    std::vector<size_t> ids;
    ids.reserve(entries_.size());
    for (const auto& [s, e] : entries_) ids.push_back(s);
    std::sort(ids.begin(), ids.end());
    sim::DeviceSnapshot total;
    for (size_t s : ids) total += backend().SlotCost(entries_.at(s).slot);
    return total;
  }

  /// A shard's cost clock outlives its lifecycle, so every entry — cold
  /// ones included — reports it.
  sim::DeviceSnapshot ShardCostSnapshot(size_t s) const final {
    const Entry* e = Find(s);
    return e == nullptr ? sim::DeviceSnapshot{} : backend().SlotCost(e->slot);
  }

  EngineCounters AggregateCounters() const final {
    return SumLive<EngineCounters>(
        [this](const Entry& e) { return backend().SlotCounters(e); });
  }

  EngineCounters ShardCounters(size_t s) const final {
    const Entry* e = Live(s);
    return e == nullptr ? EngineCounters{} : backend().SlotCounters(*e);
  }

  uint64_t TotalEntries() const final {
    return SumLive<uint64_t>(
        [this](const Entry& e) { return backend().SlotEntries(e); });
  }

  uint64_t DiskEntries() const final {
    return SumLive<uint64_t>(
        [this](const Entry& e) { return backend().SlotDiskEntries(e); });
  }

  uint64_t ShardEntries(size_t s) const final {
    const Entry* e = Live(s);
    return e == nullptr ? 0 : backend().SlotEntries(*e);
  }

  bool InTransition() const final {
    for (const auto& [s, e] : entries_) {
      if (e.state != ShardState::kCold && backend().SlotInTransition(e)) {
        return true;
      }
    }
    return false;
  }

  /// Attaches (or detaches, with nullptr) the worker pool `ExecuteOps` and
  /// `Scan` fan shard-local work across. Not owned; must outlive its use.
  /// No pool — and any call made from inside a pool worker — runs inline.
  void set_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* pool() const { return pool_; }

 protected:
  struct Entry {
    Slot slot{};
    ShardState state = ShardState::kCold;
    /// This shard's list in the batch being planned — valid only while
    /// `Plan::slots[plan_list]` is this slot (sits in `state`'s padding).
    uint32_t plan_list = 0;
    uint64_t last_touch_epoch = ~uint64_t{0};  // sentinel: never touched
  };

  /// One scan's probe of one shard: the shard's cost snapshots around it
  /// and the live entries it produced.
  struct ScanProbe {
    sim::DeviceSnapshot before;
    sim::DeviceSnapshot after;
    size_t hits = 0;
  };

  /// One shard's operation list of an `ExecuteOps` batch, handed to the
  /// backend's `ServeList`: the op indices in submission order — exactly
  /// the subsequence the shard would serve under serial execution. The
  /// server writes a point op's result to `results[i]` and serves a scan
  /// through `ServeScan`.
  struct ShardList {
    const Op* ops;
    OpResult* results;
    const std::vector<size_t>& indices;
    const std::vector<size_t>& scan_slot;  // op index -> scan ordinal
    ScanProbe* probes;  // this list's column of the probe matrix
    size_t stride;
    std::vector<lsm::Entry> scratch{};  // scan output, discarded
  };

  /// `total_options` is the system-wide configuration; each shard starts
  /// from `ShardOptions(total_options, num_shards)`, which must validate.
  ShardSet(size_t num_shards, const lsm::Options& total_options,
           const ShardLifecycleConfig& lifecycle)
      : num_shards_(num_shards),
        lifecycle_(lifecycle),
        default_options_(ShardOptions(total_options, num_shards)) {
    CAMAL_CHECK(default_options_.Validate().ok());
  }

  /// Serves scan op `i` of `list` on its live slot for the gather.
  void ServeScan(Slot& slot, ShardList& list, size_t i) {
    const Op& op = list.ops[i];
    ScanProbe& probe = list.probes[list.scan_slot[i] * list.stride];
    list.scratch.clear();
    probe.before = backend().SlotCost(slot);
    probe.hits = backend().ScanSlot(slot, op.key, op.scan_len, &list.scratch);
    probe.after = backend().SlotCost(slot);
  }

  /// The options cold shard `s` would materialize with.
  const lsm::Options& EffectiveOptions(size_t s) const {
    const auto it = cold_options_.find(s);
    return it != cold_options_.end() ? it->second : default_options_;
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

  /// Every touched shard's entry, in no useful order.
  const std::unordered_map<size_t, Entry>& entries() const { return entries_; }

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
  /// One `ExecuteOps` batch partitioned into per-shard operation lists in
  /// submission order: a point op joins its routed shard's list, a scan
  /// probe joins every resident shard's list. Each list is exactly the op
  /// subsequence its shard would serve under serial execution, so the
  /// lists may run concurrently (shard state is fully shard-local) with
  /// results bit-identical to serial execution and no barrier inside the
  /// batch. Every vector is cleared, never freed, between batches: the
  /// engine is externally synchronized, and pool workers only read the
  /// plan and write disjoint `results`/`probes` elements.
  struct Plan {
    const Op* ops = nullptr;
    OpResult* results = nullptr;
    /// Per-shard op indices, in submission order; the first
    /// `slots.size()` are this batch's. Lists are in ascending shard order
    /// whenever the batch has scans (the probe set is the resident set),
    /// which the scan gather relies on.
    std::vector<std::vector<size_t>> lists;
    /// List index -> the shard's slot, resolved before the fan-out so
    /// workers never touch the shard map.
    std::vector<Slot*> slots;
    /// Op index -> scan ordinal (meaningful for scans only).
    std::vector<size_t> scan_slot;
    /// Scan ordinal -> op index.
    std::vector<size_t> scan_op;
    /// Scan ordinal * list count + list -> that list's probe.
    std::vector<ScanProbe> probes;
  };

  Backend& backend() { return static_cast<Backend&>(*this); }
  const Backend& backend() const { return static_cast<const Backend&>(*this); }

  /// The entry of a materialized or hibernated shard `s`, or null when it
  /// is cold.
  const Entry* Live(size_t s) const {
    const Entry* e = Find(s);
    return e == nullptr || e->state == ShardState::kCold ? nullptr : e;
  }

  /// Sums `view(entry)` over every materialized or hibernated shard.
  /// Integer sums are order-free, so the map iterates directly.
  template <typename T, typename View>
  T SumLive(View&& view) const {
    T total{};
    for (const auto& [s, e] : entries_) {
      if (e.state != ShardState::kCold) total += view(e);
    }
    return total;
  }

  /// Opens a batch: advances the idle epoch and plans `ops` into `plan_`.
  ///
  /// Pass 1 brings every shard the batch drives to the materialized
  /// state. Scans additionally wake all hibernated shards — their data
  /// participates in every range probe — while cold shards stay cold (an
  /// empty shard contributes nothing and charges nothing, so skipping it
  /// is bit-identical to an eager engine probing it). Pass 2 partitions
  /// the batch into `Plan::lists`.
  void PlanBatch(const Op* ops, size_t count, OpResult* results) {
    ++epoch_;
    bool has_scan = false;
    for (size_t i = 0; i < count; ++i) {
      if (ops[i].kind == OpKind::kScan) {
        has_scan = true;
      } else {
        Activate(ShardIndex(ops[i].key));
      }
    }

    Plan& plan = plan_;
    plan.ops = ops;
    plan.results = results;
    plan.slots.clear();
    plan.scan_op.clear();
    if (has_scan) {
      WakeAll();
      // The probe set is the resident set after pass 1, ascending — every
      // point shard of this batch is already in it, so no list is created
      // below and the lists stay sorted.
      for (size_t s : resident_) {
        Entry& e = entries_.at(s);
        Touch(s, e);
        OpenList(e);
      }
      plan.scan_slot.resize(count);
    }
    for (size_t i = 0; i < count; ++i) {
      if (ops[i].kind == OpKind::kScan) {
        plan.scan_slot[i] = plan.scan_op.size();
        plan.scan_op.push_back(i);
        for (size_t k = 0; k < plan.slots.size(); ++k) {
          plan.lists[k].push_back(i);
        }
      } else {
        Entry& e = entries_.find(ShardIndex(ops[i].key))->second;
        const bool listed = e.plan_list < plan.slots.size() &&
                            plan.slots[e.plan_list] == &e.slot;
        if (!listed) OpenList(e);
        plan.lists[e.plan_list].push_back(i);
      }
    }
  }

  /// Gives shard entry `e` the next list of the batch being planned.
  void OpenList(Entry& e) {
    Plan& plan = plan_;
    const size_t k = plan.slots.size();
    CAMAL_CHECK(k <= std::numeric_limits<uint32_t>::max());
    e.plan_list = static_cast<uint32_t>(k);
    plan.slots.push_back(&e.slot);
    if (k == plan.lists.size()) plan.lists.emplace_back();
    plan.lists[k].clear();
  }

  /// Serves list `k` of the planned batch on its slot.
  void ServePlannedList(size_t k) {
    ShardList list{plan_.ops,       plan_.results,
                   plan_.lists[k],  plan_.scan_slot,
                   plan_.probes.data() + k, plan_.slots.size()};
    backend().ServeList(*plan_.slots[k], list);
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
        backend().FreezeShard(s, it->second.slot);
        it->second.state = ShardState::kHibernated;
        resident_.erase(s);
        hibernated_.insert(s);
      }
    }
  }

  /// Wakes every hibernated shard (scans: their data must be probed).
  void WakeAll() {
    while (!hibernated_.empty()) Materialize(*hibernated_.begin());
  }

  Entry& Materialize(size_t s) {
    Entry& e = entries_[s];
    if (e.state == ShardState::kMaterialized) return e;
    if (e.state == ShardState::kHibernated) {
      backend().WakeShard(s, e.slot);
      hibernated_.erase(s);
    } else {
      const auto it = cold_options_.find(s);
      backend().CreateShard(
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
  util::ThreadPool* pool_ = nullptr;
  /// The batch being served (storage reused from batch to batch).
  Plan plan_;
};

}  // namespace camal::engine

#endif  // CAMAL_ENGINE_SHARD_SET_H_
