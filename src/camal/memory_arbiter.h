#ifndef CAMAL_CAMAL_MEMORY_ARBITER_H_
#define CAMAL_CAMAL_MEMORY_ARBITER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "camal/sample.h"
#include "engine/storage_engine.h"
#include "model/workload_spec.h"
#include "util/status.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::tune {

/// Knobs of the per-tenant memory arbiter.
struct ArbiterOptions {
  /// Operations observed between arbitration rounds. Rounds land at batch
  /// boundaries, so the effective period is quantized to the pipeline's
  /// batch granularity.
  size_t period_ops = 2048;
  /// Per-shard budget floor as a fraction of the even share: no shard
  /// ever drops below `floor_frac * total / num_shards` bits.
  double floor_frac = 0.5;
  /// Budget quantum moved per step, as a fraction of the even share.
  double quantum_frac = 0.125;
  /// Maximum quanta moved per arbitration round.
  int max_moves_per_round = 8;
  /// A move requires the receiver's traffic-weighted modeled gain to
  /// exceed the donor's loss by this factor (hysteresis against budget
  /// thrashing under noisy windows; the concavity of cost-vs-memory
  /// already penalizes moves, so this stays close to 1).
  double hysteresis = 1.1;
  /// Shards per budget group of the two-level hierarchy. Shards that have
  /// never been rebalance participants hold no per-shard ledger entry:
  /// their budget lives amortized in their group's pool (exactly the even
  /// share until lifecycle events perturb it), so arbitration state and
  /// per-round work scale with the *active* tenant set, not the total.
  size_t group_size = 64;
};

/// \brief Per-tenant memory arbitration: observes per-shard load
/// (operation mix and volume, entry counts) over windows of `period_ops`
/// operations and periodically redistributes buffer/Bloom/block-cache
/// memory between the shards of a `StorageEngine` by model-priced
/// marginal benefit — the multi-tenant generalization of the paper's
/// Mb/Mf split round.
///
/// **Contract.** The fixed system total is conserved (budgets only move,
/// never grow), every shard keeps at least its floor, and the arbiter
/// talks only to the `StorageEngine` surface (`ShardOptionsSnapshot`,
/// `ShardEntries`, `ReconfigureShard`) — it works unchanged against any
/// backend, simulated or real-IO. The arbiter is a
/// `workload::BatchObserver`: attach it to an `ExecutorConfig` (static
/// serving, `Evaluator` with `SystemSetup::arbitration`), to a
/// `DynamicTuner` (dynamic serving, composing with per-shard retunes,
/// which then respect arbitrated budgets), or to a `serve::Gateway`. Not
/// attached — the even split — is the exact pre-arbiter behavior.
///
/// **Scale.** Budgets live in a two-level hierarchy (group → shard):
/// shards that have never participated in a rebalance are *implicit* —
/// their budget is amortized in their group's pool and they cost no
/// per-shard state or per-round work. A shard is promoted to an explicit
/// per-shard ledger entry the first time it sees window traffic
/// (withdrawing its exact amortized slice from the pool), and demoted
/// back (depositing its whole budget) when it hibernates idle. Every
/// promotion/demotion conserves the total bit-exactly, and a round's work
/// is O(explicit + active), never O(total shards). While every shard is
/// explicit — the regime any fully-loaded engine reaches — decisions are
/// bit-identical to a flat dense arbiter.
///
/// **Thread-safety.** Externally synchronized, like the engine it
/// arbitrates: `OnBatchEvent` fires on the execution thread between
/// batches, never concurrently with operations.
///
/// **Determinism.** All decisions are a deterministic function of the
/// observed operation stream and engine state (budget moves are priced on
/// op-mix windows, not on measured cost clocks — see `Rebalance`), so a
/// run with an arbiter attached is reproducible on the simulated backend
/// and produces identical budget trajectories on the real backend.
class MemoryArbiter : public workload::BatchObserver {
 public:
  /// `total_options` is the system-wide configuration whose memory the
  /// arbiter conserves; starting per-shard budgets are the engine's even
  /// split of it (`engine::ShardOptions` floor division), so an
  /// arbiter that never moves memory changes nothing. `setup` supplies
  /// the model basis (entry size, block size, scan selectivity).
  MemoryArbiter(const SystemSetup& setup, const lsm::Options& total_options,
                size_t num_shards, const ArbiterOptions& options);

  /// Records one observed operation routed to `shard` (scans are recorded
  /// on every shard they probe).
  void Record(size_t shard, workload::OpType type);

  /// True when a full observation window has elapsed.
  bool RoundDue() const { return window_ops_ >= options_.period_ops; }

  /// Runs one arbitration round against `engine`: prices every shard's
  /// marginal memory benefit from its window mix, moves quanta from the
  /// lowest-loss donors to the highest-gain receivers, reconfigures the
  /// shards whose budgets changed, and resets the window. Returns the
  /// number of shards reconfigured.
  size_t Rebalance(engine::StorageEngine* engine);

  /// BatchObserver: accounts the batch per shard and rebalances when a
  /// window has elapsed, riding the batch boundaries of whatever pipeline
  /// drives the engine. Executor-driven events (`event.ops` set) are
  /// accounted by the generator's typed operations; gateway-driven events
  /// (`event.ops` null — there is no generator behind gateway traffic)
  /// classify the engine ops instead, reading lookup zero-/non-zero-result
  /// from `OpResult::found`.
  void OnBatchEvent(engine::StorageEngine* engine,
                    const workload::BatchEvent& event) override;

  /// Current arbitrated budget of one shard, in bits. For a shard with no
  /// per-shard ledger entry this is its amortized slice of its group pool
  /// (exactly the even share until lifecycle events perturb the pool).
  uint64_t BudgetBits(size_t shard) const;
  /// Materialized dense budget view (O(num_shards) — observability/tests).
  std::vector<uint64_t> budget_bits() const;

  /// The conserved system total and the per-shard floor, in bits.
  uint64_t total_bits() const { return total_bits_; }
  uint64_t floor_bits() const { return floor_bits_; }

  size_t rounds() const { return rounds_; }
  size_t moves() const { return moves_; }
  size_t reconfigurations() const { return reconfigurations_; }

  /// False when the per-shard even share is too small for the model to
  /// price moves meaningfully (its buffer slice is under the model's
  /// minimum sensible buffer); the arbiter then observes but never moves
  /// memory.
  bool active() const { return active_; }

  const ArbiterOptions& options() const { return options_; }

  /// Attaches (or detaches, with null) a measured-cost corrector: every
  /// marginal-benefit pricing of subsequent rounds calibrates through it
  /// (`model::PriceMemoryDelta`), so budgets chase *measured* cost.
  /// Detached (the default) is the exact uncalibrated arbiter.
  void set_cost_corrector(std::shared_ptr<const model::CostCorrector> c) {
    cost_corrector_ = std::move(c);
  }
  const std::shared_ptr<const model::CostCorrector>& cost_corrector() const {
    return cost_corrector_;
  }

 private:
  /// One group of the two-level budget hierarchy: the pooled bits of all
  /// its member shards that hold no per-shard ledger entry.
  struct Group {
    uint64_t pool_bits = 0;
    size_t implicit_members = 0;
  };

  /// Model view of shard `s` at its current budget: local entry count from
  /// the engine, window mix, shared entry/block/selectivity basis.
  model::SystemParams ShardParams(const engine::StorageEngine& engine,
                                  size_t s, uint64_t budget_bits) const;

  /// Window mix of shard `s` (uniform when the shard saw no traffic).
  model::WorkloadSpec WindowSpec(size_t s) const;

  /// Applies shard `s`'s arbitrated budget: scales the shard's live
  /// buffer/Bloom/cache split proportionally into the new total and
  /// reconfigures the shard (shape knobs untouched).
  void ApplyBudget(engine::StorageEngine* engine, size_t s);

  /// Promotes shard `s` from its group pool to a per-shard ledger entry,
  /// withdrawing its exact amortized slice (the last member also takes the
  /// pool's division remainder, so not one bit strands). Returns the
  /// withdrawn budget.
  uint64_t TrackShard(size_t s);

  /// Demotes explicit shard `s` back to its group pool, depositing its
  /// entire ledger budget (the hibernation handoff — conservation exact).
  void UntrackShard(size_t s);

  /// Budget of a shard with no ledger entry: its group pool's floor
  /// average.
  uint64_t ImplicitBudget(size_t s) const;

  /// Lowest implicit member of the lowest group whose amortized slice can
  /// fund a donation (≥ floor + quantum); SIZE_MAX when no group can.
  size_t ImplicitDonorCandidate() const;

  SystemSetup setup_;
  ArbiterOptions options_;
  /// Shape the pricing holds fixed (T, policy, K of the system config).
  model::ModelConfig shape_;
  size_t num_shards_ = 0;
  size_t group_size_ = 1;
  uint64_t even_share_bits_ = 0;
  /// sum(pools) + sum(explicit ledger) == total_bits_, exactly, always.
  std::vector<Group> groups_;
  /// Per-shard ledger of every past/present rebalance participant,
  /// ascending (donor iteration order matches the dense arbiter's).
  std::map<size_t, uint64_t> explicit_;
  uint64_t total_bits_ = 0;
  uint64_t floor_bits_ = 0;
  uint64_t quantum_bits_ = 0;
  /// Window operation counts, only for shards that saw ops: v, r, q,
  /// w(+deletes). Ascending iteration keeps decisions deterministic.
  std::map<size_t, std::array<uint64_t, 4>> counts_;
  bool active_ = true;
  size_t window_ops_ = 0;
  size_t rounds_ = 0;
  size_t moves_ = 0;
  size_t reconfigurations_ = 0;
  std::shared_ptr<const model::CostCorrector> cost_corrector_;
};

}  // namespace camal::tune

#endif  // CAMAL_CAMAL_MEMORY_ARBITER_H_
