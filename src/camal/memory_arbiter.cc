#include "camal/memory_arbiter.h"

#include <algorithm>
#include <limits>
#include <set>

#include "engine/shard_set.h"
#include "model/arbitration.h"
#include "model/optimum.h"
#include "util/status.h"

namespace camal::tune {

namespace {

/// The model's op type of an engine op served without a generator behind
/// it (gateway-driven batches). Lookups are classified by their outcome —
/// a found key is the model's non-zero-result lookup, a miss its
/// zero-result one — which is exactly what the generator's labels encode
/// on a steady-state key space.
workload::OpType ServedType(const engine::Op& op,
                            const engine::OpResult& result) {
  switch (op.kind) {
    case engine::OpKind::kGet:
      return result.found ? workload::OpType::kNonZeroResultLookup
                          : workload::OpType::kZeroResultLookup;
    case engine::OpKind::kScan:
      return workload::OpType::kRangeLookup;
    case engine::OpKind::kPut:
      return workload::OpType::kWrite;
    case engine::OpKind::kDelete:
      return workload::OpType::kDelete;
  }
  return workload::OpType::kWrite;  // unreachable: the switch is exhaustive
}

}  // namespace

MemoryArbiter::MemoryArbiter(const SystemSetup& setup,
                             const lsm::Options& total_options,
                             size_t num_shards,
                             const ArbiterOptions& options)
    : setup_(setup), options_(options) {
  CAMAL_CHECK(num_shards >= 1);
  shape_.policy = total_options.policy;
  shape_.size_ratio = total_options.size_ratio;
  shape_.runs_per_level = total_options.runs_per_level;

  // Start from exactly what the engine handed each shard (floor division
  // drops remainders system-wide, so the conserved total is the sum of
  // the shares, not the nominal system budget).
  const engine::ShardBudget even = engine::ShardBudget::FromOptions(
      engine::ShardOptions(total_options, num_shards));
  num_shards_ = num_shards;
  even_share_bits_ = even.TotalBits();
  total_bits_ = even_share_bits_ * num_shards;
  // Every shard starts implicit: its even share pooled in its group. The
  // pool of g members holds exactly g * share, so any withdrawal order
  // hands each member exactly the even share until lifecycle events
  // perturb the pool — the lazy hierarchy is invisible at steady start.
  group_size_ = std::max<size_t>(1, options_.group_size);
  const size_t num_groups = (num_shards + group_size_ - 1) / group_size_;
  groups_.resize(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t members =
        std::min(group_size_, num_shards - g * group_size_);
    groups_[g].implicit_members = members;
    groups_[g].pool_bits = even_share_bits_ * members;
  }
  const double share = static_cast<double>(even.TotalBits());
  floor_bits_ = static_cast<uint64_t>(options_.floor_frac * share);
  quantum_bits_ =
      std::max<uint64_t>(1, static_cast<uint64_t>(options_.quantum_frac * share));
  // A quantum whose buffer slice is smaller than one entry is below the
  // engine's discretization: budgets would drift, behavior would barely
  // change, and every move would still pay reconfiguration transitions.
  // Raise the quantum so each move shifts at least one whole buffer
  // entry on the proportional split.
  const double buffer_frac =
      share == 0.0 ? 1.0 : 8.0 * static_cast<double>(even.buffer_bytes) / share;
  const double entry_bits = 8.0 * static_cast<double>(total_options.entry_bytes);
  quantum_bits_ = std::max<uint64_t>(
      quantum_bits_,
      static_cast<uint64_t>(entry_bits / std::max(0.05, buffer_frac)) + 1);
  // Degenerate-budget guard: when the even share's buffer allocation is
  // already below the model's smallest sensible buffer, the closed form
  // has nothing trustworthy to say about moving memory — budgets hold at
  // the even split rather than trade real transition I/O for modeled
  // noise.
  model::SystemParams share_params = setup_.ToModelParams();
  share_params.total_memory_bits = share;
  active_ = 8.0 * static_cast<double>(even.buffer_bytes) >=
            model::MinBufferBits(share_params);
}

uint64_t MemoryArbiter::TrackShard(size_t s) {
  Group& g = groups_[s / group_size_];
  CAMAL_CHECK(g.implicit_members > 0);
  uint64_t take = g.pool_bits / g.implicit_members;
  g.pool_bits -= take;
  g.implicit_members -= 1;
  if (g.implicit_members == 0) {
    // The last member takes the division remainder with it: pools drain
    // to exactly zero and not one bit strands outside the ledger.
    take += g.pool_bits;
    g.pool_bits = 0;
  }
  explicit_.emplace(s, take);
  return take;
}

void MemoryArbiter::UntrackShard(size_t s) {
  auto it = explicit_.find(s);
  CAMAL_CHECK(it != explicit_.end());
  Group& g = groups_[s / group_size_];
  g.pool_bits += it->second;
  g.implicit_members += 1;
  explicit_.erase(it);
}

uint64_t MemoryArbiter::ImplicitBudget(size_t s) const {
  const Group& g = groups_[s / group_size_];
  CAMAL_CHECK(g.implicit_members > 0);
  return g.pool_bits / g.implicit_members;
}

size_t MemoryArbiter::ImplicitDonorCandidate() const {
  for (size_t g = 0; g < groups_.size(); ++g) {
    const Group& grp = groups_[g];
    if (grp.implicit_members == 0) continue;
    if (grp.pool_bits / grp.implicit_members < floor_bits_ + quantum_bits_) {
      continue;
    }
    const size_t begin = g * group_size_;
    const size_t end = std::min(begin + group_size_, num_shards_);
    for (size_t s = begin; s < end; ++s) {
      if (explicit_.find(s) == explicit_.end()) return s;
    }
  }
  return std::numeric_limits<size_t>::max();
}

uint64_t MemoryArbiter::BudgetBits(size_t shard) const {
  CAMAL_CHECK(shard < num_shards_);
  const auto it = explicit_.find(shard);
  return it != explicit_.end() ? it->second : ImplicitBudget(shard);
}

std::vector<uint64_t> MemoryArbiter::budget_bits() const {
  std::vector<uint64_t> out(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) out[s] = BudgetBits(s);
  return out;
}

void MemoryArbiter::Record(size_t shard, workload::OpType type) {
  CAMAL_CHECK(shard < num_shards_);
  auto& c = counts_[shard];
  switch (type) {
    case workload::OpType::kZeroResultLookup:
      ++c[0];
      break;
    case workload::OpType::kNonZeroResultLookup:
      ++c[1];
      break;
    case workload::OpType::kRangeLookup:
      ++c[2];
      break;
    case workload::OpType::kWrite:
    case workload::OpType::kDelete:
      ++c[3];
      break;
  }
}

void MemoryArbiter::OnBatchEvent(engine::StorageEngine* engine,
                                 const workload::BatchEvent& event) {
  CAMAL_CHECK(event.ops != nullptr ||
              (event.engine_ops != nullptr && event.results != nullptr));
  // A scatter-gather scan probes every *data-holding* shard — the
  // resident set, which on an eager engine is every shard (the historical
  // accounting, bit-identical) and on a lazy one exactly the shards the
  // scan actually visited. Resolved once per batch, not per scan.
  std::vector<size_t> resident;
  bool resident_ready = false;
  // Executor-driven events carry the generator's typed operations.
  const bool typed = event.ops != nullptr;
  for (size_t i = 0; i < event.count; ++i) {
    const uint64_t key = typed ? event.ops[i].key : event.engine_ops[i].key;
    const workload::OpType type =
        typed ? event.ops[i].type
              : ServedType(event.engine_ops[i], event.results[i]);
    if (type == workload::OpType::kRangeLookup) {
      if (!resident_ready) {
        engine->AppendResidentShards(&resident);
        resident_ready = true;
      }
      for (size_t s : resident) Record(s, type);
    } else {
      Record(engine->ShardIndex(key), type);
    }
  }
  window_ops_ += event.count;
  if (RoundDue()) Rebalance(engine);
}

model::SystemParams MemoryArbiter::ShardParams(
    const engine::StorageEngine& engine, size_t s,
    uint64_t budget_bits) const {
  model::SystemParams p = setup_.ToModelParams();
  p.num_entries =
      static_cast<double>(std::max<uint64_t>(1, engine.ShardEntries(s)));
  p.total_memory_bits = static_cast<double>(budget_bits);
  // A scatter-gather scan drains only ~1/N of the merged selectivity from
  // each shard; pricing the full selectivity on every shard would make
  // scan-probed cold shards look far more memory-hungry than they are.
  p.selectivity =
      std::max(1.0, p.selectivity / static_cast<double>(num_shards_));
  return p;
}

model::WorkloadSpec MemoryArbiter::WindowSpec(size_t s) const {
  const auto it = counts_.find(s);
  if (it == counts_.end()) return model::WorkloadSpec{0.25, 0.25, 0.25, 0.25};
  const auto& c = it->second;
  const uint64_t total = c[0] + c[1] + c[2] + c[3];
  if (total == 0) return model::WorkloadSpec{0.25, 0.25, 0.25, 0.25};
  const double n = static_cast<double>(total);
  model::WorkloadSpec spec;
  spec.v = static_cast<double>(c[0]) / n;
  spec.r = static_cast<double>(c[1]) / n;
  spec.q = static_cast<double>(c[2]) / n;
  spec.w = static_cast<double>(c[3]) / n;
  return spec;
}

size_t MemoryArbiter::Rebalance(engine::StorageEngine* engine) {
  ++rounds_;
  size_t reconfigured = 0;
  std::set<size_t> changed;
  if (active_ && num_shards_ > 1) {
    // Lifecycle handoffs first, both exact to the bit. Demote: an
    // explicit shard that hibernated and stayed silent this window
    // deposits its whole budget back into its group pool — its memory
    // amortizes over the group until it wakes. Promote: every shard that
    // saw window traffic withdraws its amortized slice from the pool and
    // becomes a rebalance participant; if the slice differs from what the
    // engine currently holds (the pool drifted while the shard was
    // implicit), the shard is reconfigured to the ledger value below.
    std::vector<size_t> demote;
    for (const auto& [s, bits] : explicit_) {
      if (counts_.find(s) != counts_.end()) continue;
      if (engine->ShardLifecycle(s) == engine::ShardState::kHibernated) {
        demote.push_back(s);
      }
    }
    for (size_t s : demote) UntrackShard(s);
    for (const auto& [s, c] : counts_) {
      if (explicit_.find(s) != explicit_.end()) continue;
      const uint64_t take = TrackShard(s);
      const engine::ShardBudget held =
          engine::ShardBudget::FromOptions(engine->ShardOptionsSnapshot(s));
      if (take != held.TotalBits()) changed.insert(s);
    }

    // Rebalance participants: the explicit ledger, ascending — on a fully
    // explicit system the exact shard order (and therefore every
    // tie-break) of the flat dense arbiter.
    std::vector<size_t> part;
    part.reserve(explicit_.size());
    for (const auto& [s, bits] : explicit_) part.push_back(s);

    // Load share of each shard: its window operation volume, with scans
    // counted on every shard they probe (the per-probe work is priced at
    // the per-shard selectivity slice by ShardParams). Op volume — not
    // the measured cost clock — ranks shards deliberately: measured cost
    // is dominated by whichever shard happened to run a big compaction,
    // and a freshly reconfigured shard pays transition I/O that would
    // read as load, feeding budget moves back into themselves. The
    // measured clocks (`ShardCostSnapshot`) stay the *validation* signal:
    // they are what benches report per shard next to the budgets.
    const auto window_load = [this](size_t s) {
      const auto it = counts_.find(s);
      if (it == counts_.end()) return 0.0;
      const auto& c = it->second;
      return static_cast<double>(c[0] + c[1] + c[2] + c[3]);
    };
    double load_total = 0.0;
    for (const auto& [s, c] : counts_) {
      load_total += static_cast<double>(c[0] + c[1] + c[2] + c[3]);
    }

    // Load-weighted marginal value of one quantum per participant,
    // refreshed only for shards whose budget a move changed.
    const double delta = static_cast<double>(quantum_bits_);
    std::vector<double> rate(part.size(), 0.0);
    std::vector<model::MemoryMarginal> marginal(part.size());
    const auto refresh = [&](size_t i) {
      const size_t s = part[i];
      const double load = window_load(s);
      rate[i] = load_total <= 0.0 ? 0.0 : load / load_total;
      if (load == 0.0) {
        // A silent tenant neither gains nor loses by the model; only its
        // floor protects it from being fully drained.
        marginal[i] = model::MemoryMarginal{};
        return;
      }
      const lsm::Options live = engine->ShardOptionsSnapshot(s);
      const engine::ShardBudget held = engine::ShardBudget::FromOptions(live);
      const double mc_frac =
          held.TotalBits() == 0
              ? 0.0
              : static_cast<double>(8 * held.block_cache_bytes) /
                    static_cast<double>(held.TotalBits());
      model::ModelConfig shape = shape_;
      shape.policy = live.policy;
      shape.size_ratio = live.size_ratio;
      shape.runs_per_level = live.runs_per_level;
      marginal[i] =
          model::PriceMemoryDelta(WindowSpec(s), ShardParams(*engine, s, explicit_[s]),
                                  shape, mc_frac, delta,
                                  cost_corrector_.get());
    };
    for (size_t i = 0; i < part.size(); ++i) refresh(i);

    constexpr size_t kNone = std::numeric_limits<size_t>::max();
    for (int move = 0; move < options_.max_moves_per_round; ++move) {
      size_t receiver = kNone, donor = kNone;
      double best_gain = 0.0;
      double best_loss = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < part.size(); ++i) {
        const double gain = rate[i] * marginal[i].gain;
        if (gain > best_gain) {
          best_gain = gain;
          receiver = i;
        }
      }
      if (receiver == kNone) break;
      for (size_t i = 0; i < part.size(); ++i) {
        if (i == receiver) continue;
        if (explicit_[part[i]] < floor_bits_ + quantum_bits_) continue;
        const double loss = rate[i] * marginal[i].loss;
        if (loss < best_loss) {
          best_loss = loss;
          donor = i;
        }
      }
      // The pool fallback: when no explicit shard donates at zero loss, a
      // silent implicit shard can — the flat arbiter drained exactly such
      // shards (silent, zero modeled loss). Promote the lowest fundable
      // one; it enters the ledger at its amortized slice and donates from
      // there. Explicit zero-loss donors still win (they come first).
      if (best_loss > 0.0) {
        const size_t s = ImplicitDonorCandidate();
        if (s != kNone) {
          TrackShard(s);
          part.push_back(s);
          rate.push_back(0.0);
          marginal.push_back(model::MemoryMarginal{});
          donor = part.size() - 1;
          best_loss = 0.0;
        }
      }
      if (donor == kNone) break;
      if (best_gain <= options_.hysteresis * best_loss) break;
      explicit_[part[receiver]] += quantum_bits_;
      explicit_[part[donor]] -= quantum_bits_;
      changed.insert(part[receiver]);
      changed.insert(part[donor]);
      ++moves_;
      refresh(receiver);
      refresh(donor);
    }

    for (size_t s : changed) {
      ApplyBudget(engine, s);
      ++reconfigured;
    }
  }

  reconfigurations_ += reconfigured;
  counts_.clear();
  window_ops_ = 0;
  return reconfigured;
}

void MemoryArbiter::ApplyBudget(engine::StorageEngine* engine, size_t s) {
  lsm::Options opts = engine->ShardOptionsSnapshot(s);
  const engine::ShardBudget held = engine::ShardBudget::FromOptions(opts);
  const double budget = static_cast<double>(BudgetBits(s));

  // Buffer, Bloom, and cache scale proportionally into the new budget:
  // the shard keeps the *shape* of its internal split (whether it came
  // from the system config or a per-shard retune) and only its total
  // changes. The model already decided the cross-shard move; re-deciding
  // the intra-shard split here would bet the measured substrate agrees
  // with the closed form twice per move. Per-shard retunes
  // (DynamicTuner) remain the place where splits are re-optimized — at
  // the arbitrated budget.
  const double scale =
      held.TotalBits() == 0 ? 1.0
                            : budget / static_cast<double>(held.TotalBits());

  // Floor divisions round bits down into bytes, so an applied budget can
  // only undershoot the arbitrated one (the buffer clamp mirrors
  // TuningConfig::ToOptions and is covered by the per-shard floor).
  opts.buffer_bytes = std::max<uint64_t>(
      opts.entry_bytes * 4,
      static_cast<uint64_t>(static_cast<double>(held.buffer_bytes) * scale));
  opts.bloom_bits =
      static_cast<uint64_t>(static_cast<double>(held.bloom_bits) * scale);
  opts.block_cache_bytes = static_cast<uint64_t>(
      static_cast<double>(held.block_cache_bytes) * scale);
  engine->ReconfigureShard(s, opts);
}

}  // namespace camal::tune
