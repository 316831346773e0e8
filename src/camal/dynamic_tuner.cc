#include "camal/dynamic_tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "camal/extrapolation.h"
#include "camal/memory_arbiter.h"
#include "util/status.h"

namespace camal::tune {

namespace {

/// The shard's profiler totals summed across op kinds — the measured-op
/// clock race windows are cut on.
engine::OpCostWindow ShardWindowTotal(const engine::StorageEngine& engine,
                                      size_t s) {
  engine::OpCostWindow total;
  for (size_t k = 0; k < engine::kNumOpKinds; ++k) {
    total += engine.ShardOpCostWindow(s, static_cast<engine::OpKind>(k));
  }
  return total;
}

/// The shard's live options as a tuning-space point (the incumbent race
/// candidate).
TuningConfig IncumbentConfig(const lsm::Options& live) {
  TuningConfig c;
  c.policy = live.policy;
  c.size_ratio = live.size_ratio;
  c.mf_bits = static_cast<double>(live.bloom_bits);
  c.mb_bits = 8.0 * static_cast<double>(live.buffer_bytes);
  c.mc_bits = 8.0 * static_cast<double>(live.block_cache_bytes);
  c.runs_per_level = live.runs_per_level;
  c.io_queue_depth = live.io_queue_depth;
  return c;
}

/// Candidate identity for deduplication: racing two copies of one config
/// wastes windows without telling the race anything. Exact equality of
/// the tree shape (policy, T, K) and of all three memory shares.
bool SameShapeAndMemory(const TuningConfig& a, const TuningConfig& b) {
  return a.policy == b.policy && a.size_ratio == b.size_ratio &&
         a.mf_bits == b.mf_bits && a.mb_bits == b.mb_bits &&
         a.mc_bits == b.mc_bits && a.runs_per_level == b.runs_per_level;
}

/// Measured objective of one candidate: ios per measured op (unmeasured
/// candidates price as infinitely bad — they cannot win).
double MeasuredIosPerOp(uint64_t ops, uint64_t ios) {
  if (ops == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(ios) / static_cast<double>(ops);
}

}  // namespace

DynamicTuner::DynamicTuner(RecommendFn recommend,
                           const SystemSetup& base_setup, const Params& params)
    : recommend_(std::move(recommend)),
      base_setup_(base_setup),
      shard_setup_(base_setup),
      params_(params) {}

void DynamicTuner::BindEngine(const engine::StorageEngine& engine) {
  const size_t shards = std::max<size_t>(1, engine.NumShards());
  if (!detectors_.empty()) {
    CAMAL_CHECK(detectors_.size() == shards);
    return;
  }
  detectors_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    detectors_.emplace_back(params_.window_ops, params_.tau);
  }
  shard_setup_ = ScaledDown(base_setup_, static_cast<double>(shards));
}

size_t DynamicTuner::reconfigurations() const {
  size_t total = 0;
  for (const workload::ShiftDetector& d : detectors_) {
    total += d.reconfigurations();
  }
  return total;
}

void DynamicTuner::RetuneShard(engine::StorageEngine* engine, size_t s,
                               const model::WorkloadSpec& stream_spec) {
  // A shift (or the shard's initial window) was detected: re-tune for the
  // shard's estimated local mix at the shard's *current* data scale.
  model::WorkloadSpec estimated = detectors_[s].LastWindowSpec();
  estimated.skew = stream_spec.skew;
  const double scale = static_cast<double>(engine->ShardEntries(s)) /
                       static_cast<double>(shard_setup_.num_entries);
  model::SystemParams target =
      ScaleParams(shard_setup_.ToModelParams(), std::max(0.1, scale));
  if (arbiter_ != nullptr) {
    // The retune prices its recommendation at the shard's arbitrated
    // budget, not the scaled even share: a hot shard that was granted
    // extra memory keeps it across shape retunes.
    target.total_memory_bits = static_cast<double>(arbiter_->BudgetBits(s));
  }
  last_applied_ = recommend_(estimated, target);
  if (racing_.enabled &&
      engine->ShardLifecycle(s) == engine::ShardState::kMaterialized) {
    // Race the recommendation against the incumbent on live traffic
    // instead of trusting the model outright. Only materialized shards
    // race: a cold/hibernated shard has no live structures to measure,
    // so its recommendation applies directly (below), exactly as with
    // racing off.
    StartRace(engine, s, last_applied_);
    return;
  }
  engine->ReconfigureShard(s, last_applied_.ToOptions(shard_setup_));
}

void DynamicTuner::ApplyRaceConfig(engine::StorageEngine* engine, size_t s,
                                   const TuningConfig& c) {
  TuningConfig applied = c;
  if (arbiter_ != nullptr) {
    // Racing owns the shape (T, policy, split proportions); the arbiter
    // owns the budget. Rescale the candidate's memory to the shard's
    // arbitrated budget so rotations never fight arbitration rounds —
    // and never create or destroy budget (conservation stays exact).
    const double budget = static_cast<double>(arbiter_->BudgetBits(s));
    const double have = c.mf_bits + c.mb_bits + c.mc_bits;
    if (have > 0.0 && budget > 0.0) {
      const double k = budget / have;
      // Floor each pool to the whole units ToOptions materializes (bits
      // for Bloom, bytes for buffer/cache) so its rounding can only
      // undershoot the arbitrated budget, never overshoot it — the same
      // discipline as MemoryArbiter::ApplyBudget.
      applied.mf_bits = std::floor(c.mf_bits * k);
      applied.mb_bits = 8.0 * std::floor(c.mb_bits * k / 8.0);
      applied.mc_bits = 8.0 * std::floor(c.mc_bits * k / 8.0);
    }
  }
  engine->ReconfigureShard(s, applied.ToOptions(shard_setup_));
}

void DynamicTuner::StartRace(engine::StorageEngine* engine, size_t s,
                             const TuningConfig& recommended) {
  // A fire on a racing shard abandons the stale race: the shift that
  // fired the detector made its half-collected measurements
  // unrepresentative.
  races_.erase(s);

  ShardRace race;
  RaceCandidate incumbent;
  incumbent.config = IncumbentConfig(engine->ShardOptionsSnapshot(s));
  race.candidates.push_back(std::move(incumbent));
  const auto add_candidate = [&](const TuningConfig& c) {
    if (race.candidates.size() >=
        static_cast<size_t>(std::max(2, racing_.candidates))) {
      return;
    }
    for (const RaceCandidate& existing : race.candidates) {
      if (SameShapeAndMemory(existing.config, c)) return;
    }
    RaceCandidate cand;
    cand.config = c;
    race.candidates.push_back(std::move(cand));
  };
  add_candidate(recommended);
  // A shape perturbation of the recommendation: one size-ratio notch
  // toward the incumbent's side of the space (or outward at the floor),
  // probing whether the model stopped one step short.
  TuningConfig perturbed = recommended;
  perturbed.size_ratio = recommended.size_ratio > 4.0
                             ? recommended.size_ratio - 2.0
                             : recommended.size_ratio + 2.0;
  add_candidate(perturbed);

  if (race.candidates.size() < 2) {
    // Everything deduplicated onto the incumbent: nothing to learn from
    // a race; apply the recommendation directly (it IS the incumbent).
    engine->ReconfigureShard(s, recommended.ToOptions(shard_setup_));
    return;
  }

  // The race opens on the incumbent (already applied — the shard keeps
  // serving untouched while its first window fills).
  race.incumbent = 0;
  race.current = 0;
  const engine::OpCostWindow w = ShardWindowTotal(*engine, s);
  race.base_ops = w.ops;
  race.base_ios = w.ios;
  race.base_latency_ns = w.latency_ns;
  races_.emplace(s, std::move(race));
  ++races_started_;
}

void DynamicTuner::AdvanceRaces(engine::StorageEngine* engine) {
  if (races_.empty()) return;
  std::vector<size_t> settled;
  for (auto& [s, race] : races_) {
    const engine::OpCostWindow w = ShardWindowTotal(*engine, s);
    const uint64_t window_ops = w.ops - race.base_ops;
    // Windows advance on *measured* ops only: an idle (or hibernated)
    // shard's race pauses where it stood and resumes with its traffic.
    if (window_ops < racing_.window_ops) continue;

    RaceCandidate& cur = race.candidates[race.current];
    cur.ops += window_ops;
    cur.ios += w.ios - race.base_ios;
    cur.latency_ns += w.latency_ns - race.base_latency_ns;

    race.current = (race.current + 1) % race.candidates.size();
    if (race.current == 0) ++race.rounds;

    if (race.rounds >= std::max(1, racing_.min_rounds)) {
      // Settle: the measured-ios/op winner takes the shard — if it
      // clears the hysteresis margin over the incumbent.
      size_t winner = race.incumbent;
      double winner_cost = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < race.candidates.size(); ++i) {
        const double cost = MeasuredIosPerOp(race.candidates[i].ops,
                                             race.candidates[i].ios);
        if (cost < winner_cost) {
          winner_cost = cost;
          winner = i;
        }
      }
      const double incumbent_cost =
          MeasuredIosPerOp(race.candidates[race.incumbent].ops,
                           race.candidates[race.incumbent].ios);
      const bool switch_away =
          winner != race.incumbent &&
          winner_cost <= incumbent_cost * (1.0 - racing_.min_improvement);
      const size_t chosen = switch_away ? winner : race.incumbent;
      last_applied_ = race.candidates[chosen].config;
      ApplyRaceConfig(engine, s, last_applied_);
      if (switch_away) {
        ++race_switches_;
      } else {
        ++race_holds_;
      }
      settled.push_back(s);
      continue;
    }

    // Rotate: next candidate takes the shard for its window.
    ApplyRaceConfig(engine, s, race.candidates[race.current].config);
    const engine::OpCostWindow after = ShardWindowTotal(*engine, s);
    race.base_ops = after.ops;
    race.base_ios = after.ios;
    race.base_latency_ns = after.latency_ns;
  }
  for (size_t s : settled) races_.erase(s);
}

workload::ExecutionResult DynamicTuner::RunPhase(
    engine::StorageEngine* engine, workload::KeySpace* keys,
    const model::WorkloadSpec& spec, size_t num_ops, uint64_t seed) {
  BindEngine(*engine);

  workload::ExecutionResult result;
  workload::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = base_setup_.scan_len;
  gen_cfg.insert_new_keys = true;  // data grows across phases
  // Tenant-skewed phases (inert at shard_skew == 0: the generator then
  // draws exactly the historical stream).
  gen_cfg.shard_skew = base_setup_.shard_skew;
  gen_cfg.num_shards = engine->NumShards();
  workload::OperationGenerator gen(spec, keys, gen_cfg, seed);

  // The stream executes through the engine's batched pipeline. Detector
  // state depends only on operation *types*, so firings are computed at
  // generation time; a batch is cut exactly at the op whose recording
  // fires a detector, the pending ops execute, and the fired shards are
  // retuned before any later op runs — the same execute-record-retune
  // order as op-at-a-time serving, with each shard's retune observing the
  // shard's true local scale at that point of the stream.
  constexpr size_t kMaxBatch = 512;
  std::vector<workload::Operation> pending;
  std::vector<engine::Op> ops;
  std::vector<engine::OpResult> op_results;
  // Shards whose detector fired at the batch-ending op: one home shard for
  // a point op, any subset (in shard order) for a scan, which every
  // detector records.
  std::vector<size_t> fired;

  size_t done = 0;
  size_t batch_index = 0;
  while (done < num_ops) {
    pending.clear();
    fired.clear();
    while (done + pending.size() < num_ops && pending.size() < kMaxBatch) {
      const workload::Operation op = gen.Next();
      pending.push_back(op);
      if (op.type != workload::OpType::kRangeLookup) {
        const size_t home = engine->ShardIndex(op.key);
        if (detectors_[home].Record(op.type)) fired.push_back(home);
      } else {
        for (size_t s = 0; s < detectors_.size(); ++s) {
          if (detectors_[s].Record(op.type)) fired.push_back(s);
        }
      }
      if (!fired.empty()) break;
    }

    ops.clear();
    for (const workload::Operation& op : pending) {
      ops.push_back(workload::ToEngineOp(op));
    }
    op_results.resize(ops.size());
    engine->ExecuteOps(ops.data(), ops.size(), op_results.data());
    for (size_t i = 0; i < pending.size(); ++i) {
      workload::AccumulateOpResult(pending[i].type, op_results[i], &result);
    }
    done += pending.size();

    // Race windows close on the measured ops of the batch just executed,
    // before any retune: a detector fire at this boundary then restarts
    // its shard's race against fully-accounted measurements.
    if (racing_.enabled) AdvanceRaces(engine);

    for (size_t s : fired) RetuneShard(engine, s, spec);

    // Arbitration composes with retunes at the same boundary: budgets
    // observed over whole windows move between shards between batches,
    // never inside one.
    if (arbiter_ != nullptr) {
      workload::BatchEvent event;
      event.batch_index = batch_index;
      event.count = pending.size();
      event.ops = pending.data();
      event.engine_ops = ops.data();
      event.results = op_results.data();
      workload::CountBatchKinds(&event);
      // `ops` is set, so this is exactly the historical OnBatch path.
      arbiter_->OnBatchEvent(engine, event);
    }
    ++batch_index;
  }
  result.num_ops = num_ops;
  return result;
}

}  // namespace camal::tune
