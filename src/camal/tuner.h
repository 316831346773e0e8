#ifndef CAMAL_CAMAL_TUNER_H_
#define CAMAL_CAMAL_TUNER_H_

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "camal/evaluator.h"
#include "camal/sample.h"
#include "model/workload_spec.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace camal::tune {

/// How `K` (runs per level) is brought into the search space (Section 8.4).
enum class KTuningMode { kOff, kIndependent, kCodependent };

/// The runs-per-level values a search tries at size ratio `size_ratio`:
/// 1 through min(8, T).
std::vector<int> RunsPerLevelChoices(double size_ratio);

/// Knobs shared by every tuning strategy.
struct TunerOptions {
  ModelKind model_kind = ModelKind::kTrees;
  Objective objective = Objective::kMeanLatency;
  /// Base compaction policy searched/tuned.
  lsm::CompactionPolicy policy = lsm::CompactionPolicy::kLeveling;
  /// When true, both policies enter the search space (doubles CAMAL's
  /// sampling rounds; baselines just widen their grids).
  bool tune_policy = false;
  /// When false, the Mb/Mf split round is skipped and the Monkey-style
  /// default split is kept (used by the Figure 6g parameter breakdown).
  bool tune_memory = true;
  /// When true, block-cache memory is tuned as a third round.
  bool tune_mc = false;
  /// Runs-per-level extension.
  KTuningMode k_mode = KTuningMode::kOff;
  /// SST file-size extension.
  bool tune_file_size = false;
  /// When true, recommendations carry an io_uring queue depth derived from
  /// the cost model's read fan-out (real-IO backend only; the depth never
  /// changes results or I/O counts, so it needs no sampling rounds of its
  /// own — it is priced closed-form on top of whatever config wins).
  bool tune_io_depth = false;
  /// Largest queue depth `tune_io_depth` may recommend.
  int max_io_queue_depth = 64;
  /// Neighborhood samples per decoupled round (the paper uses 3).
  int samples_per_round = 3;
  /// Closing active-learning iterations per workload: after the decoupled
  /// rounds, CAMAL samples the configuration its model currently predicts
  /// best (within the pruned window), refits, and repeats — catching model
  /// error exactly where it matters.
  int refine_rounds = 2;
  /// Sample budget per workload for the baseline strategies (plain AL,
  /// Bayes, grid).
  int budget_per_workload = 12;
  /// Extrapolation factor k: train at (N/k, M/k), recommend at (N, M).
  /// 1 disables extrapolation (full-size training).
  double extrapolation_factor = 1.0;
  /// Worker threads for batched sampling/evaluation: 1 = serial,
  /// N > 1 = a private pool of N workers, 0 = follow the process-wide
  /// setting (util::SetGlobalThreads). Results are bit-identical for every
  /// value — each sample's randomness is derived from its salt, never from
  /// scheduling.
  int threads = 0;
  uint64_t seed = 1;
  /// Measured-cost corrector closed-form objectives are filtered through
  /// (see `model::CostCorrector`): every `CostModel` a tuner builds for
  /// pruning, refinement, or closed-form fallback applies it, so
  /// recommendations minimize *calibrated* cost. Null (the default) is
  /// the identity — bit-identical to the uncalibrated tuner. Shared:
  /// tuners, the arbiter, and benches may hold the same corrector and
  /// refit it as measurements accumulate.
  std::shared_ptr<const model::CostCorrector> cost_corrector;
};

/// Common interface of all tuning strategies.
class TunerBase {
 public:
  /// Tuners are owned polymorphically by the bench harnesses.
  virtual ~TunerBase() = default;

  /// Gathers training samples for the given workloads (the expensive
  /// phase). Implementations accumulate `sampling_cost_ns`.
  virtual void Train(const std::vector<model::WorkloadSpec>& workloads) = 0;

  /// Recommends a configuration for `w` at the full-size target system.
  virtual TuningConfig Recommend(const model::WorkloadSpec& w) const = 0;

  /// Total simulated sampling cost so far ("sampling hours").
  double sampling_cost_ns() const { return sampling_cost_ns_; }

  /// Invoked whenever a coherent chunk of training finished (used to draw
  /// learning curves: cost so far -> quality of current recommendations).
  void SetCheckpointCallback(std::function<void(double cum_cost_ns)> cb) {
    checkpoint_ = std::move(cb);
  }

 protected:
  void Checkpoint() {
    if (checkpoint_) checkpoint_(sampling_cost_ns_);
  }

  double sampling_cost_ns_ = 0.0;
  std::function<void(double)> checkpoint_;
};

/// Base for strategies that learn a latency model from samples and
/// recommend by minimizing the model over a configuration grid.
class ModelBackedTuner : public TunerBase {
 public:
  ModelBackedTuner(const SystemSetup& full_setup, const TunerOptions& options);

  /// Recommends for the full-size system.
  TuningConfig Recommend(const model::WorkloadSpec& w) const override;

  /// Recommends for an arbitrary target scale (dynamic mode / growth):
  /// model features are scale-invariant, so the same model serves any
  /// target (Lemma 5.1). CamalTuner overrides this to prefer the best
  /// *measured* configuration when the workload was trained on.
  virtual TuningConfig RecommendFor(const model::WorkloadSpec& w,
                                    const model::SystemParams& target) const;

  /// Model prediction of the objective for a (workload, config) pair at
  /// the given scale.
  double PredictObjective(const model::WorkloadSpec& w, const TuningConfig& x,
                          const model::SystemParams& target) const;

  const std::vector<Sample>& samples() const { return samples_; }
  const SystemSetup& train_setup() const { return train_setup_; }
  const SystemSetup& full_setup() const { return full_setup_; }
  const TunerOptions& options() const { return options_; }
  bool has_model() const { return model_ != nullptr && model_->fitted(); }

 protected:
  /// Evaluates (w, x) on the training-scale system, records the sample and
  /// its cost, and returns it.
  const Sample& CollectSample(const model::WorkloadSpec& w,
                              const TuningConfig& x);

  /// Batched CollectSample: evaluates every configuration (in parallel when
  /// the tuner has worker threads) and appends the samples in config order.
  /// Consumes the same salts a serial CollectSample loop would, so the
  /// sample stream is bit-identical at any thread count. Returns the index
  /// into samples() of the first appended sample; exactly xs.size() samples
  /// follow it, one per configuration in order.
  size_t CollectSamples(const model::WorkloadSpec& w,
                        const std::vector<TuningConfig>& xs);

  /// Worker pool for batched work; nullptr means "run inline".
  util::ThreadPool* pool();

  /// Refits the model on all samples gathered so far.
  void RefitModel();

  /// Enumerates the candidate grid at the given scale (absolute bits).
  /// The base implementation spans the whole space; CamalTuner overrides
  /// it to prune to the neighborhood of the theoretical optimum for `w`
  /// (complexity-analysis-driven pruning, Design 1 of the paper).
  virtual std::vector<TuningConfig> CandidateGrid(
      const model::WorkloadSpec& w, const model::SystemParams& target) const;

  /// The compaction policies a search spans: both when `tune_policy` is
  /// set, otherwise just `policy`.
  std::vector<lsm::CompactionPolicy> SearchPolicies() const;

  /// Appends the grid points at size ratio `t` under `policy`: every
  /// bits-per-key value x block-cache fraction (when `tune_mc`) x runs per
  /// level (when K is tuned) that leaves the write buffer its minimum.
  void AppendGridPoints(lsm::CompactionPolicy policy, double t,
                        const std::vector<double>& bpk_values,
                        const model::SystemParams& target,
                        std::vector<TuningConfig>* grid) const;

  /// Result of `PredictedArgmin`.
  struct Argmin {
    /// The winning candidate's index; nullopt when none beat the bound.
    std::optional<size_t> index;
    /// The winner's prediction, or the bound when there is no winner.
    double pred;
  };

  /// The candidate the model predicts best for `w` at `target`: the one
  /// with the lowest prediction strictly below `bound`, the earliest on
  /// ties. Predicts every candidate exactly once.
  Argmin PredictedArgmin(
      const model::WorkloadSpec& w, const std::vector<TuningConfig>& candidates,
      const model::SystemParams& target,
      double bound = std::numeric_limits<double>::infinity()) const;

  /// Argmin of the model over the candidate grid, with one local
  /// refinement pass around the best coarse point.
  TuningConfig ArgminOverGrid(const model::WorkloadSpec& w,
                              const model::SystemParams& target) const;

  /// Maximum sensible bits-per-key for Bloom memory at a target scale.
  double MaxBloomBpk(const model::SystemParams& target) const;

  /// When `tune_io_depth` is on, stamps `c` with the queue depth the cost
  /// model recommends for it (`CostModel::RecommendedQueueDepth`, clamped
  /// to `max_io_queue_depth`); otherwise leaves `c` untouched. Idempotent —
  /// the recommendation depends on the config's read fan-out, never on the
  /// depth already stamped — so every Recommend* return path applies it.
  void ApplyIoDepthRecommendation(const model::WorkloadSpec& w,
                                  const model::SystemParams& target,
                                  TuningConfig* c) const;

  SystemSetup full_setup_;
  SystemSetup train_setup_;
  TunerOptions options_;
  Evaluator evaluator_;
  std::unique_ptr<ml::Regressor> model_;
  std::vector<Sample> samples_;
  mutable util::Random rng_;
  uint64_t sample_salt_ = 0;
  /// Private pool, lazily created when options_.threads > 1.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace camal::tune

#endif  // CAMAL_CAMAL_TUNER_H_
