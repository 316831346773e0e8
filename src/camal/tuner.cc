#include "camal/tuner.h"

#include <algorithm>
#include <cmath>

#include "model/optimum.h"
#include "util/status.h"

namespace camal::tune {

namespace {
/// Gives `c` `bpk` bits per key of Bloom memory and `mc_frac` of the
/// budget as block cache, the write buffer the rest; false when that
/// leaves the buffer below its minimum.
bool SplitMemory(double bpk, double mc_frac, const model::SystemParams& target,
                 TuningConfig* c) {
  const double m = target.total_memory_bits;
  const double min_buf = model::MinBufferBits(target);
  c->mc_bits = mc_frac * m;
  c->mf_bits = std::min(bpk * target.num_entries, m - c->mc_bits - min_buf);
  c->mb_bits = m - c->mf_bits - c->mc_bits;
  return c->mf_bits >= 0.0 && c->mb_bits >= min_buf;
}
}  // namespace

std::vector<int> RunsPerLevelChoices(double size_ratio) {
  std::vector<int> out;
  for (int k = 1; k <= std::min(8, static_cast<int>(size_ratio)); ++k) {
    out.push_back(k);
  }
  return out;
}

ModelBackedTuner::ModelBackedTuner(const SystemSetup& full_setup,
                                   const TunerOptions& options)
    : full_setup_(full_setup),
      train_setup_(ScaledDown(full_setup, options.extrapolation_factor)),
      options_(options),
      evaluator_(train_setup_),
      rng_(options.seed * 7919 + 13) {}

const Sample& ModelBackedTuner::CollectSample(const model::WorkloadSpec& w,
                                              const TuningConfig& x) {
  return samples_[CollectSamples(w, {x})];
}

size_t ModelBackedTuner::CollectSamples(const model::WorkloadSpec& w,
                                        const std::vector<TuningConfig>& xs) {
  const size_t first = samples_.size();
  if (xs.empty()) return first;
  std::vector<Sample> batch =
      evaluator_.MakeSamples(w, xs, sample_salt_ + 1, pool());
  sample_salt_ += xs.size();
  for (Sample& sample : batch) {
    sampling_cost_ns_ += sample.cost_ns;
    samples_.push_back(std::move(sample));
  }
  return first;
}

util::ThreadPool* ModelBackedTuner::pool() {
  if (options_.threads == 0) return util::GlobalPool();
  if (options_.threads <= 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
  return pool_.get();
}

void ModelBackedTuner::RefitModel() {
  if (samples_.empty()) return;
  if (model_ == nullptr) {
    model_ = MakeModel(options_.model_kind, options_.seed);
  }
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  x.reserve(samples_.size());
  y.reserve(samples_.size());
  for (const Sample& s : samples_) {
    x.push_back(RawFeatures(s.workload, s.config, s.sys));
    // Fit latency in microseconds (I/O counts stay as-is).
    const double target = ObjectiveValue(s, options_.objective);
    y.push_back(options_.objective == Objective::kIosPerOp ? target
                                                           : target / 1000.0);
  }
  model_->Fit(x, y);
}

double ModelBackedTuner::PredictObjective(
    const model::WorkloadSpec& w, const TuningConfig& x,
    const model::SystemParams& target) const {
  CAMAL_CHECK(has_model());
  return model_->Predict(RawFeatures(w, x, target));
}

double ModelBackedTuner::MaxBloomBpk(const model::SystemParams& target) const {
  const double spare =
      target.total_memory_bits - model::MinBufferBits(target);
  return std::clamp(spare / target.num_entries, 0.0, 16.0);
}

void ModelBackedTuner::ApplyIoDepthRecommendation(
    const model::WorkloadSpec& w, const model::SystemParams& target,
    TuningConfig* c) const {
  if (!options_.tune_io_depth) return;
  const model::CostModel cm(target, options_.cost_corrector.get());
  c->io_queue_depth = cm.RecommendedQueueDepth(
      w.Normalized(), c->ToModelConfig(), options_.max_io_queue_depth);
}

std::vector<lsm::CompactionPolicy> ModelBackedTuner::SearchPolicies() const {
  if (options_.tune_policy) {
    return {lsm::CompactionPolicy::kLeveling, lsm::CompactionPolicy::kTiering};
  }
  return {options_.policy};
}

void ModelBackedTuner::AppendGridPoints(lsm::CompactionPolicy policy, double t,
                                        const std::vector<double>& bpk_values,
                                        const model::SystemParams& target,
                                        std::vector<TuningConfig>* grid) const {
  const std::vector<double> mc_fracs =
      options_.tune_mc ? std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.4}
                       : std::vector<double>{0.0};
  const std::vector<int> k_values = options_.k_mode == KTuningMode::kOff
                                        ? std::vector<int>{0}
                                        : RunsPerLevelChoices(t);
  for (double bpk : bpk_values) {
    for (double mc_frac : mc_fracs) {
      for (int k : k_values) {
        TuningConfig c;
        c.policy = policy;
        c.size_ratio = t;
        c.runs_per_level = k;
        if (SplitMemory(bpk, mc_frac, target, &c)) grid->push_back(c);
      }
    }
  }
}

std::vector<TuningConfig> ModelBackedTuner::CandidateGrid(
    const model::WorkloadSpec& /*w*/,
    const model::SystemParams& target) const {
  const model::CostModel cm(target, options_.cost_corrector.get());
  const int t_lim = static_cast<int>(std::floor(cm.SizeRatioLimit()));
  const double max_bpk = MaxBloomBpk(target);
  // With the memory round disabled, only the Monkey default split is
  // eligible (Figure 6g "+T" stage).
  std::vector<double> bpk_values;
  if (options_.tune_memory) {
    for (double bpk = 0.0; bpk <= max_bpk + 1e-9; bpk += 2.0) {
      bpk_values.push_back(bpk);
    }
  } else {
    bpk_values.push_back(std::min(10.0, max_bpk));
  }

  std::vector<TuningConfig> grid;
  for (lsm::CompactionPolicy policy : SearchPolicies()) {
    for (int t = 2; t <= t_lim; t += (t_lim > 24 ? 2 : 1)) {
      AppendGridPoints(policy, t, bpk_values, target, &grid);
    }
  }
  return grid;
}

ModelBackedTuner::Argmin ModelBackedTuner::PredictedArgmin(
    const model::WorkloadSpec& w, const std::vector<TuningConfig>& candidates,
    const model::SystemParams& target, double bound) const {
  Argmin best{std::nullopt, bound};
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double pred = PredictObjective(w, candidates[i], target);
    if (pred < best.pred) best = Argmin{i, pred};
  }
  return best;
}

TuningConfig ModelBackedTuner::ArgminOverGrid(
    const model::WorkloadSpec& w, const model::SystemParams& target) const {
  CAMAL_CHECK(has_model());
  const std::vector<TuningConfig> grid = CandidateGrid(w, target);
  CAMAL_CHECK(!grid.empty());
  const Argmin coarse = PredictedArgmin(w, grid, target);
  const TuningConfig anchor = coarse.index ? grid[*coarse.index] : grid.front();

  // Local refinement around the coarse winner: T +- 2 step 1, bpk +- 2
  // step 0.5, mc +- 5%. The window is anchored at the *coarse* winner
  // (`anchor`), not the running best, so it cannot creep outward.
  const model::CostModel cm(target, options_.cost_corrector.get());
  const double t_lim = cm.SizeRatioLimit();
  const double n = target.num_entries;
  const double m = target.total_memory_bits;
  const double max_bpk = MaxBloomBpk(target);
  const double base_bpk = anchor.mf_bits / n;
  const double base_mc_frac = anchor.mc_bits / m;
  const double bpk_radius = options_.tune_memory ? 2.0 : 0.0;
  std::vector<TuningConfig> local;
  for (double t = std::max(2.0, anchor.size_ratio - 2.0);
       t <= std::min(t_lim, anchor.size_ratio + 2.0); t += 1.0) {
    for (double bpk = std::max(0.0, base_bpk - bpk_radius);
         bpk <= std::min(max_bpk, base_bpk + bpk_radius) + 1e-9; bpk += 0.5) {
      for (double mc_frac :
           {std::max(0.0, base_mc_frac - 0.05), base_mc_frac,
            base_mc_frac + 0.05}) {
        if (!options_.tune_mc && mc_frac > 0.0) continue;
        TuningConfig c = anchor;
        c.size_ratio = t;
        if (SplitMemory(bpk, mc_frac, target, &c)) local.push_back(c);
      }
    }
  }
  const Argmin refined = PredictedArgmin(w, local, target, coarse.pred);
  return refined.index ? local[*refined.index] : anchor;
}

TuningConfig ModelBackedTuner::Recommend(const model::WorkloadSpec& w) const {
  return RecommendFor(w, full_setup_.ToModelParams());
}

TuningConfig ModelBackedTuner::RecommendFor(
    const model::WorkloadSpec& w, const model::SystemParams& target) const {
  if (!has_model()) {
    // Untrained: fall back to the closed-form optimum.
    const model::CostModel cm(target, options_.cost_corrector.get());
    const model::TheoreticalOptimum opt =
        options_.tune_policy
            ? model::MinimizeCostOverPolicies(w, cm)
            : model::MinimizeCost(w, cm, options_.policy);
    TuningConfig c;
    c.policy = opt.config.policy;
    c.size_ratio = opt.config.size_ratio;
    c.mf_bits = opt.config.mf_bits;
    c.mb_bits = opt.config.mb_bits;
    ApplyIoDepthRecommendation(w, target, &c);
    return c;
  }
  TuningConfig best = ArgminOverGrid(w, target);
  ApplyIoDepthRecommendation(w, target, &best);
  return best;
}

}  // namespace camal::tune
