#include "camal/tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/optimum.h"
#include "util/status.h"

namespace camal::tune {

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

std::vector<TuningConfig> ModelBackedTuner::CandidateGrid(
    const model::WorkloadSpec& /*w*/,
    const model::SystemParams& target) const {
  const model::CostModel cm(target, options_.cost_corrector.get());
  const int t_lim = static_cast<int>(std::floor(cm.SizeRatioLimit()));
  const double n = target.num_entries;
  const double m = target.total_memory_bits;
  const double max_bpk = MaxBloomBpk(target);

  std::vector<lsm::CompactionPolicy> policies;
  if (options_.tune_policy) {
    policies = {lsm::CompactionPolicy::kLeveling,
                lsm::CompactionPolicy::kTiering};
  } else {
    policies = {options_.policy};
  }
  std::vector<double> mc_fracs = {0.0};
  if (options_.tune_mc) mc_fracs = {0.0, 0.1, 0.2, 0.3, 0.4};
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
  for (lsm::CompactionPolicy policy : policies) {
    for (int t = 2; t <= t_lim; t += (t_lim > 24 ? 2 : 1)) {
      std::vector<int> k_values = {0};
      if (options_.k_mode != KTuningMode::kOff) {
        k_values.clear();
        const int k_max = std::min(t, 8);
        for (int k = 1; k <= k_max; ++k) k_values.push_back(k);
      }
      for (double bpk : bpk_values) {
        for (double mc_frac : mc_fracs) {
          for (int k : k_values) {
            TuningConfig c;
            c.policy = policy;
            c.size_ratio = t;
            c.runs_per_level = k;
            c.mc_bits = mc_frac * m;
            c.mf_bits = std::min(bpk * n, m - c.mc_bits -
                                              model::MinBufferBits(target));
            if (c.mf_bits < 0.0) continue;
            c.mb_bits = m - c.mf_bits - c.mc_bits;
            if (c.mb_bits < model::MinBufferBits(target)) continue;
            grid.push_back(c);
          }
        }
      }
    }
  }
  return grid;
}

TuningConfig ModelBackedTuner::ArgminOverGrid(
    const model::WorkloadSpec& w, const model::SystemParams& target) const {
  CAMAL_CHECK(has_model());
  const std::vector<TuningConfig> grid = CandidateGrid(w, target);
  CAMAL_CHECK(!grid.empty());
  TuningConfig best = grid.front();
  double best_pred = std::numeric_limits<double>::infinity();
  for (const TuningConfig& c : grid) {
    const double pred = PredictObjective(w, c, target);
    if (pred < best_pred) {
      best_pred = pred;
      best = c;
    }
  }

  // Local refinement around the coarse winner: T +- 2 step 1, bpk +- 2
  // step 0.5, mc +- 5%. The window is anchored at the *coarse* winner
  // (`anchor`), not the running best, so it cannot creep outward.
  const model::CostModel cm(target, options_.cost_corrector.get());
  const double t_lim = cm.SizeRatioLimit();
  const double n = target.num_entries;
  const double m = target.total_memory_bits;
  const double max_bpk = MaxBloomBpk(target);
  const TuningConfig anchor = best;
  const double base_bpk = anchor.mf_bits / n;
  const double base_mc_frac = anchor.mc_bits / m;
  const double bpk_radius = options_.tune_memory ? 2.0 : 0.0;
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
        c.mc_bits = mc_frac * m;
        c.mf_bits = std::min(bpk * n,
                             m - c.mc_bits - model::MinBufferBits(target));
        if (c.mf_bits < 0.0) continue;
        c.mb_bits = m - c.mf_bits - c.mc_bits;
        if (c.mb_bits < model::MinBufferBits(target)) continue;
        const double pred = PredictObjective(w, c, target);
        if (pred < best_pred) {
          best_pred = pred;
          best = c;
        }
      }
    }
  }
  return best;
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
