#include "camal/bayes_tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/optimum.h"

namespace camal::tune {

BayesOptTuner::BayesOptTuner(const SystemSetup& full_setup,
                             const TunerOptions& options)
    : ModelBackedTuner(full_setup, options) {}

std::vector<double> BayesOptTuner::GpFeatures(
    const TuningConfig& c, const model::SystemParams& sys) const {
  return {
      c.size_ratio,
      c.mf_bits / sys.num_entries,
      c.mc_bits / sys.total_memory_bits,
      c.policy == lsm::CompactionPolicy::kTiering ? 1.0 : 0.0,
      static_cast<double>(c.runs_per_level),
  };
}

void BayesOptTuner::Train(const std::vector<model::WorkloadSpec>& workloads) {
  const model::SystemParams sys = train_setup_.ToModelParams();
  const model::CostModel cm(sys);
  const double t_lim = std::floor(cm.SizeRatioLimit());
  const double m = sys.total_memory_bits;
  const double min_buf = model::MinBufferBits(sys);
  const double max_bpk =
      std::clamp((m - min_buf) / sys.num_entries, 0.0, 16.0);
  const int init_samples = std::min(3, options_.budget_per_workload);

  auto random_config = [&]() {
    TuningConfig c;
    c.policy = options_.tune_policy
                   ? (rng_.Bernoulli(0.5) ? lsm::CompactionPolicy::kLeveling
                                          : lsm::CompactionPolicy::kTiering)
                   : options_.policy;
    c.size_ratio = 2.0 + std::floor(rng_.NextDouble() * (t_lim - 1.0));
    if (options_.tune_mc) c.mc_bits = rng_.NextDouble() * 0.4 * m;
    c.mf_bits = std::clamp(rng_.NextDouble() * max_bpk * sys.num_entries, 0.0,
                           m - c.mc_bits - min_buf);
    c.mb_bits = m - c.mf_bits - c.mc_bits;
    return c;
  };

  for (const model::WorkloadSpec& w : workloads) {
    // Per-workload GP over configuration features only: Bayesian
    // optimization "explores each workload independently, without
    // utilizing information from other workloads" (Section 8.2).
    std::vector<TuningConfig> queried;
    std::vector<std::vector<double>> gp_x;
    std::vector<double> gp_y;

    // Random init configurations are drawn serially (they consume rng_)
    // and evaluated as one parallel batch; the acquisition loop below is
    // inherently sequential (each query depends on the refit GP).
    for (int i = 0; i < init_samples; ++i) {
      queried.push_back(random_config());
    }
    const size_t batch_begin = CollectSamples(w, queried);
    for (int i = 0; i < init_samples; ++i) {
      const Sample& s = samples_[batch_begin + static_cast<size_t>(i)];
      gp_x.push_back(GpFeatures(queried[static_cast<size_t>(i)], sys));
      gp_y.push_back(ObjectiveValue(s, options_.objective) / 1000.0);
    }

    for (int round = init_samples; round < options_.budget_per_workload;
         ++round) {
      ml::GaussianProcess gp;
      gp.Fit(gp_x, gp_y);
      const double best_y = *std::min_element(gp_y.begin(), gp_y.end());

      const std::vector<TuningConfig> grid = CandidateGrid(w, sys);
      TuningConfig next = grid.front();
      double best_ei = -1.0;
      for (const TuningConfig& c : grid) {
        bool seen = false;
        for (const TuningConfig& a : queried) {
          if (SameConfig(a, c)) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
        const auto [mean, var] = gp.PredictMeanVar(GpFeatures(c, sys));
        const double ei = ml::ExpectedImprovement(mean, var, best_y);
        if (ei > best_ei) {
          best_ei = ei;
          next = c;
        }
      }
      const Sample& s = CollectSample(w, next);
      queried.push_back(next);
      gp_x.push_back(GpFeatures(next, sys));
      gp_y.push_back(ObjectiveValue(s, options_.objective) / 1000.0);
    }
    RefitModel();
    Checkpoint();
  }
}

}  // namespace camal::tune
