#include "camal/plain_al_tuner.h"

#include <algorithm>
#include <cmath>

#include "model/optimum.h"

namespace camal::tune {

PlainAlTuner::PlainAlTuner(const SystemSetup& full_setup,
                           const TunerOptions& options)
    : ModelBackedTuner(full_setup, options) {}

TuningConfig PlainAlTuner::RandomConfig(const model::SystemParams& sys) {
  const model::CostModel cm(sys);
  const double t_lim = std::floor(cm.SizeRatioLimit());
  const double m = sys.total_memory_bits;
  const double min_buf = model::MinBufferBits(sys);
  TuningConfig c;
  c.policy = options_.tune_policy
                 ? (rng_.Bernoulli(0.5) ? lsm::CompactionPolicy::kLeveling
                                        : lsm::CompactionPolicy::kTiering)
                 : options_.policy;
  c.size_ratio = 2.0 + std::floor(rng_.NextDouble() * (t_lim - 2.0 + 1.0));
  if (options_.tune_mc) {
    c.mc_bits = rng_.NextDouble() * 0.4 * m;
  }
  const double max_bpk =
      std::max(0.0, (m - c.mc_bits - min_buf) / sys.num_entries);
  const double bpk = rng_.NextDouble() * std::min(16.0, max_bpk);
  c.mf_bits = bpk * sys.num_entries;
  c.mb_bits = m - c.mf_bits - c.mc_bits;
  if (options_.k_mode != KTuningMode::kOff) {
    c.runs_per_level =
        1 + static_cast<int>(rng_.Uniform(static_cast<uint64_t>(
                std::min(8.0, c.size_ratio))));
  }
  return c;
}

TuningConfig PlainAlTuner::NextQuery(
    const model::WorkloadSpec& w, const model::SystemParams& sys,
    const std::vector<TuningConfig>& already) const {
  const std::vector<TuningConfig> grid = CandidateGrid(w, sys);
  std::vector<TuningConfig> fresh;
  for (const TuningConfig& c : grid) {
    if (std::none_of(already.begin(), already.end(),
                     [&](const TuningConfig& a) { return SameConfig(a, c); })) {
      fresh.push_back(c);
    }
  }
  const Argmin best = PredictedArgmin(w, fresh, sys);
  return best.index ? fresh[*best.index] : grid.front();
}

void PlainAlTuner::Train(const std::vector<model::WorkloadSpec>& workloads) {
  const model::SystemParams sys = train_setup_.ToModelParams();
  const int init_samples = std::min(3, options_.budget_per_workload);
  for (const model::WorkloadSpec& w : workloads) {
    // Draw the initial random configurations serially (they consume rng_),
    // then evaluate them as one parallel batch. The closing AL loop is
    // inherently sequential: each query depends on the refit model.
    std::vector<TuningConfig> queried;
    for (int i = 0; i < init_samples; ++i) {
      queried.push_back(RandomConfig(sys));
    }
    CollectSamples(w, queried);
    for (int round = init_samples; round < options_.budget_per_workload;
         ++round) {
      RefitModel();
      const TuningConfig c = NextQuery(w, sys, queried);
      CollectSample(w, c);
      queried.push_back(c);
    }
    RefitModel();
    Checkpoint();
  }
}

}  // namespace camal::tune
