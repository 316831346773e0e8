#ifndef CAMAL_CAMAL_PLAIN_AL_TUNER_H_
#define CAMAL_CAMAL_PLAIN_AL_TUNER_H_

#include <vector>

#include "camal/tuner.h"

namespace camal::tune {

/// Plain active learning baseline: random initialization, then repeated
/// train-the-model / sample-the-predicted-minimum cycles over the *joint*
/// configuration space (no complexity-analysis initialization, no
/// parameter decoupling). Samples are shared across workloads through one
/// model, as in Section 8.1.
class PlainAlTuner : public ModelBackedTuner {
 public:
  PlainAlTuner(const SystemSetup& full_setup, const TunerOptions& options);

  void Train(const std::vector<model::WorkloadSpec>& workloads) override;

 private:
  TuningConfig RandomConfig(const model::SystemParams& sys);
  /// Model argmin over the grid, skipping configs already sampled for `w`.
  TuningConfig NextQuery(const model::WorkloadSpec& w,
                         const model::SystemParams& sys,
                         const std::vector<TuningConfig>& already) const;
};

}  // namespace camal::tune

#endif  // CAMAL_CAMAL_PLAIN_AL_TUNER_H_
