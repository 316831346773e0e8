#ifndef CAMAL_CAMAL_CAMAL_TUNER_H_
#define CAMAL_CAMAL_CAMAL_TUNER_H_

#include <vector>

#include "camal/tuner.h"

namespace camal::tune {

/// CAMAL: complexity-analysis-driven decoupled active learning
/// (Sections 3, 4 and Algorithm 2 of the paper).
///
/// For every training workload it runs one sampling round per parameter —
/// size ratio T first, then the Mb/Mf memory split, then (optionally) Mc,
/// the runs-per-level K extension, and SST file size. Each round:
///  1. derives the parameter's theoretical optimum from the closed-form
///     cost model,
///  2. samples the real system in a small neighborhood of that optimum
///     (`samples_per_round` points),
///  3. refits the ML model on all samples gathered so far (across
///     workloads), and
///  4. fixes the parameter at the model's argmin before the next round.
/// `DecoupledRound` runs steps 2-4 for every round (the argmin is
/// `ModelBackedTuner::PredictedArgmin`); each round supplies only its
/// probe configurations, its pruned window and its fallback.
class CamalTuner : public ModelBackedTuner {
 public:
  CamalTuner(const SystemSetup& full_setup, const TunerOptions& options);

  void Train(const std::vector<model::WorkloadSpec>& workloads) override;

  /// The per-workload configurations chosen during training (parallel to
  /// the workload vector passed to Train).
  const std::vector<TuningConfig>& tuned_configs() const {
    return tuned_configs_;
  }

  /// CAMAL prunes the candidate space to a window around the theoretical
  /// optimum of `w` (Design 1: complexity analysis narrows the search so
  /// the model never has to extrapolate far from its samples).
  std::vector<TuningConfig> CandidateGrid(
      const model::WorkloadSpec& w,
      const model::SystemParams& target) const override;

  /// For workloads the tuner trained on, recommends the configuration with
  /// the best *measured* objective (rescaled to the target via Lemma 5.1);
  /// the closing refine rounds guarantee the model's favorite points are
  /// among the measured candidates. Unseen workloads fall back to the
  /// model argmin.
  TuningConfig RecommendFor(const model::WorkloadSpec& w,
                            const model::SystemParams& target) const override;

  /// Additive half-width of the bits-per-key pruning window.
  static constexpr double kPruneRadius = 5.0;
  /// Multiplicative half-width of the size-ratio window: T is searched in
  /// [T*/kTWindow, T* x kTWindow] (T acts on the tree logarithmically, so
  /// its neighborhood is geometric).
  static constexpr double kTWindow = 4.0;
  /// T* and the search window are capped at this fraction of T_lim: at
  /// T ~ T_lim the tree degenerates to a single level whose behaviour is
  /// fragile and scale-dependent — a corner the closed form loves (it sees
  /// only fewer levels) but real systems avoid.
  static constexpr double kTStarCap = 0.6;
  static constexpr double kTSearchCap = 0.8;

  /// Geometric neighborhood of T*: {T*, T*/2, 2T*, T*/4, 4T*, ...} clamped
  /// to [2, t_lim], `samples_per_round` distinct integers.
  std::vector<double> SizeRatioNeighborhood(double t_star,
                                            double t_lim) const;

 private:
  /// Runs all decoupled rounds for one workload under one policy; returns
  /// the tuned configuration (at training scale).
  TuningConfig TrainWorkload(const model::WorkloadSpec& w,
                             lsm::CompactionPolicy policy);

  /// One decoupled round: measures every probe configuration, refits the
  /// model, and returns the window candidate it predicts best — or
  /// `fallback` when no candidate predicts below +infinity.
  TuningConfig DecoupledRound(const model::WorkloadSpec& w,
                              const std::vector<TuningConfig>& probes,
                              const std::vector<TuningConfig>& window,
                              const TuningConfig& fallback);

  /// Integer neighborhood of `center` within [lo, hi], at most
  /// `samples_per_round` distinct values spread +-2 around the center.
  std::vector<double> Neighborhood(double center, double lo, double hi,
                                   double step) const;

  std::vector<TuningConfig> tuned_configs_;
};

}  // namespace camal::tune

#endif  // CAMAL_CAMAL_CAMAL_TUNER_H_
