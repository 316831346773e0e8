#include "camal/camal_tuner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "camal/extrapolation.h"
#include "camal/group_sampling.h"
#include "model/optimum.h"

namespace camal::tune {

CamalTuner::CamalTuner(const SystemSetup& full_setup,
                       const TunerOptions& options)
    : ModelBackedTuner(full_setup, options) {}

namespace {
bool SameWorkload(const model::WorkloadSpec& a, const model::WorkloadSpec& b) {
  return std::fabs(a.v - b.v) < 1e-9 && std::fabs(a.r - b.r) < 1e-9 &&
         std::fabs(a.q - b.q) < 1e-9 && std::fabs(a.w - b.w) < 1e-9 &&
         std::fabs(a.skew - b.skew) < 1e-9;
}

/// The Monkey-style point every round starts from: default T, 10 bits/key
/// of Bloom memory (at most 80% of the budget), the rest to the buffer.
TuningConfig StartConfig(lsm::CompactionPolicy policy,
                         const model::SystemParams& sys) {
  TuningConfig c;
  c.policy = policy;
  c.mf_bits = std::min(10.0 * sys.num_entries, 0.8 * sys.total_memory_bits);
  c.mb_bits = sys.total_memory_bits - c.mf_bits;
  return c;
}

/// Where a size-ratio search looks: the theoretical optimum T*, the cap on
/// sampled size ratios, and the pruned window [lo, hi] of integer size
/// ratios around T*.
struct SizeRatioWindow {
  double t_star;
  double t_cap;
  double lo;
  double hi;

  std::vector<double> Values() const {
    std::vector<double> out;
    for (double t = lo; t <= hi + 1e-9; t += 1.0) out.push_back(t);
    return out;
  }
};

/// T* for `start`'s policy (Equation 5 for leveling, numeric otherwise,
/// with the other parameters at `start`), capped at kTStarCap x T_lim,
/// rounded and clamped to [2, T_lim]; the window is [T*/kTWindow,
/// T* x kTWindow] within [2, max(4, kTSearchCap x T_lim)].
SizeRatioWindow SizeRatioSearch(const model::WorkloadSpec& w,
                                const model::CostModel& cm,
                                const TuningConfig& start) {
  const double t_lim = std::floor(cm.SizeRatioLimit());
  double t_star = start.policy == lsm::CompactionPolicy::kLeveling
                      ? model::OptimalSizeRatioLeveling(w, cm)
                      : model::OptimalSizeRatioNumeric(w, cm,
                                                       start.ToModelConfig());
  t_star = std::clamp(
      std::round(std::min(t_star, CamalTuner::kTStarCap * t_lim)), 2.0, t_lim);
  const double t_cap = std::max(4.0, CamalTuner::kTSearchCap * t_lim);
  return {t_star, t_cap,
          std::max(2.0, std::floor(t_star / CamalTuner::kTWindow)),
          std::min(t_cap, std::ceil(t_star * CamalTuner::kTWindow))};
}

/// Theoretical optimal Bloom bits per key at `at`'s size ratio, with its
/// block-cache memory reserved (Equation 6 for leveling, numeric
/// otherwise).
double OptimalBpk(const model::WorkloadSpec& w, const model::CostModel& cm,
                  const TuningConfig& at, double num_entries) {
  const double mf_bits =
      at.policy == lsm::CompactionPolicy::kLeveling
          ? model::OptimalMfBitsLeveling(w, cm, at.size_ratio, at.mc_bits)
          : model::OptimalMfBitsNumeric(w, cm, at.ToModelConfig(), at.mc_bits);
  return mf_bits / num_entries;
}

/// The pruned bits-per-key window, enumerated from its low end in `step`s:
/// it spans the theoretical optimum `bpk_star` AND the practical default
/// (10 bits/key), widened by kPruneRadius and capped at `max_bpk`. The
/// closed form can badly underestimate filter memory when its buffer-size
/// derivative is off (e.g. sparse shallow levels make small buffers cheap
/// for scans).
std::vector<double> BpkWindow(double bpk_star, double max_bpk, double step) {
  const double lo =
      std::max(0.0, std::min(bpk_star, 10.0) - CamalTuner::kPruneRadius);
  const double hi =
      std::min(max_bpk, std::max(bpk_star, 10.0) + CamalTuner::kPruneRadius);
  std::vector<double> out;
  for (double bpk = lo; bpk <= hi + 1e-9; bpk += step) out.push_back(bpk);
  return out;
}

/// One configuration per value, made by `make`.
template <typename Values, typename Make>
std::vector<TuningConfig> Map(const Values& values, Make make) {
  std::vector<TuningConfig> out;
  for (const auto& v : values) out.push_back(make(v));
  return out;
}
}  // namespace

TuningConfig CamalTuner::RecommendFor(const model::WorkloadSpec& w,
                                      const model::SystemParams& target) const {
  const model::WorkloadSpec normalized = w.Normalized();
  // Dynamic mode hands us detector-estimated mixes that rarely match a
  // trained workload exactly. For unseen mixes, score every trained
  // workload's chosen configuration under the model *for the new mix* —
  // the model's predictions are well-grounded at measured configurations,
  // while its global argmin may live in an extrapolated corner. The raw
  // argmin is kept only when it predicts a clear (>25%) advantage.
  const bool have_exact =
      std::any_of(samples_.begin(), samples_.end(), [&](const Sample& s) {
        return SameWorkload(s.workload, normalized);
      });
  if (!have_exact) {
    if (samples_.empty() || !has_model()) {
      return ModelBackedTuner::RecommendFor(w, target);
    }
    // Distinct trained workloads -> their per-workload recommendations.
    std::vector<model::WorkloadSpec> trained;
    std::vector<TuningConfig> candidates;
    for (const Sample& s : samples_) {
      if (std::none_of(trained.begin(), trained.end(),
                       [&](const model::WorkloadSpec& t) {
                         return SameWorkload(t, s.workload);
                       })) {
        trained.push_back(s.workload);
        candidates.push_back(RecommendFor(s.workload, target));
      }
    }
    const Argmin scored = PredictedArgmin(normalized, candidates, target);
    TuningConfig chosen =
        scored.index ? candidates[*scored.index] : TuningConfig{};
    const TuningConfig argmin = ArgminOverGrid(normalized, target);
    if (PredictObjective(normalized, argmin, target) < 0.75 * scored.pred) {
      chosen = argmin;
    }
    ApplyIoDepthRecommendation(normalized, target, &chosen);
    return chosen;
  }
  // Group this workload's samples by configuration (repeat measurements of
  // the same point — e.g. from the refine rounds — average out) and pick
  // the best measured group.
  struct Group {
    const Sample* sample = nullptr;
    double total = 0.0;
    int count = 0;
  };
  std::vector<Group> groups;
  for (const Sample& s : samples_) {
    if (!SameWorkload(s.workload, normalized)) continue;
    const double value = ObjectiveValue(s, options_.objective);
    bool merged = false;
    for (Group& g : groups) {
      if (SameConfig(g.sample->config, s.config)) {
        g.total += value;
        ++g.count;
        merged = true;
        break;
      }
    }
    if (!merged) groups.push_back(Group{&s, value, 1});
  }
  if (groups.empty()) return ModelBackedTuner::RecommendFor(w, target);
  const Group* best = &groups.front();
  for (const Group& g : groups) {
    if (g.total / g.count < best->total / best->count) best = &g;
  }
  // Lemma 5.1: rescale the measured configuration to the target scale.
  const double k = target.num_entries / best->sample->sys.num_entries;
  TuningConfig scaled = ExtrapolateConfig(best->sample->config, k);
  ApplyIoDepthRecommendation(normalized, target, &scaled);
  return scaled;
}

std::vector<TuningConfig> CamalTuner::CandidateGrid(
    const model::WorkloadSpec& w, const model::SystemParams& target) const {
  const model::CostModel cm(target, options_.cost_corrector.get());
  const double max_bpk = MaxBloomBpk(target);
  std::vector<TuningConfig> grid;
  for (lsm::CompactionPolicy policy : SearchPolicies()) {
    TuningConfig start = StartConfig(policy, target);
    const SizeRatioWindow tw = SizeRatioSearch(w, cm, start);
    std::vector<double> bpk_values = {std::min(10.0, max_bpk)};
    if (options_.tune_memory) {
      start.size_ratio = tw.t_star;
      bpk_values =
          BpkWindow(OptimalBpk(w, cm, start, target.num_entries), max_bpk, 1.0);
    }
    for (double t : tw.Values()) {
      AppendGridPoints(policy, t, bpk_values, target, &grid);
    }
  }
  return grid;
}

std::vector<double> CamalTuner::SizeRatioNeighborhood(double t_star,
                                                      double t_lim) const {
  std::vector<double> out;
  auto push = [&](double v) {
    v = std::clamp(std::round(v), 2.0, std::floor(t_lim));
    for (double existing : out) {
      if (std::fabs(existing - v) < 0.5) return;
    }
    out.push_back(v);
  };
  push(t_star);
  for (double factor = 2.0;
       static_cast<int>(out.size()) < options_.samples_per_round;
       factor *= 2.0) {
    push(t_star / factor);
    if (static_cast<int>(out.size()) >= options_.samples_per_round) break;
    push(t_star * factor);
    if (factor > 16.0) break;  // range exhausted
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> CamalTuner::Neighborhood(double center, double lo,
                                             double hi, double step) const {
  std::vector<double> out;
  auto push = [&](double v) {
    v = std::clamp(v, lo, hi);
    for (double existing : out) {
      if (std::fabs(existing - v) < 1e-9) return;
    }
    out.push_back(v);
  };
  push(center);
  for (int ring = 1; static_cast<int>(out.size()) < options_.samples_per_round;
       ++ring) {
    push(center - ring * step);
    if (static_cast<int>(out.size()) >= options_.samples_per_round) break;
    push(center + ring * step);
    if (ring > 8) break;  // range exhausted
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CamalTuner::Train(const std::vector<model::WorkloadSpec>& workloads) {
  tuned_configs_.clear();
  const model::SystemParams train_sys = train_setup_.ToModelParams();
  for (const model::WorkloadSpec& w : workloads) {
    for (lsm::CompactionPolicy policy : SearchPolicies()) {
      TrainWorkload(w, policy);
    }
    // Closing AL iterations: sample the model's current favorite within the
    // pruned window, learn from it, repeat.
    for (int round = 0; round < options_.refine_rounds; ++round) {
      const TuningConfig candidate = ArgminOverGrid(w, train_sys);
      CollectSample(w, candidate);
      RefitModel();
    }
    // The recommendation for this workload given everything learned so far
    // (ArgminOverGrid searches across policies when tune_policy is set).
    tuned_configs_.push_back(Recommend(w));
    Checkpoint();
  }
}

TuningConfig CamalTuner::DecoupledRound(
    const model::WorkloadSpec& w, const std::vector<TuningConfig>& probes,
    const std::vector<TuningConfig>& window, const TuningConfig& fallback) {
  CollectSamples(w, probes);
  RefitModel();
  const Argmin best =
      PredictedArgmin(w, window, train_setup_.ToModelParams());
  return best.index ? window[*best.index] : fallback;
}

TuningConfig CamalTuner::TrainWorkload(const model::WorkloadSpec& w,
                                       lsm::CompactionPolicy policy) {
  const model::SystemParams sys = train_setup_.ToModelParams();
  const model::CostModel cm(sys, options_.cost_corrector.get());
  const double n = sys.num_entries;
  const double m = sys.total_memory_bits;
  const double min_buf = model::MinBufferBits(sys);

  // Untuned parameters start from the Monkey-style defaults.
  TuningConfig cur = StartConfig(policy, sys);
  // `cur` with the given Bloom and cache memory; Mb takes the rest.
  auto with_memory = [&](double mf_bits, double mc_bits) {
    TuningConfig c = cur;
    c.mc_bits = std::max(0.0, mc_bits);
    c.mf_bits = std::clamp(mf_bits, 0.0, m - c.mc_bits - min_buf);
    c.mb_bits = m - c.mf_bits - c.mc_bits;
    return c;
  };

  // ---------------- Round 1: size ratio T (and K when co-dependent).
  // The window is pruned around T*: the complexity analysis bounds how far
  // the intermediate model may pull the parameter.
  const SizeRatioWindow tw = SizeRatioSearch(w, cm, cur);
  if (options_.k_mode == KTuningMode::kCodependent) {
    auto with_tk = [&](const std::pair<double, int>& tk) {
      TuningConfig c = cur;
      c.size_ratio = tk.first;
      c.runs_per_level = tk.second;
      return c;
    };
    std::vector<std::pair<double, int>> joint_window;
    for (double t : tw.Values()) {
      for (int k : RunsPerLevelChoices(t)) joint_window.emplace_back(t, k);
    }
    const int k_star = TheoreticalOptimalK(w, cm, tw.t_star);
    cur = DecoupledRound(
        w,
        Map(JointTkNeighborhood(tw.t_star, k_star,
                                options_.samples_per_round * 2, tw.t_cap),
            with_tk),
        Map(joint_window, with_tk), cur);
  } else {
    auto with_t = [&](double t) {
      TuningConfig c = cur;
      c.size_ratio = std::round(t);
      return c;
    };
    cur = DecoupledRound(
        w, Map(SizeRatioNeighborhood(tw.t_star, tw.t_cap), with_t),
        Map(tw.Values(), with_t), cur);
  }

  // ---------------- Round 2: memory split Mf vs Mb.
  if (!options_.tune_memory) {
    return cur;  // Figure 6g "+T" stage: keep the default memory split.
  }
  const double bpk_star = OptimalBpk(w, cm, cur, n);
  const double max_bpk = MaxBloomBpk(sys);
  std::vector<double> bpk_probes = Neighborhood(bpk_star, 0.0, max_bpk, 2.0);
  // Anchor at the practical default when theory lands far from it.
  if (std::fabs(bpk_star - 10.0) > 3.0 && 10.0 <= max_bpk) {
    bpk_probes.push_back(10.0);
  }
  auto with_bpk = [&](double bpk) { return with_memory(bpk * n, cur.mc_bits); };
  cur = DecoupledRound(w, Map(bpk_probes, with_bpk),
                       Map(BpkWindow(bpk_star, max_bpk, 0.5), with_bpk),
                       with_memory(cur.mf_bits / n * n, cur.mc_bits));

  // ---------------- Round 3 (optional): block cache Mc.
  if (options_.tune_mc) {
    // The closed-form model has no cache term; start from a practically
    // reasonable center (15% of the budget).
    auto with_mc = [&](double frac) {
      return with_memory(cur.mf_bits, frac * m);
    };
    std::vector<double> fracs;
    for (double frac = 0.0; frac <= 0.45; frac += 0.05) fracs.push_back(frac);
    cur = DecoupledRound(w, Map(Neighborhood(0.15, 0.0, 0.4, 0.15), with_mc),
                         Map(fracs, with_mc),
                         with_memory(std::min(cur.mf_bits, m - min_buf), 0.0));
  }

  // ---------------- Optional round: K tuned independently after T.
  if (options_.k_mode == KTuningMode::kIndependent) {
    auto with_k = [&](double k) {
      TuningConfig c = cur;
      c.runs_per_level = static_cast<int>(std::round(k));
      return c;
    };
    const int k_star = TheoreticalOptimalK(w, cm, cur.size_ratio);
    cur = DecoupledRound(
        w, Map(Neighborhood(k_star, 1.0, std::min(8.0, cur.size_ratio), 1.0),
               with_k),
        Map(RunsPerLevelChoices(cur.size_ratio), with_k),
        with_k(std::max(1, cur.runs_per_level)));
  }

  // ---------------- Optional round: SST file size.
  if (options_.tune_file_size) {
    auto with_file = [&](uint64_t file_bytes) {
      TuningConfig c = cur;
      c.file_bytes = file_bytes;
      return c;
    };
    const std::vector<uint64_t> probes = {32 * 1024, 64 * 1024, 128 * 1024};
    const std::vector<uint64_t> window = {0,         16 * 1024,  32 * 1024,
                                          64 * 1024, 128 * 1024, 256 * 1024};
    cur = DecoupledRound(w, Map(probes, with_file), Map(window, with_file),
                         with_file(0));
  }

  return cur;
}

}  // namespace camal::tune
