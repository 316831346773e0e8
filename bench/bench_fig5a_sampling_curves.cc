// Figure 5a: normalized latency (vs well-tuned RocksDB / Monkey) as a
// function of cumulative sampling cost, for every strategy x model combo:
// CAMAL (Poly/Trees/NN, with and without extrapolation), Plain AL, Bayes,
// Plain ML — plus the sample-free Classic baseline.
//
// Expected shape (paper): CAMAL reaches its low plateau with ~3-5x less
// sampling than the baselines; extrapolation cuts its cost by another ~5x;
// the NN variants need ~3x more samples than Poly/Trees.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  tune::Evaluator evaluator(setup);
  const auto train = workload::TrainingWorkloads();
  // A diverse evaluation subset (uni/bi/tri-modal) keeps the harness quick.
  const std::vector<model::WorkloadSpec> eval_set = {train[0], train[4],
                                                     train[6], train[13]};

  // Baseline: Monkey (normalization denominator) and Classic.
  tune::MonkeyTuner monkey(setup);
  const SuiteStats monkey_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return monkey.Recommend(w); },
      eval_set);
  tune::ClassicTuner classic(setup, tune::TunerOptions{});
  const SuiteStats classic_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return classic.Recommend(w); },
      eval_set);

  std::printf("Figure 5a: normalized latency (vs Monkey=1.00) over sampling "
              "cost\n");
  std::printf("Classic (no samples): %.3f\n\n",
              classic_stats.mean_latency_us / monkey_stats.mean_latency_us);
  std::printf("%-26s %s\n", "strategy",
              "(simulated sampling minutes -> normalized latency)");
  PrintRule();

  struct Combo {
    Strategy strategy;
    tune::ModelKind model;
    double ext;  // extrapolation factor (1 = off)
  };
  std::vector<Combo> combos;
  for (tune::ModelKind model : {tune::ModelKind::kPoly,
                                tune::ModelKind::kTrees,
                                tune::ModelKind::kNn}) {
    combos.push_back({Strategy::kCamal, model, 10.0});
    combos.push_back({Strategy::kCamal, model, 1.0});
    combos.push_back({Strategy::kPlainAl, model, 1.0});
    combos.push_back({Strategy::kBayes, model, 1.0});
    combos.push_back({Strategy::kPlainMl, model, 1.0});
  }

  for (const Combo& combo : combos) {
    tune::TunerOptions options;
    options.model_kind = combo.model;
    options.extrapolation_factor = combo.ext;
    options.budget_per_workload = 12;
    auto tuner = MakeStrategy(combo.strategy, setup, options);

    std::vector<std::pair<double, double>> curve;  // (minutes, norm latency)
    int checkpoint = 0;
    tuner->SetCheckpointCallback([&](double cum_ns) {
      // Evaluating at every 5th checkpoint keeps the harness fast while
      // still tracing the curve.
      if (++checkpoint % 5 != 0 && checkpoint != 15) return;
      const SuiteStats stats = EvaluateSuite(
          evaluator, [&](const auto& w) { return tuner->Recommend(w); },
          eval_set, static_cast<uint64_t>(checkpoint),
          /*reps=*/checkpoint == 15 ? 2 : 1);
      curve.emplace_back(SimMinutes(cum_ns),
                         stats.mean_latency_us / monkey_stats.mean_latency_us);
    });
    tuner->Train(train);

    char label[64];
    std::snprintf(label, sizeof(label), "%s (%s%s)",
                  StrategyName(combo.strategy),
                  tune::ModelKindName(combo.model),
                  combo.ext > 1.0 ? " w/ Ext." : "");
    std::printf("%-26s", label);
    for (const auto& [minutes, norm] : curve) {
      std::printf("  %5.2fm:%.3f", minutes, norm);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
