// Figure 6d: tuning a 5x larger instance (the paper's 50M-entry / 80MB
// sweep). Compares CAMAL(Trees) with and without extrapolation against
// Plain AL on sampling cost vs achieved latency.
//
// Expected shape (paper): with extrapolation CAMAL reaches its plateau an
// order of magnitude sooner; Plain AL trails even after the largest budget
// (~5% reduction after 31 hours there).

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  setup.num_entries = 200000;  // 5x the default scale
  setup.total_memory_bits = 16 * setup.num_entries;
  tune::Evaluator evaluator(setup);
  const auto train = workload::TrainingWorkloads();
  const std::vector<model::WorkloadSpec> eval_set = {
      train[0], train[5], train[7], train[12]};

  tune::MonkeyTuner monkey(setup);
  const SuiteStats monkey_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return monkey.Recommend(w); },
      eval_set);
  tune::ClassicTuner classic(setup, tune::TunerOptions{});
  const SuiteStats classic_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return classic.Recommend(w); },
      eval_set);

  std::printf("Figure 6d: large-data tuning (N=%llu), normalized latency vs "
              "Monkey=1.00\n",
              static_cast<unsigned long long>(setup.num_entries));
  std::printf("Classic: %.3f\n\n",
              classic_stats.mean_latency_us / monkey_stats.mean_latency_us);
  std::printf("%-26s %s\n", "strategy",
              "(simulated sampling minutes -> normalized latency)");
  PrintRule();

  struct Combo {
    const char* label;
    Strategy strategy;
    double ext;
  };
  const Combo combos[] = {
      {"CAMAL(Trees w/ Ext.)", Strategy::kCamal, 10.0},
      {"CAMAL(Trees w/o Ext.)", Strategy::kCamal, 1.0},
      {"Plain AL (Trees)", Strategy::kPlainAl, 1.0},
  };
  for (const Combo& combo : combos) {
    tune::TunerOptions options;
    options.model_kind = tune::ModelKind::kTrees;
    options.extrapolation_factor = combo.ext;
    options.budget_per_workload = 10;
    auto tuner = MakeStrategy(combo.strategy, setup, options);
    std::vector<std::pair<double, double>> curve;
    int checkpoint = 0;
    tuner->SetCheckpointCallback([&](double cum_ns) {
      if (++checkpoint % 5 != 0 && checkpoint != 15) return;
      const SuiteStats stats = EvaluateSuite(
          evaluator, [&](const auto& w) { return tuner->Recommend(w); },
          eval_set, static_cast<uint64_t>(checkpoint));
      curve.emplace_back(SimMinutes(cum_ns),
                         stats.mean_latency_us / monkey_stats.mean_latency_us);
    });
    tuner->Train(train);
    std::printf("%-26s", combo.label);
    for (const auto& [minutes, norm] : curve) {
      std::printf("  %6.2fm:%.3f", minutes, norm);
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
