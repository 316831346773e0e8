// Figure 5b: mean and 90th-percentile latency per operation for every
// method (the paper's ms/op table). All learned methods train with the
// paper's default x10 extrapolation setting.
//
// Expected shape (paper): CAMAL(Poly/Trees) lowest mean (0.10-0.11 ms
// there), ~15-20% under Classic; Monkey stable but slower; NN variants
// worst of each strategy family.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  tune::Evaluator evaluator(setup);
  const auto workloads = workload::TrainingWorkloads();

  std::printf("Figure 5b: latency per operation across the 15 Table-1 "
              "workloads\n");
  std::printf("%-22s %10s %10s %10s\n", "method", "mean (us)", "p90 (us)",
              "p99 (us)");
  PrintRule(57);

  auto report = [&](const std::string& name,
                    const RecommendForWorkload& recommend) {
    const SuiteStats stats = EvaluateSuite(evaluator, recommend, workloads);
    std::printf("%-22s %10.1f %10.1f %10.1f\n", name.c_str(),
                stats.mean_latency_us, stats.mean_p90_us, stats.mean_p99_us);
  };

  for (tune::ModelKind model : {tune::ModelKind::kPoly,
                                tune::ModelKind::kTrees,
                                tune::ModelKind::kNn}) {
    for (Strategy strategy : {Strategy::kCamal, Strategy::kPlainAl,
                              Strategy::kBayes, Strategy::kPlainMl}) {
      tune::TunerOptions options;
      options.model_kind = model;
      options.extrapolation_factor = 10.0;
      options.budget_per_workload = 12;
      auto tuner = MakeStrategy(strategy, setup, options);
      tuner->Train(workloads);
      report(std::string(StrategyName(strategy)) + " (" +
                 tune::ModelKindName(model) + ")",
             [&](const auto& w) { return tuner->Recommend(w); });
    }
  }

  tune::ClassicTuner classic(setup, tune::TunerOptions{});
  report("Classic", [&](const auto& w) { return classic.Recommend(w); });
  // Classic (Cache): the closed-form optimum with 20% of the budget carved
  // out for a block cache the I/O model cannot reason about.
  report("Classic (Cache)", [&](const auto& w) {
    tune::TuningConfig c = classic.Recommend(w);
    const double mc = 0.2 * static_cast<double>(setup.total_memory_bits);
    const double shrink = std::min(c.mb_bits - 1024.0, mc);
    c.mc_bits = shrink;
    c.mb_bits -= shrink;
    return c;
  });
  tune::MonkeyTuner monkey(setup);
  report("Monkey", [&](const auto& w) { return monkey.Recommend(w); });
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
