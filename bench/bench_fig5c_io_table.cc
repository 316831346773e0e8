// Figure 5c: mean I/Os per operation for every method. CAMAL does not
// optimize I/O directly, yet low latency implies low I/O (the converse
// does not hold — Classic minimizes modeled I/O and still loses).
//
// Expected shape (paper): CAMAL(Trees) lowest (4.5 vs Classic 16.2 there,
// a ~70% reduction); Monkey highest; NN variants high within each family.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  tune::Evaluator evaluator(setup);
  const auto workloads = workload::TrainingWorkloads();

  std::printf("Figure 5c: I/Os per operation across the 15 Table-1 "
              "workloads\n");
  std::printf("%-22s %10s\n", "method", "mean I/O");
  PrintRule(34);

  auto report = [&](const std::string& name,
                    const RecommendForWorkload& recommend) {
    const SuiteStats stats = EvaluateSuite(evaluator, recommend, workloads);
    std::printf("%-22s %10.2f\n", name.c_str(), stats.mean_ios);
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
