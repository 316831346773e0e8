// Figure 7b: alternative optimization objectives — p90 tail latency and
// I/Os per operation — as both learning target and evaluation metric,
// traced over sampling budget.
//
// Expected shape (paper): tail latency tuning beats the well-tuned default
// by ~15% once trained; the I/O objective improves less (~8%) because
// compaction and cache randomness make I/O a noisier target.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  tune::Evaluator evaluator(setup);
  const auto train = workload::TrainingWorkloads();
  const std::vector<model::WorkloadSpec> eval_set = {
      train[0], train[5], train[7], train[12]};

  tune::ClassicTuner classic(setup, tune::TunerOptions{});
  const SuiteStats classic_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return classic.Recommend(w); },
      eval_set);

  std::printf("Figure 7b: alternative objectives (normalized vs Classic = "
              "1.00 on the same metric)\n\n");
  std::printf("%-28s %s\n", "objective",
              "(simulated sampling minutes -> normalized objective)");
  PrintRule();

  struct Obj {
    const char* label;
    tune::Objective objective;
  };
  for (const Obj obj : {Obj{"CAMAL(Trees)+Tail Latency",
                            tune::Objective::kP90Latency},
                        Obj{"CAMAL(Trees)+I/Os", tune::Objective::kIosPerOp}}) {
    tune::TunerOptions options;
    options.model_kind = tune::ModelKind::kTrees;
    options.objective = obj.objective;
    options.extrapolation_factor = 10.0;
    tune::CamalTuner camal(setup, options);

    const double classic_metric = obj.objective == tune::Objective::kP90Latency
                                      ? classic_stats.mean_p90_us
                                      : classic_stats.mean_ios;
    std::vector<std::pair<double, double>> curve;
    int checkpoint = 0;
    camal.SetCheckpointCallback([&](double cum_ns) {
      if (++checkpoint % 4 != 0 && checkpoint != 15) return;
      const SuiteStats stats = EvaluateSuite(
          evaluator, [&](const auto& w) { return camal.Recommend(w); },
          eval_set, static_cast<uint64_t>(checkpoint));
      const double metric = obj.objective == tune::Objective::kP90Latency
                                ? stats.mean_p90_us
                                : stats.mean_ios;
      curve.emplace_back(SimMinutes(cum_ns), metric / classic_metric);
    });
    camal.Train(train);
    std::printf("%-28s", obj.label);
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
