// Figure 6g: contribution of each tunable parameter — starting from the
// well-tuned-RocksDB default and successively enabling +T, +Mf&Mb, +Mc
// tuning, for CAMAL(Poly)/CAMAL(Trees) under leveling and tiering.
//
// Expected shape (paper): +T alone already drops normalized latency to
// ~0.86-0.88; the memory split adds more; +Mc adds a further visible step;
// leveling and tiering land comparably after full tuning.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  tune::Evaluator evaluator(setup);
  const auto workloads = workload::TrainingWorkloads();
  const std::vector<model::WorkloadSpec> eval_set = {
      workloads[0], workloads[5], workloads[7], workloads[10], workloads[12]};

  tune::MonkeyTuner monkey(setup);
  const SuiteStats monkey_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return monkey.Recommend(w); },
      eval_set);

  std::printf("Figure 6g: parameter breakdown, normalized latency vs "
              "well-tuned RocksDB (=1.00)\n\n");
  std::printf("%-20s %8s %10s %8s\n", "variant", "+T", "+Mf&Mb", "+Mc");
  PrintRule(50);

  for (tune::ModelKind model :
       {tune::ModelKind::kPoly, tune::ModelKind::kTrees}) {
    for (lsm::CompactionPolicy policy :
         {lsm::CompactionPolicy::kLeveling, lsm::CompactionPolicy::kTiering}) {
      char label[64];
      std::snprintf(label, sizeof(label), "CAMAL(%s) %s",
                    tune::ModelKindName(model),
                    policy == lsm::CompactionPolicy::kLeveling ? "Level"
                                                               : "Tier");
      std::printf("%-20s", label);
      struct Stage {
        bool memory;
        bool mc;
      };
      for (const Stage stage : {Stage{false, false}, Stage{true, false},
                                Stage{true, true}}) {
        tune::TunerOptions options;
        options.model_kind = model;
        options.policy = policy;
        options.extrapolation_factor = 10.0;
        options.tune_memory = stage.memory;
        options.tune_mc = stage.mc;
        tune::CamalTuner camal(setup, options);
        camal.Train(workloads);
        const SuiteStats stats = EvaluateSuite(
            evaluator, [&](const auto& w) { return camal.Recommend(w); },
            eval_set);
        std::printf(" %8.2f",
                    stats.mean_latency_us / monkey_stats.mean_latency_us);
      }
      std::printf("\n");
    }
  }
  std::printf("\n(columns are cumulative: +Mf&Mb includes +T; +Mc includes "
              "both)\n");
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
