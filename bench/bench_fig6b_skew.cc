// Figure 6b: normalized latency vs Zipfian skew coefficient. CAMAL tunes
// the block cache (Mc round enabled) and is trained on skewed streams, so
// it converts skew into cache hits; Classic cannot reason about the cache.
//
// Expected shape (paper): CAMAL's advantage widens with skew, reaching
// ~0.7-0.8 of Classic at high skew.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  const auto base_workloads = workload::TrainingWorkloads();
  std::printf("Figure 6b: normalized latency vs skew (Classic = 1.00)\n\n");
  std::printf("%6s %12s %12s\n", "skew", "CAMAL(Poly)", "CAMAL(Trees)");
  PrintRule(34);

  for (double skew : {0.2, 0.4, 0.6, 0.8, 0.9}) {
    // Train and evaluate at this skew (strategy (b) of Section 8.1).
    std::vector<model::WorkloadSpec> workloads;
    for (model::WorkloadSpec w : base_workloads) {
      w.skew = skew;
      workloads.push_back(w);
    }
    const std::vector<model::WorkloadSpec> eval_set = {
        workloads[0], workloads[5], workloads[8], workloads[12]};
    tune::Evaluator evaluator(setup);
    tune::ClassicTuner classic(setup, tune::TunerOptions{});
    const SuiteStats classic_stats = EvaluateSuite(
        evaluator, [&](const auto& w) { return classic.Recommend(w); },
        eval_set);

    std::printf("%6.1f", skew);
    for (tune::ModelKind model :
         {tune::ModelKind::kPoly, tune::ModelKind::kTrees}) {
      tune::TunerOptions options;
      options.model_kind = model;
      options.extrapolation_factor = 10.0;
      options.tune_mc = true;  // cache matters under skew
      tune::CamalTuner camal(setup, options);
      camal.Train(workloads);
      const SuiteStats stats = EvaluateSuite(
          evaluator, [&](const auto& w) { return camal.Recommend(w); },
          eval_set);
      std::printf(" %12.2f",
                  stats.mean_latency_us / classic_stats.mean_latency_us);
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
