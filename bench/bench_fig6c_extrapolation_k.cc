// Figure 6c: normalized latency vs the extrapolation factor k — CAMAL is
// trained at (N/k, M/k) and deployed at (N, M) via Lemma 5.1.
//
// Expected shape (paper): performance is flat up to k ~ 10 and degrades
// sharply past k ~ 50, where the scaled-down instance becomes too noisy
// and too structurally different to inform the full-size system.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  setup.num_entries = 80000;  // headroom so k=50 is still a real instance
  setup.total_memory_bits = 16 * setup.num_entries;
  tune::Evaluator evaluator(setup);
  const auto workloads = workload::TrainingWorkloads();
  const std::vector<model::WorkloadSpec> eval_set = {
      workloads[0], workloads[5], workloads[7], workloads[10], workloads[12]};

  tune::ClassicTuner classic(setup, tune::TunerOptions{});
  const SuiteStats classic_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return classic.Recommend(w); },
      eval_set);

  std::printf("Figure 6c: normalized latency vs extrapolation factor k "
              "(Classic = 1.00)\n\n");
  std::printf("%6s %12s %12s %16s\n", "k", "CAMAL(Poly)", "CAMAL(Trees)",
              "train cost (m)");
  PrintRule(50);
  for (double k : {0.5, 1.0, 2.0, 4.0, 10.0, 50.0}) {
    std::printf("%6.1f", k);
    double cost = 0.0;
    for (tune::ModelKind model :
         {tune::ModelKind::kPoly, tune::ModelKind::kTrees}) {
      tune::TunerOptions options;
      options.model_kind = model;
      options.extrapolation_factor = k;
      tune::CamalTuner camal(setup, options);
      camal.Train(workloads);
      cost = SimMinutes(camal.sampling_cost_ns());
      const SuiteStats stats = EvaluateSuite(
          evaluator, [&](const auto& w) { return camal.Recommend(w); },
          eval_set);
      std::printf(" %12.2f",
                  stats.mean_latency_us / classic_stats.mean_latency_us);
    }
    std::printf(" %16.2f\n", cost);
  }
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
