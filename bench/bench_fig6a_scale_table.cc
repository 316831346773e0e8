// Figure 6a: normalized latency of CAMAL (Poly/Trees) vs Classic (=1.00)
// as the data size N and the memory budget M scale up.
//
// Expected shape (paper): CAMAL holds a steady ~0.81-0.86 of Classic across
// every scale — tuning quality does not degrade with N or M.

#include "bench_common.h"

namespace camal::bench {
namespace {

double NormalizedLatency(const tune::SystemSetup& setup,
                         tune::ModelKind model) {
  tune::Evaluator evaluator(setup);
  const auto workloads = workload::TrainingWorkloads();
  const std::vector<model::WorkloadSpec> eval_set = {
      workloads[0], workloads[5], workloads[7], workloads[10], workloads[12]};

  tune::TunerOptions options;
  options.model_kind = model;
  options.extrapolation_factor = 10.0;
  tune::CamalTuner camal(setup, options);
  camal.Train(workloads);
  tune::ClassicTuner classic(setup, tune::TunerOptions{});

  const SuiteStats camal_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return camal.Recommend(w); }, eval_set);
  const SuiteStats classic_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return classic.Recommend(w); },
      eval_set);
  return camal_stats.mean_latency_us / classic_stats.mean_latency_us;
}

void Run() {
  std::printf("Figure 6a: normalized latency vs Classic (=1.00)\n\n");

  // Scaling N (memory per entry held at the default 16 bits/key).
  std::printf("%-10s %8s %8s %8s\n", "N", "20000", "40000", "80000");
  for (tune::ModelKind model :
       {tune::ModelKind::kPoly, tune::ModelKind::kTrees}) {
    std::printf("%-10s", tune::ModelKindName(model));
    for (uint64_t n : {20000u, 40000u, 80000u}) {
      tune::SystemSetup setup = BenchSetup();
      setup.num_entries = n;
      setup.total_memory_bits = 16 * n;
      std::printf(" %8.2f", NormalizedLatency(setup, model));
    }
    std::printf("\n");
  }

  // Scaling M at fixed N (the paper's 16/32/64 MB sweep).
  std::printf("\n%-10s %8s %8s %8s\n", "M (b/key)", "16", "32", "64");
  for (tune::ModelKind model :
       {tune::ModelKind::kPoly, tune::ModelKind::kTrees}) {
    std::printf("%-10s", tune::ModelKindName(model));
    for (uint64_t bits_per_key : {16u, 32u, 64u}) {
      tune::SystemSetup setup = BenchSetup();
      setup.total_memory_bits = bits_per_key * setup.num_entries;
      std::printf(" %8.2f", NormalizedLatency(setup, model));
    }
    std::printf("\n");
  }
  std::printf("\n(Classic = 1.00 in every column by construction.)\n");
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
