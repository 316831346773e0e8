// Figure 7a: extending the tuning space with new parameters via group-wise
// sampling — runs-per-level K sampled jointly with T (co-dependent) vs
// after T (independent), and SST file size sampled independently — at
// growing extra sample budgets (+3/+6/+9).
//
// Expected shape (paper): co-dependent (T, K) sampling beats independent K
// (which gets stuck near the T-only optimum); file-size tuning has a much
// smaller effect.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  tune::Evaluator evaluator(setup);
  const auto workloads = workload::TrainingWorkloads();
  const std::vector<model::WorkloadSpec> eval_set = {
      workloads[0], workloads[7], workloads[10], workloads[12]};

  tune::MonkeyTuner monkey(setup);
  const SuiteStats monkey_stats = EvaluateSuite(
      evaluator, [&](const auto& w) { return monkey.Recommend(w); },
      eval_set);

  std::printf("Figure 7a: adding parameters with group-wise sampling "
              "(normalized vs RocksDB default = 1.00)\n\n");
  std::printf("%8s %18s %18s %12s\n", "+samples", "+K (independent)",
              "+K (codependent)", "+File Size");
  PrintRule(62);

  for (int extra : {3, 6, 9}) {
    std::printf("%8d", extra);
    struct Variant {
      tune::KTuningMode k_mode;
      bool file;
    };
    for (const Variant variant :
         {Variant{tune::KTuningMode::kIndependent, false},
          Variant{tune::KTuningMode::kCodependent, false},
          Variant{tune::KTuningMode::kOff, true}}) {
      tune::TunerOptions options;
      options.model_kind = tune::ModelKind::kTrees;
      options.extrapolation_factor = 10.0;
      options.k_mode = variant.k_mode;
      options.tune_file_size = variant.file;
      // The extra budget feeds the new parameter's sampling round.
      options.samples_per_round = extra;
      tune::CamalTuner camal(setup, options);
      camal.Train(workloads);
      const SuiteStats stats = EvaluateSuite(
          evaluator, [&](const auto& w) { return camal.Recommend(w); },
          eval_set);
      std::printf(" %18.2f",
                  stats.mean_latency_us / monkey_stats.mean_latency_us);
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
