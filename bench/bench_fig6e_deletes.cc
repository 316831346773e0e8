// Figure 6e: tuned system latency as the fraction of deletes within the
// write mix varies, for a 99%-write workload and a 50/50 write/read mix.
//
// Expected shape (paper): latency is essentially flat in the delete
// fraction — tombstones ride the same write path as inserts and updates.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  tune::SystemSetup setup = BenchSetup();
  tune::Evaluator evaluator(setup);

  model::WorkloadSpec writes{0.0, 0.01, 0.0, 0.99};
  model::WorkloadSpec half{0.0, 0.5, 0.0, 0.5};

  // Tune once per workload with CAMAL(Trees) at zero deletes, then sweep
  // the delete fraction (the structure is delete-agnostic).
  tune::TunerOptions options;
  options.model_kind = tune::ModelKind::kTrees;
  options.extrapolation_factor = 10.0;
  tune::CamalTuner camal(setup, options);
  camal.Train({writes, half});

  std::printf("Figure 6e: system latency vs %% deletes in writes (tuned "
              "with CAMAL(Trees))\n\n");
  std::printf("%10s %14s %16s\n", "% deletes", "99%W (us)", "50%W+50%R (us)");
  PrintRule(44);
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::printf("%10.0f", frac * 100.0);
    for (const model::WorkloadSpec& base : {writes, half}) {
      model::WorkloadSpec w = base;
      w.delete_frac = frac;
      const tune::Measurement m = evaluator.Evaluate(w, camal.Recommend(base),
                                                     static_cast<uint64_t>(
                                                         frac * 100.0));
      std::printf(" %14.1f", m.mean_latency_ns / 1e3);
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
