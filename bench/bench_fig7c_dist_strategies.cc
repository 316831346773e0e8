// Figure 7c: the three ways of incorporating data-distribution knowledge
// (Section 8.1): (a) train on uniform data, test on skewed; (b) train at
// the test skew; (c) train across several skews with the coefficient as a
// model feature.
//
// Expected shape (paper): (b) and (c) improve on (a) by up to ~15% as
// skewness grows, thanks to smarter cache allocation.

#include "bench_common.h"

namespace camal::bench {
namespace {

std::vector<model::WorkloadSpec> WithSkew(
    const std::vector<model::WorkloadSpec>& base, double skew) {
  std::vector<model::WorkloadSpec> out;
  for (model::WorkloadSpec w : base) {
    w.skew = skew;
    out.push_back(w);
  }
  return out;
}

void Run() {
  tune::SystemSetup setup = BenchSetup();
  setup.num_entries = 20000;
  setup.total_memory_bits = 16 * setup.num_entries;
  tune::Evaluator evaluator(setup);
  const auto base = workload::TrainingWorkloads();
  const std::vector<model::WorkloadSpec> eval_base = {base[0], base[5],
                                                      base[8], base[12]};

  tune::TunerOptions options;
  options.model_kind = tune::ModelKind::kTrees;
  options.extrapolation_factor = 10.0;
  options.tune_mc = true;

  // Strategy (a): trained once on uniform streams.
  tune::CamalTuner strategy_a(setup, options);
  strategy_a.Train(base);
  // Strategy (c): trained across skews; the skew feature lets one model
  // serve them all.
  tune::CamalTuner strategy_c(setup, options);
  {
    std::vector<model::WorkloadSpec> multi;
    for (double s : {0.0, 0.5, 0.9}) {
      const auto skewed = WithSkew({base[0], base[5], base[8], base[12]}, s);
      multi.insert(multi.end(), skewed.begin(), skewed.end());
    }
    strategy_c.Train(multi);
  }

  std::printf("Figure 7c: distribution strategies vs skewness "
              "(normalized to strategy (a) = 1.00)\n\n");
  std::printf("%6s %12s %12s %12s\n", "skew", "(a)uniform", "(b)same",
              "(c)feature");
  PrintRule(48);
  for (double skew : {0.2, 0.4, 0.6, 0.8}) {
    const auto eval_set = WithSkew(eval_base, skew);
    // Strategy (b): trained at exactly this skew.
    tune::CamalTuner strategy_b(setup, options);
    strategy_b.Train(WithSkew(base, skew));

    const SuiteStats a = EvaluateSuite(
        evaluator, [&](const auto& w) { return strategy_a.Recommend(w); },
        eval_set);
    const SuiteStats b = EvaluateSuite(
        evaluator, [&](const auto& w) { return strategy_b.Recommend(w); },
        eval_set);
    const SuiteStats c = EvaluateSuite(
        evaluator, [&](const auto& w) { return strategy_c.Recommend(w); },
        eval_set);
    std::printf("%6.1f %12.2f %12.2f %12.2f\n", skew, 1.0,
                b.mean_latency_us / a.mean_latency_us,
                c.mean_latency_us / a.mean_latency_us);
  }
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
