// Figure 7d: tuning under workload uncertainty — the observed workload may
// deviate from the expected one within a KL ball of radius rho. Compares
// plain CAMAL(Poly), uncertainty-aware CAMAL(Poly) (average predicted
// latency over sampled scenarios), and Endure (robust closed-form tuning).
//
// Expected shape (paper): plain CAMAL already beats Endure at moderate rho
// (its nominal tuning is simply better); the uncertainty-aware variant
// extends the lead as rho grows.

#include "bench_common.h"

#include <limits>

#include "camal/uncertainty.h"
#include "model/optimum.h"

namespace camal::bench {
namespace {

// Endure's robust tuning: minimize the *expected closed-form cost* over
// workloads sampled in the rho-ball (the paper's baseline, built on the
// same I/O model as Classic).
tune::TuningConfig EndureRobust(const tune::SystemSetup& setup,
                                const model::WorkloadSpec& expected,
                                double rho, util::Random* rng) {
  const model::SystemParams params = setup.ToModelParams();
  const model::CostModel cm(params);
  std::vector<model::WorkloadSpec> scenarios;
  for (int i = 0; i < 16; ++i) {
    scenarios.push_back(model::SampleInKlBall(expected, rho, rng));
  }
  tune::TuningConfig best;
  double best_cost = std::numeric_limits<double>::infinity();
  const int t_lim = static_cast<int>(cm.SizeRatioLimit());
  for (int t = 2; t <= t_lim; ++t) {
    for (double bpk = 0.0; bpk <= 14.0; bpk += 1.0) {
      model::ModelConfig c;
      c.size_ratio = t;
      c.mf_bits = bpk * params.num_entries;
      c.mb_bits = params.total_memory_bits - c.mf_bits;
      if (c.mb_bits < model::MinBufferBits(params)) continue;
      double total = 0.0;
      for (const auto& s : scenarios) total += cm.OpCost(s, c);
      if (total < best_cost) {
        best_cost = total;
        best.size_ratio = t;
        best.mf_bits = c.mf_bits;
        best.mb_bits = c.mb_bits;
      }
    }
  }
  return best;
}

void Run() {
  tune::SystemSetup setup = BenchSetup();
  tune::Evaluator evaluator(setup);
  const auto train = workload::TrainingWorkloads();

  tune::TunerOptions options;
  options.model_kind = tune::ModelKind::kPoly;
  options.extrapolation_factor = 10.0;
  tune::CamalTuner camal(setup, options);
  camal.Train(train);

  const model::WorkloadSpec expected{0.25, 0.25, 0.25, 0.25};
  std::printf("Figure 7d: workload uncertainty (expected %s)\n",
              expected.ToString().c_str());
  std::printf("normalized mean latency over observed workloads in the "
              "rho-ball (CAMAL(Poly) at rho=0 = 1.00)\n\n");
  std::printf("%6s %12s %18s %10s\n", "rho", "CAMAL(Poly)",
              "CAMAL(Poly,Uncert.)", "Endure");
  PrintRule(52);

  util::Random rng(11);
  double denom = 0.0;
  for (double rho : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    // Observed workloads deviate from the expectation within the ball.
    std::vector<model::WorkloadSpec> observed;
    for (int i = 0; i < 6; ++i) {
      observed.push_back(model::SampleInKlBall(expected, rho, &rng));
    }
    const tune::TuningConfig plain = camal.Recommend(expected);
    const tune::TuningConfig robust =
        RecommendUnderUncertainty(camal, expected, rho, 12, &rng);
    const tune::TuningConfig endure = EndureRobust(setup, expected, rho, &rng);

    auto avg = [&](const tune::TuningConfig& c) {
      double total = 0.0;
      for (size_t i = 0; i < observed.size(); ++i) {
        total += evaluator.Evaluate(observed[i], c, i).mean_latency_ns / 1e3;
      }
      return total / static_cast<double>(observed.size());
    };
    const double plain_lat = avg(plain);
    const double robust_lat = avg(robust);
    const double endure_lat = avg(endure);
    if (denom == 0.0) denom = plain_lat;
    std::printf("%6.1f %12.2f %18.2f %10.2f\n", rho, plain_lat / denom,
                robust_lat / denom, endure_lat / denom);
  }
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
