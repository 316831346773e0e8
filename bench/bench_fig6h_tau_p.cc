// Figure 6h: sensitivity of the dynamic mode's detector window p and
// threshold tau — post-tuning latency, I/O, and reconfiguration
// (transition) I/O across the Table-2 shifting workloads.
//
// Expected shape (paper): latency improves as p shrinks until the window
// becomes too small to estimate the mix (p <~ 1k ops there); tau below
// ~20% changes little; smaller p and tau raise transition I/Os, which the
// lazy transition strategy keeps small vs total compaction I/O.

#include "bench_common.h"

#include "camal/dynamic_tuner.h"
#include "engine/sharded_engine.h"

namespace camal::bench {
namespace {

struct DynResult {
  double latency_us = 0.0;
  double ios = 0.0;
  double transition_ios_per_reconf = 0.0;
  size_t reconfigurations = 0;
};

DynResult RunDynamic(const tune::SystemSetup& setup,
                     tune::ModelBackedTuner* tuner, size_t window, double tau,
                     size_t ops_per_phase) {
  workload::KeySpace keys(setup.num_entries, setup.seed);
  engine::ShardedEngine eng(
      Shards(), tune::MonkeyDefaultConfig(setup).ToOptions(setup),
      setup.MakeDeviceConfig());
  workload::BulkLoad(&eng, keys);

  tune::DynamicTuner::Params params;
  params.window_ops = window;
  params.tau = tau;
  tune::DynamicTuner dynamic(
      [tuner](const model::WorkloadSpec& w,
              const model::SystemParams& target) {
        return tuner->RecommendFor(w, target);
      },
      setup, params);

  DynResult out;
  const auto phases = workload::ShiftingWorkloads();
  double total_ns = 0.0;
  uint64_t total_ios = 0;
  size_t total_ops = 0;
  for (size_t i = 0; i < phases.size(); ++i) {
    const auto result =
        dynamic.RunPhase(&eng, &keys, phases[i], ops_per_phase, i + 1);
    total_ns += result.total_ns;
    total_ios += result.total_ios;
    total_ops += result.num_ops;
  }
  out.latency_us = total_ns / static_cast<double>(total_ops) / 1e3;
  out.ios = static_cast<double>(total_ios) / static_cast<double>(total_ops);
  out.reconfigurations = dynamic.reconfigurations();
  out.transition_ios_per_reconf =
      dynamic.reconfigurations() == 0
          ? 0.0
          : static_cast<double>(
                eng.AggregateCounters().transition_ios) /
                static_cast<double>(dynamic.reconfigurations());
  return out;
}

void Run() {
  tune::SystemSetup setup = BenchSetup();
  setup.num_entries = 20000;
  setup.total_memory_bits = 16 * setup.num_entries;
  const size_t ops_per_phase = 4000;

  tune::TunerOptions options;
  options.model_kind = tune::ModelKind::kTrees;
  options.extrapolation_factor = 10.0;
  tune::CamalTuner camal(setup, options);
  camal.Train(workload::TrainingWorkloads());

  // Static baseline for normalization.
  tune::MonkeyTuner monkey(setup);
  workload::KeySpace keys(setup.num_entries, setup.seed);
  engine::ShardedEngine tree(
      Shards(),
      monkey.Recommend(model::WorkloadSpec{0.25, 0.25, 0.25, 0.25})
          .ToOptions(setup),
      setup.MakeDeviceConfig());
  workload::BulkLoad(&tree, keys);
  double base_ns = 0.0;
  size_t base_ops = 0;
  for (size_t i = 0; i < 24; ++i) {
    workload::ExecutorConfig exec;
    exec.num_ops = ops_per_phase;
    exec.generator.insert_new_keys = true;
    exec.seed = i + 1;
    const auto result = workload::Execute(
        &tree, workload::ShiftingWorkloads()[i], exec, &keys);
    base_ns += result.total_ns;
    base_ops += result.num_ops;
  }
  const double base_latency_us =
      base_ns / static_cast<double>(base_ops) / 1e3;

  std::printf("Figure 6h: sensitivity of p and tau (normalized vs static "
              "RocksDB default = 1.00)\n\n");
  std::printf("Sweep p at tau = 10%%:\n");
  std::printf("%8s %10s %8s %10s %8s\n", "p", "norm lat", "I/O-op",
              "trans I/O", "reconf");
  PrintRule(50);
  for (size_t p : {10000u, 5000u, 2000u, 1000u, 200u, 50u}) {
    const DynResult r = RunDynamic(setup, &camal, p, 0.10, ops_per_phase);
    std::printf("%8zu %10.2f %8.2f %10.1f %8zu\n", p,
                r.latency_us / base_latency_us, r.ios,
                r.transition_ios_per_reconf, r.reconfigurations);
  }

  std::printf("\nSweep tau at p = 1000:\n");
  std::printf("%8s %10s %8s %10s %8s\n", "tau", "norm lat", "I/O-op",
              "trans I/O", "reconf");
  PrintRule(50);
  for (double tau : {0.30, 0.20, 0.10, 0.05, 0.01}) {
    const DynResult r = RunDynamic(setup, &camal, 1000, tau, ops_per_phase);
    std::printf("%7.0f%% %10.2f %8.2f %10.1f %8zu\n", tau * 100.0,
                r.latency_us / base_latency_us, r.ios,
                r.transition_ios_per_reconf, r.reconfigurations);
  }
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
