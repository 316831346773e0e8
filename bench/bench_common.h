#ifndef CAMAL_BENCH_BENCH_COMMON_H_
#define CAMAL_BENCH_BENCH_COMMON_H_

// Shared plumbing for the per-figure benchmark harnesses. Each bench binary
// regenerates one table/figure of the paper on the simulated substrate:
// absolute numbers differ from the paper's NVMe testbed, but the relative
// shapes (who wins, by what factor, where crossovers fall) are the point.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "camal/bayes_tuner.h"
#include "camal/camal_tuner.h"
#include "camal/classic_tuner.h"
#include "camal/evaluator.h"
#include "camal/grid_tuner.h"
#include "camal/plain_al_tuner.h"
#include "util/thread_pool.h"
#include "workload/tables.h"

namespace camal::bench {

/// Process-wide shard count selected by `--shards=N` (default 1: a single
/// tree, the paper's setting). Benches that build a `SystemSetup` apply it
/// as `setup.num_shards`.
inline size_t& ShardsRef() {
  static size_t shards = 1;
  return shards;
}
inline size_t Shards() { return ShardsRef(); }

/// Process-wide intra-engine worker count selected by `--engine-threads=N`
/// (default 1: serial engines; 0 = hardware). Applied as
/// `SystemSetup::engine_threads`: every serving engine the Evaluator
/// builds fans `ExecuteOps` batches across this many workers. Bit-identical
/// results at any value, like --threads.
inline int& EngineThreadsRef() {
  static int engine_threads = 1;
  return engine_threads;
}
inline int EngineThreads() { return EngineThreadsRef(); }

/// Process-wide ring queue depth selected by `--io-queue-depth=N` (default
/// 1: serial reads, bit-identical to the historical pread path; above 1 the
/// file backend engages its io_uring ring where supported). Applied as
/// `SystemSetup::io_queue_depth`; `SystemSetup::Validate` rejects a
/// non-default depth on backend=sim, so sim benches fail fast with an
/// explanatory message instead of silently ignoring the flag.
inline int& IoQueueDepthRef() {
  static int depth = 1;
  return depth;
}
inline int IoQueueDepth() { return IoQueueDepthRef(); }

/// Parses `--threads=N`, `--shards=N`, and `--engine-threads=N` (or
/// space-separated) arguments, removes them from argv, and configures the
/// process-wide pool / shard count / engine parallelism. Threads: N = 0
/// selects the hardware concurrency; the default (1) keeps benches serial,
/// and every result is bit-identical across thread counts — only
/// wall-clock changes — so benches are free to default
/// TunerOptions::threads to 0 ("follow the global setting"). Shards: the
/// number of LSM-tree partitions the serving engine splits each instance
/// into (changes the measured system, unlike --threads). Engine threads:
/// workers each serving engine fans batched ops across (wall-clock only,
/// like --threads; pays off when job-level parallelism is exhausted).
inline int InitBenchThreads(int* argc, char** argv) {
  // Strict numeric parse: garbage or out-of-range must not silently
  // become "all cores" (0) or a truncated value.
  const auto parse = [](const char* flag, const char* s, long min, long max,
                        long fallback) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < min || errno == ERANGE || v > max) {
      std::fprintf(stderr, "[bench] invalid %s value '%s'; keeping %ld\n",
                   flag, s, fallback);
      return fallback;
    }
    return v;
  };
  long threads = 1;
  long shards = 1;
  long engine_threads = 1;
  long io_queue_depth = 1;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = parse("--threads", argv[i] + 10, 0, 1024 * 1024, threads);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 < *argc) {
        threads = parse("--threads", argv[++i], 0, 1024 * 1024, threads);
      } else {
        std::fprintf(stderr,
                     "[bench] --threads needs a value (0 = all cores); "
                     "staying serial\n");
      }
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      // Ceiling mirrors tune::SystemSetup::kMaxShards (the lazy engines'
      // million-tenant envelope); Validate re-checks whatever lands in a
      // SystemSetup.
      shards = parse("--shards", argv[i] + 9, 1, 16L * 1024 * 1024, shards);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if (i + 1 < *argc) {
        shards =
            parse("--shards", argv[++i], 1, 16L * 1024 * 1024, shards);
      } else {
        std::fprintf(stderr, "[bench] --shards needs a value (>= 1)\n");
      }
    } else if (std::strncmp(argv[i], "--engine-threads=", 17) == 0) {
      engine_threads =
          parse("--engine-threads", argv[i] + 17, 0, 1024, engine_threads);
    } else if (std::strcmp(argv[i], "--engine-threads") == 0) {
      if (i + 1 < *argc) {
        engine_threads =
            parse("--engine-threads", argv[++i], 0, 1024, engine_threads);
      } else {
        std::fprintf(stderr,
                     "[bench] --engine-threads needs a value (0 = all "
                     "cores); keeping engines serial\n");
      }
    } else if (std::strncmp(argv[i], "--io-queue-depth=", 17) == 0) {
      io_queue_depth =
          parse("--io-queue-depth", argv[i] + 17, 1, 1024, io_queue_depth);
    } else if (std::strcmp(argv[i], "--io-queue-depth") == 0) {
      if (i + 1 < *argc) {
        io_queue_depth =
            parse("--io-queue-depth", argv[++i], 1, 1024, io_queue_depth);
      } else {
        std::fprintf(stderr,
                     "[bench] --io-queue-depth needs a value (>= 1)\n");
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[out] = nullptr;  // keep the argv[argc] == NULL invariant
  util::SetGlobalThreads(static_cast<int>(threads));
  ShardsRef() = static_cast<size_t>(shards);
  EngineThreadsRef() = static_cast<int>(engine_threads);
  IoQueueDepthRef() = static_cast<int>(io_queue_depth);
  const int resolved = util::GlobalThreads();
  if (resolved > 1) {
    std::printf("[bench] running with %d threads\n", resolved);
  }
  if (shards > 1) {
    std::printf("[bench] serving engines use %ld shards\n", shards);
  }
  if (engine_threads != 1) {
    std::printf("[bench] engines fan batched ops across %ld workers\n",
                engine_threads);
  }
  if (io_queue_depth != 1) {
    std::printf("[bench] file engines use queue depth %ld\n",
                io_queue_depth);
  }
  return resolved;
}

/// `InitBenchThreads` for a bench that takes no other flag: any argument
/// left after it is rejected with a nonzero exit, so a misspelled or
/// retired flag fails loudly instead of being silently ignored.
inline void InitBenchThreadsOnly(int* argc, char** argv) {
  InitBenchThreads(argc, argv);
  if (*argc > 1) {
    std::fprintf(stderr, "unknown flag: %s\n", argv[1]);
    std::exit(1);
  }
}

/// Strips `--json <path>` / `--json=<path>` from argv and returns the path
/// ("" when absent). Benches that support machine-readable output use it
/// to emit a BENCH_*.json artifact for the perf trajectory.
inline std::string TakeJsonFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 < *argc) {
        path = argv[++i];
      } else {
        std::fprintf(stderr, "[bench] --json needs a path\n");
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  argv[out] = nullptr;
  return path;
}

/// Baseline `SystemSetup` for a bench: the paper defaults plus the
/// process-wide `--shards` selection. Every bench that measures through
/// the Evaluator builds its setups from this so `--shards=N` actually
/// changes the measured system.
inline tune::SystemSetup BenchSetup() {
  tune::SystemSetup setup;
  setup.num_shards = Shards();
  setup.engine_threads = EngineThreads();
  setup.io_queue_depth = IoQueueDepth();
  // Abort on inconsistent knob combinations before any engine is built
  // (benches that tweak the returned setup re-validate through the
  // Evaluator, which runs the same check).
  tune::ValidateOrDie(setup);
  return setup;
}

using RecommendForWorkload =
    std::function<tune::TuningConfig(const model::WorkloadSpec&)>;

/// Aggregate of evaluating one recommendation function across workloads.
struct SuiteStats {
  double mean_latency_us = 0.0;
  double mean_p90_us = 0.0;
  double mean_p99_us = 0.0;
  double mean_ios = 0.0;
};

/// Evaluates `recommend` on every workload with the evaluator's eval_ops
/// budget and averages the metrics. Each (workload, config) pair is
/// measured at `reps` different compaction-fullness phases.
inline SuiteStats EvaluateSuite(
    const tune::Evaluator& evaluator, const RecommendForWorkload& recommend,
    const std::vector<model::WorkloadSpec>& workloads, uint64_t salt = 0,
    int reps = 2) {
  // The (workload, rep) measurements are independent; fan them across the
  // global pool. Salts are assigned by index, so the aggregate is
  // bit-identical to the serial loop regardless of --threads.
  std::vector<tune::EvalJob> jobs;
  jobs.reserve(workloads.size() * static_cast<size_t>(reps));
  for (size_t i = 0; i < workloads.size(); ++i) {
    const tune::TuningConfig config = recommend(workloads[i]);
    for (int rep = 0; rep < reps; ++rep) {
      jobs.push_back(tune::EvalJob{
          workloads[i], config,
          salt * 1000 + i + static_cast<uint64_t>(rep) * 131});
    }
  }
  const std::vector<tune::Measurement> results =
      evaluator.EvaluateBatch(jobs, util::GlobalPool());

  SuiteStats stats;
  for (const tune::Measurement& m : results) {
    stats.mean_latency_us += m.mean_latency_ns / 1e3;
    stats.mean_p90_us += m.p90_latency_ns / 1e3;
    stats.mean_p99_us += m.p99_latency_ns / 1e3;
    stats.mean_ios += m.ios_per_op;
  }
  const double n = static_cast<double>(results.size());
  stats.mean_latency_us /= n;
  stats.mean_p90_us /= n;
  stats.mean_p99_us /= n;
  stats.mean_ios /= n;
  return stats;
}

/// The sampling strategies compared throughout Section 8.
enum class Strategy { kCamal, kPlainAl, kBayes, kPlainMl };

inline const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kCamal:
      return "CAMAL";
    case Strategy::kPlainAl:
      return "Plain AL";
    case Strategy::kBayes:
      return "Bayes";
    case Strategy::kPlainMl:
      return "Plain ML";
  }
  return "?";
}

inline std::unique_ptr<tune::ModelBackedTuner> MakeStrategy(
    Strategy strategy, const tune::SystemSetup& setup,
    const tune::TunerOptions& options) {
  switch (strategy) {
    case Strategy::kCamal:
      return std::make_unique<tune::CamalTuner>(setup, options);
    case Strategy::kPlainAl:
      return std::make_unique<tune::PlainAlTuner>(setup, options);
    case Strategy::kBayes:
      return std::make_unique<tune::BayesOptTuner>(setup, options);
    case Strategy::kPlainMl:
      return std::make_unique<tune::GridTuner>(setup, options);
  }
  return nullptr;
}

/// Simulated sampling cost in minutes (the paper's "sampling hours" axis,
/// at the reproduction's reduced scale).
inline double SimMinutes(double ns) { return ns / 6e10; }

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace camal::bench

#endif  // CAMAL_BENCH_BENCH_COMMON_H_
