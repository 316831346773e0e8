#ifndef CAMAL_CAMAL_EVALUATOR_H_
#define CAMAL_CAMAL_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "camal/sample.h"
#include "model/workload_spec.h"

namespace camal::util {
class ThreadPool;
}  // namespace camal::util

namespace camal::tune {

/// What one measurement run produced. In closed-loop mode the latency
/// metrics are pure engine service times; in gateway mode
/// (`SystemSetup::serve_mode`) they are end-to-end (queueing + service)
/// and the two gateway-only fields become meaningful.
struct Measurement {
  double mean_latency_ns = 0.0;
  double p90_latency_ns = 0.0;
  double p99_latency_ns = 0.0;
  double ios_per_op = 0.0;
  /// Simulated time of the initial data ingestion.
  double build_ns = 0.0;
  /// Simulated time of the query phase.
  double run_ns = 0.0;
  /// build_ns + run_ns — the cost of obtaining this measurement.
  double total_cost_ns = 0.0;
  /// Fraction of submitted requests shed by admission control or rate
  /// limits (gateway mode; 0 in closed loop, where nothing is shed).
  double shed_rate = 0.0;
  /// p99 of queueing delay alone (gateway mode; 0 in closed loop).
  double queue_p99_ns = 0.0;
  /// Measured-vs-predicted per-op I/O by cost channel: `*_predicted` is
  /// the closed-form model's expected I/Os per operation at this
  /// (workload, config); `*_measured` comes from the engine's op-cost
  /// profiler windows over the query phase (point = lookups, range =
  /// scans, write = puts + deletes); `*_residual` = measured − predicted.
  /// The sim-vs-model gap a calibration pass learns (`ResidualCorrector`).
  /// Measured and residual are 0 for a channel that served no ops.
  double point_ios_predicted = 0.0;
  double point_ios_measured = 0.0;
  double point_ios_residual = 0.0;
  double range_ios_predicted = 0.0;
  double range_ios_measured = 0.0;
  double range_ios_residual = 0.0;
  double write_ios_predicted = 0.0;
  double write_ios_measured = 0.0;
  double write_ios_residual = 0.0;
  /// Wall-clock ns of a crash-free recovery of the measured file set —
  /// close cleanly, then reopen with manifest replay + WAL tail replay
  /// (no run rebuilds). Only populated when
  /// `SystemSetup::measure_recovery` is on; 0 otherwise. Real time, not
  /// simulated: it varies run to run like every file-backend latency.
  double recovery_ns = 0.0;
};

/// One (workload, config, salt) measurement request for batched
/// evaluation.
struct EvalJob {
  model::WorkloadSpec workload;
  TuningConfig config;
  uint64_t salt = 0;
};

/// Runs (workload, config) pairs on fresh serving-engine instances and
/// measures simulated latency/IO — the "execute database instance" step of
/// Algorithm 2. Instances are `engine::ShardedEngine`s with
/// `setup.num_shards` partitions (1 shard is bit-identical to a bare
/// tree).
///
/// Every measurement builds its own engine/device(s)/generator from
/// deterministic seeds, so distinct measurements are independent and the
/// batch entry points below may fan them across a ThreadPool without
/// changing any result.
class Evaluator {
 public:
  /// When `setup.engine_threads` != 1, the evaluator owns a worker pool
  /// that every engine it builds fans `ExecuteOps` batches across
  /// (shard-level parallelism). Measurements fanned across a *job-level*
  /// pool are unaffected: nested engine fan-out runs inline on pool
  /// workers, so the knob buys wall-clock exactly when job-level
  /// parallelism is exhausted. Results are bit-identical either way.
  explicit Evaluator(const SystemSetup& setup);

  /// Builds a fresh tree with `config`, ingests N entries, runs `num_ops`
  /// operations of `workload`, and reports the measurements. `salt`
  /// diversifies the noise/query seed between repeated measurements.
  Measurement Measure(const model::WorkloadSpec& workload,
                      const TuningConfig& config, size_t num_ops,
                      uint64_t salt) const;

  /// Measures with `setup().train_ops` operations and wraps the result as a
  /// training sample.
  Sample MakeSample(const model::WorkloadSpec& workload,
                    const TuningConfig& config, uint64_t salt) const;

  /// Measures with `setup().eval_ops` operations (final evaluation).
  Measurement Evaluate(const model::WorkloadSpec& workload,
                       const TuningConfig& config, uint64_t salt = 0) const;

  /// Batched MakeSample over `configs`, where configs[i] uses salt
  /// `first_salt + i` — exactly the salts a serial loop over MakeSample
  /// would consume. The two runs of each sample fan out as separate jobs.
  /// Results are returned in config order, so the output is bit-identical
  /// for any `pool` (including none).
  std::vector<Sample> MakeSamples(const model::WorkloadSpec& workload,
                                  const std::vector<TuningConfig>& configs,
                                  uint64_t first_salt,
                                  util::ThreadPool* pool = nullptr) const;

  /// Batched Evaluate over independent jobs; results in job order,
  /// bit-identical for any `pool`.
  std::vector<Measurement> EvaluateBatch(const std::vector<EvalJob>& jobs,
                                         util::ThreadPool* pool = nullptr) const;

  const SystemSetup& setup() const { return setup_; }

  /// The engine-level pool (nullptr when `engine_threads` == 1).
  util::ThreadPool* engine_pool() const { return engine_pool_.get(); }

 private:
  /// Averages the two runs `a` and `b` of one sample into the sample.
  Sample ToSample(const model::WorkloadSpec& workload,
                  const TuningConfig& config, const Measurement& a,
                  const Measurement& b) const;

  SystemSetup setup_;
  /// Shared so the Evaluator stays copyable (tuners copy their setup's
  /// evaluator); engines only borrow the pointer for one measurement.
  std::shared_ptr<util::ThreadPool> engine_pool_;
};

}  // namespace camal::tune

#endif  // CAMAL_CAMAL_EVALUATOR_H_
