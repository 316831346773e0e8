#ifndef CAMAL_WORKLOAD_EXECUTOR_H_
#define CAMAL_WORKLOAD_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "engine/storage_engine.h"
#include "model/workload_spec.h"
#include "workload/generator.h"
#include "workload/request.h"

namespace camal::util {
class ThreadPool;
}  // namespace camal::util

namespace camal::workload {

/// Execution knobs.
struct ExecutorConfig {
  size_t num_ops = 2000;
  GeneratorConfig generator;
  uint64_t seed = 1;
  /// Operations submitted per `StorageEngine::ExecuteOps` batch. Purely a
  /// pipeline granularity knob: results are bit-identical for any value
  /// >= 1. Larger batches give a sharded engine more work to fan across
  /// its pool between merge points.
  size_t batch_ops = 512;
  /// Optional batch observer (not owned; must outlive the run). Null —
  /// the default — leaves execution exactly as before. Because batches
  /// are cut deterministically, a deterministic observer keeps the whole
  /// run deterministic.
  BatchObserver* hook = nullptr;
};

/// Runs `config.num_ops` operations drawn from `spec` against `engine`
/// through the batched `StorageEngine::ExecuteOps` pipeline; per-op
/// simulated latency and I/O are attributed by the engine itself. Any
/// StorageEngine works: a bare `lsm::LsmTree` or an
/// `engine::ShardedEngine` (which fans each batch across its pool).
ExecutionResult Execute(engine::StorageEngine* engine,
                        const model::WorkloadSpec& spec,
                        const ExecutorConfig& config, KeySpace* keys);

/// One independent run of the batched execution mode. Every run in a batch
/// must target its own engine (and therefore its own device(s)). The key
/// space may be shared between jobs only when no job mutates it — i.e. no
/// job sets `generator.insert_new_keys` (which appends keys during
/// execution); mutating jobs each need their own KeySpace.
struct ExecuteJob {
  engine::StorageEngine* engine = nullptr;
  model::WorkloadSpec spec;
  ExecutorConfig config;
  KeySpace* keys = nullptr;
};

/// Batched parallel run mode: executes every job (fanned across `pool`
/// when provided) and returns the results in job order. Each job carries
/// its own seed, so the output is bit-identical for any thread count.
std::vector<ExecutionResult> ExecuteBatch(const std::vector<ExecuteJob>& jobs,
                                          util::ThreadPool* pool = nullptr);

/// Bulk-loads every key of `keys` into `engine` (initial data ingestion).
void BulkLoad(engine::StorageEngine* engine, const KeySpace& keys);

}  // namespace camal::workload

#endif  // CAMAL_WORKLOAD_EXECUTOR_H_
