#ifndef CAMAL_WORKLOAD_REQUEST_H_
#define CAMAL_WORKLOAD_REQUEST_H_

// The single request currency of the serving stack. `engine::Op` /
// `engine::OpResult` are *the* public request/response types: the
// closed-loop executor (workload::Execute), the open-loop gateway
// (serve::Gateway), and any future front-end translate into them here and
// submit through `StorageEngine::ExecuteOps`. The engine's point-op
// virtuals (`Put`/`Get`/`Delete`/`Scan`) remain only as a
// compatibility/testing surface — see storage_engine.h.

#include <array>
#include <cstddef>
#include <cstdint>

#include "engine/storage_engine.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace camal::workload {

/// Translates a generated workload operation into the engine's batched op
/// representation (the zero-/non-zero-result lookup distinction collapses
/// to kGet; the engine does not care which kind of lookup it serves).
engine::Op ToEngineOp(const Operation& op);

/// What a workload run measured.
struct ExecutionResult {
  util::PercentileSketch latency_ns;
  double total_ns = 0.0;
  uint64_t total_ios = 0;
  size_t num_ops = 0;
  size_t lookups_found = 0;
  size_t lookups_missed = 0;

  double MeanLatencyNs() const {
    return num_ops == 0 ? 0.0 : total_ns / static_cast<double>(num_ops);
  }
  double IosPerOp() const {
    return num_ops == 0 ? 0.0
                        : static_cast<double>(total_ios) /
                              static_cast<double>(num_ops);
  }
  /// Tail latencies from the per-operation sketch.
  double P90LatencyNs() const { return latency_ns.Quantile(0.90); }
  double P99LatencyNs() const { return latency_ns.Quantile(0.99); }
};

/// Folds one engine-attributed operation result into the aggregate,
/// crediting found/missed for lookups. `type` must be the OpType the
/// result's op was generated as.
void AccumulateOpResult(OpType type, const engine::OpResult& result,
                        ExecutionResult* out);

/// Context of one executed batch, delivered to `BatchObserver`s. Pointers
/// borrow the driver's buffers and are valid only for the duration of the
/// callback.
struct BatchEvent {
  /// 0-based batch sequence number within the driving run.
  size_t batch_index = 0;
  /// Operations in this batch.
  size_t count = 0;
  /// Generator-level view of the ops (zero- vs non-zero-result lookups
  /// distinguished). Null when the driver serves raw engine ops with no
  /// generator behind them (gateway-driven batches).
  const Operation* ops = nullptr;
  /// Engine-currency view of the batch; always set.
  const engine::Op* engine_ops = nullptr;
  /// Engine-attributed per-op outcomes, in submission order; always set.
  const engine::OpResult* results = nullptr;
  /// Op counts by `engine::OpKind` (kGet/kPut/kDelete/kScan).
  std::array<uint64_t, 4> kind_counts{};
  /// Per-tenant gateway queue depths at dispatch time. Null (with
  /// `num_queues` == 0) for executor-driven batches.
  const uint64_t* queue_depths = nullptr;
  size_t num_queues = 0;
  /// Simulated/real cost (ns) each engine shard advanced during this
  /// batch. Null when the driver does not track per-shard deltas.
  const double* shard_cost_delta_ns = nullptr;
  size_t num_shards = 0;
};

/// Observes executed batches through one typed event. The arbitration
/// layer implements this to account per-shard traffic and redistribute
/// memory between batches; the gateway's metrics and anything
/// deterministic that wants to watch (or reconfigure) the engine at batch
/// boundaries fits. Implementations may call `Reconfigure*` on the engine
/// but must not execute operations on it.
class BatchObserver {
 public:
  /// Observers are borrowed (never owned) by the driver; destruction is
  /// the attaching caller's business.
  virtual ~BatchObserver() = default;

  /// Called after each batch has executed, before the next is served.
  virtual void OnBatchEvent(engine::StorageEngine* engine,
                            const BatchEvent& event) = 0;
};

/// Fills `event->kind_counts` from `event->engine_ops`.
void CountBatchKinds(BatchEvent* event);

}  // namespace camal::workload

#endif  // CAMAL_WORKLOAD_REQUEST_H_
