#ifndef CAMAL_CAMAL_SAMPLE_H_
#define CAMAL_CAMAL_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/wal.h"
#include "lsm/options.h"
#include "ml/regressor.h"
#include "model/cost_model.h"
#include "model/workload_spec.h"
#include "sim/device.h"
#include "util/status.h"

namespace camal::tune {

/// Whether (and how) per-tenant memory arbitration runs during serving:
/// `kOff` keeps the even per-shard split (bit-identical to the
/// pre-arbiter system); `kPeriodic` redistributes shard budgets by
/// modeled marginal benefit every `arbiter_period_ops` operations.
enum class ArbitrationMode { kOff, kPeriodic };

/// Which storage backend measurement runs execute on: `kSim` — the
/// simulated-device engine (`engine::ShardedEngine`, bit-reproducible,
/// the default and the basis of every figure) — or `kFile` — the real-IO
/// `engine::FileEngine`, whose costs come from monotonic clocks over
/// actual file reads/writes (used to validate that model-driven tunings
/// transfer to a real device).
enum class EngineBackend { kSim, kFile };

/// How measurement runs drive the engine: `kClosedLoop` — the generator
/// submits the next operation as soon as the previous one finishes
/// (every figure's historical mode) — or `kGateway` — operations arrive
/// open-loop on Poisson timestamps and are served through
/// `serve::Gateway` (per-tenant queues, admission control), so the
/// measurement includes queueing delay and a shed rate.
enum class ServeMode { kClosedLoop, kGateway };

/// The experimental scale: data size, memory budget, device, and query
/// volumes. One SystemSetup corresponds to one "database server" in the
/// paper's evaluation.
struct SystemSetup {
  /// Number of initially ingested entries (N).
  uint64_t num_entries = 40000;
  /// Entry size in bytes (E).
  uint64_t entry_bytes = 128;
  /// Total memory budget in bits (M = Mb + Mf + Mc); default ~16 bits/key.
  uint64_t total_memory_bits = 640000;
  /// Range-lookup selectivity in entries (s).
  size_t scan_len = 16;
  /// Simulated device / CPU cost constants.
  sim::DeviceConfig device;
  /// Operations per *training* sample (kept small: sampling is the cost
  /// CAMAL fights; ingest dominates it, so queries are comparatively
  /// cheap).
  size_t train_ops = 4000;
  /// Operations per final *evaluation* run.
  size_t eval_ops = 8000;
  /// Master seed.
  uint64_t seed = 42;
  /// Hard ceiling `Validate` enforces on `num_shards` (16M): past the
  /// million-tenant envelope the lazy engines are sized for, a larger
  /// count is almost certainly a units mistake, not a real fleet.
  static constexpr size_t kMaxShards = size_t{16} * 1024 * 1024;
  /// Number of independent LSM-tree shards the serving engine partitions
  /// the key space across (1 = a single tree, today's direct path; up to
  /// `kMaxShards`). The Evaluator measures samples on an
  /// `engine::ShardedEngine` with this many shards; the tuning space
  /// (memory, T, policy) still describes the *total* system budget.
  size_t num_shards = 1;
  /// Intra-engine parallelism: workers the serving engine fans per-shard
  /// sub-batches (and scatter-gather scan probes) across inside
  /// `ExecuteOps`. 1 = serial (default), 0 = all hardware threads.
  /// Results are bit-identical at any value; only wall-clock changes.
  /// Complements job-level parallelism (`TunerOptions::threads`): batched
  /// sampling fanned across a pool already saturates the machine, so
  /// nested engine fan-out runs inline there — this knob buys wall-clock
  /// when job-level parallelism is exhausted (e.g. a single final
  /// Evaluate, or the dynamic tuner driving one big sharded engine).
  int engine_threads = 1;
  /// Per-tenant memory arbitration during measurement runs (only
  /// meaningful with `num_shards` > 1). `kOff` — the default — is
  /// bit-identical to the pre-arbiter evaluator.
  ArbitrationMode arbitration = ArbitrationMode::kOff;
  /// Operations between arbitration rounds (`kPeriodic` mode).
  size_t arbiter_period_ops = 2048;
  /// Per-shard traffic hotness of generated streams (Zipf over shard
  /// index; see `workload::GeneratorConfig::shard_skew`). 0 = uniform
  /// tenant traffic, today's behavior.
  double shard_skew = 0.0;
  /// Storage backend measurement runs execute on. `kSim` (the default)
  /// is bit-identical to the pre-backend-selection evaluator; `kFile`
  /// measures on the real-IO `engine::FileEngine` with monotonic-clock
  /// costs (latencies then vary run to run; I/O counts stay
  /// deterministic).
  EngineBackend backend = EngineBackend::kSim;
  /// Base directory for `kFile` measurement file sets; each measurement
  /// creates (and removes) a unique subdirectory. Empty = the system
  /// temp dir.
  std::string file_workdir;
  /// Engine-default queue depth of `kFile` measurement engines (block
  /// reads kept in flight per shard; 1 — the default — is the serial
  /// pread path, byte for byte). A depth above 1 engages an io_uring ring
  /// where the build and kernel support one. Per-shard tunings override
  /// it through `lsm::Options::io_queue_depth`. Results and I/O counts are
  /// identical at any depth — only wall-clock changes.
  int io_queue_depth = 1;
  /// When true, `kFile` measurement engines run with the durability
  /// subsystem on (per-shard manifest + WAL). Off — the default — is
  /// bit-identical in I/O counters to the pre-durability evaluator;
  /// on adds manifest/WAL writes outside the counted cost clocks, so
  /// counters still match and only wall-clock changes.
  bool file_durable = false;
  /// WAL fsync policy of durable `kFile` engines (inert unless
  /// `file_durable`). `kNone` — the default here, unlike the engine's own
  /// `kBatch` — keeps measurement wall-clock free of fsync stalls;
  /// `kBatch`/`kAlways` price real durability.
  engine::fileio::WalSyncPolicy file_wal_sync =
      engine::fileio::WalSyncPolicy::kNone;
  /// When true, each measurement additionally times a crash-free
  /// recovery: after the measured run the engine closes cleanly, a
  /// second engine reopens the same file set (`reopen=true`, manifest
  /// replay + WAL tail replay, no run rebuilds), and the wall-clock of
  /// that reopen lands in `Measurement::recovery_ns`. Requires
  /// `file_durable`.
  bool measure_recovery = false;
  /// Serving mode of measurement runs. `kClosedLoop` (the default) is
  /// bit-identical to the pre-gateway evaluator; `kGateway` serves the
  /// query phase through `serve::Gateway` with open-loop Poisson
  /// arrivals (see the gateway_* knobs below, all inert in closed loop).
  ServeMode serve_mode = ServeMode::kClosedLoop;
  /// Mean inter-arrival gap between requests (whole system) in
  /// simulated ns; required > 0 in `kGateway` mode.
  double gateway_interarrival_ns = 0.0;
  /// Per-tenant queue depth bound (tenants map to engine shards).
  size_t gateway_queue_depth = 256;
  /// When false, gateway queues are unbounded (no depth shedding).
  bool gateway_admission = true;
  /// Per-tenant token-bucket rate limit in ops per simulated second;
  /// 0 disables rate limiting.
  double gateway_rate_limit_ops_per_sec = 0.0;
  /// Token-bucket burst capacity in ops.
  size_t gateway_rate_burst = 32;

  /// Checks the knob combination for consistency: arbitration or tenant
  /// skew without shards to arbitrate/skew across, file-backend knobs on
  /// the simulated backend, gateway mode without an arrival rate, and
  /// degenerate scales are all rejected with an explanatory message.
  /// `Evaluator` and the benches call this instead of silently serving a
  /// setup that cannot mean what the caller intended.
  util::Status Validate() const;

  /// The closed-form model's view of this setup.
  model::SystemParams ToModelParams() const;

  /// Device config for one measurement run: a copy of `device` whose
  /// jitter seed is derived from (`seed`, `salt`) so distinct setups (and
  /// distinct salts within a setup) never share a correlated jitter
  /// stream.
  sim::DeviceConfig MakeDeviceConfig(uint64_t salt = 0) const;
};

/// Returns a copy of `setup` scaled down by factor `k` (N/k entries, M/k
/// memory) — the training-side counterpart of the extrapolation strategy.
SystemSetup ScaledDown(const SystemSetup& setup, double k);

/// `Validate()` or abort with the message — the entry-point guard the
/// Evaluator and every bench run before building engines.
void ValidateOrDie(const SystemSetup& setup);

/// One point X in the tuning space. All memory fields are absolute bits for
/// a specific system scale; `ExtrapolateConfig` rescales them.
struct TuningConfig {
  lsm::CompactionPolicy policy = lsm::CompactionPolicy::kLeveling;
  double size_ratio = 10.0;
  double mf_bits = 0.0;
  double mb_bits = 0.0;
  double mc_bits = 0.0;
  /// Runs-per-level extension knob K (0 = policy default).
  int runs_per_level = 0;
  /// SST file size extension knob (0 = one file per run).
  uint64_t file_bytes = 0;
  /// Ring queue depth extension knob (real-IO backend only; 0 = engine
  /// default, i.e. not tuned). Priced by the cost model's overlap term;
  /// recommended when `TunerOptions::tune_io_depth` is on.
  int io_queue_depth = 0;

  /// Materializes engine options for the given setup.
  lsm::Options ToOptions(const SystemSetup& setup) const;

  /// The closed-form model's view of this config.
  model::ModelConfig ToModelConfig() const;

  std::string ToString() const;
};

/// True when two configurations are (almost) the same point: same policy,
/// runs per level and file size, size ratios within 0.5, Bloom and cache
/// memory within one bit each. Mb is not compared (it is what the budget
/// leaves), nor is the queue depth (it never changes results).
bool SameConfig(const TuningConfig& a, const TuningConfig& b);

/// The paper's "well-tuned RocksDB" baseline configuration: leveling,
/// T = 10, 10 bits/key of Bloom memory, the rest to the write buffer.
TuningConfig MonkeyDefaultConfig(const SystemSetup& setup);

/// One training observation (W, X, Y) plus the system scale it was measured
/// at and its sampling cost.
struct Sample {
  model::WorkloadSpec workload;
  TuningConfig config;
  model::SystemParams sys;
  double mean_latency_ns = 0.0;
  double p90_latency_ns = 0.0;
  double ios_per_op = 0.0;
  /// Simulated time spent producing this sample (ingest + queries) — the
  /// "sampling hours" currency of Figure 5a.
  double cost_ns = 0.0;
};

/// What the tuners optimize (Section 8.4 explores the alternatives).
enum class Objective { kMeanLatency, kP90Latency, kIosPerOp };

/// Extracts the objective value from a sample.
double ObjectiveValue(const Sample& sample, Objective objective);

/// The ML model families of Section 7.
enum class ModelKind { kPoly, kTrees, kNn };

const char* ModelKindName(ModelKind kind);

/// Scale-invariant feature vector for (workload, config, system) — bits
/// per key, memory fractions, and derived cost-model quantities (levels,
/// FPR) rather than absolute sizes, so models trained at N' transfer to
/// kN' (Lemma 5.1).
std::vector<double> RawFeatures(const model::WorkloadSpec& w,
                                const TuningConfig& x,
                                const model::SystemParams& sys);

/// Cost-model basis expansion for polynomial regression (Equation 11):
/// each theoretical cost term of Figure 2 becomes one basis function, plus
/// per-operation constants for CPU time.
std::vector<double> CostBasisFromRaw(const std::vector<double>& raw);

/// Builds a fresh regressor of the requested family (Poly models get the
/// cost-model basis expansion).
std::unique_ptr<ml::Regressor> MakeModel(ModelKind kind, uint64_t seed);

}  // namespace camal::tune

#endif  // CAMAL_CAMAL_SAMPLE_H_
