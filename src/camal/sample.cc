#include "camal/sample.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "ml/poly.h"
#include "util/random.h"
#include "util/status.h"

namespace camal::tune {

namespace {
constexpr double kLn2Sq = 0.4804530139182014;

// Raw feature vector layout (see RawFeatures).
enum RawIdx : size_t {
  kIdxV = 0,
  kIdxR,
  kIdxQ,
  kIdxW,
  kIdxT,
  kIdxBpk,
  kIdxBufFrac,
  kIdxCacheFrac,
  kIdxPolicyTier,
  kIdxRunsK,
  kIdxLogFile,
  kIdxSkew,
  kIdxLogN,
  kIdxMemPerEntry,
  kIdxSelOverB,
  kIdxInvB,
  kIdxLevels,
  kIdxFpr,
  kNumRawFeatures,
};
}  // namespace

model::SystemParams SystemSetup::ToModelParams() const {
  model::SystemParams p;
  p.num_entries = static_cast<double>(num_entries);
  p.entry_bits = static_cast<double>(entry_bytes) * 8.0;
  p.block_entries = static_cast<double>(
      std::max<uint64_t>(1, device.block_bytes / entry_bytes));
  p.selectivity = static_cast<double>(scan_len);
  p.total_memory_bits = static_cast<double>(total_memory_bits);
  return p;
}

sim::DeviceConfig SystemSetup::MakeDeviceConfig(uint64_t salt) const {
  sim::DeviceConfig cfg = device;
  cfg.jitter_seed = util::HashCombine(seed, salt);
  return cfg;
}

util::Status SystemSetup::Validate() const {
  using util::Status;
  if (num_entries == 0) {
    return Status::InvalidArgument("num_entries must be > 0");
  }
  if (entry_bytes == 0) {
    return Status::InvalidArgument("entry_bytes must be > 0");
  }
  if (total_memory_bits == 0) {
    return Status::InvalidArgument("total_memory_bits must be > 0");
  }
  if (train_ops == 0 || eval_ops == 0) {
    return Status::InvalidArgument("train_ops and eval_ops must be > 0");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "num_shards is past the supported ceiling (16M): shard counts that "
        "large exceed the million-tenant envelope the lazy engines are "
        "sized for and almost certainly indicate a units mistake");
  }
  if (engine_threads < 0) {
    return Status::InvalidArgument(
        "engine_threads must be >= 0 (0 = hardware concurrency)");
  }
  if (arbitration == ArbitrationMode::kPeriodic && num_shards < 2) {
    return Status::InvalidArgument(
        "arbitration = kPeriodic needs num_shards >= 2: there is no "
        "second tenant to move memory between");
  }
  if (arbitration == ArbitrationMode::kPeriodic && arbiter_period_ops == 0) {
    return Status::InvalidArgument(
        "arbiter_period_ops must be > 0 with periodic arbitration");
  }
  if (shard_skew < 0.0) {
    return Status::InvalidArgument("shard_skew must be >= 0");
  }
  if (shard_skew > 0.0 && num_shards < 2) {
    return Status::InvalidArgument(
        "shard_skew > 0 needs num_shards >= 2: a single shard has no "
        "hot/cold tenants to bias traffic between");
  }
  if (backend == EngineBackend::kSim && !file_workdir.empty()) {
    return Status::InvalidArgument(
        "file_workdir is set but backend is kSim: the simulated backend "
        "never touches files (did you mean backend = kFile?)");
  }
  if (backend == EngineBackend::kSim && io_queue_depth != 1) {
    return Status::InvalidArgument(
        "io_queue_depth != 1 but backend is kSim: the simulated backend "
        "has no submission ring (did you mean backend = kFile?)");
  }
  if (io_queue_depth < 1 || io_queue_depth > 1024) {
    return Status::InvalidArgument("io_queue_depth must be in [1, 1024]");
  }
  if (backend == EngineBackend::kSim && file_durable) {
    return Status::InvalidArgument(
        "file_durable is set but backend is kSim: the simulated backend "
        "has no files to make durable (did you mean backend = kFile?)");
  }
  if (backend == EngineBackend::kSim &&
      file_wal_sync != engine::fileio::WalSyncPolicy::kNone) {
    return Status::InvalidArgument(
        "file_wal_sync is set but backend is kSim: the simulated backend "
        "writes no WAL to sync (did you mean backend = kFile?)");
  }
  if (!file_durable &&
      file_wal_sync != engine::fileio::WalSyncPolicy::kNone) {
    return Status::InvalidArgument(
        "file_wal_sync is set but file_durable is off: there is no WAL "
        "to apply the policy to (set file_durable = true)");
  }
  if (measure_recovery && !file_durable) {
    return Status::InvalidArgument(
        "measure_recovery needs file_durable: without a manifest + WAL "
        "there is no recovery path to time (set file_durable = true)");
  }
  if (serve_mode == ServeMode::kGateway && gateway_interarrival_ns <= 0.0) {
    return Status::InvalidArgument(
        "serve_mode = kGateway needs gateway_interarrival_ns > 0: "
        "open-loop serving is defined by its arrival rate");
  }
  if (serve_mode == ServeMode::kGateway && gateway_admission &&
      gateway_queue_depth == 0) {
    return Status::InvalidArgument(
        "gateway_queue_depth must be >= 1 when admission control is on");
  }
  if (gateway_rate_limit_ops_per_sec < 0.0) {
    return Status::InvalidArgument(
        "gateway_rate_limit_ops_per_sec must be >= 0");
  }
  if (serve_mode == ServeMode::kClosedLoop &&
      gateway_rate_limit_ops_per_sec > 0.0) {
    return Status::InvalidArgument(
        "gateway_rate_limit_ops_per_sec is set but serve_mode is "
        "kClosedLoop: rate limits only apply to gateway serving");
  }
  return Status::Ok();
}

void ValidateOrDie(const SystemSetup& setup) {
  const util::Status status = setup.Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "[camal] invalid SystemSetup: %s\n",
                 status.message().c_str());
    std::abort();
  }
}

SystemSetup ScaledDown(const SystemSetup& setup, double k) {
  CAMAL_CHECK(k > 0.0);
  SystemSetup out = setup;
  out.num_entries = std::max<uint64_t>(
      512, static_cast<uint64_t>(std::llround(
               static_cast<double>(setup.num_entries) / k)));
  out.total_memory_bits = std::max<uint64_t>(
      4096, static_cast<uint64_t>(std::llround(
                static_cast<double>(setup.total_memory_bits) / k)));
  return out;
}

lsm::Options TuningConfig::ToOptions(const SystemSetup& setup) const {
  lsm::Options opts;
  opts.policy = policy;
  opts.size_ratio = std::max(2.0, size_ratio);
  opts.entry_bytes = setup.entry_bytes;
  opts.buffer_bytes = std::max<uint64_t>(
      setup.entry_bytes * 4,
      static_cast<uint64_t>(std::llround(mb_bits / 8.0)));
  opts.bloom_bits =
      static_cast<uint64_t>(std::llround(std::max(0.0, mf_bits)));
  opts.block_cache_bytes =
      static_cast<uint64_t>(std::llround(std::max(0.0, mc_bits) / 8.0));
  opts.runs_per_level = runs_per_level;
  opts.file_bytes = file_bytes;
  opts.io_queue_depth = io_queue_depth;
  return opts;
}

model::ModelConfig TuningConfig::ToModelConfig() const {
  model::ModelConfig c;
  c.policy = policy;
  c.size_ratio = size_ratio;
  c.mf_bits = mf_bits;
  c.mb_bits = mb_bits;
  c.runs_per_level = runs_per_level;
  c.io_queue_depth = std::max(1.0, static_cast<double>(io_queue_depth));
  return c;
}

std::string TuningConfig::ToString() const {
  char buf[176];
  std::snprintf(
      buf, sizeof(buf),
      "{%s T=%.0f mf=%.0fKb mb=%.0fKb mc=%.0fKb K=%d file=%lluKB qd=%d}",
      policy == lsm::CompactionPolicy::kLeveling ? "level" : "tier",
      size_ratio, mf_bits / 1024.0, mb_bits / 1024.0, mc_bits / 1024.0,
      runs_per_level, static_cast<unsigned long long>(file_bytes / 1024),
      io_queue_depth);
  return buf;
}

bool SameConfig(const TuningConfig& a, const TuningConfig& b) {
  return a.policy == b.policy &&
         std::fabs(a.size_ratio - b.size_ratio) < 0.5 &&
         std::fabs(a.mf_bits - b.mf_bits) < 1.0 &&
         std::fabs(a.mc_bits - b.mc_bits) < 1.0 &&
         a.runs_per_level == b.runs_per_level && a.file_bytes == b.file_bytes;
}

TuningConfig MonkeyDefaultConfig(const SystemSetup& setup) {
  TuningConfig c;
  c.policy = lsm::CompactionPolicy::kLeveling;
  c.size_ratio = 10.0;
  const double m = static_cast<double>(setup.total_memory_bits);
  // 10 bits per key, but never more than 80% of the budget.
  c.mf_bits = std::min(10.0 * static_cast<double>(setup.num_entries), 0.8 * m);
  c.mb_bits = m - c.mf_bits;
  c.mc_bits = 0.0;
  return c;
}

double ObjectiveValue(const Sample& sample, Objective objective) {
  switch (objective) {
    case Objective::kMeanLatency:
      return sample.mean_latency_ns;
    case Objective::kP90Latency:
      return sample.p90_latency_ns;
    case Objective::kIosPerOp:
      return sample.ios_per_op;
  }
  return sample.mean_latency_ns;
}

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kPoly:
      return "Poly";
    case ModelKind::kTrees:
      return "Trees";
    case ModelKind::kNn:
      return "NN";
  }
  return "?";
}

std::vector<double> RawFeatures(const model::WorkloadSpec& w_in,
                                const TuningConfig& x,
                                const model::SystemParams& sys) {
  const model::WorkloadSpec w = w_in.Normalized();
  std::vector<double> f(kNumRawFeatures, 0.0);
  const double n = sys.num_entries;
  const double m = sys.total_memory_bits;
  const double k_eff =
      x.runs_per_level > 0
          ? static_cast<double>(x.runs_per_level)
          : (x.policy == lsm::CompactionPolicy::kTiering ? x.size_ratio : 1.0);
  const double mb = std::max(x.mb_bits, sys.entry_bits);
  const double levels = std::max(
      1.0, std::log(n * sys.entry_bits / mb + 1.0) / std::log(x.size_ratio));

  f[kIdxV] = w.v;
  f[kIdxR] = w.r;
  f[kIdxQ] = w.q;
  f[kIdxW] = w.w;
  f[kIdxT] = x.size_ratio;
  f[kIdxBpk] = x.mf_bits / n;
  f[kIdxBufFrac] = x.mb_bits / m;
  f[kIdxCacheFrac] = x.mc_bits / m;
  f[kIdxPolicyTier] =
      x.policy == lsm::CompactionPolicy::kTiering ? 1.0 : 0.0;
  f[kIdxRunsK] = k_eff;
  f[kIdxLogFile] = std::log2(static_cast<double>(x.file_bytes) + 1.0);
  f[kIdxSkew] = w.skew;
  f[kIdxLogN] = std::log10(n);
  f[kIdxMemPerEntry] = m / n;
  f[kIdxSelOverB] = sys.selectivity / sys.block_entries;
  f[kIdxInvB] = 1.0 / sys.block_entries;
  f[kIdxLevels] = levels;
  f[kIdxFpr] = std::exp(-kLn2Sq * x.mf_bits / n);
  return f;
}

std::vector<double> CostBasisFromRaw(const std::vector<double>& raw) {
  CAMAL_CHECK(raw.size() == kNumRawFeatures);
  const double v = raw[kIdxV], r = raw[kIdxR], q = raw[kIdxQ], w = raw[kIdxW];
  const double t = raw[kIdxT];
  const double k = raw[kIdxRunsK];
  const double sel_over_b = raw[kIdxSelOverB];
  const double inv_b = raw[kIdxInvB];
  const double levels = raw[kIdxLevels];
  const double fpr = raw[kIdxFpr];
  const double cache = raw[kIdxCacheFrac];
  const double skew = raw[kIdxSkew];

  return {
      (v + r) * k * fpr,          // zero-result wasted block reads
      r,                          // the +1 successful block read
      q * k * levels,             // range seeks across runs
      q * k * sel_over_b,         // range data blocks
      w * levels * t * inv_b / k,  // amortized write I/O
      w * t * levels,             // compaction merge CPU
      (v + r) * levels * k,       // per-run probe CPU
      v,                          // per-op constants (CPU floor)
      q,
      w,
      cache * (r + q),            // cache absorbs read I/O
      cache * (r + q) * skew,     // ...more so under skew
      cache * (r + q) * fpr,      // interaction with filter quality
  };
}

std::unique_ptr<ml::Regressor> MakeModel(ModelKind kind, uint64_t seed) {
  switch (kind) {
    case ModelKind::kPoly:
      return std::make_unique<ml::PolyRegression>(1e-4, CostBasisFromRaw);
    case ModelKind::kTrees: {
      ml::GbdtParams params;
      params.seed = seed;
      return std::make_unique<ml::Gbdt>(params);
    }
    case ModelKind::kNn: {
      ml::MlpParams params;
      params.seed = seed;
      return std::make_unique<ml::Mlp>(params);
    }
  }
  return nullptr;
}

}  // namespace camal::tune
