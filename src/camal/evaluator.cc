#include "camal/evaluator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>

#include "camal/memory_arbiter.h"
#include "engine/file_engine.h"
#include "engine/sharded_engine.h"
#include "serve/gateway.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::tune {

using util::HashCombine;

namespace {

// Every sample averages two runs at different compaction-fullness phases
// so the label estimates the steady state (the paper's single long run does
// the same by sheer query count). Both runs are paid for in the sample
// cost. SampleSalt(salt, run) is the salt of run 0 or 1.
uint64_t SampleSalt(uint64_t salt, size_t run) {
  return run == 0 ? salt : HashCombine(salt, 0xb0b);
}

}  // namespace

Evaluator::Evaluator(const SystemSetup& setup) : setup_(setup) {
  ValidateOrDie(setup_);
  // A pool only pays off when there are shards to fan across: with one
  // shard every ExecuteOps batch is a single sub-list and runs inline.
  if (setup_.engine_threads != 1 && setup_.num_shards > 1) {
    engine_pool_ = std::make_shared<util::ThreadPool>(setup_.engine_threads);
  }
}

Measurement Evaluator::Measure(const model::WorkloadSpec& workload,
                               const TuningConfig& config, size_t num_ops,
                               uint64_t salt) const {
  // The dataset itself is fixed per setup (same keys for every sample).
  workload::KeySpace keys(setup_.num_entries, setup_.seed);
  const size_t num_shards = std::max<size_t>(1, setup_.num_shards);
  std::unique_ptr<engine::StorageEngine> owned;
  // The file knobs of a kFile measurement engine, decided once here: the
  // recovery reopen below runs a copy.
  engine::FileEngineConfig fcfg;
  if (setup_.backend == EngineBackend::kFile) {
    // Real-IO backend: a unique file set per measurement (concurrent
    // MakeSamples measurements must never share a directory).
    const std::string base =
        setup_.file_workdir.empty()
            ? std::string()
            : setup_.file_workdir + "/m_" +
                  std::to_string(engine::FileEngine::NextUniqueId());
    fcfg.workdir = base;
    fcfg.io_queue_depth = static_cast<uint32_t>(
        std::max(1, setup_.io_queue_depth));
    // Durability knobs: manifest + WAL writes land outside the counted
    // cost clocks, so I/O counters stay identical durable on or off.
    fcfg.durable = setup_.file_durable;
    fcfg.wal_sync = setup_.file_wal_sync;
    // Recovery timing reopens this file set after the measured engine
    // closes, so the measured engine must leave it behind.
    if (setup_.measure_recovery) fcfg.keep_files = true;
    auto fe = std::make_unique<engine::FileEngine>(
        num_shards, config.ToOptions(setup_), fcfg);
    fe->set_pool(engine_pool_.get());
    owned = std::move(fe);
  } else {
    // One shard is bit-identical to the historical direct-tree path: the
    // engine wraps a single tree over a device with exactly this config.
    auto se = std::make_unique<engine::ShardedEngine>(
        num_shards, config.ToOptions(setup_), setup_.MakeDeviceConfig(salt));
    se->set_pool(engine_pool_.get());
    owned = std::move(se);
  }
  engine::StorageEngine& eng = *owned;
  workload::BulkLoad(&eng, keys);
  // Phase-randomizing warmup: a salt-dependent burst of updates so each
  // measurement samples a different compaction-fullness phase. Without it,
  // every run would observe the single deterministic post-load phase, and
  // that phase (not the steady state) would dominate the learned landscape.
  {
    util::Random warm_rng(HashCombine(setup_.seed * 17, salt + 3));
    const auto extra = static_cast<uint64_t>(
        0.3 * static_cast<double>(setup_.num_entries) * warm_rng.NextDouble());
    for (uint64_t i = 0; i < extra; ++i) {
      eng.Put(keys.KeyAt(warm_rng.Uniform(keys.num_keys())), i);
    }
  }
  const double build_ns = eng.CostSnapshot().elapsed_ns;
  // Residual attribution starts clean: the op-cost profiler should see
  // the measured query phase only, not ingest/warmup traffic.
  eng.ResetOpCostWindows();

  workload::ExecutorConfig exec;
  exec.num_ops = num_ops;
  exec.generator.scan_len = setup_.scan_len;
  exec.generator.insert_new_keys = false;
  // Tenant-skewed traffic (inert at shard_skew == 0: the generator then
  // draws exactly the historical stream).
  exec.generator.shard_skew = setup_.shard_skew;
  exec.generator.num_shards = eng.NumShards();
  exec.seed = HashCombine(setup_.seed * 31, salt + 1);
  // Static evaluation can price uneven splits: with arbitration on, the
  // arbiter rides the batch pipeline as a hook and redistributes shard
  // budgets mid-measurement, exactly as a serving system would.
  std::unique_ptr<MemoryArbiter> arbiter;
  if (setup_.arbitration == ArbitrationMode::kPeriodic && eng.NumShards() > 1) {
    ArbiterOptions arb_opts;
    arb_opts.period_ops = setup_.arbiter_period_ops;
    arbiter = std::make_unique<MemoryArbiter>(
        setup_, config.ToOptions(setup_), eng.NumShards(), arb_opts);
    exec.hook = arbiter.get();
  }

  Measurement m;
  m.build_ns = build_ns;
  if (setup_.serve_mode == ServeMode::kGateway) {
    // Open-loop serving: the same generated stream, but requests arrive on
    // Poisson timestamps and pass through the gateway's per-tenant
    // admission before reaching the engine. Latency then includes queueing
    // delay, and overload shows up as a shed rate instead of as a slower
    // closed loop.
    serve::GatewayConfig gcfg;
    gcfg.num_tenants = eng.NumShards();
    gcfg.max_queue_depth = setup_.gateway_queue_depth;
    gcfg.admission_control = setup_.gateway_admission;
    gcfg.rate_limit_ops_per_sec = setup_.gateway_rate_limit_ops_per_sec;
    gcfg.rate_limit_burst = setup_.gateway_rate_burst;
    serve::Gateway gateway(&eng, gcfg);
    // The arbiter rides gateway batch boundaries instead of executor ones.
    if (arbiter != nullptr) gateway.set_observer(arbiter.get());

    workload::OperationGenerator gen(workload, &keys, exec.generator,
                                     exec.seed);
    util::Random arrivals(HashCombine(setup_.seed * 131, salt + 9));
    double clock_ns = 0.0;
    for (size_t i = 0; i < num_ops; ++i) {
      const workload::Operation op = gen.Next();
      clock_ns -= setup_.gateway_interarrival_ns *
                  std::log(1.0 - arrivals.NextDouble());
      const engine::Op engine_op = workload::ToEngineOp(op);
      gateway.Submit(static_cast<uint32_t>(eng.ShardIndex(engine_op.key)),
                     engine_op, static_cast<uint64_t>(clock_ns));
    }
    gateway.Flush();

    const serve::GatewayStats stats = gateway.StatsSnapshot();
    m.mean_latency_ns = stats.total_latency_ns.Mean();
    m.p90_latency_ns = stats.total_latency_ns.Quantile(0.9);
    m.p99_latency_ns = stats.total_latency_ns.Quantile(0.99);
    m.ios_per_op = stats.completed == 0
                       ? 0.0
                       : static_cast<double>(stats.total_ios) /
                             static_cast<double>(stats.completed);
    m.shed_rate = stats.ShedFraction();
    m.queue_p99_ns = stats.queue_latency_ns.Quantile(0.99);
    // The run "takes" until the engine finishes its last batch — arrivals
    // plus queueing, the open-loop makespan.
    m.run_ns = gateway.engine_free_ns();
  } else {
    workload::ExecutionResult result =
        workload::Execute(&eng, workload, exec, &keys);
    m.mean_latency_ns = result.MeanLatencyNs();
    m.p90_latency_ns = result.latency_ns.Quantile(0.9);
    m.p99_latency_ns = result.latency_ns.Quantile(0.99);
    m.ios_per_op = result.IosPerOp();
    m.run_ns = result.total_ns;
  }
  // Per-channel measured-vs-predicted residuals: the closed-form model's
  // expectation at this (workload, config) against the engine's profiler
  // windows over the query phase just served. Predictions use the
  // system-total scale — on a multi-shard engine this is the model's
  // whole-system view of the same approximation the tuners price with.
  {
    const model::CostModel cm(setup_.ToModelParams());
    const model::ModelConfig mc = config.ToModelConfig();
    const model::WorkloadSpec wn = workload.Normalized();
    const double point_weight = wn.v + wn.r;
    m.point_ios_predicted =
        point_weight <= 0.0
            ? 0.0
            : (wn.v * cm.ZeroResultLookupCost(mc) +
               wn.r * cm.NonZeroResultLookupCost(mc)) /
                  point_weight;
    m.range_ios_predicted = cm.RangeLookupCost(mc);
    m.write_ios_predicted = cm.WriteCost(mc);

    const engine::OpCostWindow points =
        eng.OpCostWindowTotal(engine::OpKind::kGet);
    engine::OpCostWindow writes = eng.OpCostWindowTotal(engine::OpKind::kPut);
    writes += eng.OpCostWindowTotal(engine::OpKind::kDelete);
    const engine::OpCostWindow ranges =
        eng.OpCostWindowTotal(engine::OpKind::kScan);
    if (points.ops > 0) {
      m.point_ios_measured = points.IosPerOp();
      m.point_ios_residual = m.point_ios_measured - m.point_ios_predicted;
    }
    if (ranges.ops > 0) {
      m.range_ios_measured = ranges.IosPerOp();
      m.range_ios_residual = m.range_ios_measured - m.range_ios_predicted;
    }
    if (writes.ops > 0) {
      m.write_ios_measured = writes.IosPerOp();
      m.write_ios_residual = m.write_ios_measured - m.write_ios_predicted;
    }
  }
  m.total_cost_ns = build_ns + m.run_ns;
  // Crash-free recovery timing: close the measured engine cleanly (WAL
  // commit + fd close), then time a `reopen=true` construction over the
  // same file set — manifest replay plus WAL tail replay, no run
  // rebuilds. The file set is removed afterwards either way.
  if (setup_.backend == EngineBackend::kFile && setup_.measure_recovery) {
    const std::string dir =
        static_cast<engine::FileEngine&>(eng).workdir();
    arbiter.reset();  // drops the executor hook before its engine goes
    owned.reset();    // clean close: the measured engine releases `dir`
    engine::FileEngineConfig rcfg = fcfg;
    rcfg.workdir = dir;
    rcfg.reopen = true;
    rcfg.keep_files = false;
    const auto t0 = std::chrono::steady_clock::now();
    {
      engine::FileEngine reopened(num_shards, config.ToOptions(setup_),
                                  rcfg);
      m.recovery_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    // The reopened engine removes its shard subtrees on destruction;
    // sweep whatever shell of the unique measurement dir remains.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return m;
}

Sample Evaluator::ToSample(const model::WorkloadSpec& workload,
                           const TuningConfig& config, const Measurement& a,
                           const Measurement& b) const {
  Sample sample;
  sample.workload = workload;
  sample.config = config;
  sample.sys = setup_.ToModelParams();
  sample.mean_latency_ns = (a.mean_latency_ns + b.mean_latency_ns) / 2.0;
  sample.p90_latency_ns = (a.p90_latency_ns + b.p90_latency_ns) / 2.0;
  sample.ios_per_op = (a.ios_per_op + b.ios_per_op) / 2.0;
  sample.cost_ns = a.total_cost_ns + b.total_cost_ns;
  return sample;
}

Sample Evaluator::MakeSample(const model::WorkloadSpec& workload,
                             const TuningConfig& config, uint64_t salt) const {
  const Measurement a =
      Measure(workload, config, setup_.train_ops, SampleSalt(salt, 0));
  const Measurement b =
      Measure(workload, config, setup_.train_ops, SampleSalt(salt, 1));
  return ToSample(workload, config, a, b);
}

Measurement Evaluator::Evaluate(const model::WorkloadSpec& workload,
                                const TuningConfig& config,
                                uint64_t salt) const {
  return Measure(workload, config, setup_.eval_ops, HashCombine(salt, 777));
}

std::vector<Sample> Evaluator::MakeSamples(
    const model::WorkloadSpec& workload,
    const std::vector<TuningConfig>& configs, uint64_t first_salt,
    util::ThreadPool* pool) const {
  // Both runs of every sample are independent jobs: 2 * configs.size() of
  // them fan out, so a single-sample batch still keeps two workers busy.
  std::vector<Measurement> runs(2 * configs.size());
  util::ParallelFor(pool, 0, runs.size(), [&](size_t j) {
    const uint64_t salt = first_salt + static_cast<uint64_t>(j / 2);
    runs[j] = Measure(workload, configs[j / 2], setup_.train_ops,
                      SampleSalt(salt, j % 2));
  });
  std::vector<Sample> out;
  out.reserve(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    out.push_back(ToSample(workload, configs[i], runs[2 * i], runs[2 * i + 1]));
  }
  return out;
}

std::vector<Measurement> Evaluator::EvaluateBatch(
    const std::vector<EvalJob>& jobs, util::ThreadPool* pool) const {
  std::vector<Measurement> out(jobs.size());
  util::ParallelFor(pool, 0, jobs.size(), [&](size_t i) {
    out[i] = Evaluate(jobs[i].workload, jobs[i].config, jobs[i].salt);
  });
  return out;
}

}  // namespace camal::tune
