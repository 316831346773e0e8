// The batched op pipeline: engine-attributed per-op costs must reproduce
// the historical caller-side snapshot-diff loop bit-for-bit, at any shard
// count, any pool size, and any batch granularity.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "camal/classic_tuner.h"
#include "camal/dynamic_tuner.h"
#include "camal/sample.h"
#include "engine/sharded_engine.h"
#include "lsm/lsm_tree.h"
#include "util/thread_pool.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::engine {
namespace {

tune::SystemSetup SmallSetup() {
  tune::SystemSetup setup;
  setup.num_entries = 6000;
  setup.total_memory_bits = 16 * 6000;
  return setup;
}

std::vector<Op> GenerateOps(const tune::SystemSetup& setup, size_t num_ops,
                            workload::KeySpace* keys,
                            std::vector<workload::OpType>* types) {
  workload::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = setup.scan_len;
  workload::OperationGenerator gen(model::WorkloadSpec{0.2, 0.3, 0.2, 0.3},
                                   keys, gen_cfg, /*seed=*/99);
  std::vector<Op> ops;
  for (size_t i = 0; i < num_ops; ++i) {
    const workload::Operation op = gen.Next();
    if (types != nullptr) types->push_back(op.type);
    ops.push_back(workload::ToEngineOp(op));
  }
  return ops;
}

// The pre-refactor executor loop: one virtual call per op, priced by
// diffing device snapshots around it (per-shard for point ops, the
// engine-wide sum for scans). The batched pipeline owes these exact bits.
std::vector<OpResult> ExecuteOpsLikePr2(ShardedEngine* eng,
                                        const std::vector<Op>& ops) {
  std::vector<OpResult> results(ops.size());
  std::vector<lsm::Entry> scan_buf;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const bool point_op = op.kind != OpKind::kScan;
    const size_t shard = point_op ? eng->ShardIndex(op.key) : 0;
    const sim::DeviceSnapshot before =
        point_op ? eng->shard_device(shard)->Snapshot() : eng->CostSnapshot();
    OpResult r;
    switch (op.kind) {
      case OpKind::kGet: {
        uint64_t value = 0;
        r.found = eng->Get(op.key, &value);
        break;
      }
      case OpKind::kPut:
        eng->Put(op.key, op.value);
        break;
      case OpKind::kDelete:
        eng->Delete(op.key);
        break;
      case OpKind::kScan:
        scan_buf.clear();
        r.scan_hits = eng->Scan(op.key, op.scan_len, &scan_buf);
        break;
    }
    const sim::DeviceSnapshot after =
        point_op ? eng->shard_device(shard)->Snapshot() : eng->CostSnapshot();
    const sim::DeviceSnapshot delta = after.Delta(before);
    r.latency_ns = delta.elapsed_ns;
    r.ios = delta.TotalIos();
    results[i] = r;
  }
  return results;
}

std::unique_ptr<ShardedEngine> MakeLoadedEngine(const tune::SystemSetup& setup,
                                                size_t shards,
                                                const workload::KeySpace& keys) {
  auto eng = std::make_unique<ShardedEngine>(
      shards, tune::MonkeyDefaultConfig(setup).ToOptions(setup),
      setup.MakeDeviceConfig());
  workload::BulkLoad(eng.get(), keys);
  return eng;
}

void ExpectSameResults(const std::vector<OpResult>& a,
                       const std::vector<OpResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].latency_ns, b[i].latency_ns) << "op " << i;  // bit-exact
    EXPECT_EQ(a[i].ios, b[i].ios) << "op " << i;
    EXPECT_EQ(a[i].found, b[i].found) << "op " << i;
    EXPECT_EQ(a[i].scan_hits, b[i].scan_hits) << "op " << i;
  }
}

TEST(ExecuteOpsTest, MatchesCallerSideDiffingOnSingleTree) {
  const tune::SystemSetup setup = SmallSetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  const std::vector<Op> ops = GenerateOps(setup, 2000, &keys, nullptr);

  workload::KeySpace keys_a(setup.num_entries, setup.seed);
  auto ref_eng = MakeLoadedEngine(setup, 1, keys_a);
  const std::vector<OpResult> expected = ExecuteOpsLikePr2(ref_eng.get(), ops);

  // Direct tree through the base-class serial implementation.
  workload::KeySpace keys_b(setup.num_entries, setup.seed);
  sim::Device device(setup.MakeDeviceConfig());
  lsm::LsmTree tree(tune::MonkeyDefaultConfig(setup).ToOptions(setup),
                    &device);
  workload::BulkLoad(&tree, keys_b);
  StorageEngine& engine = tree;
  ExpectSameResults(engine.ExecuteOps(ops), expected);
}

TEST(ExecuteOpsTest, MatchesCallerSideDiffingAcrossShardCounts) {
  const tune::SystemSetup setup = SmallSetup();
  for (size_t shards : {2, 3, 8}) {
    workload::KeySpace keys(setup.num_entries, setup.seed);
    const std::vector<Op> ops = GenerateOps(setup, 2000, &keys, nullptr);

    workload::KeySpace keys_a(setup.num_entries, setup.seed);
    auto ref_eng = MakeLoadedEngine(setup, shards, keys_a);
    const std::vector<OpResult> expected =
        ExecuteOpsLikePr2(ref_eng.get(), ops);

    workload::KeySpace keys_b(setup.num_entries, setup.seed);
    auto eng = MakeLoadedEngine(setup, shards, keys_b);
    ExpectSameResults(eng->ExecuteOps(ops), expected);
  }
}

TEST(ExecuteOpsTest, BitIdenticalAtAnyPoolSize) {
  const tune::SystemSetup setup = SmallSetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  const std::vector<Op> ops = GenerateOps(setup, 2000, &keys, nullptr);

  workload::KeySpace keys_serial(setup.num_entries, setup.seed);
  auto serial_eng = MakeLoadedEngine(setup, 4, keys_serial);
  const std::vector<OpResult> expected = serial_eng->ExecuteOps(ops);

  for (int threads : {2, 4, 7}) {
    util::ThreadPool pool(threads);
    workload::KeySpace keys_pooled(setup.num_entries, setup.seed);
    auto eng = MakeLoadedEngine(setup, 4, keys_pooled);
    eng->set_pool(&pool);
    ExpectSameResults(eng->ExecuteOps(ops), expected);
  }
}

TEST(ExecuteOpsTest, GetReportsFoundAndScanReportsHits) {
  const tune::SystemSetup setup = SmallSetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  auto eng = MakeLoadedEngine(setup, 3, keys);

  std::vector<Op> ops;
  Op live;
  live.kind = OpKind::kGet;
  live.key = keys.KeyAt(7);  // loaded key: found
  ops.push_back(live);
  Op missing;
  missing.kind = OpKind::kGet;
  missing.key = keys.KeyAt(7) + 1;  // odd keys are never inserted
  ops.push_back(missing);
  Op scan;
  scan.kind = OpKind::kScan;
  scan.key = 0;
  scan.scan_len = 40;
  ops.push_back(scan);

  const std::vector<OpResult> results = eng->ExecuteOps(ops);
  EXPECT_TRUE(results[0].found);
  EXPECT_GT(results[0].latency_ns, 0.0);
  EXPECT_FALSE(results[1].found);
  EXPECT_EQ(results[2].scan_hits, 40u);
  EXPECT_GT(results[2].latency_ns, 0.0);

  // The batched scan must report the same count as the direct Scan API.
  std::vector<lsm::Entry> out;
  EXPECT_EQ(eng->Scan(0, 40, &out), results[2].scan_hits);
}

TEST(ExecuteOpsTest, ExecuteIsBatchGranularityInvariant) {
  const tune::SystemSetup setup = SmallSetup();
  workload::ExecutorConfig exec;
  exec.num_ops = 1500;
  exec.generator.scan_len = setup.scan_len;
  exec.seed = 42;

  constexpr OpKind kKinds[] = {OpKind::kGet, OpKind::kPut, OpKind::kDelete,
                               OpKind::kScan};
  struct Run {
    workload::ExecutionResult result;
    OpCostWindow windows[4];
  };
  // On one shard every scan-free batch is a single shard list.
  for (size_t shards : {4, 1}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto run = [&](size_t batch_ops) {
      workload::KeySpace keys(setup.num_entries, setup.seed);
      auto eng = MakeLoadedEngine(setup, shards, keys);
      workload::ExecutorConfig cfg = exec;
      cfg.batch_ops = batch_ops;
      Run out;
      out.result = workload::Execute(
          eng.get(), model::WorkloadSpec{0.25, 0.25, 0.25, 0.25}, cfg, &keys);
      for (size_t k = 0; k < 4; ++k) {
        out.windows[k] = eng->OpCostWindowTotal(kKinds[k]);
      }
      return out;
    };

    const Run base = run(512);
    for (size_t batch_ops : {1, 3, 100, 4000}) {
      SCOPED_TRACE("batch_ops=" + std::to_string(batch_ops));
      const Run got = run(batch_ops);
      const workload::ExecutionResult& r = got.result;
      EXPECT_EQ(r.total_ns, base.result.total_ns);
      EXPECT_EQ(r.total_ios, base.result.total_ios);
      EXPECT_EQ(r.lookups_found, base.result.lookups_found);
      EXPECT_EQ(r.lookups_missed, base.result.lookups_missed);
      EXPECT_EQ(r.latency_ns.Quantile(0.99),
                base.result.latency_ns.Quantile(0.99));
      for (size_t k = 0; k < 4; ++k) {
        SCOPED_TRACE("kind " + std::to_string(k));
        EXPECT_EQ(got.windows[k].ops, base.windows[k].ops);
        EXPECT_EQ(got.windows[k].ios, base.windows[k].ios);
        EXPECT_EQ(got.windows[k].latency_ns, base.windows[k].latency_ns);
      }
    }
  }
}

TEST(ExecuteOpsTest, DynamicTunerBitIdenticalWithEnginePool) {
  // The dynamic path (batches cut at detector firings, per-shard retunes
  // in between) must be unaffected by engine-level parallelism.
  const tune::SystemSetup setup = [] {
    tune::SystemSetup s = SmallSetup();
    s.train_ops = 400;
    s.eval_ops = 800;
    return s;
  }();
  auto classic =
      std::make_shared<tune::ClassicTuner>(setup, tune::TunerOptions{});
  tune::RecommendFn recommend = [classic](const model::WorkloadSpec& w,
                                          const model::SystemParams& target) {
    return classic->RecommendFor(w, target);
  };
  tune::DynamicTuner::Params params;
  params.window_ops = 250;
  params.tau = 0.1;

  auto run = [&](util::ThreadPool* pool) {
    workload::KeySpace keys(setup.num_entries, setup.seed);
    auto eng = MakeLoadedEngine(setup, 4, keys);
    eng->set_pool(pool);
    tune::DynamicTuner dyn(recommend, setup, params);
    const workload::ExecutionResult r1 = dyn.RunPhase(
        eng.get(), &keys, model::WorkloadSpec{0.1, 0.1, 0.1, 0.7}, 700, 1);
    const workload::ExecutionResult r2 = dyn.RunPhase(
        eng.get(), &keys, model::WorkloadSpec{0.1, 0.1, 0.6, 0.2}, 700, 2);
    return std::make_tuple(r1.total_ns + r2.total_ns,
                           r1.total_ios + r2.total_ios,
                           dyn.reconfigurations(),
                           dyn.last_applied().size_ratio);
  };

  const auto serial = run(nullptr);
  util::ThreadPool pool(4);
  const auto pooled = run(&pool);
  EXPECT_EQ(std::get<0>(serial), std::get<0>(pooled));  // bit-exact time
  EXPECT_EQ(std::get<1>(serial), std::get<1>(pooled));
  EXPECT_EQ(std::get<2>(serial), std::get<2>(pooled));
  EXPECT_EQ(std::get<3>(serial), std::get<3>(pooled));
}

TEST(ExecuteOpsTest, ReconfigureShardMidPhaseStaysDeterministicAndCorrect) {
  // An arbitration round lands between two batches of a phase: the
  // reconfigured engine must produce bit-identical batched results at any
  // pool size, and Scan must stay globally sorted and complete across the
  // budget change.
  const tune::SystemSetup setup = SmallSetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  const std::vector<Op> ops = GenerateOps(setup, 3000, &keys, nullptr);
  const size_t half = ops.size() / 2;

  auto run = [&](util::ThreadPool* pool) {
    workload::KeySpace run_keys(setup.num_entries, setup.seed);
    auto eng = MakeLoadedEngine(setup, 4, run_keys);
    eng->set_pool(pool);
    std::vector<OpResult> results(ops.size());
    eng->ExecuteOps(ops.data(), half, results.data());
    // The "arbiter": shrink shard 2, grow shard 1 by the same amount.
    lsm::Options grown = eng->ShardOptionsSnapshot(1);
    lsm::Options shrunk = eng->ShardOptionsSnapshot(2);
    const uint64_t delta_bloom = shrunk.bloom_bits / 3;
    const uint64_t delta_buffer = shrunk.buffer_bytes / 4;
    shrunk.bloom_bits -= delta_bloom;
    shrunk.buffer_bytes -= delta_buffer;
    grown.bloom_bits += delta_bloom;
    grown.buffer_bytes += delta_buffer;
    eng->ReconfigureShard(1, grown);
    eng->ReconfigureShard(2, shrunk);
    eng->ExecuteOps(ops.data() + half, ops.size() - half,
                    results.data() + half);
    std::vector<lsm::Entry> scanned;
    eng->Scan(0, 200, &scanned);
    return std::make_pair(std::move(results), std::move(scanned));
  };

  const auto serial = run(nullptr);
  for (int threads : {2, 4}) {
    util::ThreadPool pool(threads);
    const auto pooled = run(&pool);
    ExpectSameResults(pooled.first, serial.first);
    ASSERT_EQ(pooled.second.size(), serial.second.size());
    for (size_t i = 0; i < serial.second.size(); ++i) {
      EXPECT_EQ(pooled.second[i].key, serial.second[i].key);
      if (i > 0) {
        EXPECT_LT(serial.second[i - 1].key, serial.second[i].key);
      }
    }
  }
}

TEST(ExecuteOpsTest, ExecuteWithReconfiguringHookIsBatchDeterministic) {
  // workload::Execute with a hook that retunes a shard after a fixed
  // batch (an arbitration-triggered ReconfigureShard landing mid-phase):
  // identical streams must produce identical results at any pool size.
  const tune::SystemSetup setup = SmallSetup();

  class RetuneOnceHook : public workload::BatchObserver {
   public:
    void OnBatchEvent(engine::StorageEngine* engine,
                      const workload::BatchEvent&) override {
      if (++batches_ != 2) return;
      lsm::Options opts = engine->ShardOptionsSnapshot(3);
      opts.bloom_bits /= 2;
      opts.buffer_bytes = opts.buffer_bytes * 3 / 4;
      engine->ReconfigureShard(3, opts);
    }
    int batches_ = 0;
  };

  auto run = [&](util::ThreadPool* pool) {
    workload::KeySpace keys(setup.num_entries, setup.seed);
    auto eng = MakeLoadedEngine(setup, 4, keys);
    eng->set_pool(pool);
    RetuneOnceHook hook;
    workload::ExecutorConfig exec;
    exec.num_ops = 2000;
    exec.batch_ops = 400;
    exec.seed = 31;
    exec.generator.scan_len = setup.scan_len;
    exec.hook = &hook;
    return workload::Execute(eng.get(),
                             model::WorkloadSpec{0.2, 0.3, 0.2, 0.3}, exec,
                             &keys);
  };

  const workload::ExecutionResult serial = run(nullptr);
  util::ThreadPool pool(4);
  const workload::ExecutionResult pooled = run(&pool);
  EXPECT_EQ(serial.total_ns, pooled.total_ns);  // bit-exact
  EXPECT_EQ(serial.total_ios, pooled.total_ios);
  EXPECT_EQ(serial.lookups_found, pooled.lookups_found);
  EXPECT_EQ(serial.latency_ns.Quantile(0.99),
            pooled.latency_ns.Quantile(0.99));
}

TEST(ExecuteOpsTest, EvaluatorEnginePoolDoesNotChangeMeasurements) {
  tune::SystemSetup setup = SmallSetup();
  setup.num_shards = 4;
  setup.train_ops = 300;
  setup.eval_ops = 600;
  const tune::Evaluator serial_eval(setup);

  setup.engine_threads = 4;
  const tune::Evaluator pooled_eval(setup);
  ASSERT_NE(pooled_eval.engine_pool(), nullptr);

  const model::WorkloadSpec w{0.2, 0.3, 0.2, 0.3};
  const tune::TuningConfig config = tune::MonkeyDefaultConfig(setup);
  const tune::Measurement a = serial_eval.Evaluate(w, config);
  const tune::Measurement b = pooled_eval.Evaluate(w, config);
  EXPECT_EQ(a.mean_latency_ns, b.mean_latency_ns);  // bit-exact
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.ios_per_op, b.ios_per_op);
  EXPECT_EQ(a.build_ns, b.build_ns);
}

}  // namespace
}  // namespace camal::engine
