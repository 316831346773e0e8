// Per-tenant memory arbitration: conservation invariants (the system
// total is never exceeded, per-shard floors always hold), determinism,
// skew-driven budget divergence, and the bit-identity of the arbiter-off
// (and observation-only) paths with the pre-arbiter system.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "camal/classic_tuner.h"
#include "camal/dynamic_tuner.h"
#include "camal/evaluator.h"
#include "camal/memory_arbiter.h"
#include "camal/sample.h"
#include "engine/sharded_engine.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::tune {
namespace {

// Large enough that the even share's buffer slice clears the model's
// minimum sensible buffer (the arbiter's degenerate-budget guard).
SystemSetup MediumSetup() {
  SystemSetup setup;
  setup.num_entries = 8000;
  setup.total_memory_bits = 16 * 8000;
  return setup;
}

std::unique_ptr<engine::ShardedEngine> MakeLoadedEngine(
    const SystemSetup& setup, size_t shards, const workload::KeySpace& keys) {
  auto eng = std::make_unique<engine::ShardedEngine>(
      shards, MonkeyDefaultConfig(setup).ToOptions(setup),
      setup.MakeDeviceConfig());
  workload::BulkLoad(eng.get(), keys);
  return eng;
}

// Drives a steady-state skewed stream through the batched pipeline with
// `hook` attached (nullptr = the plain pre-arbiter execution).
workload::ExecutionResult RunStream(engine::StorageEngine* eng,
                                    workload::KeySpace* keys, double skew,
                                    size_t num_ops,
                                    workload::BatchObserver* hook,
                                    size_t batch_ops = 256) {
  workload::ExecutorConfig exec;
  exec.num_ops = num_ops;
  exec.seed = 77;
  exec.batch_ops = batch_ops;
  exec.generator.scan_len = 16;
  exec.generator.shard_skew = skew;
  exec.generator.num_shards = eng->NumShards();
  exec.hook = hook;
  return workload::Execute(eng, model::WorkloadSpec{0.2, 0.3, 0.2, 0.3}, exec,
                           keys);
}

TEST(MemoryArbiterTest, ConservationAndFloorsHoldAfterEveryRound) {
  const SystemSetup setup = MediumSetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  auto eng = MakeLoadedEngine(setup, 4, keys);

  ArbiterOptions opts;
  opts.period_ops = 400;
  MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup), 4,
                        opts);
  ASSERT_TRUE(arbiter.active());

  // Small batches so the invariant is checked at many round boundaries.
  workload::GeneratorConfig gen_cfg;
  gen_cfg.scan_len = setup.scan_len;
  gen_cfg.shard_skew = 1.0;
  gen_cfg.num_shards = 4;
  workload::OperationGenerator gen(model::WorkloadSpec{0.2, 0.3, 0.2, 0.3},
                                   &keys, gen_cfg, /*seed=*/5);
  std::vector<workload::Operation> pending;
  std::vector<engine::Op> ops;
  std::vector<engine::OpResult> results;
  for (int batch = 0; batch < 60; ++batch) {
    pending.clear();
    ops.clear();
    for (int i = 0; i < 100; ++i) {
      pending.push_back(gen.Next());
      ops.push_back(workload::ToEngineOp(pending.back()));
    }
    results.resize(ops.size());
    eng->ExecuteOps(ops.data(), ops.size(), results.data());
    workload::BatchEvent event;
    event.count = pending.size();
    event.ops = pending.data();
    event.engine_ops = ops.data();
    event.results = results.data();
    arbiter.OnBatchEvent(eng.get(), event);

    // The arbitrated ledger conserves the total and respects floors...
    uint64_t ledger = 0;
    for (uint64_t bits : arbiter.budget_bits()) {
      EXPECT_GE(bits, arbiter.floor_bits());
      ledger += bits;
    }
    EXPECT_LE(ledger, arbiter.total_bits());
    // ...and what the engine actually holds never exceeds the ledger
    // (applied options round bits down into bytes).
    uint64_t applied = 0;
    for (size_t s = 0; s < eng->NumShards(); ++s) {
      applied += eng->ShardBudgetSnapshot(s).TotalBits();
    }
    EXPECT_LE(applied, arbiter.total_bits());
  }
  EXPECT_GE(arbiter.rounds(), 10u);
  EXPECT_GT(arbiter.moves(), 0u);
}

TEST(MemoryArbiterTest, SkewedTrafficDivergesBudgetsDeterministically) {
  const SystemSetup setup = MediumSetup();
  auto run = [&] {
    workload::KeySpace keys(setup.num_entries, setup.seed);
    auto eng = MakeLoadedEngine(setup, 4, keys);
    ArbiterOptions opts;
    opts.period_ops = 500;
    MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup),
                          4, opts);
    RunStream(eng.get(), &keys, /*skew=*/1.0, /*num_ops=*/4000, &arbiter);
    return std::make_pair(arbiter.budget_bits(), arbiter.moves());
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);  // deterministic given the seed
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);

  // Shard 0 is the generator's hottest tenant; some cold shard must have
  // donated, so the even split is gone and the hot shard holds the max.
  const uint64_t even_share = a.first[0] + a.first[1] + a.first[2] +
                              a.first[3];
  const uint64_t hot = a.first[0];
  uint64_t coldest = hot;
  for (uint64_t bits : a.first) coldest = std::min(coldest, bits);
  EXPECT_GT(hot, even_share / 4);
  EXPECT_LT(coldest, even_share / 4);
  for (uint64_t bits : a.first) EXPECT_LE(bits, hot);
}

TEST(MemoryArbiterTest, UniformTrafficHoldsTheEvenSplit) {
  const SystemSetup setup = MediumSetup();
  workload::KeySpace keys(setup.num_entries, setup.seed);
  auto eng = MakeLoadedEngine(setup, 4, keys);
  ArbiterOptions opts;
  opts.period_ops = 500;
  MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup), 4,
                        opts);
  RunStream(eng.get(), &keys, /*skew=*/0.0, /*num_ops=*/4000, &arbiter);
  EXPECT_GE(arbiter.rounds(), 4u);
  for (uint64_t bits : arbiter.budget_bits()) {
    EXPECT_EQ(bits, arbiter.budget_bits()[0]);
  }
}

TEST(MemoryArbiterTest, ObservationIsFreeBitIdentical) {
  // An attached arbiter that never finds a profitable move (infinite
  // hysteresis) must leave execution byte-for-byte untouched: recording
  // and pricing live outside the simulated cost domain.
  const SystemSetup setup = MediumSetup();

  workload::KeySpace keys_a(setup.num_entries, setup.seed);
  auto eng_a = MakeLoadedEngine(setup, 4, keys_a);
  const workload::ExecutionResult plain =
      RunStream(eng_a.get(), &keys_a, 1.0, 3000, nullptr);

  workload::KeySpace keys_b(setup.num_entries, setup.seed);
  auto eng_b = MakeLoadedEngine(setup, 4, keys_b);
  ArbiterOptions opts;
  opts.period_ops = 300;
  opts.hysteresis = 1e18;  // rounds fire, no move ever clears the bar
  MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup), 4,
                        opts);
  const workload::ExecutionResult hooked =
      RunStream(eng_b.get(), &keys_b, 1.0, 3000, &arbiter);

  EXPECT_GE(arbiter.rounds(), 5u);
  EXPECT_EQ(arbiter.moves(), 0u);
  EXPECT_EQ(plain.total_ns, hooked.total_ns);  // bit-exact doubles
  EXPECT_EQ(plain.total_ios, hooked.total_ios);
  EXPECT_EQ(plain.lookups_found, hooked.lookups_found);
  EXPECT_EQ(plain.latency_ns.Quantile(0.99),
            hooked.latency_ns.Quantile(0.99));
}

TEST(MemoryArbiterTest, DegenerateBudgetGuardHoldsBudgets) {
  // 8 shards over a small budget push the even share's buffer slice
  // below the model's minimum sensible buffer: the arbiter must refuse
  // to trade transition I/O for modeled noise.
  SystemSetup setup;
  setup.num_entries = 4000;
  setup.total_memory_bits = 16 * 4000;
  workload::KeySpace keys(setup.num_entries, setup.seed);
  auto eng = MakeLoadedEngine(setup, 8, keys);
  ArbiterOptions opts;
  opts.period_ops = 300;
  MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup), 8,
                        opts);
  EXPECT_FALSE(arbiter.active());
  RunStream(eng.get(), &keys, 1.0, 3000, &arbiter);
  EXPECT_GE(arbiter.rounds(), 5u);
  EXPECT_EQ(arbiter.moves(), 0u);
  for (uint64_t bits : arbiter.budget_bits()) {
    EXPECT_EQ(bits, arbiter.budget_bits()[0]);
  }
}

TEST(MemoryArbiterTest, EvaluatorArbitrationKnob) {
  // kOff is the construction-default (bit-identical trivially); kPeriodic
  // under skewed tenant traffic must actually change the measurement —
  // budgets moved mid-run — while staying deterministic.
  SystemSetup setup = MediumSetup();
  setup.num_shards = 4;
  setup.shard_skew = 1.0;
  setup.eval_ops = 6000;
  setup.arbiter_period_ops = 1000;
  const Evaluator off_eval(setup);

  setup.arbitration = ArbitrationMode::kPeriodic;
  const Evaluator on_eval(setup);

  const model::WorkloadSpec w{0.2, 0.3, 0.2, 0.3};
  const TuningConfig config = MonkeyDefaultConfig(setup);
  const Measurement off = off_eval.Evaluate(w, config);
  const Measurement on_a = on_eval.Evaluate(w, config);
  const Measurement on_b = on_eval.Evaluate(w, config);

  EXPECT_EQ(on_a.mean_latency_ns, on_b.mean_latency_ns);  // deterministic
  EXPECT_EQ(on_a.ios_per_op, on_b.ios_per_op);
  EXPECT_NE(on_a.mean_latency_ns, off.mean_latency_ns);  // budgets moved
  EXPECT_GT(on_a.mean_latency_ns, 0.0);
  EXPECT_GT(on_a.p99_latency_ns, 0.0);
}

TEST(MemoryArbiterTest, ComposesWithDynamicTunerRetunes) {
  const SystemSetup setup = [] {
    SystemSetup s = MediumSetup();
    s.train_ops = 400;
    s.eval_ops = 800;
    return s;
  }();
  auto classic = std::make_shared<ClassicTuner>(setup, TunerOptions{});
  RecommendFn recommend = [classic](const model::WorkloadSpec& w,
                                    const model::SystemParams& target) {
    return classic->RecommendFor(w, target);
  };
  DynamicTuner::Params params;
  params.window_ops = 250;
  params.tau = 0.1;

  auto run = [&] {
    workload::KeySpace keys(setup.num_entries, setup.seed);
    auto eng = MakeLoadedEngine(setup, 4, keys);
    ArbiterOptions opts;
    opts.period_ops = 600;
    MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup),
                          4, opts);
    DynamicTuner dyn(recommend, setup, params);
    dyn.set_arbiter(&arbiter);
    // Two phases with different mixes: detectors retune shards while the
    // arbiter shifts budgets between the same batches.
    model::WorkloadSpec phase1{0.1, 0.2, 0.1, 0.6};
    model::WorkloadSpec phase2{0.3, 0.4, 0.2, 0.1};
    phase1.skew = 0.8;
    phase2.skew = 0.8;
    const workload::ExecutionResult r1 =
        dyn.RunPhase(eng.get(), &keys, phase1, 1500, 1);
    const workload::ExecutionResult r2 =
        dyn.RunPhase(eng.get(), &keys, phase2, 1500, 2);

    uint64_t ledger = 0;
    for (uint64_t bits : arbiter.budget_bits()) {
      EXPECT_GE(bits, arbiter.floor_bits());
      ledger += bits;
    }
    EXPECT_LE(ledger, arbiter.total_bits());
    EXPECT_GE(dyn.reconfigurations(), 4u);  // every shard retuned at least once
    return std::make_tuple(r1.total_ns + r2.total_ns,
                           r1.total_ios + r2.total_ios,
                           arbiter.budget_bits(), dyn.reconfigurations());
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));  // bit-exact simulated time
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
}

TEST(MemoryArbiterTest, ZeroActivityWindowIsAnExactNoOp) {
  // Million-tenant regime, sparse traffic: a window in which no shard saw
  // an operation must move nothing, reconfigure nothing, touch no engine
  // shard (an all-cold engine stays all-cold), and leave every budget at
  // exactly the even share with the total conserved to the bit.
  SystemSetup setup;
  setup.num_entries = 8000;
  setup.total_memory_bits = 64 * 32000;  // even share matches MediumSetup/4
  engine::ShardedEngine eng(64, MonkeyDefaultConfig(setup).ToOptions(setup),
                            setup.MakeDeviceConfig());
  ASSERT_EQ(eng.MaterializedShards(), 0u);

  ArbiterOptions opts;
  opts.period_ops = 100;
  MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup), 64,
                        opts);
  ASSERT_TRUE(arbiter.active());

  const std::vector<uint64_t> before = arbiter.budget_bits();
  for (int round = 0; round < 3; ++round) arbiter.Rebalance(&eng);

  EXPECT_EQ(arbiter.moves(), 0u);
  EXPECT_EQ(arbiter.reconfigurations(), 0u);
  EXPECT_EQ(arbiter.budget_bits(), before);
  uint64_t ledger = 0;
  for (uint64_t bits : arbiter.budget_bits()) {
    EXPECT_EQ(bits, before[0]);  // the undisturbed even share
    ledger += bits;
  }
  EXPECT_EQ(ledger, arbiter.total_bits());  // exact, not just bounded
  // The arbitration pass itself is O(active): with zero activity it read
  // nothing from the engine, so no shard materialized.
  EXPECT_EQ(eng.MaterializedShards(), 0u);
}

TEST(MemoryArbiterTest, SingleActiveShardWindowConservesExactly) {
  // One tenant active out of eight: the round promotes it from its group
  // pool, funds it from silent implicit members, and the two-level ledger
  // conserves the system total bit-exactly through every handoff.
  SystemSetup setup;
  setup.num_entries = 8000;
  setup.total_memory_bits = 8 * 32000;
  workload::KeySpace keys(setup.num_entries, setup.seed);
  auto eng = MakeLoadedEngine(setup, 8, keys);

  ArbiterOptions opts;
  opts.period_ops = 400;
  MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup), 8,
                        opts);
  ASSERT_TRUE(arbiter.active());
  const uint64_t even = arbiter.budget_bits()[0];

  for (int i = 0; i < 400; ++i) {
    arbiter.Record(3, i % 2 == 0 ? workload::OpType::kNonZeroResultLookup
                                 : workload::OpType::kWrite);
  }
  // Record() only accumulates counts; the window clock advances in the
  // OnBatch hooks, so fire the round directly.
  arbiter.Rebalance(eng.get());

  // The active shard gained; every donor was a silent shard; nobody fell
  // through the floor; and the ledger total is exact — pool withdrawals
  // hand out exactly the even share, so sparse promotion loses no bits.
  EXPECT_GT(arbiter.moves(), 0u);
  EXPECT_GE(arbiter.reconfigurations(), 2u);
  EXPECT_GT(arbiter.BudgetBits(3), even);
  uint64_t ledger = 0;
  for (size_t s = 0; s < 8; ++s) {
    const uint64_t bits = arbiter.BudgetBits(s);
    EXPECT_GE(bits, arbiter.floor_bits());
    if (s != 3) {
      EXPECT_LE(bits, even) << "shard " << s;
    }
    ledger += bits;
  }
  EXPECT_EQ(ledger, arbiter.total_bits());
  // What the engine actually holds never exceeds the conserved total.
  uint64_t applied = 0;
  for (size_t s = 0; s < 8; ++s) {
    applied += eng->ShardBudgetSnapshot(s).TotalBits();
  }
  EXPECT_LE(applied, arbiter.total_bits());
}

TEST(MemoryArbiterTest, HibernationHandoffConservesAcrossDemoteAndRepromote) {
  // The lifecycle handoff loop: skewed traffic diverges explicit budgets,
  // a traffic shift hibernates the idle half (their budgets deposit back
  // into the group pool — demotion), and the traffic's return wakes and
  // re-promotes them at the pool's amortized slice. The conserved total
  // may be under-reported only by the pool's floor-division remainder
  // (< one bit per implicit member), never exceeded.
  SystemSetup setup;
  setup.num_entries = 8000;
  setup.total_memory_bits = 8 * 32000;
  workload::KeySpace keys(setup.num_entries, setup.seed);
  auto eng = std::make_unique<engine::ShardedEngine>(
      8, MonkeyDefaultConfig(setup).ToOptions(setup), setup.MakeDeviceConfig(),
      engine::ShardLifecycleConfig{/*lazy=*/true,
                                   /*hibernate_after_batches=*/1});
  workload::BulkLoad(eng.get(), keys);

  ArbiterOptions opts;
  opts.period_ops = 300;  // one round per 300-op batch
  MemoryArbiter arbiter(setup, MonkeyDefaultConfig(setup).ToOptions(setup), 8,
                        opts);
  ASSERT_TRUE(arbiter.active());

  // A skewed stream with no scans (scans touch every shard, which would
  // keep the idle half awake). Point ops split cleanly by routed shard.
  workload::GeneratorConfig gen_cfg;
  gen_cfg.shard_skew = 1.0;
  gen_cfg.num_shards = 8;
  workload::OperationGenerator gen(model::WorkloadSpec{0.25, 0.35, 0.0, 0.4},
                                   &keys, gen_cfg, /*seed=*/5);
  std::vector<workload::Operation> all_ops;
  std::vector<workload::Operation> low_ops;  // shards 0-3 only
  for (int i = 0; i < 4000; ++i) {
    const workload::Operation op = gen.Next();
    all_ops.push_back(op);
    if (eng->ShardIndex(op.key) < 4) low_ops.push_back(op);
  }
  ASSERT_GE(low_ops.size(), 1200u);

  const auto check_conserved = [&] {
    uint64_t ledger = 0;
    for (uint64_t bits : arbiter.budget_bits()) {
      EXPECT_GE(bits, arbiter.floor_bits());
      ledger += bits;
    }
    EXPECT_LE(ledger, arbiter.total_bits());
    EXPECT_GE(ledger + 8, arbiter.total_bits());  // view slack < members
  };
  const auto run_batch = [&](const std::vector<workload::Operation>& stream,
                             size_t from) {
    std::vector<engine::Op> ops;
    ops.reserve(300);
    for (size_t i = from; i < from + 300; ++i) {
      ops.push_back(workload::ToEngineOp(stream[i]));
    }
    std::vector<engine::OpResult> results(ops.size());
    eng->ExecuteOps(ops.data(), ops.size(), results.data());
    workload::BatchEvent event;
    event.count = ops.size();
    event.ops = stream.data() + from;
    event.engine_ops = ops.data();
    event.results = results.data();
    arbiter.OnBatchEvent(eng.get(), event);
    check_conserved();
  };

  // Phase 1: every shard trafficked -> all promoted, budgets diverge.
  for (size_t b = 0; b < 4; ++b) run_batch(all_ops, b * 300);
  EXPECT_GT(arbiter.moves(), 0u);

  // Phase 2: traffic narrows to shards 0-3. The idle half hibernates
  // after one silent batch and the next round demotes it — each shard's
  // entire (diverged) budget deposits back into the pool, exactly.
  for (size_t b = 0; b < 4; ++b) run_batch(low_ops, b * 300);
  for (size_t s = 4; s < 8; ++s) {
    EXPECT_EQ(eng->ShardLifecycle(s), engine::ShardState::kHibernated) << s;
  }

  // Phase 3: the broad mix returns; hibernated shards wake transparently
  // and re-promote from the pool at its amortized slice.
  for (size_t b = 0; b < 4; ++b) run_batch(all_ops, b * 300);
  for (size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(eng->ShardLifecycle(s), engine::ShardState::kMaterialized) << s;
  }
  EXPECT_GE(arbiter.rounds(), 12u);
}

}  // namespace
}  // namespace camal::tune
