#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "camal/bayes_tuner.h"
#include "camal/camal_tuner.h"
#include "camal/classic_tuner.h"
#include "camal/evaluator.h"
#include "camal/extrapolation.h"
#include "camal/grid_tuner.h"
#include "camal/group_sampling.h"
#include "camal/plain_al_tuner.h"
#include "camal/sample.h"
#include "camal/uncertainty.h"
#include "workload/tables.h"

namespace camal::tune {
namespace {

// A deliberately tiny setup so tuner tests stay fast.
SystemSetup TinySetup() {
  SystemSetup setup;
  setup.num_entries = 6000;
  setup.total_memory_bits = 16 * 6000;
  setup.train_ops = 400;
  setup.eval_ops = 800;
  return setup;
}

model::WorkloadSpec Mixed() { return model::WorkloadSpec{0.25, 0.25, 0.25, 0.25}; }

TEST(SystemSetupTest, ModelParamsDerivation) {
  SystemSetup setup;
  const model::SystemParams p = setup.ToModelParams();
  EXPECT_DOUBLE_EQ(p.num_entries, 40000.0);
  EXPECT_DOUBLE_EQ(p.entry_bits, 1024.0);
  EXPECT_DOUBLE_EQ(p.block_entries, 32.0);
  EXPECT_DOUBLE_EQ(p.total_memory_bits, 640000.0);
}

TEST(SystemSetupTest, ScaledDownDividesNandM) {
  SystemSetup setup;
  const SystemSetup small = ScaledDown(setup, 10.0);
  EXPECT_EQ(small.num_entries, 4000u);
  EXPECT_EQ(small.total_memory_bits, 64000u);
  EXPECT_EQ(small.entry_bytes, setup.entry_bytes);
}

TEST(TuningConfigTest, ToOptionsMapsBitsToBytes) {
  SystemSetup setup;
  TuningConfig c;
  c.size_ratio = 6.0;
  c.mf_bits = 80000;
  c.mb_bits = 160000;
  c.mc_bits = 400000;
  const lsm::Options opts = c.ToOptions(setup);
  EXPECT_DOUBLE_EQ(opts.size_ratio, 6.0);
  EXPECT_EQ(opts.buffer_bytes, 20000u);
  EXPECT_EQ(opts.bloom_bits, 80000u);
  EXPECT_EQ(opts.block_cache_bytes, 50000u);
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(TuningConfigTest, IoQueueDepthFlowsToOptionsAndModel) {
  SystemSetup setup;
  TuningConfig c = MonkeyDefaultConfig(setup);
  // Untuned (0): options inherit the engine default, the model prices
  // serial reads.
  EXPECT_EQ(c.ToOptions(setup).io_queue_depth, 0);
  EXPECT_DOUBLE_EQ(c.ToModelConfig().io_queue_depth, 1.0);
  c.io_queue_depth = 16;
  EXPECT_EQ(c.ToOptions(setup).io_queue_depth, 16);
  EXPECT_DOUBLE_EQ(c.ToModelConfig().io_queue_depth, 16.0);
  EXPECT_NE(c.ToString().find("qd=16"), std::string::npos);
}

TEST(SystemSetupTest, RejectsUringKnobsOnSimBackend) {
  SystemSetup setup;
  EXPECT_TRUE(setup.Validate().ok());
  setup.io_queue_depth = 8;
  EXPECT_FALSE(setup.Validate().ok());
  // The same depth is legal on the real-IO backend...
  setup.backend = EngineBackend::kFile;
  EXPECT_TRUE(setup.Validate().ok());
  // ...but the depth range is still enforced.
  setup.io_queue_depth = 0;
  EXPECT_FALSE(setup.Validate().ok());
  setup.io_queue_depth = 2000;
  EXPECT_FALSE(setup.Validate().ok());
}

TEST(TunerOptionsTest, TuneIoDepthStampsRecommendations) {
  // Closed-form fallback path (untrained model): the recommendation must
  // carry the cost model's depth when the knob is on, and stay at the
  // untuned default when off.
  SystemSetup setup = TinySetup();
  TunerOptions off;
  TunerOptions opts;
  opts.tune_io_depth = true;
  opts.max_io_queue_depth = 32;
  const model::WorkloadSpec scans{0.0, 0.1, 0.8, 0.1};
  CamalTuner tuned(setup, opts);
  const TuningConfig rec = tuned.Recommend(scans);
  const model::CostModel cm(setup.ToModelParams());
  EXPECT_EQ(rec.io_queue_depth,
            cm.RecommendedQueueDepth(scans.Normalized(), rec.ToModelConfig(),
                                     opts.max_io_queue_depth));
  EXPECT_GT(rec.io_queue_depth, 1);  // scan-heavy mixes fan out widely
  CamalTuner untouched(setup, off);
  EXPECT_EQ(untouched.Recommend(scans).io_queue_depth, 0);
}

TEST(TuningConfigTest, MonkeyDefaultSumsToBudget) {
  SystemSetup setup;
  const TuningConfig c = MonkeyDefaultConfig(setup);
  EXPECT_NEAR(c.mf_bits + c.mb_bits + c.mc_bits,
              static_cast<double>(setup.total_memory_bits), 1.0);
  EXPECT_NEAR(c.mf_bits, 10.0 * setup.num_entries, 1.0);
}

TEST(FeatureTest, ScaleInvarianceLemma51) {
  // Features of (T, Mf, Mb) at (N, M) equal features of (T, kMf, kMb) at
  // (kN, kM) — the formal backbone of extrapolation.
  SystemSetup setup;
  const model::SystemParams sys = setup.ToModelParams();
  const model::SystemParams big = ScaleParams(sys, 10.0);
  TuningConfig c;
  c.size_ratio = 8.0;
  c.mf_bits = 9.0 * sys.num_entries;
  c.mb_bits = sys.total_memory_bits - c.mf_bits;
  const TuningConfig scaled = ExtrapolateConfig(c, 10.0);
  const auto f1 = RawFeatures(Mixed(), c, sys);
  const auto f2 = RawFeatures(Mixed(), scaled, big);
  ASSERT_EQ(f1.size(), f2.size());
  for (size_t i = 0; i < f1.size(); ++i) {
    if (i == 12) continue;  // log10(N) intentionally differs
    EXPECT_NEAR(f1[i], f2[i], 1e-9) << "feature " << i;
  }
}

TEST(FeatureTest, CostBasisDimensionsStable) {
  SystemSetup setup;
  const auto raw = RawFeatures(Mixed(), MonkeyDefaultConfig(setup),
                               setup.ToModelParams());
  const auto basis = CostBasisFromRaw(raw);
  EXPECT_EQ(basis.size(), 13u);
  for (double b : basis) EXPECT_TRUE(std::isfinite(b));
}

TEST(ExtrapolationTest, ConfigScaling) {
  TuningConfig c;
  c.size_ratio = 7.0;
  c.mf_bits = 100;
  c.mb_bits = 200;
  c.mc_bits = 50;
  const TuningConfig big = ExtrapolateConfig(c, 4.0);
  EXPECT_DOUBLE_EQ(big.size_ratio, 7.0);  // T unchanged (Lemma 5.1)
  EXPECT_DOUBLE_EQ(big.mf_bits, 400.0);
  EXPECT_DOUBLE_EQ(big.mb_bits, 800.0);
  EXPECT_DOUBLE_EQ(big.mc_bits, 200.0);
}

TEST(EvaluatorTest, DeterministicForSameSalt) {
  Evaluator ev(TinySetup());
  const TuningConfig c = MonkeyDefaultConfig(TinySetup());
  const Measurement a = ev.Measure(Mixed(), c, 300, 5);
  const Measurement b = ev.Measure(Mixed(), c, 300, 5);
  EXPECT_DOUBLE_EQ(a.mean_latency_ns, b.mean_latency_ns);
  EXPECT_DOUBLE_EQ(a.ios_per_op, b.ios_per_op);
}

TEST(EvaluatorTest, DifferentSaltDifferentNoise) {
  Evaluator ev(TinySetup());
  const TuningConfig c = MonkeyDefaultConfig(TinySetup());
  const Measurement a = ev.Measure(Mixed(), c, 300, 5);
  const Measurement b = ev.Measure(Mixed(), c, 300, 6);
  EXPECT_NE(a.mean_latency_ns, b.mean_latency_ns);
  // ... but they are the same system: within a loose band.
  EXPECT_NEAR(a.mean_latency_ns, b.mean_latency_ns,
              0.5 * a.mean_latency_ns);
}

TEST(EvaluatorTest, SampleCarriesCostAndScale) {
  const SystemSetup setup = TinySetup();
  Evaluator ev(setup);
  const Sample s = ev.MakeSample(Mixed(), MonkeyDefaultConfig(setup), 1);
  EXPECT_GT(s.cost_ns, 0.0);
  EXPECT_GT(s.mean_latency_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.sys.num_entries, 6000.0);
}

TEST(ObjectiveTest, SelectsRequestedMetric) {
  Sample s;
  s.mean_latency_ns = 1.0;
  s.p90_latency_ns = 2.0;
  s.ios_per_op = 3.0;
  EXPECT_DOUBLE_EQ(ObjectiveValue(s, Objective::kMeanLatency), 1.0);
  EXPECT_DOUBLE_EQ(ObjectiveValue(s, Objective::kP90Latency), 2.0);
  EXPECT_DOUBLE_EQ(ObjectiveValue(s, Objective::kIosPerOp), 3.0);
}

TEST(ClassicTunerTest, RecommendsClosedFormOptimum) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  ClassicTuner tuner(setup, opts);
  model::WorkloadSpec write_heavy{0.01, 0.01, 0.01, 0.97};
  const TuningConfig c = tuner.Recommend(write_heavy);
  EXPECT_LE(c.size_ratio, 5.0);  // writes want small T under leveling
  EXPECT_NEAR(c.mf_bits + c.mb_bits,
              static_cast<double>(setup.total_memory_bits), 1.0);
  // Nearly no point reads: nearly no bloom memory.
  EXPECT_LT(c.mf_bits / setup.num_entries, 4.0);
}

TEST(ClassicTunerTest, PointReadHeavyGetsBloomMemory) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  ClassicTuner tuner(setup, opts);
  model::WorkloadSpec read_heavy{0.5, 0.47, 0.02, 0.01};
  const TuningConfig c = tuner.Recommend(read_heavy);
  EXPECT_GT(c.mf_bits / setup.num_entries, 6.0);
}

TEST(MonkeyTunerTest, FixedConfiguration) {
  const SystemSetup setup = TinySetup();
  MonkeyTuner tuner(setup);
  const TuningConfig c = tuner.Recommend(Mixed());
  EXPECT_DOUBLE_EQ(c.size_ratio, 10.0);
  EXPECT_EQ(c.policy, lsm::CompactionPolicy::kLeveling);
  const TuningConfig c2 = tuner.Recommend(model::WorkloadSpec{0, 0, 0, 1});
  EXPECT_DOUBLE_EQ(c.size_ratio, c2.size_ratio);  // workload-independent
}

TEST(MonkeyTunerTest, CacheVariantAllocatesCache) {
  const SystemSetup setup = TinySetup();
  MonkeyTuner tuner(setup, /*use_cache=*/true);
  const TuningConfig c = tuner.Recommend(Mixed());
  EXPECT_GT(c.mc_bits, 0.0);
  EXPECT_NEAR(c.mf_bits + c.mb_bits + c.mc_bits,
              static_cast<double>(setup.total_memory_bits), 1.0);
}

TEST(CamalTunerTest, TrainCollectsDecoupledSamples) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.refine_rounds = 0;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  // Two rounds (T, memory) x 3 samples each, plus at most one
  // default-anchor sample in the memory round.
  EXPECT_GE(tuner.samples().size(), 6u);
  EXPECT_LE(tuner.samples().size(), 7u);
  EXPECT_GT(tuner.sampling_cost_ns(), 0.0);
  EXPECT_EQ(tuner.tuned_configs().size(), 1u);
}

TEST(CamalTunerTest, RecommendationExhaustsMemoryBudget) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  const TuningConfig c = tuner.Recommend(Mixed());
  EXPECT_NEAR(c.mf_bits + c.mb_bits + c.mc_bits,
              static_cast<double>(setup.total_memory_bits), 1.0);
  EXPECT_GE(c.size_ratio, 2.0);
}

TEST(CamalTunerTest, McRoundAddsSamplesWhenEnabled) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.refine_rounds = 0;
  CamalTuner base_tuner(setup, opts);
  base_tuner.Train({Mixed()});
  opts.tune_mc = true;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  // The Mc round adds samples_per_round more samples.
  EXPECT_EQ(tuner.samples().size(), base_tuner.samples().size() + 3);
}

TEST(CamalTunerTest, CheckpointCallbackFires) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  CamalTuner tuner(setup, opts);
  int calls = 0;
  double last_cost = -1.0;
  tuner.SetCheckpointCallback([&](double cost) {
    ++calls;
    EXPECT_GT(cost, last_cost);
    last_cost = cost;
  });
  tuner.Train({Mixed(), model::WorkloadSpec{0.6, 0.2, 0.1, 0.1}});
  EXPECT_EQ(calls, 2);
}

TEST(CamalTunerTest, ExtrapolationTrainsAtSmallScale) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.extrapolation_factor = 4.0;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  EXPECT_EQ(tuner.train_setup().num_entries, setup.num_entries / 4);
  // Samples were collected at the small scale...
  EXPECT_DOUBLE_EQ(tuner.samples()[0].sys.num_entries,
                   static_cast<double>(setup.num_entries / 4));
  // ...but recommendations are for the full scale.
  const TuningConfig c = tuner.Recommend(Mixed());
  EXPECT_NEAR(c.mf_bits + c.mb_bits + c.mc_bits,
              static_cast<double>(setup.total_memory_bits), 1.0);
}

TEST(CamalTunerTest, ExtrapolationCutsSamplingCost) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  CamalTuner full(setup, opts);
  full.Train({Mixed()});
  opts.extrapolation_factor = 4.0;
  CamalTuner scaled(setup, opts);
  scaled.Train({Mixed()});
  EXPECT_LT(scaled.sampling_cost_ns(), full.sampling_cost_ns() / 2.0);
}

// Bit-identity golden for the CAMAL training loop: the sample count, the
// total simulated sampling cost and every tuned configuration of a
// paper-scale run (Trees, x10 extrapolation, seed 101, the 15 Table-1
// workloads). Host-side speedups of the simulator, the sampler or the
// model fit must leave all of them exactly as they are.
TEST(CamalTunerTest, PaperScaleTrainingGolden) {
  SystemSetup setup;
  setup.seed = 101;
  TunerOptions opts;
  opts.model_kind = ModelKind::kTrees;
  opts.extrapolation_factor = 10.0;
  opts.threads = 1;
  opts.seed = 101;
  CamalTuner tuner(setup, opts);
  tuner.Train(workload::TrainingWorkloads());

  EXPECT_EQ(tuner.samples().size(), 129u);
  EXPECT_EQ(tuner.sampling_cost_ns(), 0x1.bba45562c1e8p+36);
  // {size_ratio, mf_bits, mb_bits}: leveling, no cache, no K or file-size
  // or queue-depth knob, for every workload.
  const double want[15][3] = {
      {0x1.1p+4, 0x1.86ap+18, 0x1.d4cp+17},
      {0x1.1p+4, 0x1.86ap+18, 0x1.d4cp+17},
      {0x1.cp+3, 0x1.4c08p+18, 0x1.24f8p+18},
      {0x1.cp+3, 0x1.86ap+18, 0x1.d4cp+17},
      {0x1p+1, 0x1.adbp+17, 0x1.9a28p+18},
      {0x1.1p+4, 0x1.d9702e7152d8p+18, 0x1.2f1fa31d5a4ffp+17},
      {0x1.2p+4, 0x1.5dd71df04bd02p+18, 0x1.1328e20fb42fep+18},
      {0x1.8p+1, 0x1.86ap+18, 0x1.d4cp+17},
      {0x1.cp+3, 0x1.2216f3f6d7584p+18, 0x1.4ee90c0928a7cp+18},
      {0x1.8p+1, 0x1.172ddc5f15cadp+18, 0x1.59d223a0ea353p+18},
      {0x1.1p+4, 0x1.86ap+18, 0x1.d4cp+17},
      {0x1.ep+3, 0x1.62dedfeb62a31p+18, 0x1.0e2120149d5cfp+18},
      {0x1p+3, 0x1.86ap+18, 0x1.d4cp+17},
      {0x1.1p+4, 0x1.86ap+18, 0x1.d4cp+17},
      {0x1.ap+3, 0x1.24f8p+18, 0x1.4c08p+18},
  };
  const std::vector<TuningConfig>& got = tuner.tuned_configs();
  ASSERT_EQ(got.size(), 15u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].policy, lsm::CompactionPolicy::kLeveling) << i;
    EXPECT_EQ(got[i].size_ratio, want[i][0]) << i;
    EXPECT_EQ(got[i].mf_bits, want[i][1]) << i;
    EXPECT_EQ(got[i].mb_bits, want[i][2]) << i;
    EXPECT_EQ(got[i].mc_bits, 0.0) << i;
    EXPECT_EQ(got[i].runs_per_level, 0) << i;
    EXPECT_EQ(got[i].file_bytes, 0u) << i;
    EXPECT_EQ(got[i].io_queue_depth, 0) << i;
  }
}

TEST(CamalTunerTest, KIndependentRoundAddsSamples) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.refine_rounds = 0;
  CamalTuner base_tuner(setup, opts);
  base_tuner.Train({Mixed()});
  opts.k_mode = KTuningMode::kIndependent;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  EXPECT_EQ(tuner.samples().size(), base_tuner.samples().size() + 3);
  const TuningConfig c = tuner.Recommend(Mixed());
  EXPECT_GE(c.runs_per_level, 0);
}

TEST(CamalTunerTest, KCodependentSamplesJointly) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.refine_rounds = 0;
  opts.k_mode = KTuningMode::kCodependent;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  // Joint (T, K) round samples 2x the per-round budget, then the memory
  // round adds 3-4 more.
  EXPECT_GE(tuner.samples().size(), 9u);
  EXPECT_LE(tuner.samples().size(), 10u);
}

TEST(CamalTunerTest, FileSizeRoundWhenEnabled) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.refine_rounds = 0;
  CamalTuner base_tuner(setup, opts);
  base_tuner.Train({Mixed()});
  opts.tune_file_size = true;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  EXPECT_EQ(tuner.samples().size(), base_tuner.samples().size() + 3);
}

// Bit-identity goldens for the optional decoupled rounds and the other
// model-argmin paths: each pins the sample count, the hex-float sampling
// cost and every field of every configuration a tiny Trees run produces.
void ExpectConfigs(const std::vector<TuningConfig>& got,
                   const std::vector<TuningConfig>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].policy, want[i].policy) << i;
    EXPECT_EQ(got[i].size_ratio, want[i].size_ratio) << i;
    EXPECT_EQ(got[i].mf_bits, want[i].mf_bits) << i;
    EXPECT_EQ(got[i].mb_bits, want[i].mb_bits) << i;
    EXPECT_EQ(got[i].mc_bits, want[i].mc_bits) << i;
    EXPECT_EQ(got[i].runs_per_level, want[i].runs_per_level) << i;
    EXPECT_EQ(got[i].file_bytes, want[i].file_bytes) << i;
    EXPECT_EQ(got[i].io_queue_depth, want[i].io_queue_depth) << i;
  }
}

constexpr lsm::CompactionPolicy kLeveling = lsm::CompactionPolicy::kLeveling;
constexpr lsm::CompactionPolicy kTiering = lsm::CompactionPolicy::kTiering;

TunerOptions TinyTreesOptions() {
  TunerOptions opts;
  opts.model_kind = ModelKind::kTrees;
  opts.threads = 1;
  opts.seed = 7;
  return opts;
}

// A point-read-heavy, a write-heavy and a scan-heavy mix.
std::vector<model::WorkloadSpec> GoldenMixes() {
  return {model::WorkloadSpec{0.6, 0.2, 0.1, 0.1},
          model::WorkloadSpec{0.05, 0.05, 0.1, 0.8},
          model::WorkloadSpec{0.1, 0.1, 0.6, 0.2}};
}

TEST(CamalTunerTest, McRoundGolden) {
  TunerOptions opts = TinyTreesOptions();
  opts.tune_mc = true;
  CamalTuner tuner(TinySetup(), opts);
  tuner.Train(GoldenMixes());
  EXPECT_EQ(tuner.samples().size(), 35u);
  EXPECT_EQ(tuner.sampling_cost_ns(), 0x1.9d6abec616eccp+33);
  const std::vector<TuningConfig> want = {
      {kLeveling, 0x1p+2, 0x1.c2p+15, 0x1.2cp+13, 0x1.c2p+14, 0, 0, 0},
      {kLeveling, 0x1p+1, 0x1.482p+15, 0x1.a5ep+15, 0x0p+0, 0, 0, 0},
      {kLeveling, 0x1.3p+4, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 0, 0, 0},
  };
  ExpectConfigs(tuner.tuned_configs(), want);
}

TEST(CamalTunerTest, KIndependentRoundGolden) {
  TunerOptions opts = TinyTreesOptions();
  opts.k_mode = KTuningMode::kIndependent;
  CamalTuner tuner(TinySetup(), opts);
  tuner.Train(GoldenMixes());
  EXPECT_EQ(tuner.samples().size(), 35u);
  EXPECT_EQ(tuner.sampling_cost_ns(), 0x1.7b0bccb3d1d29p+33);
  const std::vector<TuningConfig> want = {
      {kLeveling, 0x1.2p+3, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 0, 0, 0},
      {kLeveling, 0x1p+3, 0x1.bd5p+15, 0x1.30bp+15, 0x0p+0, 2, 0, 0},
      {kLeveling, 0x1.2p+4, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 1, 0, 0},
  };
  ExpectConfigs(tuner.tuned_configs(), want);
}

TEST(CamalTunerTest, KCodependentRoundGolden) {
  TunerOptions opts = TinyTreesOptions();
  opts.k_mode = KTuningMode::kCodependent;
  CamalTuner tuner(TinySetup(), opts);
  tuner.Train(GoldenMixes());
  EXPECT_EQ(tuner.samples().size(), 35u);
  EXPECT_EQ(tuner.sampling_cost_ns(), 0x1.999b624e810bcp+33);
  const std::vector<TuningConfig> want = {
      {kLeveling, 0x1.1p+4, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 1, 0, 0},
      {kLeveling, 0x1.8p+2, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 1, 0, 0},
      {kLeveling, 0x1.38p+5, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 1, 0, 0},
  };
  ExpectConfigs(tuner.tuned_configs(), want);
}

TEST(CamalTunerTest, FileSizeRoundGolden) {
  TunerOptions opts = TinyTreesOptions();
  opts.tune_file_size = true;
  CamalTuner tuner(TinySetup(), opts);
  tuner.Train(GoldenMixes());
  EXPECT_EQ(tuner.samples().size(), 35u);
  EXPECT_EQ(tuner.sampling_cost_ns(), 0x1.a2db3c739f617p+33);
  const std::vector<TuningConfig> want = {
      {kLeveling, 0x1p+2, 0x1.dbf13de4fbbb4p+15, 0x1.120ec21b0444cp+15, 0x0p+0,
       0, 65536, 0},
      {kLeveling, 0x1p+3, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 0, 0, 0},
      {kLeveling, 0x1.7p+4, 0x1.194p+16, 0x1.77p+14, 0x0p+0, 0, 0, 0},
  };
  ExpectConfigs(tuner.tuned_configs(), want);
}

TEST(CamalTunerTest, TunePolicyRoundsGolden) {
  TunerOptions opts = TinyTreesOptions();
  opts.tune_policy = true;
  CamalTuner tuner(TinySetup(), opts);
  tuner.Train(GoldenMixes());
  EXPECT_EQ(tuner.samples().size(), 46u);
  EXPECT_EQ(tuner.sampling_cost_ns(), 0x1.cfd51beaad724p+33);
  const std::vector<TuningConfig> want = {
      {kLeveling, 0x1.2p+3, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 0, 0, 0},
      {kTiering, 0x1p+1, 0x1.c71e98ebb6993p+14, 0x1.053859c51259bp+16, 0x0p+0,
       0, 0, 0},
      {kLeveling, 0x1.3p+4, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 0, 0, 0},
  };
  ExpectConfigs(tuner.tuned_configs(), want);
}

TEST(CamalTunerTest, TuneMemoryOffGolden) {
  TunerOptions opts = TinyTreesOptions();
  opts.tune_memory = false;
  CamalTuner tuner(TinySetup(), opts);
  tuner.Train(GoldenMixes());
  EXPECT_EQ(tuner.samples().size(), 15u);
  EXPECT_EQ(tuner.sampling_cost_ns(), 0x1.91e26b37e2ab9p+32);
  const std::vector<TuningConfig> want = {
      {kLeveling, 0x1.2p+3, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 0, 0, 0},
      {kLeveling, 0x1.8p+1, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 0, 0, 0},
      {kLeveling, 0x1.28p+5, 0x1.d4cp+15, 0x1.194p+15, 0x0p+0, 0, 0, 0},
  };
  ExpectConfigs(tuner.tuned_configs(), want);
}

// An unseen mix takes the path DynamicTuner drives: every trained
// workload's recommendation scored under the model for the new mix,
// against the pruned-grid argmin, at the training scale and at 5x it.
TEST(CamalTunerTest, RecommendForUnseenMixGolden) {
  TunerOptions opts = TinyTreesOptions();
  opts.tune_policy = true;
  opts.tune_mc = true;
  CamalTuner tuner(TinySetup(), opts);
  tuner.Train(GoldenMixes());
  const model::WorkloadSpec unseen{0.3, 0.3, 0.2, 0.2};
  SystemSetup big = TinySetup();
  big.num_entries *= 5;
  big.total_memory_bits *= 5;
  const std::vector<TuningConfig> want = {
      {kLeveling, 0x1p+2, 0x1.c2p+15, 0x1.2cp+13, 0x1.c2p+14, 0, 0, 0},
      {kLeveling, 0x1p+2, 0x1.194p+18, 0x1.77p+15, 0x1.194p+17, 0, 0, 0},
      {kLeveling, 0x1.2p+3, 0x1.6ff5619298c71p+12, 0x1.6000a9e6d6739p+16,
       0x0p+0, 0, 0, 0},
  };
  ExpectConfigs({tuner.RecommendFor(unseen, TinySetup().ToModelParams()),
                 tuner.RecommendFor(unseen, big.ToModelParams()),
                 tuner.RecommendFor(model::WorkloadSpec{0.05, 0.05, 0.45, 0.45},
                                    TinySetup().ToModelParams())},
                want);
}

// The plain-AL query sequence (every sampled configuration, in order) and
// the base class's full-grid argmin recommendation.
TEST(PlainAlTunerTest, QuerySequenceGolden) {
  TunerOptions opts = TinyTreesOptions();
  opts.budget_per_workload = 6;
  opts.tune_mc = true;
  opts.k_mode = KTuningMode::kIndependent;
  PlainAlTuner tuner(TinySetup(), opts);
  tuner.Train({Mixed(), model::WorkloadSpec{0.05, 0.05, 0.1, 0.8}});
  EXPECT_EQ(tuner.samples().size(), 12u);
  EXPECT_EQ(tuner.sampling_cost_ns(), 0x1.bfd2b6ae61b6ap+31);
  std::vector<TuningConfig> queried;
  for (const Sample& s : tuner.samples()) queried.push_back(s.config);
  const std::vector<TuningConfig> want = {
      {kLeveling, 0x1.c8p+5, 0x1.46e76c826087ap+15, 0x1.fa1daa646f9a9p+14,
       0x1.54137c96cf563p+14, 5, 0, 0},
      {kLeveling, 0x1.9p+4, 0x1.cbb20e8f14831p+15, 0x1.dac7627fa08c8p+13,
       0x1.573831a206b3ap+14, 1, 0, 0},
      {kLeveling, 0x1.fp+4, 0x1.207bb39b8451dp+15, 0x1.9c0ab2e420454p+15,
       0x1.8bcccc02db475p+12, 8, 0, 0},
      {kLeveling, 0x1p+1, 0x0p+0, 0x1.77p+16, 0x0p+0, 1, 0, 0},
      {kLeveling, 0x1.ep+4, 0x1.77p+15, 0x1.2cp+15, 0x1.2cp+13, 4, 0, 0},
      {kLeveling, 0x1.5p+5, 0x1.77p+15, 0x1.c2p+14, 0x1.2cp+14, 5, 0, 0},
      {kLeveling, 0x1.8p+2, 0x1.a4d1acecbfac7p+15, 0x1.361ff5db91dbep+15,
       0x1.30e5d37ae77b1p+11, 6, 0, 0},
      {kLeveling, 0x1.ap+4, 0x1.d730adb6ae25fp+15, 0x1.564e4adc6e6b6p+13,
       0x1.82777f246c7e7p+14, 6, 0, 0},
      {kLeveling, 0x1.8p+2, 0x1.3ea4df9c02d9cp+15, 0x1.50227d5c34c26p+14,
       0x1.0749e1b5e2c51p+15, 4, 0, 0},
      {kLeveling, 0x1.4p+3, 0x1.c2p+15, 0x1.2cp+13, 0x1.c2p+14, 6, 0, 0},
      {kLeveling, 0x1.4p+3, 0x1.068p+16, 0x1.2cp+13, 0x1.2cp+14, 3, 0, 0},
      {kLeveling, 0x1.2p+4, 0x1.068p+16, 0x1.2cp+13, 0x1.2cp+14, 3, 0, 0},
  };
  ExpectConfigs(queried, want);
  ExpectConfigs({tuner.Recommend(Mixed())},
                {{kLeveling, 0x1p+3, 0x1.ec3p+15, 0x1.af4p+13, 0x1.2cp+14, 4, 0,
                  0}});
}

TEST(PlainAlTunerTest, RespectsBudget) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.budget_per_workload = 6;
  PlainAlTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  EXPECT_EQ(tuner.samples().size(), 6u);
}

TEST(PlainAlTunerTest, AvoidsResamplingSamePoint) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.budget_per_workload = 8;
  PlainAlTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  const auto& samples = tuner.samples();
  for (size_t i = 0; i < samples.size(); ++i) {
    for (size_t j = i + 1; j < samples.size(); ++j) {
      EXPECT_FALSE(SameConfig(samples[i].config, samples[j].config))
          << i << " vs " << j;
    }
  }
}

TEST(GridTunerTest, UniformCoverage) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.budget_per_workload = 9;
  GridTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  EXPECT_EQ(tuner.samples().size(), 9u);
  // The grid spans the T range rather than clustering.
  double t_min = 1e9, t_max = 0;
  for (const Sample& s : tuner.samples()) {
    t_min = std::min(t_min, s.config.size_ratio);
    t_max = std::max(t_max, s.config.size_ratio);
  }
  EXPECT_LE(t_min, 3.0);
  EXPECT_GE(t_max, 10.0);
}

TEST(BayesTunerTest, RunsWithinBudgetAndFitsModel) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  opts.budget_per_workload = 6;
  BayesOptTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  EXPECT_EQ(tuner.samples().size(), 6u);
  EXPECT_TRUE(tuner.has_model());
  const TuningConfig c = tuner.Recommend(Mixed());
  EXPECT_GE(c.size_ratio, 2.0);
}

TEST(UncertaintyTest, ZeroRhoEqualsPlainRecommendation) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  util::Random rng(3);
  const TuningConfig plain = tuner.Recommend(Mixed());
  const TuningConfig robust =
      RecommendUnderUncertainty(tuner, Mixed(), 0.0, 10, &rng);
  EXPECT_DOUBLE_EQ(plain.size_ratio, robust.size_ratio);
}

TEST(UncertaintyTest, ProducesValidConfigUnderUncertainty) {
  const SystemSetup setup = TinySetup();
  TunerOptions opts;
  opts.model_kind = ModelKind::kPoly;
  CamalTuner tuner(setup, opts);
  tuner.Train({Mixed()});
  util::Random rng(3);
  const TuningConfig c =
      RecommendUnderUncertainty(tuner, Mixed(), 1.0, 8, &rng);
  EXPECT_GE(c.size_ratio, 2.0);
  EXPECT_GE(c.mb_bits, 0.0);
}

TEST(GroupSamplingTest, NeighborhoodShapes) {
  const auto pairs = JointTkNeighborhood(10.0, 2, 6, 40.0);
  EXPECT_EQ(pairs.size(), 6u);
  EXPECT_DOUBLE_EQ(pairs[0].first, 10.0);
  EXPECT_EQ(pairs[0].second, 2);
  for (const auto& [t, k] : pairs) {
    EXPECT_GE(t, 2.0);
    EXPECT_LE(t, 40.0);
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 8);
  }
}

}  // namespace
}  // namespace camal::tune
