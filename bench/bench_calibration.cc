// Closes the sim-vs-real loop: measured-cost calibration and online
// config racing against the closed-form model's recommendation.
//
// Sweep: backend (sim | file) x calibration (off | fit) x racing
// (off | on), all against the PR 5 MonkeyDefaultConfig baseline.
//
// Each cell probes a small candidate set — the baseline, the closed-form
// recommendation, and shape perturbations of it — with short measured
// windows on the cell's backend. With calibration *fit*, the probes'
// (predicted, measured) per-channel pairs train a `ResidualCorrector`,
// and the tuned pick minimizes *corrected* cost over the candidates,
// with a do-no-harm rule: a calibrated pick that measures worse than the
// uncalibrated recommendation is discarded for the best-measured probe
// (the uncalibrated recommendation is itself a probe, so the calibrated
// cell's measured ios/op never exceeds the uncalibrated model pick's).
// With racing *on*, a `DynamicTuner` additionally races the cell's pick
// against the incumbent on live traffic and reports the race counters.
//
// With calibration and racing both off, the sim cell reproduces the
// uncalibrated pipeline bit for bit (the corrector is never constructed;
// the racing path is never entered).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "camal/dynamic_tuner.h"
#include "camal/residual_corrector.h"
#include "engine/file_engine.h"
#include "engine/sharded_engine.h"
#include "model/calibrated_cost_model.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::bench {
namespace {

struct CalibConfig {
  uint64_t entries = 8000;
  size_t probe_ops = 2000;
  size_t phase_ops = 6000;
  size_t shards = 2;
  bool run_sim = true;
  bool run_file = true;
  std::string workdir;  // file backend; empty = system temp dir
};

struct CalibRow {
  const char* backend = "sim";
  const char* calibration = "off";
  const char* racing = "off";
  /// How the tuned pick was chosen: "model" (closed-form argmin),
  /// "calibrated" (corrected-cost argmin), or "measured" (do-no-harm
  /// fallback to the best-measured probe).
  const char* pick = "model";
  /// Probe-measured ios/op of the MonkeyDefault baseline, the
  /// uncalibrated closed-form recommendation, and the cell's tuned pick
  /// (same probe protocol for all three, so the columns compare).
  double baseline_ios_per_op = 0.0;
  double model_ios_per_op = 0.0;
  double tuned_ios_per_op = 0.0;
  double tuned_mean_us = 0.0;
  int corrector_channels = 0;
  /// Dynamic-phase results (racing dimension; 0 with racing off).
  double phase_ios_per_op = 0.0;
  size_t races_started = 0;
  size_t race_switches = 0;
  size_t race_holds = 0;
  size_t reconfigurations = 0;
};

tune::SystemSetup MakeSetup(const CalibConfig& cfg, bool file_backend) {
  tune::SystemSetup setup;
  setup.num_entries = cfg.entries;
  setup.total_memory_bits = 16 * cfg.entries;
  setup.num_shards = cfg.shards;
  setup.train_ops = cfg.probe_ops;
  setup.eval_ops = cfg.probe_ops;
  if (file_backend) {
    setup.backend = tune::EngineBackend::kFile;
    setup.file_workdir = cfg.workdir;
    setup.io_queue_depth = std::max(1, IoQueueDepth());
  }
  return setup;
}

/// The probe candidate set: baseline, the closed-form recommendation,
/// and shape perturbations of the recommendation (T one notch each way,
/// Bloom two bits/key lighter with the freed bits in the buffer).
std::vector<tune::TuningConfig> ProbeCandidates(
    const tune::SystemSetup& setup, const tune::TuningConfig& baseline,
    const tune::TuningConfig& recommended) {
  std::vector<tune::TuningConfig> out = {baseline, recommended};
  const auto add_unique = [&out](const tune::TuningConfig& c) {
    for (const tune::TuningConfig& have : out) {
      if (have.size_ratio == c.size_ratio && have.mf_bits == c.mf_bits &&
          have.mb_bits == c.mb_bits && have.policy == c.policy) {
        return;
      }
    }
    out.push_back(c);
  };
  tune::TuningConfig t_up = recommended;
  t_up.size_ratio = recommended.size_ratio + 2.0;
  add_unique(t_up);
  tune::TuningConfig t_down = recommended;
  t_down.size_ratio = std::max(2.0, recommended.size_ratio - 2.0);
  add_unique(t_down);
  tune::TuningConfig lighter = recommended;
  const double shift =
      std::min(lighter.mf_bits, 2.0 * static_cast<double>(setup.num_entries));
  lighter.mf_bits -= shift;
  lighter.mb_bits += shift;
  add_unique(lighter);
  return out;
}

CalibRow RunCell(const CalibConfig& cfg, bool file_backend, bool calibrate,
                 bool race) {
  const tune::SystemSetup setup = MakeSetup(cfg, file_backend);
  const model::SystemParams params = setup.ToModelParams();
  const model::WorkloadSpec mix{0.2, 0.3, 0.2, 0.3};
  const tune::TuningConfig baseline = tune::MonkeyDefaultConfig(setup);

  CalibRow row;
  row.backend = file_backend ? "file" : "sim";
  row.calibration = calibrate ? "fit" : "off";
  row.racing = race ? "on" : "off";

  // The uncalibrated closed-form recommendation (the model's pick).
  tune::TunerOptions copts;
  const tune::ClassicTuner classic(setup, copts);
  const tune::TuningConfig recommended = classic.RecommendFor(mix, params);

  // Probe every candidate with the same short measured window. The probe
  // measurements serve double duty: fair measured comparison columns AND
  // (with calibration on) the corrector's per-channel training pairs.
  const std::vector<tune::TuningConfig> candidates =
      ProbeCandidates(setup, baseline, recommended);
  const tune::Evaluator evaluator(setup);
  std::vector<tune::Measurement> probes;
  probes.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    probes.push_back(
        evaluator.Measure(mix, candidates[i], cfg.probe_ops, /*salt=*/i));
  }
  row.baseline_ios_per_op = probes[0].ios_per_op;
  row.model_ios_per_op = probes[1].ios_per_op;

  size_t tuned = 1;  // calibration off: the model's pick stands
  std::shared_ptr<tune::ResidualCorrector> corrector;
  if (calibrate) {
    tune::ResidualCorrectorOptions ropts;
    ropts.seed = setup.seed;
    corrector = std::make_shared<tune::ResidualCorrector>(ropts);
    for (const tune::Measurement& m : probes) {
      if (m.point_ios_measured > 0.0) {
        corrector->Observe(model::CostChannel::kPointLookup,
                           m.point_ios_predicted, m.point_ios_measured);
      }
      if (m.range_ios_measured > 0.0) {
        corrector->Observe(model::CostChannel::kRangeLookup,
                           m.range_ios_predicted, m.range_ios_measured);
      }
      if (m.write_ios_measured > 0.0) {
        corrector->Observe(model::CostChannel::kWrite, m.write_ios_predicted,
                           m.write_ios_measured);
      }
    }
    corrector->Fit();
    for (int ch = 0; ch < static_cast<int>(model::kNumCostChannels); ++ch) {
      if (corrector->fitted(static_cast<model::CostChannel>(ch))) {
        ++row.corrector_channels;
      }
    }

    // The calibrated pick: corrected-cost argmin over the probed set.
    const model::CalibratedCostModel cm(params, corrector);
    const model::WorkloadSpec wn = mix.Normalized();
    size_t best = tuned;
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < candidates.size(); ++i) {
      const double cost = cm.OpCost(wn, candidates[i].ToModelConfig());
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    row.pick = "calibrated";
    tuned = best;

    // Do-no-harm: a calibrated pick the probes already measured worse
    // than the uncalibrated recommendation is a corrector artifact —
    // fall back to the best-*measured* probe (which can only match or
    // beat the model pick, since the model pick was probed too).
    if (probes[tuned].ios_per_op >
        probes[1].ios_per_op + 1e-12) {
      size_t measured_best = 0;
      for (size_t i = 1; i < probes.size(); ++i) {
        if (probes[i].ios_per_op <
            probes[measured_best].ios_per_op) {
          measured_best = i;
        }
      }
      tuned = measured_best;
      row.pick = "measured";
    }
  }
  row.tuned_ios_per_op = probes[tuned].ios_per_op;
  row.tuned_mean_us = probes[tuned].mean_latency_ns / 1e3;

  if (race) {
    // Dynamic phase: a live engine at the baseline config, retuned by
    // the (optionally calibrated) closed-form recommender, with racing
    // measuring every recommendation against the incumbent before it
    // sticks.
    workload::KeySpace keys(setup.num_entries, setup.seed);
    std::unique_ptr<engine::StorageEngine> engine;
    if (file_backend) {
      engine::FileEngineConfig fcfg;
      if (!cfg.workdir.empty()) {
        fcfg.workdir = cfg.workdir + "/race_" +
                       std::to_string(engine::FileEngine::NextUniqueId());
      }
      engine = std::make_unique<engine::FileEngine>(
          setup.num_shards, baseline.ToOptions(setup), fcfg);
    } else {
      engine = std::make_unique<engine::ShardedEngine>(
          setup.num_shards, baseline.ToOptions(setup),
          setup.MakeDeviceConfig());
    }
    workload::BulkLoad(engine.get(), keys);

    tune::TunerOptions dopts;
    dopts.cost_corrector = corrector;  // null with calibration off
    const auto dtuner = std::make_shared<tune::ClassicTuner>(setup, dopts);
    tune::DynamicTuner::Params dparams;
    // Fire early but not repeatedly (a re-fire abandons a running race),
    // and race with short windows so races settle well inside even the
    // --quick phase (a race needs ~candidates x window_ops measured ops
    // per shard after the detector's first fire).
    dparams.window_ops = 256;
    dparams.tau = 0.20;
    tune::DynamicTuner dynamic(
        [dtuner](const model::WorkloadSpec& w,
                 const model::SystemParams& target) {
          return dtuner->RecommendFor(w, target);
        },
        setup, dparams);
    tune::RacingOptions ropts;
    ropts.enabled = true;
    ropts.window_ops = 96;
    ropts.min_rounds = 1;
    dynamic.set_racing(ropts);

    const workload::ExecutionResult phase =
        dynamic.RunPhase(engine.get(), &keys, mix, cfg.phase_ops, setup.seed);
    row.phase_ios_per_op = phase.IosPerOp();
    row.races_started = dynamic.races_started();
    row.race_switches = dynamic.race_switches();
    row.race_holds = dynamic.race_holds();
    row.reconfigurations = dynamic.reconfigurations();
  }
  return row;
}

void WriteJson(const std::string& path, const CalibConfig& cfg,
               const std::vector<CalibRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"calibration\",\n");
  std::fprintf(f, "  \"entries\": %llu,\n",
               static_cast<unsigned long long>(cfg.entries));
  std::fprintf(f, "  \"probe_ops\": %zu,\n", cfg.probe_ops);
  std::fprintf(f, "  \"phase_ops\": %zu,\n", cfg.phase_ops);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const CalibRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"backend\": \"%s\", \"calibration\": \"%s\", "
        "\"racing\": \"%s\", \"pick\": \"%s\", "
        "\"baseline_ios_per_op\": %.4f, \"model_ios_per_op\": %.4f, "
        "\"tuned_ios_per_op\": %.4f, \"tuned_mean_us\": %.3f, "
        "\"corrector_channels\": %d, \"phase_ios_per_op\": %.4f, "
        "\"races_started\": %zu, \"race_switches\": %zu, "
        "\"race_holds\": %zu, \"reconfigurations\": %zu}%s\n",
        r.backend, r.calibration, r.racing, r.pick, r.baseline_ios_per_op,
        r.model_ios_per_op, r.tuned_ios_per_op, r.tuned_mean_us,
        r.corrector_channels, r.phase_ios_per_op, r.races_started,
        r.race_switches, r.race_holds, r.reconfigurations,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[bench] wrote %s\n", path.c_str());
}

void Run(const CalibConfig& cfg, const std::string& json_path) {
  std::printf(
      "Sim-vs-real calibration: backend x calibration(off|fit) x "
      "racing(off|on) vs the MonkeyDefault baseline\n"
      "%llu entries, %zu probe ops, %zu phase ops, %zu shards\n\n",
      static_cast<unsigned long long>(cfg.entries), cfg.probe_ops,
      cfg.phase_ops, cfg.shards);
  std::printf("%7s %6s %7s %9s %10s %9s %9s %7s %7s %6s\n", "backend",
              "calib", "racing", "pick", "base io/op", "model", "tuned",
              "races", "switch", "hold");
  PrintRule(92);

  std::vector<CalibRow> rows;
  for (int file = 0; file <= 1; ++file) {
    if (file == 0 && !cfg.run_sim) continue;
    if (file == 1 && !cfg.run_file) continue;
    for (int calib = 0; calib <= 1; ++calib) {
      for (int race = 0; race <= 1; ++race) {
        const CalibRow row =
            RunCell(cfg, file == 1, calib == 1, race == 1);
        std::printf("%7s %6s %7s %9s %10.3f %9.3f %9.3f %7zu %7zu %6zu\n",
                    row.backend, row.calibration, row.racing, row.pick,
                    row.baseline_ios_per_op, row.model_ios_per_op,
                    row.tuned_ios_per_op, row.races_started,
                    row.race_switches, row.race_holds);
        rows.push_back(row);
      }
    }
  }
  if (!json_path.empty()) WriteJson(json_path, cfg, rows);
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreads(&argc, argv);
  const std::string json_path = camal::bench::TakeJsonFlag(&argc, argv);

  camal::bench::CalibConfig cfg;
  if (camal::bench::Shards() > 1) cfg.shards = camal::bench::Shards();

  const auto parse_count = [](const char* flag, const char* s,
                              uint64_t* out) {
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || v <= 0 || errno == ERANGE) {
      std::fprintf(stderr, "invalid %s value '%s'\n", flag, s);
      return false;
    }
    *out = static_cast<uint64_t>(v);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    uint64_t value = 0;
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.entries = 4000;
      cfg.probe_ops = 1200;
      cfg.phase_ops = 3000;
    } else if (std::strncmp(argv[i], "--entries=", 10) == 0) {
      if (!parse_count("--entries", argv[i] + 10, &value)) return 1;
      cfg.entries = value;
    } else if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      if (!parse_count("--ops", argv[i] + 6, &value)) return 1;
      cfg.probe_ops = static_cast<size_t>(value);
      cfg.phase_ops = static_cast<size_t>(3 * value);
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      const char* backend = argv[i] + 10;
      if (std::strcmp(backend, "sim") == 0) {
        cfg.run_file = false;
      } else if (std::strcmp(backend, "file") == 0) {
        cfg.run_sim = false;
      } else if (std::strcmp(backend, "both") != 0) {
        std::fprintf(stderr, "invalid --backend value '%s' (sim|file|both)\n",
                     backend);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--workdir=", 10) == 0) {
      cfg.workdir = argv[i] + 10;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }

  camal::bench::Run(cfg, json_path);
  return 0;
}
