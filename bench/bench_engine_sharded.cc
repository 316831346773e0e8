// Sharded serving sweep: throughput and engine-attributed latency across
// backends x shard counts x thread counts, in two serving modes:
//
//   serial — T independent tenants (one engine each, S shards per engine)
//            fanned across a T-worker pool via workload::ExecuteBatch;
//            each engine serves its batches serially. Wall-clock scales
//            with tenants, never with shards (cost = sum over shard
//            devices inside one caller thread).
//   async  — the same T tenants served one after another, each engine
//            fanning its batched ops across a shared pool of the same
//            `threads` workers (per-shard submission-list fan-out).
//            Wall-clock scales with min(shards, threads).
//
// Backends (the ROADMAP's multi-backend comparison):
//
//   sim  — engine::ShardedEngine over simulated devices. Latency/IO
//          metrics are simulated, bit-identical between modes and at any
//          thread count — only wall-clock moves.
//   file — engine::FileEngine over real files (O_DIRECT when the
//          filesystem allows). Latency metrics are real monotonic-clock
//          measurements; I/O counts are real (and deterministic given
//          the op stream), latencies vary run to run.
//
// Flags:
//   --shards=N    largest shard count swept (default 8; swept as 1,2,4,..N)
//   --threads=N   largest tenant/worker count swept (default 4)
//   --ops=N       operations per tenant (default 4000)
//   --entries=N   initially loaded entries per tenant (default 8000)
//   --mode=M      serial | async | both (default both)
//   --backend=B   sim | file | both (default sim: the historical sweep)
//   --workdir=P   base directory for file-backend run files (default:
//                 system temp dir; use a tmpfs path for CI smoke)
//   --arbiter=A   off | periodic — per-tenant memory arbitration
//                 (default off: the even-split baseline)
//   --qd=CSV      queue depths swept for file-backend cells (e.g.
//                 --qd=1,8,32; default: the --io-queue-depth value). Depth
//                 1 is the serial pread baseline; deeper rings overlap
//                 block reads via io_uring where the kernel supports it.
//                 Results and I/O counts are identical at every depth —
//                 the sweep shows pure wall-clock movement.
//   --skew=F      per-shard Zipf traffic hotness (default 0: uniform);
//                 shard s receives weight 1/(s+1)^F
//   --json PATH   also write the sweep as a JSON artifact
//   --quick       tiny scale for CI smoke

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "camal/memory_arbiter.h"
#include "engine/file_engine.h"
#include "engine/sharded_engine.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace camal::bench {
namespace {

struct SweepRow {
  const char* backend = "sim";
  /// Read-submission path actually engaged: "uring" when any shard holds a
  /// live ring, "pread" on the serial/fallback path, "sim" for the
  /// simulated backend (which issues no real reads).
  const char* io_backend = "sim";
  uint32_t io_queue_depth = 1;
  const char* mode = "serial";
  const char* arbiter = "off";
  double skew = 0.0;
  size_t shards = 0;
  size_t threads = 0;
  double wall_ms = 0.0;
  double ops_per_sec = 0.0;
  double sim_mean_us = 0.0;
  double sim_p99_us = 0.0;
  double sim_ios_per_op = 0.0;
  /// Measured-vs-predicted per-op I/O residuals (tenant 0, per cost
  /// channel): the engine's op-cost profiler windows against the
  /// closed-form model's expectation at this (mix, config) — the
  /// sim-vs-model gap `bench_calibration`'s corrector fits away. 0 for
  /// channels that served no ops.
  double point_ios_residual = 0.0;
  double range_ios_residual = 0.0;
  double write_ios_residual = 0.0;
  /// Per-shard observability of tenant 0 after the run: arbitrated (or
  /// even-split) memory budgets, live entries, and each shard's simulated
  /// cost clock — the accessors the arbiter itself prices with.
  std::vector<uint64_t> shard_budget_bits;
  std::vector<uint64_t> shard_entries;
  std::vector<double> shard_sim_ms;
};

struct SweepConfig {
  size_t max_shards = 8;
  size_t max_threads = 4;
  size_t ops_per_tenant = 4000;
  uint64_t entries_per_tenant = 8000;
  bool run_serial = true;
  bool run_async = true;
  bool run_sim = true;
  bool run_file = false;
  std::string workdir;  // file backend; empty = system temp dir
  bool arbiter = false;
  double skew = 0.0;
  /// Queue depths swept for file cells (--qd=CSV); sim cells ignore it.
  std::vector<uint32_t> qd_sweep;
};

SweepRow RunCell(const SweepConfig& cfg, size_t shards, size_t threads,
                 bool async, bool file_backend, uint32_t queue_depth) {
  tune::SystemSetup setup;
  setup.num_entries = cfg.entries_per_tenant;
  setup.total_memory_bits = 16 * cfg.entries_per_tenant;
  setup.num_shards = shards;
  const tune::TuningConfig config = tune::MonkeyDefaultConfig(setup);
  const workload::KeySpace keys(setup.num_entries, setup.seed);
  const model::WorkloadSpec mix{0.2, 0.3, 0.2, 0.3};

  // T tenants, each its own engine over its own device(s)/file set(s):
  // sim jitter streams are derived per tenant so tenants are independent
  // but deterministic; file tenants each own a unique directory.
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  std::vector<std::unique_ptr<engine::StorageEngine>> tenants;
  std::vector<std::unique_ptr<tune::MemoryArbiter>> arbiters;
  std::vector<workload::ExecuteJob> jobs;
  for (size_t t = 0; t < threads; ++t) {
    if (file_backend) {
      engine::FileEngineConfig fcfg;
      if (!cfg.workdir.empty()) {
        fcfg.workdir = cfg.workdir + "/cell_" +
                       std::to_string(engine::FileEngine::NextUniqueId());
      }
      fcfg.io_queue_depth = queue_depth;
      auto fe = std::make_unique<engine::FileEngine>(
          shards, config.ToOptions(setup), fcfg);
      if (async) fe->set_pool(pool.get());
      tenants.push_back(std::move(fe));
    } else {
      auto se = std::make_unique<engine::ShardedEngine>(
          shards, config.ToOptions(setup),
          setup.MakeDeviceConfig(/*salt=*/t));
      // Async mode: the engine fans each batch across the shared pool
      // (shard-level parallelism); tenants then run one at a time.
      if (async) se->set_pool(pool.get());
      tenants.push_back(std::move(se));
    }
    workload::BulkLoad(tenants.back().get(), keys);
    // Residual columns compare the model against the *measured phase*
    // only: drop whatever the profiler saw during ingest.
    tenants.back()->ResetOpCostWindows();
    workload::ExecuteJob job;
    job.engine = tenants.back().get();
    job.spec = mix;
    job.config.num_ops = cfg.ops_per_tenant;
    job.config.generator.scan_len = setup.scan_len;
    // Hot/cold shard traffic (inert at skew 0).
    job.config.generator.shard_skew = cfg.skew;
    job.config.generator.num_shards = shards;
    job.config.seed = 1000 + t;
    if (cfg.arbiter && shards > 1) {
      // One arbiter per tenant engine, riding the batch pipeline; a few
      // rounds fit in the per-tenant op budget at any --ops value.
      tune::ArbiterOptions arb_opts;
      arb_opts.period_ops = std::max<size_t>(128, cfg.ops_per_tenant / 8);
      arbiters.push_back(std::make_unique<tune::MemoryArbiter>(
          setup, config.ToOptions(setup), shards, arb_opts));
      job.config.hook = arbiters.back().get();
    }
    // Steady-state updates only: the shared KeySpace stays immutable.
    job.keys = const_cast<workload::KeySpace*>(&keys);
    jobs.push_back(job);
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<workload::ExecutionResult> results;
  if (async) {
    // Tenant-level serial, shard-level parallel.
    for (const workload::ExecuteJob& job : jobs) {
      results.push_back(
          workload::Execute(job.engine, job.spec, job.config, job.keys));
    }
  } else {
    // Tenant-level parallel, shard-level serial.
    results = workload::ExecuteBatch(jobs, pool.get());
  }
  const auto stop = std::chrono::steady_clock::now();

  SweepRow row;
  row.backend = file_backend ? "file" : "sim";
  if (file_backend) {
    row.io_backend =
        static_cast<const engine::FileEngine&>(*tenants.front()).io_backend();
    row.io_queue_depth = queue_depth;
  }
  row.mode = async ? "async" : "serial";
  row.arbiter = (cfg.arbiter && shards > 1) ? "periodic" : "off";
  row.skew = cfg.skew;
  row.shards = shards;
  row.threads = threads;
  row.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  const double total_ops =
      static_cast<double>(cfg.ops_per_tenant) * static_cast<double>(threads);
  row.ops_per_sec = total_ops / (row.wall_ms / 1e3);
  for (const workload::ExecutionResult& r : results) {
    row.sim_mean_us += r.MeanLatencyNs() / 1e3;
    row.sim_p99_us += r.P99LatencyNs() / 1e3;
    row.sim_ios_per_op += r.IosPerOp();
  }
  const double n = static_cast<double>(results.size());
  row.sim_mean_us /= n;
  row.sim_p99_us /= n;
  row.sim_ios_per_op /= n;

  // Measured-vs-predicted residual columns (tenant 0): the closed-form
  // model's per-channel expectation against the profiler windows the run
  // just filled.
  {
    const engine::StorageEngine& t0 = *tenants.front();
    const model::CostModel cm(setup.ToModelParams());
    const model::ModelConfig mconf = config.ToModelConfig();
    const model::WorkloadSpec wn = mix.Normalized();
    const engine::OpCostWindow points =
        t0.OpCostWindowTotal(engine::OpKind::kGet);
    engine::OpCostWindow writes = t0.OpCostWindowTotal(engine::OpKind::kPut);
    writes += t0.OpCostWindowTotal(engine::OpKind::kDelete);
    const engine::OpCostWindow ranges =
        t0.OpCostWindowTotal(engine::OpKind::kScan);
    const double point_weight = wn.v + wn.r;
    const double point_pred =
        point_weight <= 0.0
            ? 0.0
            : (wn.v * cm.ZeroResultLookupCost(mconf) +
               wn.r * cm.NonZeroResultLookupCost(mconf)) /
                  point_weight;
    if (points.ops > 0) {
      row.point_ios_residual = points.IosPerOp() - point_pred;
    }
    if (ranges.ops > 0) {
      row.range_ios_residual = ranges.IosPerOp() - cm.RangeLookupCost(mconf);
    }
    if (writes.ops > 0) {
      row.write_ios_residual = writes.IosPerOp() - cm.WriteCost(mconf);
    }
  }

  // Per-shard columns from tenant 0 (tenants are statistically identical;
  // one tenant keeps the artifact small): where the budget ended up, how
  // many entries each shard holds, and each shard's cost clock.
  const engine::StorageEngine& t0 = *tenants.front();
  for (size_t s = 0; s < t0.NumShards(); ++s) {
    row.shard_budget_bits.push_back(t0.ShardBudgetSnapshot(s).TotalBits());
    row.shard_entries.push_back(t0.ShardEntries(s));
    row.shard_sim_ms.push_back(t0.ShardCostSnapshot(s).elapsed_ns / 1e6);
  }
  return row;
}

void WriteJson(const std::string& path, const SweepConfig& cfg,
               const std::vector<SweepRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"engine_sharded\",\n");
  std::fprintf(f, "  \"ops_per_tenant\": %zu,\n", cfg.ops_per_tenant);
  std::fprintf(f, "  \"entries_per_tenant\": %llu,\n",
               static_cast<unsigned long long>(cfg.entries_per_tenant));
  std::fprintf(f, "  \"rows\": [\n");
  const auto print_u64_array = [f](const char* key,
                                   const std::vector<uint64_t>& values) {
    std::fprintf(f, "\"%s\": [", key);
    for (size_t i = 0; i < values.size(); ++i) {
      std::fprintf(f, "%s%llu", i == 0 ? "" : ", ",
                   static_cast<unsigned long long>(values[i]));
    }
    std::fprintf(f, "]");
  };
  const auto print_double_array = [f](const char* key,
                                      const std::vector<double>& values) {
    std::fprintf(f, "\"%s\": [", key);
    for (size_t i = 0; i < values.size(); ++i) {
      std::fprintf(f, "%s%.3f", i == 0 ? "" : ", ", values[i]);
    }
    std::fprintf(f, "]");
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"io_backend\": \"%s\", "
                 "\"io_queue_depth\": %u, \"mode\": \"%s\", "
                 "\"arbiter\": \"%s\", "
                 "\"skew\": %.3f, \"shards\": %zu, \"threads\": %zu, "
                 "\"wall_ms\": %.3f, \"ops_per_sec\": %.1f, "
                 "\"sim_mean_us\": %.3f, \"sim_p99_us\": %.3f, "
                 "\"sim_ios_per_op\": %.4f, "
                 "\"point_ios_residual\": %.4f, "
                 "\"range_ios_residual\": %.4f, "
                 "\"write_ios_residual\": %.4f, ",
                 r.backend, r.io_backend, r.io_queue_depth, r.mode, r.arbiter,
                 r.skew, r.shards, r.threads, r.wall_ms, r.ops_per_sec,
                 r.sim_mean_us, r.sim_p99_us, r.sim_ios_per_op,
                 r.point_ios_residual, r.range_ios_residual,
                 r.write_ios_residual);
    print_u64_array("shard_budget_bits", r.shard_budget_bits);
    std::fprintf(f, ", ");
    print_u64_array("shard_entries", r.shard_entries);
    std::fprintf(f, ", ");
    print_double_array("shard_sim_ms", r.shard_sim_ms);
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[bench] wrote %s\n", path.c_str());
}

void Run(const SweepConfig& cfg, const std::string& json_path) {
  std::printf("Sharded serving engine: %zu ops/tenant over %llu entries, "
              "mix v/r/q/w = 0.2/0.3/0.2/0.3\n"
              "serial = tenant-parallel, shard-serial; "
              "async = tenant-serial, shard-parallel (same total ops)\n"
              "sim = simulated device costs; file = real-IO costs "
              "(monotonic clocks)\n"
              "arbiter=%s, shard skew=%.2f\n\n",
              cfg.ops_per_tenant,
              static_cast<unsigned long long>(cfg.entries_per_tenant),
              cfg.arbiter ? "periodic" : "off", cfg.skew);
  std::printf("%7s %7s %4s %7s %8s %9s %11s %12s %11s %8s\n", "backend", "io",
              "qd", "shards", "tenants", "wall ms", "ops/sec", "mean us",
              "p99 us", "ios/op");
  PrintRule(96);

  // File cells sweep the requested queue depths; sim cells (no real reads
  // to overlap) run once at the nominal depth 1.
  std::vector<uint32_t> qds = cfg.qd_sweep;
  if (qds.empty()) {
    qds.push_back(static_cast<uint32_t>(std::max(1, IoQueueDepth())));
  }

  std::vector<SweepRow> rows;
  for (int file = 0; file <= 1; ++file) {
    if (file == 0 && !cfg.run_sim) continue;
    if (file == 1 && !cfg.run_file) continue;
    for (int async = 0; async <= 1; ++async) {
      if (async == 0 && !cfg.run_serial) continue;
      if (async == 1 && !cfg.run_async) continue;
      for (size_t shards = 1; shards <= cfg.max_shards; shards *= 2) {
        for (size_t threads = 1; threads <= cfg.max_threads; threads *= 2) {
          const size_t num_qds = file == 1 ? qds.size() : 1;
          for (size_t qi = 0; qi < num_qds; ++qi) {
          const SweepRow row = RunCell(cfg, shards, threads, async == 1,
                                       file == 1, qds[qi]);
          std::printf(
              "%7s %7s %4u %7zu %8zu %9.1f %11.0f %12.2f %11.2f %8.3f\n",
              row.backend, row.io_backend, row.io_queue_depth, row.shards,
              row.threads, row.wall_ms, row.ops_per_sec, row.sim_mean_us,
              row.sim_p99_us, row.sim_ios_per_op);
          if (cfg.arbiter && row.shards > 1) {
            // Where tenant 0's budget settled (even split when no round
            // moved memory).
            std::printf("        budgets Kb:");
            for (uint64_t bits : row.shard_budget_bits) {
              std::printf(" %.0f", static_cast<double>(bits) / 1024.0);
            }
            std::printf("\n");
          }
          rows.push_back(row);
          }
        }
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

  camal::bench::SweepConfig cfg;
  // --threads / --shards raise the *largest* swept values; with neither
  // given, the documented defaults (8 shards x 4 tenants) apply.
  if (camal::util::GlobalThreads() > 1) {
    cfg.max_threads = static_cast<size_t>(camal::util::GlobalThreads());
  }
  if (camal::bench::Shards() > 1) cfg.max_shards = camal::bench::Shards();

  // Strict numeric parse, same policy as InitBenchThreads: a garbled value
  // must abort, not silently become a tiny (or zero) sweep.
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
      cfg.max_shards = std::min<size_t>(cfg.max_shards, 4);
      cfg.max_threads = std::min<size_t>(cfg.max_threads, 4);
      cfg.ops_per_tenant = 1500;
      cfg.entries_per_tenant = 4000;
    } else if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      if (!parse_count("--ops", argv[i] + 6, &value)) return 1;
      cfg.ops_per_tenant = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--entries=", 10) == 0) {
      if (!parse_count("--entries", argv[i] + 10, &value)) return 1;
      cfg.entries_per_tenant = value;
    } else if (std::strncmp(argv[i], "--mode=", 7) == 0) {
      const char* mode = argv[i] + 7;
      if (std::strcmp(mode, "serial") == 0) {
        cfg.run_async = false;
      } else if (std::strcmp(mode, "async") == 0) {
        cfg.run_serial = false;
      } else if (std::strcmp(mode, "both") != 0) {
        std::fprintf(stderr,
                     "invalid --mode value '%s' (serial|async|both)\n", mode);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      const char* backend = argv[i] + 10;
      if (std::strcmp(backend, "sim") == 0) {
        cfg.run_file = false;
      } else if (std::strcmp(backend, "file") == 0) {
        cfg.run_sim = false;
        cfg.run_file = true;
      } else if (std::strcmp(backend, "both") == 0) {
        cfg.run_file = true;
      } else {
        std::fprintf(stderr, "invalid --backend value '%s' (sim|file|both)\n",
                     backend);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--workdir=", 10) == 0) {
      cfg.workdir = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--arbiter=", 10) == 0) {
      const char* arb = argv[i] + 10;
      if (std::strcmp(arb, "periodic") == 0) {
        cfg.arbiter = true;
      } else if (std::strcmp(arb, "off") != 0) {
        std::fprintf(stderr, "invalid --arbiter value '%s' (off|periodic)\n",
                     arb);
        return 1;
      }
    } else if (std::strncmp(argv[i], "--qd=", 5) == 0) {
      const char* p = argv[i] + 5;
      cfg.qd_sweep.clear();
      while (*p != '\0') {
        char* end = nullptr;
        errno = 0;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v < 1 || v > 1024 || errno == ERANGE ||
            (*end != '\0' && *end != ',')) {
          std::fprintf(stderr,
                       "invalid --qd value '%s' (want a CSV of depths in "
                       "[1, 1024], e.g. --qd=1,8,32)\n",
                       argv[i] + 5);
          return 1;
        }
        cfg.qd_sweep.push_back(static_cast<uint32_t>(v));
        p = *end == ',' ? end + 1 : end;
      }
      if (cfg.qd_sweep.empty()) {
        std::fprintf(stderr, "--qd needs at least one depth\n");
        return 1;
      }
    } else if (std::strncmp(argv[i], "--skew=", 7) == 0) {
      char* end = nullptr;
      errno = 0;
      const double skew = std::strtod(argv[i] + 7, &end);
      if (end == argv[i] + 7 || *end != '\0' || skew < 0.0 ||
          errno == ERANGE) {
        std::fprintf(stderr, "invalid --skew value '%s'\n", argv[i] + 7);
        return 1;
      }
      cfg.skew = skew;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  camal::bench::Run(cfg, json_path);
  return 0;
}
