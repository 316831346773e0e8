// Durability-cost and recovery-speed bench: how much does the manifest +
// WAL layer tax ingest, and how much faster is manifest-replay recovery
// than rebuilding the tree from scratch?
//
// Each cell ingests N entries into a FileEngine (ExecuteOps batches, so
// the WAL group-commits on batch boundaries), closes cleanly, and — for
// durable cells — times a `reopen=true` construction: manifest replay
// restores every run's fences and Bloom bits from metadata and the WAL
// tail refills the memtables, with zero run rebuilds. The rebuild
// comparison is the cell's own ingest wall time (that is exactly what a
// non-durable engine must redo after a restart).
//
// Expected shape: wal=none adds a few percent over durable-off (one
// buffered manifest/WAL write per flush/batch); wal=batch adds an fsync
// per batch; wal=always pays an fsync per op and dominates. Recovery is
// orders of magnitude faster than rebuild and roughly flat in N (it
// scales with run *count* and WAL tail size, not with data volume).
//
// Flags:
//   --entries=N    entries ingested per cell (default 120000)
//   --batch=N      ops per ExecuteOps batch = WAL group-commit window
//                  (default 512)
//   --workdir=P    base directory for run files (default: system temp;
//                  CI passes /dev/shm to keep fsync latency honest-ish
//                  without hitting a spinning device)
//   --json PATH    also write the sweep as a JSON artifact
//   --quick        tiny scale for CI smoke

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "engine/file_engine.h"

namespace camal::bench {
namespace {

namespace fs = std::filesystem;

struct RecoveryBenchConfig {
  uint64_t entries = 120000;
  size_t batch = 512;
  std::string workdir;
};

struct RecoveryRow {
  const char* mode = "";  // off | none | batch | always
  uint64_t entries = 0;
  size_t shards = 0;
  size_t runs = 0;
  uint64_t block_writes = 0;
  double ingest_ms = 0.0;
  double recover_ms = 0.0;  // 0 for the durable-off row (nothing to replay)
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

lsm::Options BenchOptions() {
  lsm::Options options;
  options.buffer_bytes = 16 * 1024;  // frequent flushes: many runs to recover
  options.size_ratio = 4.0;
  options.bloom_bits = 8 * 16 * 1024;
  return options;
}

std::string CellDir(const RecoveryBenchConfig& cfg, const char* mode) {
  const std::string base = cfg.workdir.empty()
                               ? fs::temp_directory_path().string()
                               : cfg.workdir;
  return base + "/camal_bench_recovery_" + mode;
}

/// Ingests `cfg.entries` sequential-key puts in ExecuteOps batches and
/// reports the cell row. `sync` is ignored when `durable` is off.
RecoveryRow RunCell(const RecoveryBenchConfig& cfg, const char* mode,
                    bool durable, engine::fileio::WalSyncPolicy sync) {
  const std::string dir = CellDir(cfg, mode);
  fs::remove_all(dir);

  RecoveryRow row;
  row.mode = mode;
  row.entries = cfg.entries;
  row.shards = Shards();

  engine::FileEngineConfig fcfg;
  fcfg.workdir = dir;
  fcfg.keep_files = durable;  // durable cells reopen the same file set
  fcfg.durable = durable;
  fcfg.wal_sync = sync;

  std::vector<engine::Op> ops(cfg.batch);
  std::vector<engine::OpResult> results(cfg.batch);
  {
    engine::FileEngine eng(Shards(), BenchOptions(), fcfg);
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t next = 0;
    while (next < cfg.entries) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(cfg.batch,
                                                 cfg.entries - next));
      for (size_t i = 0; i < n; ++i) {
        ops[i].kind = engine::OpKind::kPut;
        ops[i].key = next + i;
        ops[i].value = (next + i) * 3 + 1;
      }
      eng.ExecuteOps(ops.data(), n, results.data());
      next += n;
    }
    row.ingest_ms = MsSince(t0);
    for (size_t s = 0; s < Shards(); ++s) row.runs += eng.ShardRunCount(s);
    row.block_writes = eng.CostSnapshot().block_writes;
  }  // clean close

  if (durable) {
    engine::FileEngineConfig rcfg;
    rcfg.workdir = dir;
    rcfg.reopen = true;
    rcfg.keep_files = false;  // the reopened engine cleans up the cell
    rcfg.wal_sync = sync;
    const auto t0 = std::chrono::steady_clock::now();
    engine::FileEngine reopened(Shards(), BenchOptions(), rcfg);
    row.recover_ms = MsSince(t0);
    if (reopened.TotalEntries() != cfg.entries) {
      std::fprintf(stderr,
                   "[bench] FATAL: %s recovered %llu of %llu entries\n",
                   mode,
                   static_cast<unsigned long long>(reopened.TotalEntries()),
                   static_cast<unsigned long long>(cfg.entries));
      std::exit(1);
    }
    if (reopened.CostSnapshot().block_writes != 0) {
      std::fprintf(stderr,
                   "[bench] FATAL: %s recovery rebuilt runs (%llu block "
                   "writes)\n",
                   mode,
                   static_cast<unsigned long long>(
                       reopened.CostSnapshot().block_writes));
      std::exit(1);
    }
  } else {
    fs::remove_all(dir);
  }
  return row;
}

void WriteJson(const std::string& path, const RecoveryBenchConfig& cfg,
               const std::vector<RecoveryRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"recovery\",\n  \"entries\": %llu,\n"
               "  \"batch\": %zu,\n  \"shards\": %zu,\n  \"rows\": [\n",
               static_cast<unsigned long long>(cfg.entries), cfg.batch,
               Shards());
  for (size_t i = 0; i < rows.size(); ++i) {
    const RecoveryRow& r = rows[i];
    std::fprintf(f,
                 "    {\"wal\": \"%s\", \"runs\": %zu, "
                 "\"block_writes\": %llu, \"ingest_ms\": %.3f, "
                 "\"recover_ms\": %.3f}%s\n",
                 r.mode, r.runs,
                 static_cast<unsigned long long>(r.block_writes),
                 r.ingest_ms, r.recover_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[bench] wrote %s\n", path.c_str());
}

void Run(const RecoveryBenchConfig& cfg, const std::string& json_path) {
  std::printf("Durability tax and recovery speed: %llu entries, %zu-op "
              "batches, %zu shard(s)\n"
              "rebuild = the cell's own ingest time (what a non-durable "
              "engine redoes after restart)\n\n",
              static_cast<unsigned long long>(cfg.entries), cfg.batch,
              Shards());
  std::printf("%7s %6s %10s %11s %11s %9s %9s\n", "wal", "runs", "blk wr",
              "ingest ms", "vs off", "recov ms", "speedup");
  for (int i = 0; i < 70; ++i) std::putchar('-');
  std::putchar('\n');

  using engine::fileio::WalSyncPolicy;
  std::vector<RecoveryRow> rows;
  rows.push_back(RunCell(cfg, "off", false, WalSyncPolicy::kNone));
  rows.push_back(RunCell(cfg, "none", true, WalSyncPolicy::kNone));
  rows.push_back(RunCell(cfg, "batch", true, WalSyncPolicy::kBatch));
  rows.push_back(RunCell(cfg, "always", true, WalSyncPolicy::kAlways));

  const double off_ms = rows.front().ingest_ms;
  for (const RecoveryRow& r : rows) {
    char vs_off[32];
    char speedup[32];
    std::snprintf(vs_off, sizeof vs_off, "%.2fx",
                  off_ms > 0.0 ? r.ingest_ms / off_ms : 0.0);
    if (r.recover_ms > 0.0) {
      std::snprintf(speedup, sizeof speedup, "%.0fx",
                    r.ingest_ms / r.recover_ms);
    } else {
      std::snprintf(speedup, sizeof speedup, "-");
    }
    std::printf("%7s %6zu %10llu %11.1f %11s %9.2f %9s\n", r.mode, r.runs,
                static_cast<unsigned long long>(r.block_writes),
                r.ingest_ms, vs_off, r.recover_ms,
                r.recover_ms > 0.0 ? speedup : "-");
  }
  if (!json_path.empty()) WriteJson(json_path, cfg, rows);
}

}  // namespace
}  // namespace camal::bench

int main(int argc, char** argv) {
  camal::bench::InitBenchThreads(&argc, argv);
  const std::string json_path = camal::bench::TakeJsonFlag(&argc, argv);

  camal::bench::RecoveryBenchConfig cfg;
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
      cfg.entries = 12000;
      cfg.batch = 256;
    } else if (std::strncmp(argv[i], "--entries=", 10) == 0) {
      if (!parse_count("--entries", argv[i] + 10, &value)) return 1;
      cfg.entries = value;
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      if (!parse_count("--batch", argv[i] + 8, &value)) return 1;
      cfg.batch = static_cast<size_t>(value);
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
