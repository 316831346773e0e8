// The repository benchmark program: three workloads against the library's
// public surface, timed from outside.
//
//   camal_perf --workload point-read|ingest-scan|tune --seed N --seconds S
//              --trace 0|1 --workdir DIR [--trace-out FILE]
//
// point-read and ingest-scan serve a FileEngine (4 shards, durable) in a
// closed loop with one client and one op per ExecuteOps call; tune runs the
// CAMAL loop (CamalTuner training, then DynamicTuner over the 24 Table-2
// phases) on the simulated backend. Every result is checked against an
// oracle. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 only when every check passed.

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "camal/camal_tuner.h"
#include "camal/dynamic_tuner.h"
#include "camal/evaluator.h"
#include "engine/file_engine.h"
#include "engine/sharded_engine.h"
#include "inputs.h"
#include "probe.h"
#include "workload/executor.h"
#include "workload/generator.h"
#include "workload/tables.h"

namespace camal::perfbench {
namespace {

// ------------------------------------------------------------ metric table

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"get_p50_us", "us"},       {"get_p99_us", "us"},
    {"put_tail_us", "us"},      {"scan_p50_us", "us"},
    {"scan_p99_us", "us"},      {"ios_per_op", "count"},
    {"write_amp", "ratio"},     {"space_amp", "ratio"},
    {"rss_mb", "MiB"},          {"tune_s", "s"},
    {"tuned_latency_us", "us"}, {"sampling_cost_s", "s"},
};

const MetricDef kPerLayer[] = {
    {"workload.gen_ns_per_op", "ns"},
    {"engine.open_ms", "ms"},
    {"engine.bulk_load_s", "s"},
    {"engine.get_call_ns", "ns"},
    {"engine.put_call_ns", "ns"},
    {"engine.scan_call_ns", "ns"},
    {"engine.get_busy_ns", "ns"},
    {"engine.put_busy_ns", "ns"},
    {"engine.scan_busy_ns", "ns"},
    {"engine.dispatch_ns_per_op", "ns"},
    {"engine.ios_per_get_hit", "count"},
    {"engine.ios_per_get_miss", "count"},
    {"engine.ios_per_scan", "count"},
    {"engine.runs", "count"},
    {"lsm.flushes", "count"},
    {"lsm.merges", "count"},
    {"lsm.compaction_mb_read", "MiB"},
    {"lsm.compaction_mb_written", "MiB"},
    {"lsm.stall_puts", "count"},
    {"lsm.stall_ms", "ms"},
    {"lsm.transition_ios", "count"},
    {"fileio.pwrite_calls", "count"},
    {"fileio.pwrite_mb", "MiB"},
    {"fileio.pwrite_ms", "ms"},
    {"fileio.fsync_calls", "count"},
    {"fileio.fsync_ms", "ms"},
    {"fileio.recover_ms", "ms"},
    {"camal.train_s", "s"},
    {"camal.dynamic_s", "s"},
    {"camal.retune_ms", "ms"},
    {"camal.samples", "count"},
    {"camal.sample_replay_s", "s"},
    {"camal.reconfigurations", "count"},
    {"ml.fit_ms", "ms"},
    {"ml.predict_ns", "ns"},
    {"sim.ios_per_op", "count"},
    {"trace.untraced_ops_per_s", "1/s"},
    {"trace.traced_ops_per_s", "1/s"},
    {"trace.untraced_tune_s", "s"},
    {"trace.traced_tune_s", "s"},
    {"trace.overhead_pct", "%"},
};

/// What one invocation measured and checked.
struct Outcome {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for stderr

  void Fail(uint64_t n, const std::string& what) {
    failed += n;
    if (failures.size() < 8) failures.push_back(what);
  }
};

// ------------------------------------------------------------ statistics

/// Nearest-rank quantile of `v` (sorted in place). Aborts when fewer than
/// ten samples lie beyond the requested rank: such a tail is not measured.
template <typename T>
double Quantile(std::vector<T>* v, double q, const char* what) {
  if (v->empty()) {
    std::fprintf(stderr, "no samples for %s\n", what);
    std::exit(2);
  }
  const double beyond = static_cast<double>(v->size()) * (1.0 - q);
  if (q > 0.5 && beyond < 10.0) {
    std::fprintf(stderr, "%s: only %zu samples, too few for p%.0f\n", what,
                 v->size(), q * 100.0);
    std::exit(2);
  }
  std::sort(v->begin(), v->end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  return static_cast<double>((*v)[std::max<size_t>(rank, 1) - 1]);
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5, "median"); }

/// Mean of the samples beyond the nearest-rank `q` quantile of `v` (sorted
/// in place): the whole tail rather than one point on it, which stays put
/// when a small slow population sits right at the quantile.
template <typename T>
double TailMean(std::vector<T>* v, double q, const char* what) {
  Quantile(v, q, what);  // sorts, and checks that ten samples lie beyond
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  double sum = 0.0;
  for (size_t i = rank; i < v->size(); ++i) sum += (*v)[i];
  return sum / static_cast<double>(v->size() - rank);
}

// ------------------------------------------------------------ environment

struct Env {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
  unsigned nproc = 0;
  std::string fs;
  /// "tmpfs" when the workdir is on tmpfs; "page-cache" otherwise (buffered
  /// I/O, WAL never fsynced — the disk must not set the numbers).
  std::string placement;
  int tuner_workers = 0;
  bool direct_io = false;
  std::string io_backend = "none";
  std::string wal_sync = "none";
  /// Whether the kernel reset the peak-RSS mark before each measured engine
  /// (rss_mb is measured only when it did).
  bool peak_rss_reset = true;

  std::string Json() const {
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\": \"%s\", \"seed\": %" PRIu64
        ", \"seconds\": %d, \"trace\": %d, \"nproc\": %u, "
        "\"clients\": 1, \"engine_workers\": 0, \"tuner_workers\": %d, "
        "\"shards\": %d, \"workdir_fs\": \"%s\", \"placement\": \"%s\", "
        "\"direct_io\": %s, \"io_backend\": \"%s\", \"wal_sync\": \"%s\", "
        "\"peak_rss_reset\": %s}",
        workload.c_str(), seed, seconds, trace ? 1 : 0, nproc, tuner_workers,
        workload == "tune" ? 1 : 4, fs.c_str(), placement.c_str(),
        direct_io ? "true" : "false", io_backend.c_str(), wal_sync.c_str(),
        peak_rss_reset ? "true" : "false");
    return buf;
  }
};

// ------------------------------------------------------------ file workloads

/// A file-backend workload: data shape, timed mix, and engine budget.
struct FileSpec {
  uint64_t slots = 0;
  uint64_t initial = 0;
  /// Timed ops per requested second. The op count is fixed by
  /// (--seconds, this rate), never by the clock, so every count the run
  /// reports repeats exactly for a seed.
  double nominal_ops_per_s = 0.0;
  Mix mix;
  uint64_t block_cache_bytes = 0;  // whole engine
};

constexpr size_t kShards = 4;
constexpr uint64_t kUserBytesPerEntry = 16;  // 8-byte key + 8-byte value
constexpr size_t kLoadBatch = 4096;
constexpr size_t kValueChecks = 2000;
/// Clean close + reopen cycles of every engine a run builds.
constexpr int kRestarts = 5;
/// Seed of the loaded data set, the same in every run (see `Generate`).
constexpr uint64_t kDataSeed = 0xC0FFEE;

FileSpec PointReadSpec() {
  FileSpec s;
  s.slots = 1000000;
  s.initial = 1000000;
  s.nominal_ops_per_s = 350000;
  s.mix.missing_get = 0.445;
  s.mix.existing_get = 0.445;
  s.mix.scan = 0.005;
  s.mix.zipf_theta = 0.9;
  s.mix.writes_insert = false;
  s.block_cache_bytes = 1 << 20;  // ~3% of the ~33 MB of run files
  return s;
}

FileSpec IngestScanSpec() {
  FileSpec s;
  s.slots = 1 << 22;
  s.initial = 250000;
  s.nominal_ops_per_s = 100000;
  s.mix.missing_get = 0.05;
  s.mix.existing_get = 0.05;
  s.mix.scan = 0.10;
  s.mix.writes_insert = true;
  s.block_cache_bytes = 0;
  return s;
}

lsm::Options FileOptions(const FileSpec& spec) {
  lsm::Options o;
  o.size_ratio = 10.0;
  o.entry_bytes = 128;
  o.buffer_bytes = 1u << 20;  // 2048 entries per shard
  o.bloom_bits = 10 * std::max<uint64_t>(spec.initial, 1000000);
  o.block_cache_bytes = spec.block_cache_bytes;
  return o;
}

uint64_t RunFileBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ".cam") {
      total += it->file_size(ec);
    }
  }
  return total;
}

/// The timed phase is cut into up to this many equal slices of the op
/// stream; timings are reported as medians over slices, so a burst of host
/// noise that hits one or two slices does not move the figure. Short runs
/// use fewer slices, so every slice keeps `kMinPerSlice` ops of each kind
/// (its p99 then has at least ten samples beyond it).
constexpr size_t kMaxSlices = 20;
constexpr size_t kMinPerSlice = 1500;

/// One slice of the timed phase.
struct Slice {
  uint64_t ops = 0;
  double call_ns = 0.0;  // time inside ExecuteOps
  std::vector<float> get_us, put_us, scan_us;
  /// Run-file bytes per live user byte when the slice ends.
  double space_amp = 0.0;
};

/// Everything one pass (set-up(s) + timed phase + restarts + checks)
/// measured.
struct FilePass {
  std::vector<double> setup_s, open_ms, load_s, restart_s, recover_ms;
  /// Block I/O of one bulk load, and of the timed phase.
  sim::DeviceSnapshot load_io, run_io;
  uint64_t load_compaction_reads = 0;
  std::vector<Slice> slices;
  uint64_t ops = 0, puts = 0;
  double call_ns = 0.0;
  engine::OpCostWindow busy[engine::kNumOpKinds];
  uint64_t get_hit = 0, get_hit_ios = 0, get_miss = 0, get_miss_ios = 0;
  uint64_t scans = 0, scan_ios = 0;
  engine::EngineCounters counters;
  uint64_t stall_puts = 0;
  double stall_ns = 0.0;
  FileOpCounts fileio;
  uint64_t runs = 0;
  double rss_mb = 0.0;
};

/// Device time the simulator charges for the block I/O in `io` at its
/// default device: lookups as random reads, compaction input as sequential
/// reads, writes as sequential writes. Its CPU charges are left out: the
/// file backend does not count the events they price.
double PricedIoSeconds(const sim::DeviceSnapshot& io,
                       uint64_t compaction_reads) {
  const sim::DeviceConfig d;
  const uint64_t seq = std::min(compaction_reads, io.block_reads);
  return (static_cast<double>(io.block_reads - seq) * d.read_block_us +
          static_cast<double>(seq) * d.seq_read_block_us +
          static_cast<double>(io.block_writes) * d.write_block_us) *
         1e-6;
}

engine::EngineCounters Diff(const engine::EngineCounters& a,
                            const engine::EngineCounters& b) {
  engine::EngineCounters d;
  d.compaction_block_reads =
      a.compaction_block_reads - b.compaction_block_reads;
  d.compaction_block_writes =
      a.compaction_block_writes - b.compaction_block_writes;
  d.transition_ios = a.transition_ios - b.transition_ios;
  d.flushes = a.flushes - b.flushes;
  d.merges = a.merges - b.merges;
  return d;
}

FileOpCounts Diff(const FileOpCounts& a, const FileOpCounts& b) {
  FileOpCounts d;
  d.pwrite_calls = a.pwrite_calls - b.pwrite_calls;
  d.pwrite_bytes = a.pwrite_bytes - b.pwrite_bytes;
  d.pwrite_ns = a.pwrite_ns - b.pwrite_ns;
  d.fsync_calls = a.fsync_calls - b.fsync_calls;
  d.fsync_ns = a.fsync_ns - b.fsync_ns;
  return d;
}

/// Checks sampled values (and absent odd keys) against the oracle.
void CheckValues(engine::StorageEngine* eng, const Inputs& in, uint64_t seed,
                 Outcome* out) {
  Rng rng(seed ^ 0x5EED5EEDULL);
  std::vector<uint64_t> live;
  live.reserve(in.live_keys);
  for (uint64_t s = 0; s < in.final_values.size(); ++s) {
    if (in.final_values[s] != 0) live.push_back(s);
  }
  for (size_t i = 0; i < kValueChecks; ++i) {
    const uint64_t s = live[rng.Uniform(live.size())];
    uint64_t value = 0;
    out->attempted += 1;
    if (!eng->Get(KeyOf(s), &value) || value != in.final_values[s]) {
      out->Fail(1, "value mismatch for key " + std::to_string(KeyOf(s)));
    }
    const uint64_t odd = 2 * rng.Uniform(in.final_values.size() + 1) + 1;
    out->attempted += 1;
    if (eng->Get(odd, nullptr)) {
      out->Fail(1, "absent key " + std::to_string(odd) + " found");
    }
  }
}

/// Builds an engine and bulk-loads the initial keys through ExecuteOps.
std::unique_ptr<engine::FileEngine> SetUp(const FileSpec& spec,
                                          const Inputs& in,
                                          const engine::FileEngineConfig& cfg,
                                          SpanRecorder* trace, FilePass* p) {
  const uint64_t span = trace->NewId();
  const int64_t t0 = NowNs();
  auto eng = std::make_unique<engine::FileEngine>(kShards, FileOptions(spec),
                                                  cfg);
  const int64_t t1 = NowNs();
  std::vector<engine::Op> batch(kLoadBatch);
  std::vector<engine::OpResult> res(kLoadBatch);
  trace->current_parent = span;
  for (size_t i = 0; i < in.load_keys.size(); i += kLoadBatch) {
    const size_t n = std::min(kLoadBatch, in.load_keys.size() - i);
    for (size_t j = 0; j < n; ++j) {
      batch[j].kind = engine::OpKind::kPut;
      batch[j].key = in.load_keys[i + j];
      batch[j].value = in.load_values[i + j];
    }
    eng->ExecuteOps(batch.data(), n, res.data());
  }
  const int64_t t2 = NowNs();
  trace->current_parent = 0;
  trace->Record("engine.open", trace->NewId(), span, t0, t1);
  trace->Record("engine.setup", span, 0, t0, t2);
  p->setup_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  p->open_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  p->load_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  p->load_io = eng->CostSnapshot();
  p->load_compaction_reads = eng->AggregateCounters().compaction_block_reads;
  return eng;
}

/// Restarts `*eng` kRestarts times: clean close, then recovery from its
/// manifests + WAL (`cfg` names its workdir). Every acknowledged write must
/// survive: each reopened engine must hold the entries the first one did
/// (TotalEntries counts every stored version). The last reopened engine
/// removes its files when it is destroyed.
void Restart(const FileSpec& spec, engine::FileEngineConfig cfg,
             std::unique_ptr<engine::FileEngine>* eng, SpanRecorder* trace,
             FilePass* p, Outcome* out) {
  const uint64_t entries = (*eng)->TotalEntries();
  cfg.reopen = true;
  for (int k = 0; k < kRestarts; ++k) {
    const int64_t t0 = NowNs();
    eng->reset();
    const int64_t t1 = NowNs();
    cfg.keep_files = k + 1 < kRestarts;
    *eng = std::make_unique<engine::FileEngine>(kShards, FileOptions(spec),
                                                cfg);
    const int64_t t2 = NowNs();
    trace->Record("engine.close", trace->NewId(), 0, t0, t1);
    trace->Record("fileio.recover", trace->NewId(), 0, t1, t2);
    p->restart_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    p->recover_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    out->attempted += 1;
    if ((*eng)->TotalEntries() != entries) {
      out->Fail(1, "reopened engine holds " +
                       std::to_string((*eng)->TotalEntries()) +
                       " entries, want " + std::to_string(entries));
    }
  }
}

FilePass RunFilePass(const FileSpec& spec, const Inputs& in, Env* env,
                     int setups, bool traced, SpanRecorder* trace,
                     Outcome* out) {
  FilePass p;
  CountingFileOps fops(trace);
  trace->set_enabled(traced);
  engine::FileEngineConfig cfg;
  const bool tmpfs = env->placement == "tmpfs";
  cfg.try_direct_io = tmpfs;
  cfg.durable = true;
  cfg.wal_sync = tmpfs ? engine::fileio::WalSyncPolicy::kBatch
                       : engine::fileio::WalSyncPolicy::kNone;
  cfg.file_ops = &fops;
  cfg.keep_files = true;  // until the last restart
  env->wal_sync = tmpfs ? "batch" : "none";

  // Slice buffers are sized and touched up front.
  size_t kind_ops[3] = {0, 0, 0};  // get, put, scan
  for (Expect e : in.expect) {
    ++kind_ops[e == Expect::kPut ? 1 : e == Expect::kScan ? 2 : 0];
  }
  const size_t slices = std::clamp<size_t>(
      std::min({kind_ops[0], kind_ops[1], kind_ops[2]}) / kMinPerSlice, 1,
      kMaxSlices);
  p.slices.resize(slices);
  const size_t per_slice = (in.size() + slices - 1) / slices;
  for (size_t k = 0; k < slices; ++k) {
    size_t n[3] = {0, 0, 0};
    const size_t end = std::min(in.size(), (k + 1) * per_slice);
    for (size_t i = k * per_slice; i < end; ++i) {
      ++n[in.expect[i] == Expect::kPut ? 1 : in.expect[i] == Expect::kScan ? 2
                                                                          : 0];
    }
    Slice& sl = p.slices[k];
    sl.get_us.assign(n[0], 0.0f);
    sl.put_us.assign(n[1], 0.0f);
    sl.scan_us.assign(n[2], 0.0f);
    sl.get_us.clear();
    sl.put_us.clear();
    sl.scan_us.clear();
  }

  // Extra set-ups are timed, restarted and torn down; the last one serves
  // the run. Restarts come in groups seconds apart, so one burst of host
  // noise cannot cover them all.
  for (int k = 0; k + 1 < setups; ++k) {
    cfg.workdir = env->workdir + "/setup" + std::to_string(k);
    auto eng = SetUp(spec, in, cfg, trace, &p);
    Restart(spec, cfg, &eng, trace, &p, out);
  }
  // RSS counts the serving engine only: freed set-ups go back to the OS
  // first, and the peak mark restarts here.
  malloc_trim(0);
  if (!ResetPeakRss()) {
    env->peak_rss_reset = false;
    out->Fail(1, "the kernel refused to reset the peak-RSS mark");
  }
  const uint64_t rss_base_kb = StatusKb("VmRSS");
  cfg.workdir = env->workdir + "/serve";
  std::unique_ptr<engine::FileEngine> eng = SetUp(spec, in, cfg, trace, &p);
  env->direct_io = eng->direct_io();
  env->io_backend = eng->io_backend();

  // ---- timed phase: closed loop, one client, one op per ExecuteOps call.
  eng->ResetOpCostWindows();
  const engine::EngineCounters c0 = eng->AggregateCounters();
  const sim::DeviceSnapshot cost0 = eng->CostSnapshot();
  const FileOpCounts f0 = fops.counts;
  const uint64_t run_span = trace->NewId();
  const int64_t loop0 = NowNs();
  engine::OpResult r;
  for (size_t k = 0; k < slices; ++k) {
    Slice& sl = p.slices[k];
    const size_t begin = k * per_slice;
    const size_t end = std::min(in.size(), begin + per_slice);
    for (size_t i = begin; i < end; ++i) {
      const engine::Op op = in.OpAt(i);
      uint64_t before = 0;
      if (op.kind == engine::OpKind::kPut) {
        const engine::EngineCounters c = eng->AggregateCounters();
        before = c.flushes + c.merges;
      }
      const uint64_t op_span = traced ? trace->NewId() : 0;
      trace->current_parent = op_span;
      trace->Hold();
      const int64_t t0 = NowNs();
      eng->ExecuteOps(&op, 1, &r);
      const int64_t t1 = NowNs();
      const double ns = static_cast<double>(t1 - t0);
      sl.call_ns += ns;
      bool stalled = false;
      switch (in.expect[i]) {
        case Expect::kFound:
        case Expect::kMissing: {
          const bool want = in.expect[i] == Expect::kFound;
          if (r.found != want) {
            out->Fail(1, "get " + std::to_string(op.key) + " found=" +
                             (r.found ? "1" : "0"));
          }
          sl.get_us.push_back(static_cast<float>(ns * 1e-3));
          if (r.found) {
            ++p.get_hit;
            p.get_hit_ios += r.ios;
          } else {
            ++p.get_miss;
            p.get_miss_ios += r.ios;
          }
          break;
        }
        case Expect::kScan:
          if (r.scan_hits != in.aux[i]) {
            out->Fail(1, "scan " + std::to_string(op.key) + " hits=" +
                             std::to_string(r.scan_hits) + " want " +
                             std::to_string(in.aux[i]));
          }
          sl.scan_us.push_back(static_cast<float>(ns * 1e-3));
          ++p.scans;
          p.scan_ios += r.ios;
          break;
        case Expect::kPut: {
          sl.put_us.push_back(static_cast<float>(ns * 1e-3));
          ++p.puts;
          const engine::EngineCounters c = eng->AggregateCounters();
          stalled = c.flushes + c.merges != before;
          if (stalled) {
            ++p.stall_puts;
            p.stall_ns += ns;
          }
          break;
        }
      }
      if (traced) {
        // Keep every stalled put and a 1-in-1024 sample of the other ops,
        // each with the file operations it issued.
        const bool keep = stalled || i % 1024 == 0;
        trace->Release(keep);
        if (keep) {
          trace->Record(stalled ? "lsm.stall_put" : "engine.op", op_span,
                        run_span, t0, t1);
        }
      }
    }
    sl.ops = end - begin;
    const uint64_t live =
        in.load_keys.size() + (spec.mix.writes_insert ? p.puts : 0);
    sl.space_amp = static_cast<double>(RunFileBytes(eng->workdir())) /
                   static_cast<double>(live * kUserBytesPerEntry);
    p.call_ns += sl.call_ns;
  }
  const int64_t loop1 = NowNs();
  trace->current_parent = 0;
  trace->Record("run", run_span, 0, loop0, loop1);
  out->attempted += in.size();
  p.ops = in.size();
  p.run_io = eng->CostSnapshot().Delta(cost0);
  for (size_t k = 0; k < engine::kNumOpKinds; ++k) {
    p.busy[k] = eng->OpCostWindowTotal(static_cast<engine::OpKind>(k));
  }
  p.counters = Diff(eng->AggregateCounters(), c0);
  p.fileio = Diff(fops.counts, f0);
  for (size_t s = 0; s < kShards; ++s) p.runs += eng->ShardRunCount(s);

  // ---- restarts, then the oracle's sampled values must read back. Only an
  // insert-only stream fixes the stored entry count in advance.
  out->attempted += 1;
  if (spec.mix.writes_insert && eng->TotalEntries() != in.live_keys) {
    out->Fail(1, "engine holds " + std::to_string(eng->TotalEntries()) +
                     " entries, want " + std::to_string(in.live_keys));
  }
  Restart(spec, cfg, &eng, trace, &p, out);
  CheckValues(eng.get(), in, env->seed, out);
  const uint64_t hwm_kb = StatusKb("VmHWM");
  p.rss_mb = hwm_kb > rss_base_kb
                 ? static_cast<double>(hwm_kb - rss_base_kb) / 1024.0
                 : 0.0;
  eng.reset();
  trace->set_enabled(false);
  return p;
}

/// Median over slices of `f(slice)`.
template <typename F>
double SliceMedian(std::vector<Slice>& slices, F f) {
  std::vector<double> v;
  for (Slice& s : slices) v.push_back(f(s));
  return Median(v);
}

double OpsPerSecond(const Slice& s) {
  return static_cast<double>(s.ops) / (s.call_ns * 1e-9);
}

void FileEndToEnd(FilePass& p, Outcome* out) {
  std::fprintf(stderr, "  slice ops/s:");
  for (const Slice& s : p.slices) {
    std::fprintf(stderr, " %.0f", OpsPerSecond(s));
  }
  std::fprintf(stderr, "\n");
  auto& v = out->values;
  auto& sl = p.slices;
  const double ops = static_cast<double>(p.ops);
  // Median over slices of one kind's latency quantile.
  auto tail = [&sl](std::vector<float> Slice::*kind, double q,
                    const char* what) {
    return SliceMedian(
        sl, [&](Slice& s) { return Quantile(&(s.*kind), q, what); });
  };
  v["setup_s"] = Median(p.setup_s);
  v["ops_per_s"] = SliceMedian(sl, OpsPerSecond);
  v["get_p50_us"] = tail(&Slice::get_us, 0.50, "get");
  v["get_p99_us"] = tail(&Slice::get_us, 0.99, "get");
  v["put_tail_us"] = SliceMedian(
      sl, [](Slice& s) { return TailMean(&s.put_us, 0.99, "put"); });
  v["scan_p50_us"] = tail(&Slice::scan_us, 0.50, "scan");
  v["scan_p99_us"] = tail(&Slice::scan_us, 0.99, "scan");
  v["ios_per_op"] = static_cast<double>(p.run_io.TotalIos()) / ops;
  v["write_amp"] = static_cast<double>(p.fileio.pwrite_bytes) /
                   static_cast<double>(p.puts * kUserBytesPerEntry);
  // Averaged over the slice ends rather than read once at the end: where
  // the last merge falls relative to the end depends on the seed, and
  // point-read read 1.84 or 2.17 at the end of otherwise equal runs.
  double space_amp = 0.0;
  for (const Slice& s : sl) space_amp += s.space_amp;
  v["space_amp"] = space_amp / static_cast<double>(sl.size());
  v["rss_mb"] = p.rss_mb;
  // The tune-workload slots, read on the file backend (README): the wall
  // time of a restart, and the simulator's device price of this run's I/O
  // per timed op and for the whole sample (load + timed phase).
  std::fprintf(stderr, "  restart ms:");
  for (double r : p.restart_s) std::fprintf(stderr, " %.2f", r * 1e3);
  std::fprintf(stderr, "\n");
  v["tune_s"] = Median(p.restart_s);
  const double run_io_s =
      PricedIoSeconds(p.run_io, p.counters.compaction_block_reads);
  v["tuned_latency_us"] = run_io_s * 1e6 / ops;
  v["sampling_cost_s"] =
      PricedIoSeconds(p.load_io, p.load_compaction_reads) + run_io_s;
}

void FilePerLayer(const FilePass& p, Outcome* out) {
  auto& v = out->values;
  auto per = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const auto& get = p.busy[static_cast<size_t>(engine::OpKind::kGet)];
  const auto& put = p.busy[static_cast<size_t>(engine::OpKind::kPut)];
  const auto& scan = p.busy[static_cast<size_t>(engine::OpKind::kScan)];
  v["engine.open_ms"] = Median(p.open_ms);
  v["engine.bulk_load_s"] = Median(p.load_s);
  double sum[3] = {0.0, 0.0, 0.0};
  uint64_t cnt[3] = {0, 0, 0};
  for (const Slice& s : p.slices) {
    const std::vector<float>* kinds[3] = {&s.get_us, &s.put_us, &s.scan_us};
    for (int k = 0; k < 3; ++k) {
      for (float us : *kinds[k]) sum[k] += us;
      cnt[k] += kinds[k]->size();
    }
  }
  v["engine.get_call_ns"] = per(sum[0] * 1e3, cnt[0]);
  v["engine.put_call_ns"] = per(sum[1] * 1e3, cnt[1]);
  v["engine.scan_call_ns"] = per(sum[2] * 1e3, cnt[2]);
  v["engine.get_busy_ns"] = get.LatencyPerOp();
  v["engine.put_busy_ns"] = put.LatencyPerOp();
  v["engine.scan_busy_ns"] = scan.LatencyPerOp();
  double busy_ns = 0.0;
  for (const auto& w : p.busy) busy_ns += w.latency_ns;
  v["engine.dispatch_ns_per_op"] = per(p.call_ns - busy_ns, p.ops);
  v["engine.ios_per_get_hit"] = per(p.get_hit_ios, p.get_hit);
  v["engine.ios_per_get_miss"] = per(p.get_miss_ios, p.get_miss);
  v["engine.ios_per_scan"] = per(p.scan_ios, p.scans);
  v["engine.runs"] = static_cast<double>(p.runs);
  v["lsm.flushes"] = static_cast<double>(p.counters.flushes);
  v["lsm.merges"] = static_cast<double>(p.counters.merges);
  const double block_mb = 4096.0 / (1024.0 * 1024.0);
  v["lsm.compaction_mb_read"] =
      static_cast<double>(p.counters.compaction_block_reads) * block_mb;
  v["lsm.compaction_mb_written"] =
      static_cast<double>(p.counters.compaction_block_writes) * block_mb;
  v["lsm.stall_puts"] = static_cast<double>(p.stall_puts);
  v["lsm.stall_ms"] = p.stall_ns * 1e-6;
  v["lsm.transition_ios"] = static_cast<double>(p.counters.transition_ios);
  v["fileio.pwrite_calls"] = static_cast<double>(p.fileio.pwrite_calls);
  v["fileio.pwrite_mb"] =
      static_cast<double>(p.fileio.pwrite_bytes) / (1024.0 * 1024.0);
  v["fileio.pwrite_ms"] = static_cast<double>(p.fileio.pwrite_ns) * 1e-6;
  v["fileio.fsync_calls"] = static_cast<double>(p.fileio.fsync_calls);
  v["fileio.fsync_ms"] = static_cast<double>(p.fileio.fsync_ns) * 1e-6;
  v["fileio.recover_ms"] = Median(p.recover_ms);
}

void RunFileWorkload(const FileSpec& spec, Env* env, SpanRecorder* trace,
                     Outcome* out) {
  const auto num_ops = static_cast<size_t>(spec.nominal_ops_per_s *
                                           static_cast<double>(env->seconds));
  const double puts = 1.0 - spec.mix.missing_get - spec.mix.existing_get -
                      spec.mix.scan;
  if (spec.mix.writes_insert &&
      static_cast<double>(spec.initial) +
              puts * static_cast<double>(num_ops) >
          0.9 * static_cast<double>(spec.slots)) {
    std::fprintf(stderr, "--seconds %d inserts more keys than the key domain "
                         "holds\n", env->seconds);
    std::exit(2);
  }
  const int64_t g0 = NowNs();
  const Inputs in = Generate(kDataSeed, env->seed, spec.slots, spec.initial,
                             num_ops, spec.mix);
  const int64_t g1 = NowNs();
  std::filesystem::create_directories(env->workdir);
  env->fs = FsType(env->workdir);
  env->placement = env->fs == "tmpfs" ? "tmpfs" : "page-cache";

  if (!env->trace) {
    FilePass p = RunFilePass(spec, in, env, /*setups=*/3, false, trace, out);
    FileEndToEnd(p, out);
    return;
  }
  // Traced run: an untraced twin pass on a fresh engine first, then the
  // traced pass; the per-op wall time of the two gives the overhead.
  FilePass plain = RunFilePass(spec, in, env, 1, false, trace, out);
  FilePass p = RunFilePass(spec, in, env, 1, true, trace, out);
  FilePerLayer(p, out);
  auto& v = out->values;
  v["workload.gen_ns_per_op"] =
      static_cast<double>(g1 - g0) /
      static_cast<double>(in.size() + in.load_keys.size());
  v["trace.untraced_ops_per_s"] =
      static_cast<double>(plain.ops) / (plain.call_ns * 1e-9);
  v["trace.traced_ops_per_s"] =
      static_cast<double>(p.ops) / (p.call_ns * 1e-9);
  v["trace.untraced_tune_s"] = Median(plain.restart_s);
  v["trace.traced_tune_s"] = Median(p.restart_s);
  v["trace.overhead_pct"] =
      100.0 * (v["trace.untraced_ops_per_s"] / v["trace.traced_ops_per_s"] -
               1.0);
}

// ------------------------------------------------------------ tune workload

/// Forwards every call to a simulated engine and keeps what the benchmark
/// needs from each executed op: its kind, simulated latency, I/O, and an
/// oracle verdict. Results are exactly the inner engine's, and the
/// always-on op-cost windows are folded from them as any engine does.
class RecordingEngine : public engine::StorageEngine {
 public:
  /// One served op: its kind and simulated latency.
  struct OpRecord {
    engine::OpKind kind = engine::OpKind::kGet;
    float sim_us = 0.0f;
  };

  /// `records` (not owned) receives one entry per served op; callers size
  /// it beforehand so recording allocates nothing.
  RecordingEngine(engine::StorageEngine* inner, const workload::KeySpace* keys,
                  std::vector<OpRecord>* records)
      : inner_(inner), keys_(keys), records_(records) {}

  /// Simulated latencies of one op kind, in us.
  std::vector<double> Latencies(engine::OpKind kind) const {
    std::vector<double> out;
    for (const OpRecord& r : *records_) {
      if (r.kind == kind) out.push_back(r.sim_us);
    }
    return out;
  }

  void Put(uint64_t key, uint64_t value) override { inner_->Put(key, value); }
  void Delete(uint64_t key) override { inner_->Delete(key); }
  bool Get(uint64_t key, uint64_t* value) override {
    return inner_->Get(key, value);
  }
  size_t Scan(uint64_t start_key, size_t max_entries,
              std::vector<lsm::Entry>* out) override {
    return inner_->Scan(start_key, max_entries, out);
  }
  /// Serves the batch one op per inner `ExecuteOps` call, timing each call
  /// (the same closed-loop, one-op-per-call view the file workloads take;
  /// a serial engine's results are bit-identical either way).
  void ExecuteOps(const engine::Op* ops, size_t count,
                  engine::OpResult* results) override {
    for (size_t i = 0; i < count; ++i) {
      const int64_t t0 = NowNs();
      inner_->ExecuteOps(ops + i, 1, results + i);
      const int64_t t1 = NowNs();
      records_->push_back(OpRecord{
          ops[i].kind, static_cast<float>(results[i].latency_ns * 1e-3)});
      call_ns_sum += static_cast<double>(t1 - t0);
    }
    ProfileBatch(ops, count, results);
    // The key space appended this batch's new keys when the batch was
    // generated; walk the batch to know the live range at each op.
    uint64_t new_puts = 0;
    for (size_t i = 0; i < count; ++i) {
      if (ops[i].kind == engine::OpKind::kPut && ops[i].key > max_key_) {
        ++new_puts;
      }
    }
    uint64_t live_max = 2 * (keys_->num_keys() - new_puts);
    for (size_t i = 0; i < count; ++i) {
      const engine::Op& op = ops[i];
      const engine::OpResult& r = results[i];
      ios += r.ios;
      latency_ns_sum += r.latency_ns;
      ++ops_seen;
      digest = (digest ^ (r.ios + 31 * r.scan_hits + (r.found ? 7 : 0))) *
               0x100000001B3ULL;
      uint64_t bits = 0;
      std::memcpy(&bits, &r.latency_ns, sizeof(bits));
      digest = (digest ^ bits) * 0x100000001B3ULL;
      ++checked;
      switch (op.kind) {
        case engine::OpKind::kPut:
          ++puts;
          live_max = std::max(live_max, op.key);
          break;
        case engine::OpKind::kGet: {
          const bool want = op.key % 2 == 0 && op.key <= live_max;
          if (r.found != want) ++wrong;
          break;
        }
        case engine::OpKind::kScan: {
          const uint64_t first = op.key + (op.key % 2);
          const uint64_t live =
              first > live_max ? 0 : (live_max - first) / 2 + 1;
          if (r.scan_hits != std::min<uint64_t>(op.scan_len, live)) ++wrong;
          break;
        }
        case engine::OpKind::kDelete:
          ++wrong;  // the Table-2 phases never delete
          break;
      }
    }
    max_key_ = live_max;
  }
  using StorageEngine::ExecuteOps;

  void FlushMemtable() override { inner_->FlushMemtable(); }
  void Reconfigure(const lsm::Options& o) override { inner_->Reconfigure(o); }
  size_t NumShards() const override { return inner_->NumShards(); }
  size_t ShardIndex(uint64_t key) const override {
    return inner_->ShardIndex(key);
  }
  void ReconfigureShard(size_t shard, const lsm::Options& o) override {
    inner_->ReconfigureShard(shard, o);
  }
  engine::ShardState ShardLifecycle(size_t shard) const override {
    return inner_->ShardLifecycle(shard);
  }
  size_t MaterializedShards() const override {
    return inner_->MaterializedShards();
  }
  void AppendResidentShards(std::vector<size_t>* out) const override {
    inner_->AppendResidentShards(out);
  }
  lsm::Options ShardOptionsSnapshot(size_t shard) const override {
    return inner_->ShardOptionsSnapshot(shard);
  }
  sim::DeviceSnapshot CostSnapshot() const override {
    return inner_->CostSnapshot();
  }
  sim::DeviceSnapshot ShardCostSnapshot(size_t shard) const override {
    return inner_->ShardCostSnapshot(shard);
  }
  engine::EngineCounters AggregateCounters() const override {
    return inner_->AggregateCounters();
  }
  engine::EngineCounters ShardCounters(size_t shard) const override {
    return inner_->ShardCounters(shard);
  }
  uint64_t TotalEntries() const override { return inner_->TotalEntries(); }
  uint64_t DiskEntries() const override { return inner_->DiskEntries(); }
  uint64_t ShardEntries(size_t shard) const override {
    return inner_->ShardEntries(shard);
  }
  bool InTransition() const override { return inner_->InTransition(); }

  /// Call before the first batch: the bulk-loaded key range.
  void set_max_key(uint64_t k) { max_key_ = k; }

  double call_ns_sum = 0.0;
  uint64_t ios = 0, puts = 0, ops_seen = 0, checked = 0, wrong = 0;
  double latency_ns_sum = 0.0;
  uint64_t digest = 0xCBF29CE484222325ULL;

 private:
  engine::StorageEngine* inner_;
  const workload::KeySpace* keys_;
  std::vector<OpRecord>* records_;
  uint64_t max_key_ = 0;
};

constexpr size_t kOpsPerPhase = 20000;
constexpr int kTunerWorkers = 2;
/// Training seeds of the CAMAL loops a run makes. Which configurations
/// CAMAL converges to depends on the sampling noise a training seed brings,
/// so recommendation quality is judged on this fixed panel (like is
/// compared with like across runs) while one further loop per run trains on
/// fresh noise from --seed and gives the sampling cost.
constexpr uint64_t kPanelSeeds[] = {101, 102, 103, 104};
constexpr int kTuneLoops = 5;
constexpr int kTuneExtraSetups = 6;

tune::SystemSetup TuneSetup(uint64_t seed) {
  tune::SystemSetup setup;  // the paper-default scale of every figure
  setup.seed = seed;
  tune::ValidateOrDie(setup);
  return setup;
}

/// The simulated store the dynamic phase serves.
struct SimStore {
  std::unique_ptr<workload::KeySpace> keys;
  std::unique_ptr<engine::ShardedEngine> inner;
  std::unique_ptr<RecordingEngine> rec;
};

SimStore BuildSimStore(const tune::SystemSetup& setup,
                       std::vector<RecordingEngine::OpRecord>* records) {
  SimStore s;
  s.keys = std::make_unique<workload::KeySpace>(setup.num_entries, setup.seed);
  s.inner = std::make_unique<engine::ShardedEngine>(
      1, tune::MonkeyDefaultConfig(setup).ToOptions(setup),
      setup.MakeDeviceConfig());
  workload::BulkLoad(s.inner.get(), *s.keys);
  s.rec = std::make_unique<RecordingEngine>(s.inner.get(), s.keys.get(),
                                            records);
  s.rec->set_max_key(2 * s.keys->num_keys());
  return s;
}

/// CamalTuner (Trees, x10 extrapolation) trained on the 15 Table-1
/// workloads.
std::unique_ptr<tune::CamalTuner> TrainTuner(const tune::SystemSetup& setup) {
  tune::TunerOptions options;
  options.model_kind = tune::ModelKind::kTrees;
  options.extrapolation_factor = 10.0;
  options.threads = kTunerWorkers;
  options.seed = setup.seed;
  auto tuner = std::make_unique<tune::CamalTuner>(setup, options);
  tuner->Train(workload::TrainingWorkloads());
  return tuner;
}

/// What the dynamic phase did to the store.
struct DynamicResult {
  double retune_ns = 0.0;
  size_t reconfigurations = 0;
  uint64_t block_writes = 0;
  engine::EngineCounters counters;
};

/// DynamicTuner drives `store` through the 24 Table-2 phases (the data
/// grows), retuning through `tuner`. Traced, the RecommendFn it is handed
/// is wrapped in a span.
DynamicResult RunDynamic(const tune::SystemSetup& setup,
                         const tune::CamalTuner& tuner, SimStore* store,
                         SpanRecorder* trace) {
  DynamicResult d;
  tune::DynamicTuner::Params params;
  params.window_ops = 1000;
  params.tau = 0.10;
  tune::DynamicTuner dynamic(
      [&tuner, &d, trace](const model::WorkloadSpec& w,
                          const model::SystemParams& target) {
        if (!trace->enabled()) return tuner.RecommendFor(w, target);
        const int64_t s0 = NowNs();
        tune::TuningConfig c = tuner.RecommendFor(w, target);
        const int64_t s1 = NowNs();
        d.retune_ns += static_cast<double>(s1 - s0);
        trace->Record("camal.recommend", trace->NewId(),
                      trace->current_parent, s0, s1);
        return c;
      },
      setup, params);
  const sim::DeviceSnapshot cost0 = store->rec->CostSnapshot();
  const engine::EngineCounters counters0 = store->rec->AggregateCounters();
  const uint64_t dyn_span = trace->NewId();
  const int64_t t0 = NowNs();
  const auto phases = workload::ShiftingWorkloads();
  for (size_t i = 0; i < phases.size(); ++i) {
    const uint64_t span = trace->NewId();
    trace->current_parent = span;
    const int64_t p0 = NowNs();
    dynamic.RunPhase(store->rec.get(), store->keys.get(), phases[i],
                     kOpsPerPhase, setup.seed * 1000003 + i + 1);
    trace->Record("dynamic.phase", span, dyn_span, p0, NowNs());
  }
  trace->current_parent = 0;
  trace->Record("camal.dynamic", dyn_span, 0, t0, NowNs());
  d.reconfigurations = dynamic.reconfigurations();
  d.block_writes = store->rec->CostSnapshot().Delta(cost0).block_writes;
  d.counters = Diff(store->rec->AggregateCounters(), counters0);
  return d;
}

/// One complete CAMAL loop: set-up, offline training, online phase.
struct TuneLoop {
  double setup_s = 0.0, train_s = 0.0, dynamic_s = 0.0, rss_mb = 0.0;
  bool peak_rss_reset = false;
  std::vector<RecordingEngine::OpRecord> records;
  SimStore store;
  std::unique_ptr<tune::CamalTuner> tuner;
  DynamicResult dyn;
};

/// Trains at `train` (its seed sets the sampling noise) and serves the
/// online phase at `online` (its seed sets the data and op streams).
TuneLoop RunTuneLoop(const tune::SystemSetup& train,
                     const tune::SystemSetup& online, bool traced,
                     SpanRecorder* trace) {
  TuneLoop loop;
  // The op records are sized and touched before the RSS baseline, so the
  // peak counts the engine and the tuner only.
  const size_t ops = workload::ShiftingWorkloads().size() * kOpsPerPhase;
  loop.records.assign(ops, RecordingEngine::OpRecord{});
  loop.records.clear();
  malloc_trim(0);
  loop.peak_rss_reset = ResetPeakRss();
  const uint64_t rss_base_kb = StatusKb("VmRSS");
  trace->set_enabled(traced);
  const int64_t t0 = NowNs();
  loop.store = BuildSimStore(online, &loop.records);
  const int64_t t1 = NowNs();
  loop.tuner = TrainTuner(train);
  const int64_t t2 = NowNs();
  loop.dyn = RunDynamic(online, *loop.tuner, &loop.store, trace);
  const int64_t t3 = NowNs();
  trace->Record("tune.setup", trace->NewId(), 0, t0, t1);
  trace->Record("camal.train", trace->NewId(), 0, t1, t2);
  trace->set_enabled(false);
  loop.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  loop.train_s = static_cast<double>(t2 - t1) * 1e-9;
  loop.dynamic_s = static_cast<double>(t3 - t2) * 1e-9;
  const uint64_t hwm_kb = StatusKb("VmHWM");
  loop.rss_mb = hwm_kb > rss_base_kb
                    ? static_cast<double>(hwm_kb - rss_base_kb) / 1024.0
                    : 0.0;
  return loop;
}

bool SameWorkload(const model::WorkloadSpec& a, const model::WorkloadSpec& b) {
  return a.v == b.v && a.r == b.r && a.q == b.q && a.w == b.w &&
         a.skew == b.skew && a.delete_frac == b.delete_frac;
}

/// Re-runs the tuner's own sample list through `Evaluator::MakeSamples` at
/// its training scale (one batch per run of same-workload samples), and
/// refits a Trees model on it: the sampling and ML layers timed on their
/// own. Returns {replay_s, fit_ms, predict_ns}.
struct ReplayTimes {
  double replay_s = 0.0, fit_ms = 0.0, predict_ns = 0.0;
};
ReplayTimes ReplayTuner(const tune::CamalTuner& tuner, SpanRecorder* trace) {
  ReplayTimes t;
  const auto& samples = tuner.samples();
  tune::Evaluator evaluator(tuner.train_setup());
  util::ThreadPool pool(kTunerWorkers);
  const int64_t r0 = NowNs();
  uint64_t salt = 1;
  for (size_t i = 0; i < samples.size();) {
    std::vector<tune::TuningConfig> configs;
    size_t j = i;
    for (; j < samples.size() &&
           SameWorkload(samples[j].workload, samples[i].workload);
         ++j) {
      configs.push_back(samples[j].config);
    }
    evaluator.MakeSamples(samples[i].workload, configs, salt, &pool);
    salt += configs.size();
    i = j;
  }
  const int64_t r1 = NowNs();
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const tune::Sample& s : samples) {
    x.push_back(tune::RawFeatures(s.workload, s.config, s.sys));
    y.push_back(s.mean_latency_ns / 1000.0);
  }
  auto model = tune::MakeModel(tune::ModelKind::kTrees, 1);
  model->Fit(x, y);
  const int64_t r2 = NowNs();
  double sink = 0.0;
  constexpr int kPredictPasses = 20;
  for (int pass = 0; pass < kPredictPasses; ++pass) {
    for (const auto& row : x) sink += model->Predict(row);
  }
  const int64_t r3 = NowNs();
  if (!std::isfinite(sink)) std::fprintf(stderr, "non-finite prediction\n");
  trace->Record("camal.sample_replay", trace->NewId(), 0, r0, r1);
  trace->Record("ml.fit", trace->NewId(), 0, r1, r2);
  trace->Record("ml.predict", trace->NewId(), 0, r2, r3);
  t.replay_s = static_cast<double>(r1 - r0) * 1e-9;
  t.fit_ms = static_cast<double>(r2 - r1) * 1e-6;
  t.predict_ns = static_cast<double>(r3 - r2) /
                 static_cast<double>(kPredictPasses * x.size());
  return t;
}

/// Cost per op of the library's own workload generator over the 24 phases
/// (the tune loop generates its stream inside DynamicTuner, on the clock).
double LibraryGenNsPerOp(const tune::SystemSetup& setup) {
  workload::KeySpace keys(setup.num_entries, setup.seed);
  workload::GeneratorConfig cfg;
  cfg.scan_len = setup.scan_len;
  cfg.insert_new_keys = true;
  const auto phases = workload::ShiftingWorkloads();
  uint64_t sink = 0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < phases.size(); ++i) {
    workload::OperationGenerator gen(phases[i], &keys, cfg, i + 1);
    for (size_t k = 0; k < kOpsPerPhase; ++k) sink += gen.Next().key;
  }
  const int64_t t1 = NowNs();
  if (sink == 0) std::fprintf(stderr, "empty generator stream\n");
  return static_cast<double>(t1 - t0) /
         static_cast<double>(phases.size() * kOpsPerPhase);
}

void RunTuneWorkload(Env* env, SpanRecorder* trace, Outcome* out) {
  env->fs = "none";
  env->placement = "sim";
  env->tuner_workers = kTunerWorkers;

  // Panel loops feed the recommendation-quality figures, pooled over the
  // loops: simulated per-op latencies by kind, counts, simulated costs,
  // and the wall time of the loop (the same work in every run).
  std::vector<double> sim_us[engine::kNumOpKinds];
  double sim_latency_ns = 0.0, sampling_cost_ns = 0.0;
  uint64_t ops = 0, ios = 0, puts = 0, block_writes = 0, entries = 0,
           live = 0, samples = 0, reconfigurations = 0;
  engine::EngineCounters counters;
  // Every loop's wall times, split untraced [0] / traced [1]; a traced run
  // alternates the two so host drift hits both alike.
  std::vector<double> setup_s, rss_mb, tune_s[2], train_s[2], dyn_s[2],
      retune_ms;
  double group_call_ns[2] = {0.0, 0.0};
  uint64_t group_ops[2] = {0, 0};
  std::unique_ptr<tune::CamalTuner> fresh_tuner;
  tune::SystemSetup fresh_online;
  uint64_t fresh_digest = 0;
  size_t fresh_reconfigurations = 0;

  for (int k = 0; k < kTuneLoops; ++k) {
    const bool panel = k < static_cast<int>(std::size(kPanelSeeds));
    const bool traced = env->trace && k % 2 == 1;
    const uint64_t online_seed = env->seed * 1000 + static_cast<uint64_t>(k);
    const tune::SystemSetup online = TuneSetup(online_seed);
    const tune::SystemSetup train =
        panel ? TuneSetup(kPanelSeeds[k]) : TuneSetup(0x5EED0000 + env->seed);
    TuneLoop loop = RunTuneLoop(train, online, traced, trace);
    RecordingEngine& rec = *loop.store.rec;
    out->attempted += rec.checked;
    if (rec.wrong != 0) {
      out->Fail(rec.wrong, "tune loop: engine results disagree with the "
                           "key space");
    }
    if (!loop.peak_rss_reset) {
      env->peak_rss_reset = false;
      out->Fail(1, "the kernel refused to reset the peak-RSS mark");
    }
    setup_s.push_back(loop.setup_s);
    rss_mb.push_back(loop.rss_mb);
    train_s[traced].push_back(loop.train_s);
    dyn_s[traced].push_back(loop.dynamic_s);
    group_call_ns[traced] += rec.call_ns_sum;
    group_ops[traced] += rec.ops_seen;
    if (traced) retune_ms.push_back(loop.dyn.retune_ns * 1e-6);
    if (!panel) {
      sampling_cost_ns = loop.tuner->sampling_cost_ns();
      samples = loop.tuner->samples().size();
      fresh_digest = rec.digest;
      fresh_reconfigurations = loop.dyn.reconfigurations;
      fresh_online = online;
      fresh_tuner = std::move(loop.tuner);
      continue;
    }
    tune_s[traced].push_back(loop.train_s + loop.dynamic_s);
    for (size_t kind = 0; kind < engine::kNumOpKinds; ++kind) {
      const auto lat = rec.Latencies(static_cast<engine::OpKind>(kind));
      sim_us[kind].insert(sim_us[kind].end(), lat.begin(), lat.end());
    }
    sim_latency_ns += rec.latency_ns_sum;
    ops += rec.ops_seen;
    ios += rec.ios;
    puts += rec.puts;
    block_writes += loop.dyn.block_writes;
    entries += loop.store.inner->TotalEntries();
    live += loop.store.keys->num_keys();
    counters += loop.dyn.counters;
    reconfigurations += loop.dyn.reconfigurations;
  }
  // Determinism: the fresh loop's online phase, replayed on a new store
  // with the same trained tuner, must match it op for op.
  {
    std::vector<RecordingEngine::OpRecord> records;
    SimStore again = BuildSimStore(fresh_online, &records);
    const DynamicResult d =
        RunDynamic(fresh_online, *fresh_tuner, &again, trace);
    out->attempted += 1;
    if (again.rec->digest != fresh_digest ||
        d.reconfigurations != fresh_reconfigurations) {
      out->Fail(1, "tune: replayed online phase is not bit-identical");
    }
  }
  // More set-ups (key space + sim engine + bulk load) for a steady median.
  for (int k = 0; k < kTuneExtraSetups; ++k) {
    const int64_t t0 = NowNs();
    std::vector<RecordingEngine::OpRecord> records;
    SimStore s =
        BuildSimStore(TuneSetup(env->seed * 1000 + 100 + k), &records);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  const double n = static_cast<double>(ops);
  const tune::SystemSetup base = TuneSetup(env->seed);
  auto& v = out->values;
  if (!env->trace) {
    v["setup_s"] = Median(setup_s);
    auto sim = [&](engine::OpKind kind) {
      return &sim_us[static_cast<size_t>(kind)];
    };
    // One client in the simulator's clock: ops per simulated second.
    v["ops_per_s"] = n / (sim_latency_ns * 1e-9);
    v["get_p50_us"] = Quantile(sim(engine::OpKind::kGet), 0.50, "get");
    v["get_p99_us"] = Quantile(sim(engine::OpKind::kGet), 0.99, "get");
    v["put_tail_us"] = TailMean(sim(engine::OpKind::kPut), 0.99, "put");
    v["scan_p50_us"] = Quantile(sim(engine::OpKind::kScan), 0.50, "scan");
    v["scan_p99_us"] = Quantile(sim(engine::OpKind::kScan), 0.99, "scan");
    v["ios_per_op"] = static_cast<double>(ios) / n;
    v["write_amp"] = static_cast<double>(block_writes) *
                     static_cast<double>(base.device.block_bytes) /
                     static_cast<double>(puts * base.entry_bytes);
    v["space_amp"] = static_cast<double>(entries) / static_cast<double>(live);
    v["rss_mb"] = Median(rss_mb);
    v["tune_s"] = Median(tune_s[0]);
    v["tuned_latency_us"] = sim_latency_ns * 1e-3 / n;
    v["sampling_cost_s"] = sampling_cost_ns * 1e-9;
    return;
  }
  trace->set_enabled(true);
  const ReplayTimes replay = ReplayTuner(*fresh_tuner, trace);
  trace->set_enabled(false);
  const double block_mb =
      static_cast<double>(base.device.block_bytes) / (1024.0 * 1024.0);
  v["workload.gen_ns_per_op"] = LibraryGenNsPerOp(base);
  v["lsm.flushes"] = static_cast<double>(counters.flushes);
  v["lsm.merges"] = static_cast<double>(counters.merges);
  v["lsm.compaction_mb_read"] =
      static_cast<double>(counters.compaction_block_reads) * block_mb;
  v["lsm.compaction_mb_written"] =
      static_cast<double>(counters.compaction_block_writes) * block_mb;
  v["lsm.transition_ios"] = static_cast<double>(counters.transition_ios);
  v["camal.train_s"] = Median(train_s[1]);
  v["camal.dynamic_s"] = Median(dyn_s[1]);
  v["camal.retune_ms"] = Median(retune_ms);
  v["camal.samples"] = static_cast<double>(samples);
  v["camal.sample_replay_s"] = replay.replay_s;
  v["camal.reconfigurations"] =
      static_cast<double>(reconfigurations) /
      static_cast<double>(std::size(kPanelSeeds));
  v["ml.fit_ms"] = replay.fit_ms;
  v["ml.predict_ns"] = replay.predict_ns;
  v["sim.ios_per_op"] = static_cast<double>(ios) / n;
  v["trace.untraced_ops_per_s"] =
      static_cast<double>(group_ops[0]) / (group_call_ns[0] * 1e-9);
  v["trace.traced_ops_per_s"] =
      static_cast<double>(group_ops[1]) / (group_call_ns[1] * 1e-9);
  v["trace.untraced_tune_s"] = Median(tune_s[0]);
  v["trace.traced_tune_s"] = Median(tune_s[1]);
  v["trace.overhead_pct"] =
      100.0 * (v["trace.traced_tune_s"] / v["trace.untraced_tune_s"] - 1.0);
}

// ------------------------------------------------------------ output

std::string FormatNumber(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

int Main(int argc, char** argv) {
  Env env;
  env.seed = 1;
  env.seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      env.workload = val;
    } else if (flag == "--seed") {
      env.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      env.seconds = std::atoi(val.c_str());
    } else if (flag == "--trace") {
      env.trace = val == "1";
    } else if (flag == "--workdir") {
      env.workdir = val;
    } else if (flag == "--trace-out") {
      env.trace_out = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (env.seconds < 1 || env.workdir.empty()) {
    std::fprintf(stderr, "usage: camal_perf --workload W --seed N --seconds S "
                         "--trace 0|1 --workdir DIR [--trace-out FILE]\n");
    return 2;
  }
  env.nproc = std::thread::hardware_concurrency();
  // A fixed mmap threshold: glibc otherwise raises it adaptively as large
  // blocks are freed, so peak RSS would depend on allocation history (the
  // order of one seed's ops) rather than on what the engine holds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  SpanRecorder trace;
  Outcome out;
  for (const MetricDef& m : kPerLayer) out.values[m.name] = 0.0;
  if (env.workload == "point-read") {
    RunFileWorkload(PointReadSpec(), &env, &trace, &out);
  } else if (env.workload == "ingest-scan") {
    RunFileWorkload(IngestScanSpec(), &env, &trace, &out);
  } else if (env.workload == "tune") {
    RunTuneWorkload(&env, &trace, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", env.workload.c_str());
    return 2;
  }

  std::printf("# env: %s\n", env.Json().c_str());
  std::string json;
  bool finite = true;
  for (const MetricDef& m : env.trace ? std::vector<MetricDef>(
                                            std::begin(kPerLayer),
                                            std::end(kPerLayer))
                                      : std::vector<MetricDef>(
                                            std::begin(kEndToEnd),
                                            std::end(kEndToEnd))) {
    const auto it = out.values.find(m.name);
    if (it == out.values.end()) {
      std::fprintf(stderr, "metric %s was not measured\n", m.name);
      return 2;
    }
    finite = finite && std::isfinite(it->second);
    std::printf("  %-28s %16.6f %s\n", m.name, it->second, m.unit);
    json += std::string(json.empty() ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + FormatNumber(it->second) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  if (!finite) out.Fail(1, "a metric is not a finite number");
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  if (env.trace && !env.trace_out.empty() &&
      !trace.WriteJson(env.trace_out, env.Json())) {
    std::fprintf(stderr, "cannot write %s\n", env.trace_out.c_str());
    return 2;
  }
  const bool correct = out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace camal::perfbench

int main(int argc, char** argv) { return camal::perfbench::Main(argc, argv); }
