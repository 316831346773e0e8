// Crash-point fault-injection matrix for the durability subsystem: a
// FileOps fault model enumerates every mutating file operation (write,
// fsync, rename, unlink, truncate, create) inside an armed operation —
// memtable flush with compaction (also with an output run written in
// several chunks), idle-shard hibernation, wake — then
// re-runs the scenario once per site, killing the engine (an injected
// exception) exactly there, with a torn-write variant that persists only
// half the buffer at write sites. After every crash, `reopen=true`
// recovery must restore a state logically identical (Gets over the whole
// key universe + Scans) to the never-crashed reference, without
// rebuilding a single run. Plus the clean-close paths: reopen restores
// all shards — including hibernated ones — from their manifests alone,
// a clean WAL is kept and appended to rather than rewritten, a damaged
// or missing Bloom filter file (`run_<id>.blm`) is rebuilt from its run,
// bit-identically, instead of failing the reopen, and a non-durable
// shard whose hibernation WAL has a damaged byte stops the wake instead of
// serving it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "engine/file_engine.h"
#include "engine/file_ops.h"
#include "engine/manifest.h"
#include "lsm/options.h"
#include "util/crc32c.h"

namespace camal::engine {
namespace {

namespace fs = std::filesystem;

std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

std::string UniqueDir(const std::string& tag) {
  return TestBase() + "/camal_crash_test_" + tag + "_" +
         std::to_string(FileEngine::NextUniqueId());
}

/// The injected "power loss". Thrown *instead of* performing the k-th
/// armed mutation, so everything before the crash point is really on
/// disk and nothing after it ever happens.
struct CrashInjected {};

/// Fault model over the FileOps seam. Three phases:
///  - counting (crash_at < 0): every armed mutation increments the site
///    counter and executes normally — the enumeration pass;
///  - crashing: the site equal to `crash_at` throws CrashInjected
///    (optionally after persisting half the buffer at a write site) and
///    flips the model inert;
///  - inert: every mutation reports success without touching disk, so
///    the crashed engine's destructor cannot repair or further damage
///    the post-crash file set. Close stays real (descriptor hygiene).
class CrashOps : public fileio::FileOps {
 public:
  void Arm() { armed_ = true; }
  void Disarm() { armed_ = false; }
  void SetCrash(int site, bool torn) {
    crash_at_ = site;
    torn_ = torn;
  }

  int sites() const { return sites_; }
  const std::vector<bool>& site_is_write() const { return site_is_write_; }

  /// The armed sites as "<op> <file name>", in site order.
  const std::vector<std::string>& site_names() const { return site_names_; }

  int Open(const std::string& path, int flags, int mode) override {
    if (inert_) {
      errno = EIO;  // nothing may create files after the crash
      return -1;
    }
    Site(false, "open", path);
    const int fd = FileOps::Open(path, flags, mode);
    if (fd >= 0) fd_path_[fd] = path;
    return fd;
  }

  int64_t PWrite(int fd, const void* buf, uint64_t count,
                 uint64_t offset) override {
    if (inert_) return static_cast<int64_t>(count);
    if (armed_ && sites_ == crash_at_ && torn_ && count > 1) {
      // Torn write: half the buffer reaches the platter, then the power
      // goes. The CRC framing must reject the half-record on replay.
      FileOps::PWrite(fd, buf, count / 2, offset);
    }
    Site(true, "pwrite", fd_path_[fd]);
    return FileOps::PWrite(fd, buf, count, offset);
  }

  int Fsync(int fd) override {
    if (inert_) return 0;
    Site(false, "fsync", fd_path_[fd]);
    return FileOps::Fsync(fd);
  }

  int Rename(const std::string& from, const std::string& to) override {
    if (inert_) return 0;
    Site(false, "rename", from);
    return FileOps::Rename(from, to);
  }

  int Unlink(const std::string& path) override {
    if (inert_) return 0;
    Site(false, "unlink", path);
    return FileOps::Unlink(path);
  }

  int Ftruncate(int fd, uint64_t length) override {
    if (inert_) return 0;
    Site(false, "ftruncate", fd_path_[fd]);
    return FileOps::Ftruncate(fd, length);
  }

 private:
  void Site(bool is_write, const char* op, const std::string& path) {
    if (!armed_) return;
    const int site = sites_++;
    site_is_write_.push_back(is_write);
    site_names_.push_back(std::string(op) + " " +
                          fs::path(path).filename().string());
    if (site == crash_at_) {
      inert_ = true;
      throw CrashInjected{};
    }
  }

  bool armed_ = false;
  bool inert_ = false;
  bool torn_ = false;
  int crash_at_ = -1;
  int sites_ = 0;
  std::vector<bool> site_is_write_;
  std::vector<std::string> site_names_;
  std::map<int, std::string> fd_path_;
};

using Reference = std::map<uint64_t, uint64_t>;

/// One crash scenario: how to build the pre-crash state (unarmed) and
/// which logically-neutral operation to kill (armed — a flush or a GET
/// batch changes no logical contents, so the never-crashed expectation
/// is simply the reference map the setup built).
struct Scenario {
  size_t shards = 1;
  lsm::Options options;
  ShardLifecycleConfig lifecycle;
  uint32_t rotate_records = 128;
  uint64_t block_bytes = 4096;
  std::function<void(FileEngine&, Reference*)> setup;
  std::function<void(FileEngine&)> armed;
  uint64_t max_key = 0;
};

void PutBatch(FileEngine& eng, const std::vector<Op>& ops) {
  std::vector<OpResult> results(ops.size());
  eng.ExecuteOps(ops.data(), ops.size(), results.data());
}

Op Put(uint64_t key, uint64_t value) {
  Op op;
  op.kind = OpKind::kPut;
  op.key = key;
  op.value = value;
  return op;
}

Op GetOp(uint64_t key) {
  Op op;
  op.kind = OpKind::kGet;
  op.key = key;
  return op;
}

/// Gets over the whole key universe plus scans from several starts: the
/// logical-identity check between a recovered engine and the reference.
void VerifyMatchesReference(FileEngine& eng, const Reference& ref,
                            uint64_t max_key) {
  uint64_t value = 0;
  for (uint64_t k = 0; k <= max_key; ++k) {
    const auto it = ref.find(k);
    if (it != ref.end()) {
      ASSERT_TRUE(eng.Get(k, &value)) << "lost key " << k;
      EXPECT_EQ(value, it->second) << "key " << k;
    } else {
      EXPECT_FALSE(eng.Get(k, &value)) << "resurrected key " << k;
    }
  }
  for (const uint64_t start :
       {uint64_t{0}, uint64_t{37}, max_key / 2, max_key}) {
    std::vector<lsm::Entry> got;
    eng.Scan(start, 20, &got);
    auto it = ref.lower_bound(start);
    size_t i = 0;
    for (; i < 20 && it != ref.end(); ++i, ++it) {
      ASSERT_LT(i, got.size()) << "scan from " << start;
      EXPECT_EQ(got[i].key, it->first);
      EXPECT_EQ(got[i].value, it->second);
    }
    EXPECT_EQ(got.size(), i) << "scan from " << start;
  }
}

/// Runs one scenario pass against `dir` through `ops`. Returns whether
/// the armed operation crashed. The engine is destroyed before return
/// (with `ops` inert if it crashed), leaving the file set in its exact
/// post-crash state.
bool RunPass(const Scenario& sc, const std::string& dir, CrashOps* ops,
             Reference* ref) {
  FileEngineConfig cfg;
  cfg.workdir = dir;
  cfg.durable = true;
  cfg.keep_files = true;  // the reopen pass owns cleanup
  cfg.wal_sync = fileio::WalSyncPolicy::kBatch;
  cfg.manifest_rotate_records = sc.rotate_records;
  cfg.lifecycle = sc.lifecycle;
  cfg.block_bytes = sc.block_bytes;
  cfg.file_ops = ops;
  FileEngine eng(sc.shards, sc.options, cfg);
  sc.setup(eng, ref);
  ops->Arm();
  bool crashed = false;
  try {
    sc.armed(eng);
  } catch (const CrashInjected&) {
    crashed = true;
  }
  ops->Disarm();
  return crashed;
}

/// Records the files the engine creates or opens for writing.
class OpenLog : public fileio::FileOps {
 public:
  int Open(const std::string& path, int flags, int mode) override {
    opened.push_back(path);
    return FileOps::Open(path, flags, mode);
  }
  std::vector<std::string> opened;
};

/// Files with extension `ext` in `shard_dir`.
size_t CountFiles(const std::string& shard_dir, const std::string& ext) {
  size_t n = 0;
  for (const auto& f : fs::directory_iterator(shard_dir)) {
    if (f.path().extension() == ext) ++n;
  }
  return n;
}

/// Reopens the post-crash (or post-clean-close) file set and checks
/// logical identity with the reference. Recovery must not rebuild runs:
/// the reopened engine's write counter stays at zero. Nor may it rebuild
/// a filter: every run the manifest names had its filter file durable
/// before the record committed, so none is ever missing after a crash.
/// And the orphan sweep leaves exactly the live runs' files: a run whose
/// build the crash cut short is gone.
void ReopenAndVerify(const Scenario& sc, const std::string& dir,
                     const Reference& ref) {
  {
    OpenLog log;
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    cfg.block_bytes = sc.block_bytes;
    cfg.file_ops = &log;
    FileEngine eng(sc.shards, sc.options, cfg);
    EXPECT_EQ(eng.CostSnapshot().block_writes, 0u)
        << "recovery rebuilt run files instead of replaying the manifest";
    for (size_t s = 0; s < sc.shards; ++s) {
      const std::string shard_dir = dir + "/shard_" + std::to_string(s);
      if (!fs::exists(shard_dir)) continue;
      EXPECT_EQ(CountFiles(shard_dir, ".cam"), eng.ShardRunCount(s))
          << "shard " << s << " kept a run file no live run owns";
      EXPECT_EQ(CountFiles(shard_dir, ".blm"), eng.ShardRunCount(s))
          << "shard " << s << " kept a filter file no live run owns";
    }
    VerifyMatchesReference(eng, ref, sc.max_key);
    for (const std::string& path : log.opened) {
      EXPECT_NE(fs::path(path).extension(), ".blm")
          << "recovery rebuilt filter file " << path;
    }
  }
  fs::remove_all(dir);
}

/// The full matrix: enumerate the armed mutation sites once, then crash
/// at every site (and, at write sites, crash again mid-write) and prove
/// recovery restores the reference state each time. Returns the armed
/// sites' names (see `CrashOps::site_names`).
std::vector<std::string> RunCrashMatrix(const Scenario& sc,
                                        const std::string& tag) {
  CrashOps counter;
  Reference clean_ref;
  const std::string clean_dir = UniqueDir(tag + "_clean");
  if (RunPass(sc, clean_dir, &counter, &clean_ref)) {
    ADD_FAILURE() << "the counting pass crashed";
    return {};
  }
  const int sites = counter.sites();
  EXPECT_GT(sites, 0) << "armed operation performed no mutations";
  // The clean close itself must reopen to the reference state.
  ReopenAndVerify(sc, clean_dir, clean_ref);

  for (int k = 0; k < sites; ++k) {
    for (const bool torn : {false, true}) {
      if (torn && !counter.site_is_write()[static_cast<size_t>(k)]) {
        continue;  // only writes can tear
      }
      SCOPED_TRACE(tag + " site " + std::to_string(k) +
                   (torn ? " (torn write)" : ""));
      CrashOps ops;
      ops.SetCrash(k, torn);
      Reference ref;
      const std::string dir = UniqueDir(tag + "_s" + std::to_string(k) +
                                        (torn ? "t" : ""));
      EXPECT_TRUE(RunPass(sc, dir, &ops, &ref))
          << "site " << k << " was not reached on the crash pass";
      ReopenAndVerify(sc, dir, ref);
    }
  }
  return counter.site_names();
}

lsm::Options CrashOptions(size_t shards) {
  lsm::Options opts;
  opts.size_ratio = 4.0;
  // Per-shard slices divide the totals; keep ~64 entries of buffer and a
  // real Bloom/cache per shard at any scenario shard count.
  opts.buffer_bytes = 64 * 128 * shards;
  opts.bloom_bits = 8 * 2000 * shards;
  opts.block_cache_bytes = 8 * 4096 * shards;
  return opts;
}

/// Keys of `eng`'s shard `s` (hash partitioning makes the split opaque;
/// ask the engine).
std::vector<uint64_t> ShardKeys(const FileEngine& eng, size_t s, size_t n,
                                uint64_t max_key) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 2; k <= max_key && keys.size() < n; k += 2) {
    if (eng.ShardIndex(k) == s) keys.push_back(k);
  }
  return keys;
}

TEST(CrashRecoveryTest, FlushAndCompactionCrashMatrix) {
  Scenario sc;
  sc.shards = 1;
  sc.options = CrashOptions(1);
  sc.rotate_records = 4;  // the armed flush also exercises rotation
  sc.max_key = 620;
  sc.setup = [](FileEngine& eng, Reference* ref) {
    // Enough entries that the setup batch itself flushes several times
    // (unarmed), so the armed flush lands on a populated level structure
    // and triggers a real merge.
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= 600; k += 2) {
      batch.push_back(Put(k, k * 3 + 1));
      (*ref)[k] = k * 3 + 1;
    }
    PutBatch(eng, batch);
    // A round of overwrites and deletes: recovery must preserve
    // shadowing, not just presence.
    batch.clear();
    for (uint64_t k = 2; k <= 120; k += 2) {
      if (k % 6 == 0) {
        Op op;
        op.kind = OpKind::kDelete;
        op.key = k;
        batch.push_back(op);
        ref->erase(k);
      } else {
        batch.push_back(Put(k, k + 7));
        (*ref)[k] = k + 7;
      }
    }
    PutBatch(eng, batch);
  };
  sc.armed = [](FileEngine& eng) { eng.FlushMemtable(); };
  const std::vector<std::string> sites = RunCrashMatrix(sc, "flush");
  // The matrix crashed at (and tore) every step of a run's filter file:
  // its creation, write and fsync before the record that names the run
  // commits, and its unlink once a merge consumed the run.
  for (const char* op : {"open", "pwrite", "fsync", "unlink"}) {
    EXPECT_TRUE(std::any_of(sites.begin(), sites.end(),
                            [op](const std::string& site) {
                              return site.rfind(op, 0) == 0 &&
                                     fs::path(site).extension() == ".blm";
                            }))
        << "no armed " << op << " of a filter file";
  }
}

TEST(CrashRecoveryTest, ChunkedRunWriteCrashMatrix) {
  // 512-byte blocks hold 21 records, so the armed merge writes its
  // ~3000-entry output run in several pwrite chunks: the matrix crashes
  // (and tears) between and inside them.
  Scenario sc;
  sc.shards = 1;
  sc.block_bytes = 512;
  sc.options = CrashOptions(1);
  sc.options.buffer_bytes = 2000 * 128;
  sc.options.block_cache_bytes = 8 * 512;
  sc.max_key = 6020;
  sc.setup = [](FileEngine& eng, Reference* ref) {
    // The first 2000 keys flush into level 0 (unarmed); the rest stay in
    // the memtable, with overwrites and deletes of flushed keys.
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= 6000; k += 2) {
      batch.push_back(Put(k, k * 5 + 1));
      (*ref)[k] = k * 5 + 1;
    }
    PutBatch(eng, batch);
    batch.clear();
    for (uint64_t k = 2002; k <= 3000; k += 2) {
      if (k % 10 == 0) {
        Op op;
        op.kind = OpKind::kDelete;
        op.key = k;
        batch.push_back(op);
        ref->erase(k);
      } else {
        batch.push_back(Put(k, k + 11));
        (*ref)[k] = k + 11;
      }
    }
    PutBatch(eng, batch);
  };
  // Flushes the memtable into a second level-0 run, which merges both
  // runs into one level-1 run.
  sc.armed = [](FileEngine& eng) { eng.FlushMemtable(); };
  const std::vector<std::string> sites = RunCrashMatrix(sc, "chunked");
  std::map<std::string, int> run_pwrites;
  for (const std::string& site : sites) {
    if (site.rfind("pwrite run_", 0) == 0 &&
        fs::path(site).extension() == ".cam") {
      ++run_pwrites[site];
    }
  }
  int most = 0;
  for (const auto& [site, n] : run_pwrites) most = std::max(most, n);
  EXPECT_GE(most, 2) << "no armed run file was written in several chunks";
}

TEST(CrashRecoveryTest, HibernateCrashMatrix) {
  Scenario sc;
  sc.shards = 2;
  sc.options = CrashOptions(2);
  sc.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
  sc.max_key = 1200;
  sc.setup = [&sc](FileEngine& eng, Reference* ref) {
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= sc.max_key; k += 2) {
      batch.push_back(Put(k, k + 5));
      (*ref)[k] = k + 5;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    // Fresh memtable residue in both shards: the WAL must carry it.
    batch.clear();
    for (uint64_t k = 2; k <= 80; k += 2) {
      batch.push_back(Put(k, k + 9));
      (*ref)[k] = k + 9;
    }
    PutBatch(eng, batch);
  };
  sc.armed = [&sc](FileEngine& eng) {
    // GET-only batches confined to shard 0: shard 1 goes idle past the
    // threshold and hibernates at a batch boundary.
    const std::vector<uint64_t> hot = ShardKeys(eng, 0, 24, sc.max_key);
    ASSERT_FALSE(hot.empty());
    std::vector<Op> batch;
    for (const uint64_t k : hot) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
  };
  // The manifest and WAL are the whole hibernation image, and the WAL was
  // committed by the batch that wrote it: the one armed write is the
  // kHibernate record, and no other file is touched.
  EXPECT_EQ(RunCrashMatrix(sc, "hibernate"),
            (std::vector<std::string>{"pwrite MANIFEST", "fsync MANIFEST"}));
}

TEST(CrashRecoveryTest, WakeCrashMatrix) {
  Scenario sc;
  sc.shards = 2;
  sc.options = CrashOptions(2);
  sc.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
  sc.max_key = 1200;
  sc.setup = [&sc](FileEngine& eng, Reference* ref) {
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= sc.max_key; k += 2) {
      batch.push_back(Put(k, k + 5));
      (*ref)[k] = k + 5;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    batch.clear();
    for (uint64_t k = 2; k <= 80; k += 2) {
      batch.push_back(Put(k, k + 9));
      (*ref)[k] = k + 9;
    }
    PutBatch(eng, batch);
    // Hibernate shard 1 cleanly (unarmed) with shard-0-only traffic.
    const std::vector<uint64_t> hot = ShardKeys(eng, 0, 24, sc.max_key);
    batch.clear();
    for (const uint64_t k : hot) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
  };
  sc.armed = [&sc](FileEngine& eng) {
    // Touching the hibernated shard wakes it, and the idle shard 0 goes
    // to sleep at the end of the same batch.
    const std::vector<uint64_t> cold = ShardKeys(eng, 1, 24, sc.max_key);
    ASSERT_FALSE(cold.empty());
    std::vector<Op> batch;
    for (const uint64_t k : cold) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kMaterialized);
  };
  // The wake replays shard 1's logs, reopens their writers and logs kWake;
  // then shard 0 logs kHibernate. No other file is touched.
  EXPECT_EQ(RunCrashMatrix(sc, "wake"),
            (std::vector<std::string>{"open MANIFEST", "open WAL",
                                      "pwrite MANIFEST", "fsync MANIFEST",
                                      "pwrite MANIFEST", "fsync MANIFEST"}));
}

// ------------------------------------------------- clean-close recovery

TEST(CrashRecoveryTest, CleanCloseReopenRestoresShardsWithoutRebuilding) {
  const std::string dir = UniqueDir("clean_reopen");
  const lsm::Options opts = CrashOptions(3);
  Reference ref;
  std::vector<size_t> run_counts(3);
  uint64_t disk_entries = 0;
  uint64_t total_entries = 0;
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.durable = true;
    cfg.keep_files = true;
    FileEngine eng(3, opts, cfg);
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= 1500; k += 2) {
      batch.push_back(Put(k, k * 2 + 3));
      ref[k] = k * 2 + 3;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    batch.clear();
    for (uint64_t k = 2; k <= 90; k += 2) {
      if (k % 10 == 0) {
        Op op;
        op.kind = OpKind::kDelete;
        op.key = k;
        batch.push_back(op);
        ref.erase(k);
      } else {
        batch.push_back(Put(k, k));
        ref[k] = k;
      }
    }
    PutBatch(eng, batch);  // leaves live memtable residue for the WAL
    for (size_t s = 0; s < 3; ++s) run_counts[s] = eng.ShardRunCount(s);
    disk_entries = eng.DiskEntries();
    total_entries = eng.TotalEntries();
  }
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    FileEngine eng(3, opts, cfg);
    EXPECT_TRUE(eng.durable());  // reopen implies the durability layer
    // The file-set structure came back exactly — same runs per shard,
    // same disk/total entry split (memtable via WAL replay) — and no run
    // was rebuilt (zero write I/O during recovery).
    EXPECT_EQ(eng.CostSnapshot().block_writes, 0u);
    EXPECT_EQ(eng.CostSnapshot().block_reads, 0u);
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(eng.ShardRunCount(s), run_counts[s]) << "shard " << s;
    }
    EXPECT_EQ(eng.DiskEntries(), disk_entries);
    EXPECT_EQ(eng.TotalEntries(), total_entries);
    VerifyMatchesReference(eng, ref, 1500);
  }
  fs::remove_all(dir);
}

/// Records every pwrite and ftruncate, as "<op> <file name>".
class WriteLog : public fileio::FileOps {
 public:
  int Open(const std::string& path, int flags, int mode) override {
    const int fd = FileOps::Open(path, flags, mode);
    if (fd >= 0) fd_name_[fd] = fs::path(path).filename().string();
    return fd;
  }
  int64_t PWrite(int fd, const void* buf, uint64_t count,
                 uint64_t offset) override {
    writes.push_back("pwrite " + fd_name_[fd]);
    return FileOps::PWrite(fd, buf, count, offset);
  }
  int Ftruncate(int fd, uint64_t length) override {
    writes.push_back("ftruncate " + fd_name_[fd]);
    return FileOps::Ftruncate(fd, length);
  }
  std::vector<std::string> writes;

 private:
  std::map<int, std::string> fd_name_;
};

TEST(CrashRecoveryTest, CleanReopenAppendsToTheRecoveredWal) {
  // A WAL holding only whole records of the live epoch replays to the
  // memtable as it stands: a reopen neither truncates nor rewrites it,
  // and later writes append behind the recovered records.
  const std::string dir = UniqueDir("wal_reuse");
  const std::string wal = dir + "/shard_0/WAL";
  const lsm::Options opts = CrashOptions(1);
  Reference ref;
  auto put_keys = [&ref](FileEngine& eng, uint64_t from, uint64_t to) {
    std::vector<Op> batch;
    for (uint64_t k = from; k <= to; k += 2) {
      batch.push_back(Put(k, k * 7));
      ref[k] = k * 7;
    }
    PutBatch(eng, batch);
  };
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.durable = true;
    cfg.keep_files = true;
    FileEngine eng(1, opts, cfg);
    put_keys(eng, 2, 200);  // 100 entries: one flush, a memtable residue
    put_keys(eng, 202, 240);
    ASSERT_EQ(eng.AggregateCounters().flushes, 1u);
  }
  const uintmax_t logged = fs::file_size(wal);
  ASSERT_GT(logged, 0u);
  {
    WriteLog log;
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    cfg.keep_files = true;
    cfg.file_ops = &log;
    FileEngine eng(1, opts, cfg);
    for (const std::string& w : log.writes) {
      EXPECT_NE(w.substr(w.find(' ') + 1), "WAL") << w << " at reopen";
    }
    EXPECT_EQ(fs::file_size(wal), logged);
    VerifyMatchesReference(eng, ref, 260);
    put_keys(eng, 242, 250);
  }
  EXPECT_GT(fs::file_size(wal), logged);
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    FileEngine eng(1, opts, cfg);
    VerifyMatchesReference(eng, ref, 260);
  }
  fs::remove_all(dir);
}

TEST(CrashRecoveryTest, HibernatedShardSurvivesRestart) {
  const std::string dir = UniqueDir("hib_restart");
  const lsm::Options opts = CrashOptions(2);
  Reference ref;
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.durable = true;
    cfg.keep_files = true;
    cfg.lifecycle =
        ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
    FileEngine eng(2, opts, cfg);
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= 1200; k += 2) {
      batch.push_back(Put(k, k + 11));
      ref[k] = k + 11;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    batch.clear();
    for (uint64_t k = 2; k <= 60; k += 2) {
      batch.push_back(Put(k, k + 13));
      ref[k] = k + 13;
    }
    PutBatch(eng, batch);
    const std::vector<uint64_t> hot = ShardKeys(eng, 0, 16, 1200);
    batch.clear();
    for (const uint64_t k : hot) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
  }
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    // Hibernation stays off in the reopened engine; the shard must still
    // come back hibernated because its manifest ends in kHibernate —
    // surviving the process restart without rebuilding.
    FileEngine eng(2, opts, cfg);
    EXPECT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
    EXPECT_EQ(eng.CostSnapshot().block_writes, 0u);
    VerifyMatchesReference(eng, ref, 1200);  // gets wake the shard
    EXPECT_EQ(eng.ShardLifecycle(1), ShardState::kMaterialized);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ damaged filter files

std::string ReadBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

/// The largest Bloom filter file of a shard directory (a run with real
/// filter bits, so every damage mode changes what a load would see).
std::string LargestFilterFile(const std::string& shard_dir) {
  std::string best;
  uint64_t best_size = 0;
  for (const auto& f : fs::directory_iterator(shard_dir)) {
    if (f.path().extension() != ".blm") continue;
    if (best.empty() || f.file_size() > best_size) {
      best = f.path().filename().string();
      best_size = f.file_size();
    }
  }
  return best;
}

/// The filter CRC the shard's manifest logged for run `name`
/// ("run_<id>.blm").
uint32_t LoggedFilterCrc(const std::string& shard_dir,
                         const std::string& name) {
  const uint64_t id = std::strtoull(name.c_str() + 4, nullptr, 10);
  fileio::RecoveredShardState st;
  EXPECT_TRUE(fileio::RecoverManifest(fileio::Manifest::PathFor(shard_dir),
                                      &st));
  for (const auto& level : st.levels) {
    for (const fileio::ManifestRunMeta& run : level) {
      if (run.id == id) return run.bloom_crc;
    }
  }
  ADD_FAILURE() << "run " << id << " is not live in the manifest";
  return 0;
}

/// Every count a shard reports: block I/O, compaction counters, shape.
std::vector<uint64_t> ShardCounts(const FileEngine& eng, size_t shards) {
  std::vector<uint64_t> out;
  for (size_t s = 0; s < shards; ++s) {
    const sim::DeviceSnapshot io = eng.ShardCostSnapshot(s);
    const EngineCounters c = eng.ShardCounters(s);
    for (const uint64_t v :
         {io.block_reads, io.block_writes, c.compaction_block_reads,
          c.compaction_block_writes, c.transition_ios, c.flushes, c.merges,
          static_cast<uint64_t>(eng.ShardRunCount(s)), eng.ShardEntries(s)}) {
      out.push_back(v);
    }
  }
  return out;
}

enum class FilterDamage { kNone, kFlipByte, kTruncate, kDelete };

TEST(CrashRecoveryTest, DamagedFilterFileIsRebuiltOnReopen) {
  constexpr size_t kShards = 2;
  constexpr uint64_t kMaxKey = 1200;
  const lsm::Options opts = CrashOptions(kShards);
  const std::string base = UniqueDir("blm_base");
  Reference ref;
  {
    FileEngineConfig cfg;
    cfg.workdir = base;
    cfg.durable = true;
    cfg.keep_files = true;
    FileEngine eng(kShards, opts, cfg);
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= kMaxKey; k += 2) {
      batch.push_back(Put(k, k * 5 + 1));
      ref[k] = k * 5 + 1;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    batch.clear();
    for (uint64_t k = 2; k <= 100; k += 2) {
      batch.push_back(Put(k, k + 3));
      ref[k] = k + 3;
    }
    PutBatch(eng, batch);  // memtable residue for the WAL
  }
  const std::string victim_rel =
      "/shard_0/" + LargestFilterFile(base + "/shard_0");
  ASSERT_NE(victim_rel, "/shard_0/");
  const std::string original = ReadBytes(base + victim_rel);
  ASSERT_GT(original.size(), 64u);
  const uint32_t logged_crc =
      LoggedFilterCrc(base + "/shard_0", victim_rel.substr(9));
  ASSERT_EQ(util::Crc32c(original.data(), original.size()), logged_crc);

  // Reopens a copy of the base file set with `damage` applied to the
  // victim filter file, checks the filter file is back byte for byte, then
  // serves Gets and Scans over the key universe and a write batch that
  // flushes and merges. Returns every count the engine reports.
  auto reopen = [&](FilterDamage damage) {
    const std::string dir = UniqueDir("blm_copy");
    fs::copy(base, dir, fs::copy_options::recursive);
    const std::string victim = dir + victim_rel;
    switch (damage) {
      case FilterDamage::kNone:
        break;
      case FilterDamage::kFlipByte: {
        std::string bytes = original;
        bytes[bytes.size() / 2] ^= 0x10;
        std::ofstream(victim, std::ios::binary | std::ios::trunc) << bytes;
        break;
      }
      case FilterDamage::kTruncate:
        fs::resize_file(victim, original.size() / 2);
        break;
      case FilterDamage::kDelete:
        fs::remove(victim);
        break;
    }
    std::vector<uint64_t> counts;
    {
      FileEngineConfig cfg;
      cfg.workdir = dir;
      cfg.reopen = true;
      FileEngine eng(kShards, opts, cfg);
      // The rebuild reads the run uncounted, like the rest of recovery.
      EXPECT_EQ(eng.CostSnapshot().block_reads, 0u);
      EXPECT_EQ(eng.CostSnapshot().block_writes, 0u);
      const std::string rewritten = ReadBytes(victim);
      EXPECT_EQ(rewritten, original);
      EXPECT_EQ(util::Crc32c(rewritten.data(), rewritten.size()), logged_crc);
      VerifyMatchesReference(eng, ref, kMaxKey);
      Reference after = ref;
      std::vector<Op> batch;
      for (uint64_t k = 1; k <= 401; k += 2) {
        batch.push_back(Put(k, k * 7));
        after[k] = k * 7;
      }
      PutBatch(eng, batch);
      eng.FlushMemtable();
      VerifyMatchesReference(eng, after, kMaxKey);
      counts = ShardCounts(eng, kShards);
    }
    fs::remove_all(dir);
    return counts;
  };

  const std::vector<uint64_t> clean = reopen(FilterDamage::kNone);
  for (const FilterDamage damage :
       {FilterDamage::kFlipByte, FilterDamage::kTruncate,
        FilterDamage::kDelete}) {
    SCOPED_TRACE("damage mode " + std::to_string(static_cast<int>(damage)));
    EXPECT_EQ(reopen(damage), clean);
  }
  fs::remove_all(base);
}

TEST(CrashRecoveryTest, DamagedFilterFileOfHibernatedShardIsRebuiltOnWake) {
  const std::string dir = UniqueDir("blm_hib");
  const lsm::Options opts = CrashOptions(2);
  Reference ref;
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.durable = true;
    cfg.keep_files = true;
    cfg.lifecycle =
        ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
    FileEngine eng(2, opts, cfg);
    std::vector<Op> batch;
    for (uint64_t k = 2; k <= 1200; k += 2) {
      batch.push_back(Put(k, k + 17));
      ref[k] = k + 17;
    }
    PutBatch(eng, batch);
    eng.FlushMemtable();
    const std::vector<uint64_t> hot = ShardKeys(eng, 0, 16, 1200);
    batch.clear();
    for (const uint64_t k : hot) batch.push_back(GetOp(k));
    PutBatch(eng, batch);
    PutBatch(eng, batch);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
  }
  // The wake replays the manifest, which names the runs, and loads their
  // filter bits the way recovery does, so a deleted one is rebuilt.
  const std::string victim =
      dir + "/shard_1/" + LargestFilterFile(dir + "/shard_1");
  const std::string original = ReadBytes(victim);
  ASSERT_GT(original.size(), 64u);
  fs::remove(victim);
  {
    FileEngineConfig cfg;
    cfg.workdir = dir;
    cfg.reopen = true;
    FileEngine eng(2, opts, cfg);
    ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
    VerifyMatchesReference(eng, ref, 1200);  // gets wake the shard
    EXPECT_EQ(eng.ShardLifecycle(1), ShardState::kMaterialized);
    EXPECT_EQ(ReadBytes(victim), original);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------ damaged hibernation WAL

// A non-durable shard holds its manifest and WAL only while it sleeps:
// hibernation writes them, and the wake that replays them deletes them.
TEST(CrashRecoveryTest, NonDurableHibernationImageLivesOnlyWhileAsleep) {
  const std::string dir = UniqueDir("image_nd");
  FileEngineConfig cfg;
  cfg.workdir = dir;
  cfg.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
  FileEngine eng(2, CrashOptions(2), cfg);
  Reference ref;
  std::vector<Op> batch;
  for (uint64_t k = 2; k <= 1200; k += 2) {
    batch.push_back(Put(k, k + 11));
    ref[k] = k + 11;
  }
  PutBatch(eng, batch);
  auto has = [&dir](const char* name) {
    return fs::exists(dir + "/shard_1/" + name);
  };
  EXPECT_FALSE(has("MANIFEST"));
  EXPECT_FALSE(has("WAL"));
  const std::vector<uint64_t> hot = ShardKeys(eng, 0, 16, 1200);
  batch.clear();
  for (const uint64_t k : hot) batch.push_back(GetOp(k));
  PutBatch(eng, batch);
  PutBatch(eng, batch);
  ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);
  EXPECT_TRUE(has("MANIFEST"));
  EXPECT_TRUE(has("WAL"));
  VerifyMatchesReference(eng, ref, 1200);  // gets wake the shard
  ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kMaterialized);
  EXPECT_FALSE(has("MANIFEST"));
  EXPECT_FALSE(has("WAL"));
}

// A non-durable engine keeps no logs while a shard is live; at
// hibernation it writes the shard's image once, as a snapshot manifest
// and a one-record WAL. Nothing else holds the buffered writes, so a
// damaged image stops the wake rather than serving `value ^ 1` as a live
// value.
TEST(CrashRecoveryDeathTest, DamagedWalStopsANonDurableWake) {
  const std::string dir = UniqueDir("wal_flip_nd");
  FileEngineConfig cfg;
  cfg.workdir = dir;
  cfg.lifecycle =
      ShardLifecycleConfig{/*lazy=*/true, /*hibernate_after_batches=*/1};
  FileEngine eng(2, CrashOptions(2), cfg);
  std::vector<Op> batch;
  for (uint64_t k = 2; k <= 1200; k += 2) batch.push_back(Put(k, k + 11));
  PutBatch(eng, batch);
  eng.FlushMemtable();
  // A buffered write in shard 1: the WAL carries it as an entry, its key's
  // 8 bytes followed by its value's.
  const uint64_t key = ShardKeys(eng, 1, 1, 1200).at(0);
  const uint64_t value = key + 13;
  PutBatch(eng, {Put(key, value)});
  const std::string wal = dir + "/shard_1/WAL";
  EXPECT_FALSE(fs::exists(wal));  // no log while the shard is live
  const std::vector<uint64_t> hot = ShardKeys(eng, 0, 16, 1200);
  batch.clear();
  for (const uint64_t k : hot) batch.push_back(GetOp(k));
  PutBatch(eng, batch);
  PutBatch(eng, batch);
  ASSERT_EQ(eng.ShardLifecycle(1), ShardState::kHibernated);

  std::string bytes = ReadBytes(wal);
  std::string entry(16, '\0');
  std::memcpy(entry.data(), &key, sizeof(key));
  std::memcpy(entry.data() + 8, &value, sizeof(value));
  const size_t at = bytes.find(entry);
  ASSERT_NE(at, std::string::npos);
  bytes[at + 8] ^= 0x01;
  std::ofstream(wal, std::ios::binary | std::ios::trunc) << bytes;

  uint64_t got = 0;
  EXPECT_DEATH(eng.Get(key, &got),
               "hibernation manifest or WAL of .*shard_1' is damaged");
}

}  // namespace
}  // namespace camal::engine
