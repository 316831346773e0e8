// Per-shard manifest and its CRC-framed record-log substrate
// (engine::fileio): frame round-trips, CRC rejection of flipped bytes,
// torn-tail detection and truncation, replay of every record type,
// rotate-and-rename atomicity (including a failed rename), the
// empty/corrupt-header files that must recover to the empty state, and
// hostile bytes behind a valid CRC: counts the payload cannot hold, and a
// fixed-seed mutation loop over every record kind, each of which must
// replay to a clean prefix.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/file_ops.h"
#include "engine/manifest.h"
#include "engine/record_log.h"

namespace camal::engine::fileio {
namespace {

namespace fs = std::filesystem;

std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

/// A fresh shard-style directory per test.
class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestBase() + "/camal_manifest_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

uint64_t FileSize(const std::string& path) {
  return static_cast<uint64_t>(fs::file_size(path));
}

/// Truncates or corrupts a file in place (the crash/bit-rot primitive of
/// this suite; plain stdio, outside any FileOps seam).
void TruncateFile(const std::string& path, uint64_t size) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size)), 0);
}

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

lsm::Options TestOptions() {
  lsm::Options opts;
  opts.size_ratio = 6.0;
  opts.buffer_bytes = 64 * 128;
  opts.bloom_bits = 8 * 4000;
  opts.block_cache_bytes = 8 * 4096;
  opts.policy = lsm::CompactionPolicy::kTiering;
  opts.runs_per_level = 3;
  opts.file_bytes = 1 << 20;
  opts.io_queue_depth = 4;
  return opts;
}

void ExpectOptionsEq(const lsm::Options& a, const lsm::Options& b) {
  EXPECT_DOUBLE_EQ(a.size_ratio, b.size_ratio);
  EXPECT_EQ(a.entry_bytes, b.entry_bytes);
  EXPECT_EQ(a.buffer_bytes, b.buffer_bytes);
  EXPECT_EQ(a.bloom_bits, b.bloom_bits);
  EXPECT_EQ(a.block_cache_bytes, b.block_cache_bytes);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.runs_per_level, b.runs_per_level);
  EXPECT_EQ(a.file_bytes, b.file_bytes);
  EXPECT_EQ(a.io_queue_depth, b.io_queue_depth);
}

ManifestRunMeta TestRun(uint64_t id, uint64_t entries) {
  ManifestRunMeta run;
  run.id = id;
  run.num_entries = entries;
  run.min_key = 2;
  run.max_key = 2 * entries;
  run.fence = {2, 100, 300, 2 * entries};
  run.bloom_bits = 512;
  run.bloom_hashes = 5;
  run.bloom_bpk = 8.0;
  run.bloom_crc = 0xfeedface + static_cast<uint32_t>(id);
  return run;
}

void ExpectRunEq(const ManifestRunMeta& a, const ManifestRunMeta& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.num_entries, b.num_entries);
  EXPECT_EQ(a.min_key, b.min_key);
  EXPECT_EQ(a.max_key, b.max_key);
  EXPECT_EQ(a.fence, b.fence);
  EXPECT_EQ(a.bloom_bits, b.bloom_bits);
  EXPECT_EQ(a.bloom_hashes, b.bloom_hashes);
  EXPECT_DOUBLE_EQ(a.bloom_bpk, b.bloom_bpk);
  EXPECT_EQ(a.bloom_crc, b.bloom_crc);
}

// ------------------------------------------------------------- record log

TEST_F(ManifestTest, RecordFileRoundTrip) {
  const std::string path = dir_ + "/log";
  const std::vector<std::string> payloads = {
      "first", std::string(1, '\0'), "", std::string(5000, 'x'), "tail"};
  {
    RecordWriter w(FileOps::Real(), path);
    for (const auto& p : payloads) w.Append(p);
    EXPECT_TRUE(w.has_pending());
    EXPECT_EQ(w.committed_bytes(), 0u);  // nothing on disk pre-commit
    w.Commit();
    EXPECT_FALSE(w.has_pending());
    EXPECT_EQ(w.appended_records(), payloads.size());
  }
  const RecordFileContents got = ReadRecordFile(path);
  ASSERT_TRUE(got.exists);
  EXPECT_FALSE(got.torn_tail);
  EXPECT_EQ(got.valid_bytes, FileSize(path));
  ASSERT_EQ(got.records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got.records[i], payloads[i]) << "record " << i;
  }
}

TEST_F(ManifestTest, WriterResumesAppendOffsetAcrossReopen) {
  const std::string path = dir_ + "/log";
  {
    RecordWriter w(FileOps::Real(), path);
    w.Append("one");
    w.Commit();
  }
  {
    RecordWriter w(FileOps::Real(), path);  // reopens at existing size
    w.Append("two");
    w.Commit();
  }
  const RecordFileContents got = ReadRecordFile(path);
  ASSERT_EQ(got.records.size(), 2u);
  EXPECT_EQ(got.records[0], "one");
  EXPECT_EQ(got.records[1], "two");
}

TEST_F(ManifestTest, AbsentAndEmptyFilesParseCleanly) {
  const RecordFileContents absent = ReadRecordFile(dir_ + "/nope");
  EXPECT_FALSE(absent.exists);
  EXPECT_TRUE(absent.records.empty());

  { std::ofstream(dir_ + "/empty").flush(); }
  const RecordFileContents empty = ReadRecordFile(dir_ + "/empty");
  EXPECT_TRUE(empty.exists);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.torn_tail);
  EXPECT_EQ(empty.valid_bytes, 0u);
}

TEST_F(ManifestTest, CrcRejectsFlippedPayloadByte) {
  const std::string path = dir_ + "/log";
  uint64_t first_frame = 0;
  {
    RecordWriter w(FileOps::Real(), path);
    w.Append("good record");
    w.Commit();
    first_frame = w.committed_bytes();
    w.Append("soon to be damaged");
    w.Append("unreachable after the damage");
    w.Commit();
  }
  // Flip one payload byte of the middle record: its CRC must reject it,
  // and everything after it is untrusted tail by the append-only rule.
  FlipByte(path, first_frame + 8 + 2);
  const RecordFileContents got = ReadRecordFile(path);
  ASSERT_TRUE(got.exists);
  EXPECT_TRUE(got.torn_tail);
  ASSERT_EQ(got.records.size(), 1u);
  EXPECT_EQ(got.records[0], "good record");
  EXPECT_EQ(got.valid_bytes, first_frame);
}

TEST_F(ManifestTest, TornTailDetectedAndTruncatable) {
  const std::string path = dir_ + "/log";
  uint64_t two_frames = 0;
  {
    RecordWriter w(FileOps::Real(), path);
    w.Append("alpha");
    w.Append("beta");
    w.Commit();
    two_frames = w.committed_bytes();
    w.Append("gamma-torn-by-the-crash");
    w.Commit();
  }
  // Crash mid-write: only part of the last frame reached the platter.
  TruncateFile(path, two_frames + 11);
  {
    const RecordFileContents got = ReadRecordFile(path);
    EXPECT_TRUE(got.torn_tail);
    ASSERT_EQ(got.records.size(), 2u);
    EXPECT_EQ(got.valid_bytes, two_frames);
  }
  // Recovery repair: truncate at the parse point, then keep appending —
  // the log is whole again.
  {
    RecordWriter w(FileOps::Real(), path);
    w.TruncateTo(two_frames);
    w.Append("delta");
    w.Commit();
  }
  const RecordFileContents healed = ReadRecordFile(path);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.records[2], "delta");
}

TEST_F(ManifestTest, AbsurdLengthHeaderIsATornTail) {
  const std::string path = dir_ + "/log";
  {
    RecordWriter w(FileOps::Real(), path);
    w.Append("fine");
    w.Commit();
  }
  // Append garbage that claims a multi-GB payload: the reader must stop
  // at the claim, not try to allocate it.
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    const uint32_t absurd = 0x7fffffffu;
    f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
    f.write("junkjunk", 8);
  }
  const RecordFileContents got = ReadRecordFile(path);
  EXPECT_TRUE(got.torn_tail);
  ASSERT_EQ(got.records.size(), 1u);
}

// --------------------------------------------------------------- manifest

TEST_F(ManifestTest, ReplaysInitFlushCompactOptions) {
  const lsm::Options opts = TestOptions();
  {
    Manifest m(FileOps::Real(), dir_, /*sync=*/false);
    m.LogInit(7, opts);
    m.LogFlush(/*new_epoch=*/1, TestRun(1, 64));
    m.LogFlush(/*new_epoch=*/2, TestRun(2, 64));
    // Compact runs 1+2 of level 0 into run 3 of level 1 — one record.
    m.LogCompact(0, {1, 2}, {TestRun(3, 128)});
    lsm::Options retuned = opts;
    retuned.buffer_bytes *= 2;
    m.LogOptions(retuned);
    EXPECT_EQ(m.record_count(), 5u);
  }
  RecoveredShardState st;
  ASSERT_TRUE(RecoverManifest(Manifest::PathFor(dir_), &st));
  EXPECT_TRUE(st.valid);
  EXPECT_FALSE(st.tail_torn);
  EXPECT_EQ(st.num_records, 5u);
  EXPECT_EQ(st.wal_epoch, 2u);
  EXPECT_EQ(st.next_run_id, 4u);  // one past the largest id ever logged
  EXPECT_FALSE(st.hibernated);
  // Level 0 emptied by the compaction; level 1 holds the output.
  ASSERT_EQ(st.levels.size(), 2u);
  EXPECT_TRUE(st.levels[0].empty());
  ASSERT_EQ(st.levels[1].size(), 1u);
  ExpectRunEq(st.levels[1][0], TestRun(3, 128));
  lsm::Options retuned = TestOptions();
  retuned.buffer_bytes *= 2;
  ExpectOptionsEq(st.options, retuned);
}

TEST_F(ManifestTest, FlushRecordSizeDoesNotDependOnBloomBits) {
  // Filter bits live in each run's `.blm` file; the record carries only
  // their size, shape and CRC, so a bigger Bloom budget adds no bytes.
  ManifestRunMeta small = TestRun(1, 64);
  small.bloom_bits = 64;
  ManifestRunMeta big = TestRun(1, 64);
  big.bloom_bits = uint64_t{1} << 30;
  uint64_t sizes[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    Manifest m(FileOps::Real(), dir_, /*sync=*/false);
    m.LogInit(0, TestOptions());
    const uint64_t before = FileSize(m.path());
    m.LogFlush(1, i == 0 ? small : big);
    sizes[i] = FileSize(m.path()) - before;
  }
  EXPECT_GT(sizes[0], 0u);
  EXPECT_EQ(sizes[0], sizes[1]);
  RecoveredShardState st;
  ASSERT_TRUE(RecoverManifest(Manifest::PathFor(dir_), &st));
  ExpectRunEq(st.levels[0][0], big);
}

TEST_F(ManifestTest, ReplaysHibernateAndWake) {
  {
    Manifest m(FileOps::Real(), dir_, /*sync=*/false);
    m.LogInit(0, TestOptions());
    m.LogFlush(1, TestRun(1, 64));
    m.LogHibernate(/*memtable_entries=*/17, {{1, 64}}, /*cache_keys=*/{9, 4});
  }
  RecoveredShardState st;
  ASSERT_TRUE(RecoverManifest(Manifest::PathFor(dir_), &st));
  EXPECT_TRUE(st.hibernated);
  EXPECT_EQ(st.hib_memtable_entries, 17u);
  ASSERT_EQ(st.hib_shape.size(), 1u);
  EXPECT_EQ(st.hib_shape[0], (std::pair<uint64_t, uint64_t>{1, 64}));
  EXPECT_EQ(st.hib_cache_keys, (std::vector<uint64_t>{9, 4}));

  {
    Manifest m(FileOps::Real(), dir_, /*sync=*/false, st.num_records);
    m.LogWake();
  }
  RecoveredShardState awake;
  ASSERT_TRUE(RecoverManifest(Manifest::PathFor(dir_), &awake));
  EXPECT_FALSE(awake.hibernated);
  EXPECT_TRUE(awake.hib_cache_keys.empty());
  ASSERT_EQ(awake.levels.size(), 1u);  // runs survive the round trip
  ExpectRunEq(awake.levels[0][0], TestRun(1, 64));
}

TEST_F(ManifestTest, AbsentOrEmptyManifestRecoversToEmptyState) {
  RecoveredShardState st;
  EXPECT_FALSE(RecoverManifest(Manifest::PathFor(dir_), &st));
  EXPECT_FALSE(st.valid);

  { std::ofstream(Manifest::PathFor(dir_)).flush(); }
  EXPECT_FALSE(RecoverManifest(Manifest::PathFor(dir_), &st));
  EXPECT_FALSE(st.valid);
}

TEST_F(ManifestTest, CorruptHeaderRecoversToEmptyState) {
  // Garbage from byte 0: no record ever replays, so the shard must be
  // treated as never-initialized, not half-recovered.
  {
    std::ofstream f(Manifest::PathFor(dir_), std::ios::binary);
    f << "this is not a manifest at all, not even close";
  }
  RecoveredShardState st;
  EXPECT_FALSE(RecoverManifest(Manifest::PathFor(dir_), &st));
  EXPECT_FALSE(st.valid);
}

TEST_F(ManifestTest, OtherRecordLayoutVersionStopsReplay) {
  // A whole, CRC-valid kInit record of layout version 1 (run records that
  // carried filter words) or 2 (a kHibernate record without cache keys):
  // replay must neither misdecode it nor drop the shard as empty.
  for (const uint32_t version : {1u, 2u}) {
    fs::remove(Manifest::PathFor(dir_));
    {
      ByteWriter w;
      w.U8(1);  // kInit
      w.U32(version);
      w.U64(0);  // shard id
      RecordWriter log(FileOps::Real(), Manifest::PathFor(dir_));
      log.Append(w.Take());
      log.Commit();
    }
    RecoveredShardState st;
    EXPECT_DEATH(RecoverManifest(Manifest::PathFor(dir_), &st),
                 "record layout version " + std::to_string(version) +
                     ", this build reads 3");
  }
}

TEST_F(ManifestTest, TornTailKeepsThePrefixState) {
  uint64_t before_compact = 0;
  {
    Manifest m(FileOps::Real(), dir_, /*sync=*/false);
    m.LogInit(0, TestOptions());
    m.LogFlush(1, TestRun(1, 64));
    before_compact = FileSize(m.path());
    m.LogCompact(0, {1}, {TestRun(2, 64)});
  }
  // Tear the compact record in half: recovery must land on the pre-compact
  // state (run 1 still live) and report the truncation point.
  TruncateFile(Manifest::PathFor(dir_), before_compact + 7);
  RecoveredShardState st;
  ASSERT_TRUE(RecoverManifest(Manifest::PathFor(dir_), &st));
  EXPECT_TRUE(st.tail_torn);
  EXPECT_EQ(st.valid_bytes, before_compact);
  ASSERT_EQ(st.levels.size(), 1u);
  ASSERT_EQ(st.levels[0].size(), 1u);
  EXPECT_EQ(st.levels[0][0].id, 1u);
  // The torn record's output id was never applied, so id 2 is free again
  // (recovery's orphan sweep removes any run_2 file the crashed process
  // left behind before the id is handed out anew).
  EXPECT_EQ(st.next_run_id, 2u);
}

TEST_F(ManifestTest, RotationCompactsToOneSnapshotRecord) {
  RecoveredShardState st;
  {
    Manifest m(FileOps::Real(), dir_, /*sync=*/false);
    m.LogInit(3, TestOptions());
    for (uint64_t i = 1; i <= 6; ++i) m.LogFlush(i, TestRun(i, 64));
    m.LogCompact(0, {1, 2, 3, 4, 5, 6}, {TestRun(7, 384)});
    ASSERT_TRUE(RecoverManifest(m.path(), &st));
    const uint64_t long_log = FileSize(m.path());
    ASSERT_TRUE(m.Rotate(st));
    EXPECT_EQ(m.record_count(), 1u);
    EXPECT_LT(FileSize(m.path()), long_log);
    EXPECT_FALSE(fs::exists(m.path() + ".tmp"));
  }
  // The one-record log replays to the identical state.
  RecoveredShardState after;
  ASSERT_TRUE(RecoverManifest(Manifest::PathFor(dir_), &after));
  EXPECT_EQ(after.num_records, 1u);
  EXPECT_EQ(after.wal_epoch, st.wal_epoch);
  EXPECT_EQ(after.next_run_id, st.next_run_id);
  ASSERT_EQ(after.levels.size(), st.levels.size());
  for (size_t l = 0; l < st.levels.size(); ++l) {
    ASSERT_EQ(after.levels[l].size(), st.levels[l].size()) << "level " << l;
    for (size_t r = 0; r < st.levels[l].size(); ++r) {
      ExpectRunEq(after.levels[l][r], st.levels[l][r]);
    }
  }
  ExpectOptionsEq(after.options, st.options);
}

TEST_F(ManifestTest, ShouldRotateHonorsThreshold) {
  Manifest m(FileOps::Real(), dir_, /*sync=*/false);
  m.LogInit(0, TestOptions());
  m.LogFlush(1, TestRun(1, 64));
  EXPECT_FALSE(m.ShouldRotate(/*rotate_records=*/16));  // under threshold
  EXPECT_FALSE(m.ShouldRotate(/*rotate_records=*/2));   // at, not past
  EXPECT_FALSE(m.ShouldRotate(/*rotate_records=*/0));   // never
  EXPECT_TRUE(m.ShouldRotate(/*rotate_records=*/1));    // past threshold
  RecoveredShardState st;
  ASSERT_TRUE(RecoverManifest(m.path(), &st));
  ASSERT_TRUE(m.Rotate(st));
  EXPECT_EQ(m.record_count(), 1u);
  EXPECT_FALSE(m.ShouldRotate(/*rotate_records=*/1));
}

// ------------------------------------------------------- hostile records

/// Frames `payloads` into a fresh file at `path`, each with a valid CRC.
void WriteRecords(const std::string& path,
                  const std::vector<std::string>& payloads) {
  fs::remove(path);
  RecordWriter w(FileOps::Real(), path);
  for (const std::string& p : payloads) w.Append(p);
  w.Commit();
}

/// The payloads of the record file at `path`, copied out.
std::vector<std::string> ReadPayloads(const std::string& path) {
  const RecordFileContents log = ReadRecordFile(path);
  return std::vector<std::string>(log.records.begin(), log.records.end());
}

/// A kSnapshot record up to its level count: tag, layout version, shard
/// id, options (size ratio; entry, buffer, Bloom and cache bytes; policy;
/// runs per level; file bytes; queue depth), WAL epoch and next run id.
void SnapshotPrefix(ByteWriter* w, uint32_t version) {
  w->U8(7);
  w->U32(version);
  w->U64(0);
  w->F64(4.0);
  w->U64(64);
  w->U64(8192);
  w->U64(8000);
  w->U64(4096);
  w->U8(0);
  w->U32(1);
  w->U64(1 << 20);
  w->U32(1);
  w->U64(1);
  w->U64(2);
}

constexpr uint32_t kHostileCount = 0xFFFFFFFFu;

// A count the rest of the payload cannot hold, behind a valid CRC, must
// end replay at that record as a torn tail, before anything is allocated
// for the count: each record below asks for billions of items.
TEST_F(ManifestTest, HostileCountsAreATornTail) {
  const std::string path = Manifest::PathFor(dir_);
  {
    Manifest m(FileOps::Real(), dir_, /*sync=*/false);
    m.LogInit(0, TestOptions());
    m.LogFlush(1, TestRun(1, 64));
  }
  const std::vector<std::string> prefix = ReadPayloads(path);
  ASSERT_EQ(prefix.size(), 2u);
  const uint64_t prefix_bytes = FileSize(path);
  ByteReader init(prefix[0]);
  init.U8();
  const uint32_t version = init.U32();  // the layout this build writes

  std::vector<std::pair<std::string, std::string>> cases;
  {
    ByteWriter w;  // kCompact: the added-run count
    w.U8(4);
    w.U32(0);
    w.U64Vec({1});
    w.U32(kHostileCount);
    w.U64(0);
    cases.emplace_back("kCompact added runs", w.Take());
  }
  {
    ByteWriter w;  // kHibernate: the level-shape count
    w.U8(5);
    w.U64(3);
    w.U32(kHostileCount);
    w.U64(1);
    w.U64(64);
    cases.emplace_back("kHibernate shape", w.Take());
  }
  {
    ByteWriter w;  // kSnapshot: the level count
    SnapshotPrefix(&w, version);
    w.U32(kHostileCount);
    w.U64(0);
    cases.emplace_back("kSnapshot levels", w.Take());
  }
  {
    ByteWriter w;  // kSnapshot: one level's run count
    SnapshotPrefix(&w, version);
    w.U32(1);
    w.U32(kHostileCount);
    w.U64(0);
    cases.emplace_back("kSnapshot runs", w.Take());
  }
  {
    ByteWriter w;  // kSnapshot: the hibernation shape count
    SnapshotPrefix(&w, version);
    w.U32(0);
    w.U8(1);
    w.U64(0);
    w.U32(kHostileCount);
    w.U64(1);
    w.U64(64);
    cases.emplace_back("kSnapshot hibernation shape", w.Take());
  }
  for (const auto& [name, payload] : cases) {
    SCOPED_TRACE(name);
    std::vector<std::string> log = prefix;
    log.push_back(payload);
    WriteRecords(path, log);
    RecoveredShardState st;
    ASSERT_TRUE(RecoverManifest(path, &st));
    EXPECT_TRUE(st.tail_torn);
    EXPECT_EQ(st.num_records, 2u);
    EXPECT_EQ(st.valid_bytes, prefix_bytes);
    ASSERT_EQ(st.levels.size(), 1u);
    EXPECT_EQ(st.levels[0].size(), 1u);
    EXPECT_FALSE(st.hibernated);
  }
}

/// Every replayed field of `st` but the parse telemetry, as bytes.
std::string Fingerprint(const RecoveredShardState& st) {
  ByteWriter w;
  w.F64(st.options.size_ratio);
  w.U64(st.options.buffer_bytes);
  w.U64(st.options.bloom_bits);
  w.U64(st.options.block_cache_bytes);
  w.U64(st.wal_epoch);
  w.U64(st.next_run_id);
  for (const auto& level : st.levels) {
    w.U32(static_cast<uint32_t>(level.size()));
    for (const ManifestRunMeta& run : level) {
      w.U64(run.id);
      w.U64(run.num_entries);
      w.U64Vec(run.fence);
      w.U64(run.bloom_bits);
    }
  }
  w.U8(st.hibernated ? 1 : 0);
  w.U64(st.hib_memtable_entries);
  for (const auto& [runs, entries] : st.hib_shape) {
    w.U64(runs);
    w.U64(entries);
  }
  w.U64Vec(st.hib_cache_keys);
  return w.Take();
}

// Fixed-seed byte mutation of every record kind, re-framed with a valid
// CRC: replay must never crash or over-read (the ASan build checks the
// latter), and must stop at a frame boundary at or after the mutated
// record, keeping every record before it, with exactly the state its
// accepted records give: a rejected record changes nothing. The tag byte,
// and the layout version of kInit and kSnapshot, stay intact: another tag
// is another record, and a record of another layout stops the process by
// design.
TEST_F(ManifestTest, MutatedRecordsReplayToACleanPrefix) {
  const std::string path = Manifest::PathFor(dir_);
  {
    Manifest m(FileOps::Real(), dir_, /*sync=*/false);
    m.LogInit(0, TestOptions());
    m.LogFlush(1, TestRun(1, 64));
    m.LogFlush(2, TestRun(2, 64));
    m.LogCompact(0, {1, 2}, {TestRun(3, 128)});
    lsm::Options retuned = TestOptions();
    retuned.buffer_bytes *= 2;
    m.LogOptions(retuned);
    m.LogHibernate(5, {{0, 0}, {1, 128}}, {(uint64_t{3} << 32) | 1, 7});
    m.LogWake();
    RecoveredShardState st;
    ASSERT_TRUE(RecoverManifest(path, &st));
    m.LogSnapshot(st);
    m.LogFlush(3, TestRun(4, 64));
  }
  const std::vector<std::string> records = ReadPayloads(path);
  ASSERT_EQ(records.size(), 9u);

  std::mt19937_64 rng(20141006);
  auto below = [&rng](uint64_t n) { return rng() % n; };
  for (size_t i = 0; i < records.size(); ++i) {
    const uint8_t tag = static_cast<uint8_t>(records[i][0]);
    const size_t fixed = tag == 1 || tag == 7 ? 5 : 1;
    for (int iter = 0; iter < 300; ++iter) {
      std::string p = records[i];
      switch (below(4)) {
        case 0:  // flip a few bits
          for (uint64_t n = 1 + below(4); n > 0; --n) {
            if (p.size() > fixed) {
              p[fixed + below(p.size() - fixed)] ^=
                  static_cast<char>(1u << below(8));
            }
          }
          break;
        case 1:  // a huge or random 32-bit word, e.g. over a count
          if (p.size() >= fixed + 4) {
            const uint32_t word =
                below(2) == 0 ? kHostileCount : static_cast<uint32_t>(rng());
            std::memcpy(&p[fixed + below(p.size() - fixed - 3)], &word, 4);
          }
          break;
        case 2:  // cut short
          p.resize(1 + below(p.size()));
          break;
        default:  // trailing bytes
          for (uint64_t n = 1 + below(16); n > 0; --n) {
            p.push_back(static_cast<char>(rng()));
          }
          break;
      }
      std::vector<std::string> log = records;
      log[i] = p;
      WriteRecords(path, log);
      std::vector<uint64_t> frame_end = {0};
      for (const std::string& rec : log) {
        frame_end.push_back(frame_end.back() + 8 + rec.size());
      }
      RecoveredShardState st;
      if (!RecoverManifest(path, &st)) {
        ASSERT_EQ(i, 0u) << "lost the whole log to a mutated record " << i;
        continue;
      }
      ASSERT_GE(st.num_records, i) << "record " << i << ", iteration " << iter;
      ASSERT_EQ(st.valid_bytes, frame_end[st.num_records]);
      ASSERT_EQ(st.tail_torn, st.num_records < log.size());
      const std::string prefix_path = dir_ + "/PREFIX";
      WriteRecords(prefix_path, std::vector<std::string>(
                                    log.begin(), log.begin() + st.num_records));
      RecoveredShardState prefix;
      ASSERT_TRUE(RecoverManifest(prefix_path, &prefix));
      ASSERT_EQ(Fingerprint(st), Fingerprint(prefix))
          << "record " << i << ", iteration " << iter;
    }
  }
}

/// Fails every rename — the rotation commit point.
class RenameFailsOps : public FileOps {
 public:
  int Rename(const std::string&, const std::string&) override {
    ++attempts_;
    errno = EIO;
    return -1;
  }
  int attempts() const { return attempts_; }

 private:
  int attempts_ = 0;
};

TEST_F(ManifestTest, FailedRotationRenameKeepsOldLogAuthoritative) {
  RecoveredShardState st;
  RenameFailsOps ops;
  {
    Manifest m(&ops, dir_, /*sync=*/false);
    m.LogInit(0, TestOptions());
    m.LogFlush(1, TestRun(1, 64));
    const size_t records_before = m.record_count();
    ASSERT_TRUE(RecoverManifest(m.path(), &st));
    EXPECT_FALSE(m.Rotate(st));  // rename failed: rotation rolled back
    EXPECT_EQ(ops.attempts(), 1);
    EXPECT_EQ(m.record_count(), records_before);
    // The tmp snapshot is cleaned up; the old log is untouched on disk.
    EXPECT_FALSE(fs::exists(m.path() + ".tmp"));
    // The writer still appends to the *old* log after the failure.
    m.LogFlush(2, TestRun(2, 64));
  }
  RecoveredShardState after;
  ASSERT_TRUE(RecoverManifest(Manifest::PathFor(dir_), &after));
  EXPECT_EQ(after.wal_epoch, 2u);
  ASSERT_EQ(after.levels[0].size(), 2u);
}

}  // namespace
}  // namespace camal::engine::fileio
