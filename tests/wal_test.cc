// Per-shard write-ahead log (engine::fileio::Wal): entry round-trips with
// epochs and tombstones, group-commit buffering vs the kAlways policy,
// post-flush reset, CRC rejection, torn-tail truncation and repair, and
// the fsync ledger each policy implies (counted through a FileOps spy),
// and hostile bytes behind a valid CRC: an entry count the payload cannot
// hold, and a fixed-seed mutation loop whose every replay must be a clean
// prefix.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "engine/file_ops.h"
#include "engine/record_log.h"
#include "engine/wal.h"
#include "lsm/entry.h"

namespace camal::engine::fileio {
namespace {

namespace fs = std::filesystem;

std::string TestBase() {
  if (const char* env = std::getenv("CAMAL_FILE_WORKDIR")) return env;
  return ::testing::TempDir();
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestBase() + "/camal_wal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

lsm::Entry E(uint64_t key, uint64_t value, bool tombstone = false) {
  lsm::Entry e;
  e.key = key;
  e.value = value;
  e.tombstone = tombstone;
  return e;
}

/// Counts writes and fsyncs (the policy ledger).
class CountingOps : public FileOps {
 public:
  int64_t PWrite(int fd, const void* buf, uint64_t count,
                 uint64_t offset) override {
    ++pwrites_;
    return FileOps::PWrite(fd, buf, count, offset);
  }
  int Fsync(int fd) override {
    ++fsyncs_;
    return FileOps::Fsync(fd);
  }

  int pwrites() const { return pwrites_; }
  int fsyncs() const { return fsyncs_; }

 private:
  int pwrites_ = 0;
  int fsyncs_ = 0;
};

TEST_F(WalTest, RoundTripsEntriesEpochsAndTombstones) {
  {
    Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kNone);
    const lsm::Entry batch1[] = {E(2, 10), E(4, 20), E(6, 0, true)};
    wal.Append(/*epoch=*/0, batch1, 3);
    wal.Commit();
    const lsm::Entry batch2[] = {E(8, 40)};
    wal.Append(/*epoch=*/1, batch2, 1);
    wal.Commit();
  }
  const WalReplay replay = ReadWal(Wal::PathFor(dir_));
  ASSERT_TRUE(replay.exists);
  EXPECT_FALSE(replay.tail_torn);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].epoch, 0u);
  ASSERT_EQ(replay.records[0].entries.size(), 3u);
  EXPECT_EQ(replay.records[0].entries[0], E(2, 10));
  EXPECT_EQ(replay.records[0].entries[1], E(4, 20));
  EXPECT_TRUE(replay.records[0].entries[2].tombstone);
  EXPECT_EQ(replay.records[0].entries[2].key, 6u);
  EXPECT_EQ(replay.records[1].epoch, 1u);
  ASSERT_EQ(replay.records[1].entries.size(), 1u);
  EXPECT_EQ(replay.records[1].entries[0], E(8, 40));
}

TEST_F(WalTest, AbsentAndEmptyLogsReplayEmpty) {
  const WalReplay absent = ReadWal(Wal::PathFor(dir_));
  EXPECT_FALSE(absent.exists);
  EXPECT_TRUE(absent.records.empty());

  { std::ofstream(Wal::PathFor(dir_)).flush(); }
  const WalReplay empty = ReadWal(Wal::PathFor(dir_));
  EXPECT_TRUE(empty.exists);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.tail_torn);
}

TEST_F(WalTest, AppendsBufferUntilCommit) {
  Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kNone);
  const lsm::Entry e = E(2, 10);
  wal.Append(0, &e, 1);
  // Uncommitted appends are invisible to replay (the file is empty or
  // absent until the batch boundary).
  EXPECT_TRUE(ReadWal(wal.path()).records.empty());
  wal.Commit();
  EXPECT_EQ(ReadWal(wal.path()).records.size(), 1u);
}

TEST_F(WalTest, PolicyLedger) {
  const lsm::Entry e = E(2, 10);
  {
    // kNone: one pwrite per commit, zero fsyncs.
    CountingOps ops;
    fs::create_directories(dir_ + "/none");
    Wal wal(&ops, dir_ + "/none", WalSyncPolicy::kNone);
    wal.Append(0, &e, 1);
    wal.Append(0, &e, 1);
    wal.Commit();
    EXPECT_EQ(ops.pwrites(), 1);  // group commit: both appends, one write
    EXPECT_EQ(ops.fsyncs(), 0);
  }
  {
    // kBatch: one pwrite + one fsync per commit.
    CountingOps ops;
    fs::create_directories(dir_ + "/batch");
    Wal wal(&ops, dir_ + "/batch", WalSyncPolicy::kBatch);
    wal.Append(0, &e, 1);
    wal.Append(0, &e, 1);
    wal.Commit();
    EXPECT_EQ(ops.pwrites(), 1);
    EXPECT_EQ(ops.fsyncs(), 1);
    wal.Commit();  // idle commit: nothing pending, no write, no sync
    EXPECT_EQ(ops.pwrites(), 1);
    EXPECT_EQ(ops.fsyncs(), 1);
  }
  {
    // kAlways: every append commits and syncs immediately.
    CountingOps ops;
    fs::create_directories(dir_ + "/always");
    Wal wal(&ops, dir_ + "/always", WalSyncPolicy::kAlways);
    wal.Append(0, &e, 1);
    wal.Append(0, &e, 1);
    EXPECT_EQ(ops.pwrites(), 2);
    EXPECT_EQ(ops.fsyncs(), 2);
    wal.Commit();  // nothing left to do
    EXPECT_EQ(ops.pwrites(), 2);
    EXPECT_EQ(ops.fsyncs(), 2);
  }
}

TEST_F(WalTest, ResetEmptiesTheLog) {
  Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kNone);
  const lsm::Entry e = E(2, 10);
  wal.Append(0, &e, 1);
  wal.Commit();
  ASSERT_EQ(ReadWal(wal.path()).records.size(), 1u);
  wal.Reset();  // the flush made the logged entries durable in a run
  EXPECT_TRUE(ReadWal(wal.path()).records.empty());
  // The log keeps working after a reset.
  wal.Append(1, &e, 1);
  wal.Commit();
  const WalReplay replay = ReadWal(wal.path());
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].epoch, 1u);
}

/// The WAL frames each record in place in the writer's pending buffer; the
/// record reader must find exactly the `ByteWriter` payloads, CRCs intact.
TEST_F(WalTest, RecordsAreFramedByteWriterPayloads) {
  std::vector<lsm::Entry> big;
  for (uint64_t k = 0; k < 100; ++k) big.push_back(E(k, 3 * k, k % 7 == 0));
  const lsm::Entry one[] = {E(9, 5, true)};
  {
    Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kBatch);
    wal.Append(3, one, 1);
    wal.Append(4, big.data(), big.size());
    wal.Commit();
  }
  const auto payload = [](uint64_t epoch, const lsm::Entry* e, size_t n) {
    ByteWriter w;
    w.U64(epoch);
    w.U32(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      w.U64(e[i].key);
      w.U64(e[i].value);
      w.U64(e[i].tombstone ? 1 : 0);
    }
    return w.Take();
  };
  const RecordFileContents log = ReadRecordFile(Wal::PathFor(dir_));
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.valid_bytes, log.bytes.size());
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0], payload(3, one, 1));
  EXPECT_EQ(log.records[1], payload(4, big.data(), big.size()));
}

TEST_F(WalTest, TornTailTruncatesToLastWholeRecord) {
  uint64_t whole = 0;
  {
    Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kNone);
    const lsm::Entry a[] = {E(2, 1), E(4, 2)};
    wal.Append(0, a, 2);
    wal.Commit();
    whole = static_cast<uint64_t>(fs::file_size(wal.path()));
    const lsm::Entry b[] = {E(6, 3)};
    wal.Append(0, b, 1);
    wal.Commit();
  }
  // Crash mid-record: only part of the second record hit the platter.
  ASSERT_EQ(::truncate(Wal::PathFor(dir_).c_str(),
                       static_cast<off_t>(whole + 9)),
            0);
  const WalReplay replay = ReadWal(Wal::PathFor(dir_));
  EXPECT_TRUE(replay.tail_torn);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].entries.size(), 2u);
  EXPECT_EQ(replay.valid_bytes, whole);

  // Repair then append: the log is whole again.
  {
    Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kNone);
    wal.TruncateTail(replay.valid_bytes);
    const lsm::Entry c[] = {E(8, 4)};
    wal.Append(0, c, 1);
    wal.Commit();
  }
  const WalReplay healed = ReadWal(Wal::PathFor(dir_));
  EXPECT_FALSE(healed.tail_torn);
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_EQ(healed.records[1].entries[0], E(8, 4));
}

TEST_F(WalTest, CrcRejectsDamagedRecord) {
  uint64_t first = 0;
  {
    Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kNone);
    const lsm::Entry a[] = {E(2, 1)};
    wal.Append(0, a, 1);
    wal.Commit();
    first = static_cast<uint64_t>(fs::file_size(wal.path()));
    const lsm::Entry b[] = {E(4, 2)};
    wal.Append(0, b, 1);
    wal.Commit();
  }
  // Damage one byte inside the second record's payload.
  {
    std::fstream f(Wal::PathFor(dir_),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(first + 8 + 3));
    char c = 0x5a;
    f.write(&c, 1);
  }
  const WalReplay replay = ReadWal(Wal::PathFor(dir_));
  EXPECT_TRUE(replay.tail_torn);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].entries[0], E(2, 1));
}

/// Frames `payloads` into a fresh file at `path`, each with a valid CRC.
void WriteRecords(const std::string& path,
                  const std::vector<std::string>& payloads) {
  fs::remove(path);
  RecordWriter w(FileOps::Real(), path);
  for (const std::string& p : payloads) w.Append(p);
  w.Commit();
}

// An entry count the rest of the payload cannot hold, behind a valid CRC,
// ends replay at that record as a torn tail before anything is allocated
// for it.
TEST_F(WalTest, HostileEntryCountIsATornTail) {
  uint64_t whole = 0;
  {
    Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kNone);
    const lsm::Entry a[] = {E(2, 1), E(4, 2)};
    wal.Append(0, a, 2);
    wal.Commit();
    whole = static_cast<uint64_t>(fs::file_size(wal.path()));
  }
  {
    ByteWriter w;
    w.U64(0);            // epoch
    w.U32(0xFFFFFFFFu);  // entry count
    w.U64(6);            // one entry's key, value and flags
    w.U64(3);
    w.U64(0);
    RecordWriter log(FileOps::Real(), Wal::PathFor(dir_));
    log.Append(w.Take());
    log.Commit();
  }
  const WalReplay replay = ReadWal(Wal::PathFor(dir_));
  EXPECT_TRUE(replay.tail_torn);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].entries.size(), 2u);
  EXPECT_EQ(replay.valid_bytes, whole);
}

// Fixed-seed byte mutation of every record, re-framed with a valid CRC:
// replay must never crash or over-read (the ASan build checks the
// latter), and must stop at a frame boundary at or after the mutated
// record, keeping every record before it.
TEST_F(WalTest, MutatedRecordsReplayToACleanPrefix) {
  const std::string path = Wal::PathFor(dir_);
  {
    Wal wal(FileOps::Real(), dir_, WalSyncPolicy::kNone);
    const lsm::Entry a[] = {E(2, 1), E(4, 2), E(6, 0, true)};
    wal.Append(0, a, 3);
    const lsm::Entry b[] = {E(8, 4)};
    wal.Append(1, b, 1);
    const lsm::Entry c[] = {E(10, 5), E(12, 6)};
    wal.Append(1, c, 2);
    wal.Commit();
  }
  const RecordFileContents file = ReadRecordFile(path);
  const std::vector<std::string> records(file.records.begin(),
                                         file.records.end());
  ASSERT_EQ(records.size(), 3u);

  std::mt19937_64 rng(20141006);
  auto below = [&rng](uint64_t n) { return rng() % n; };
  for (size_t i = 0; i < records.size(); ++i) {
    for (int iter = 0; iter < 300; ++iter) {
      std::string p = records[i];
      switch (below(4)) {
        case 0:  // flip a few bits
          for (uint64_t n = 1 + below(4); n > 0; --n) {
            p[below(p.size())] ^= static_cast<char>(1u << below(8));
          }
          break;
        case 1: {  // a huge or random 32-bit word, e.g. over the count
          const uint32_t word =
              below(2) == 0 ? 0xFFFFFFFFu : static_cast<uint32_t>(rng());
          std::memcpy(&p[below(p.size() - 3)], &word, 4);
          break;
        }
        case 2:  // cut short
          p.resize(below(p.size()));
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
      const WalReplay replay = ReadWal(path);
      ASSERT_TRUE(replay.exists);
      ASSERT_GE(replay.records.size(), i)
          << "record " << i << ", iteration " << iter;
      ASSERT_EQ(replay.valid_bytes, frame_end[replay.records.size()]);
      ASSERT_EQ(replay.tail_torn, replay.records.size() < log.size());
    }
  }
}

}  // namespace
}  // namespace camal::engine::fileio
