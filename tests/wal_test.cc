// WAL unit tests: record codec round-trip, LSN discipline, durability under
// both flush modes, reopen/resume, and torn-tail handling — including the
// exhaustive sweep truncating the file at every byte offset of the last
// record (the shapes a mid-write crash can leave behind).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "acc/wal.h"
#include "common/record_file.h"
#include "storage/value.h"
#include "test_files.h"

namespace accdb::acc {
namespace {

WalRecord SampleEndOfStep(lock::TxnId txn, int32_t step) {
  WalRecord rec;
  rec.type = LogRecordType::kEndOfStep;
  rec.txn = txn;
  rec.step_index = step;
  rec.work_area = "serialized work area bytes \x01\x02\x03";
  storage::RowWrite update;
  update.kind = storage::RowWrite::Kind::kUpdate;
  update.table = 3;
  update.row = 42;
  update.columns.emplace_back(1, storage::Value(int64_t{-7}));
  update.columns.emplace_back(4, storage::Value(std::string("abc")));
  rec.redo.push_back(std::move(update));
  storage::RowWrite insert;
  insert.kind = storage::RowWrite::Kind::kInsert;
  insert.table = 9;
  insert.row = 1000 + static_cast<storage::RowId>(step);
  insert.row_data = {storage::Value(int64_t{5}), storage::Value(2.5),
                     storage::Value(Money::FromCents(1234)),
                     storage::Value(std::string("row"))};
  rec.redo.push_back(std::move(insert));
  storage::RowWrite del;
  del.kind = storage::RowWrite::Kind::kDelete;
  del.table = 2;
  del.row = 17;
  rec.redo.push_back(std::move(del));
  return rec;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.lsn, b.lsn);
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.program, b.program);
  EXPECT_EQ(a.step_index, b.step_index);
  EXPECT_EQ(a.work_area, b.work_area);
  ASSERT_EQ(a.redo.size(), b.redo.size());
  for (size_t i = 0; i < a.redo.size(); ++i) {
    EXPECT_EQ(a.redo[i].kind, b.redo[i].kind);
    EXPECT_EQ(a.redo[i].table, b.redo[i].table);
    EXPECT_EQ(a.redo[i].row, b.redo[i].row);
    EXPECT_EQ(a.redo[i].row_data, b.redo[i].row_data);
    EXPECT_EQ(a.redo[i].columns, b.redo[i].columns);
  }
}

TEST(WalCodecTest, RoundTripAllFields) {
  WalRecord rec = SampleEndOfStep(77, 3);
  rec.lsn = 12;
  WalRecord decoded;
  ASSERT_TRUE(DecodeWalRecord(EncodeWalRecord(rec), &decoded));
  ExpectRecordsEqual(rec, decoded);
}

TEST(WalCodecTest, RoundTripBeginAndCommit) {
  WalRecord begin;
  begin.type = LogRecordType::kBegin;
  begin.lsn = 1;
  begin.txn = 5;
  begin.program = "new_order";
  WalRecord decoded;
  ASSERT_TRUE(DecodeWalRecord(EncodeWalRecord(begin), &decoded));
  ExpectRecordsEqual(begin, decoded);

  WalRecord commit;
  commit.type = LogRecordType::kCommit;
  commit.lsn = 2;
  commit.txn = 5;
  ASSERT_TRUE(DecodeWalRecord(EncodeWalRecord(commit), &decoded));
  ExpectRecordsEqual(commit, decoded);
}

TEST(WalCodecTest, WalEncodePreservesLsnOrderThroughScan) {
  // Encode a mixed batch, decode it back, and require the LSN sequence to
  // survive verbatim — recovery replays redo strictly in this order.
  std::vector<WalRecord> records(3);
  records[0].type = LogRecordType::kBegin;
  records[0].program = "delivery";
  records[1] = SampleEndOfStep(4, 1);
  records[2].type = LogRecordType::kCommit;
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].txn = 4;
    records[i].lsn = i + 1;
  }
  for (const WalRecord& rec : records) {
    WalRecord decoded;
    ASSERT_TRUE(DecodeWalRecord(EncodeWalRecord(rec), &decoded));
    ExpectRecordsEqual(rec, decoded);
  }
}

TEST(WalCodecTest, RejectsTruncatedAndPaddedPayloads) {
  const std::string payload = EncodeWalRecord(SampleEndOfStep(1, 1));
  WalRecord out;
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeWalRecord(payload.substr(0, len), &out))
        << "decoded from a " << len << "-byte prefix";
  }
  EXPECT_FALSE(DecodeWalRecord(payload + "x", &out));
}

TEST(WalTest, AppendAssignsDenseLsnsAndWaitDurableFlushes) {
  const std::string path = TempPath("wal_test_dense_lsn");
  ::unlink(path.c_str());
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  EXPECT_EQ(wal->durable_lsn(), 0u);
  EXPECT_EQ(wal->Append(SampleEndOfStep(1, 1)), 1u);
  EXPECT_EQ(wal->Append(SampleEndOfStep(1, 2)), 2u);
  EXPECT_EQ(wal->Append(SampleEndOfStep(2, 1)), 3u);
  wal->WaitDurable(3);
  EXPECT_GE(wal->durable_lsn(), 3u);
  Wal::Stats stats = wal->StatsSnapshot();
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_GT(stats.bytes_written, 0u);
  ::unlink(path.c_str());
}

TEST(WalTest, ConcurrentAppendsStayDenseAndOrdered) {
  const std::string path = TempPath("wal_test_concurrent");
  ::unlink(path.c_str());
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 100}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t lsn = wal->Append(
            SampleEndOfStep(static_cast<lock::TxnId>(t * 1000 + i + 1), 1));
        wal->WaitDurable(lsn);
        EXPECT_GE(wal->durable_lsn(), lsn);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  wal.reset();

  // The surviving file holds every record exactly once, LSNs dense 1..N in
  // file order (prefix-ordered durability).
  wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  const std::vector<WalRecord>& recovered = wal->recovered();
  ASSERT_EQ(recovered.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_EQ(recovered[i].lsn, i + 1);
  }
  EXPECT_FALSE(wal->recovered_torn_tail());
  ::unlink(path.c_str());
}

TEST(WalTest, ReopenResumesLsnsAndReportsMaxTxn) {
  const std::string path = TempPath("wal_test_reopen");
  ::unlink(path.c_str());
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  wal->Append(SampleEndOfStep(10, 1));
  wal->Append(SampleEndOfStep(31, 1));
  wal->WaitDurable(2);
  wal.reset();  // Destructor final-flushes.

  wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  ASSERT_EQ(wal->recovered().size(), 2u);
  EXPECT_EQ(wal->max_recovered_txn(), 31u);
  EXPECT_EQ(wal->durable_lsn(), 2u);
  EXPECT_EQ(wal->Append(SampleEndOfStep(32, 1)), 3u);
  wal->WaitDurable(3);
  wal.reset();

  wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  EXPECT_EQ(wal->recovered().size(), 3u);
  EXPECT_EQ(wal->max_recovered_txn(), 32u);
  ::unlink(path.c_str());
}

TEST(WalTest, GroupCommitWindowMakesCommitsDurable) {
  const std::string path = TempPath("wal_test_group_commit");
  ::unlink(path.c_str());
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 200}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  const uint64_t lsn = wal->Append(SampleEndOfStep(1, 1));
  wal->WaitDurable(lsn);
  EXPECT_GE(wal->durable_lsn(), lsn);
  EXPECT_GE(wal->StatsSnapshot().fsyncs, 1u);
  ::unlink(path.c_str());
}

// A crash can cut the file anywhere inside the last frame: after a partial
// length header, inside the checksum, or mid-payload. Every such prefix must
// recover the intact records, flag the torn tail, and truncate it away so
// the next append starts from a clean boundary.
TEST(WalTest, TornTailDetectedAtEveryByteOffsetOfLastRecord) {
  const std::string path = TempPath("wal_test_torn_tail");
  ::unlink(path.c_str());
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  wal->Append(SampleEndOfStep(1, 1));
  wal->Append(SampleEndOfStep(2, 1));
  wal->WaitDurable(2);
  wal.reset();
  const std::string prefix = ReadFileBytes(path);

  wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  wal->Append(SampleEndOfStep(3, 1));
  wal->WaitDurable(3);
  wal.reset();
  const std::string full = ReadFileBytes(path);
  ASSERT_GT(full.size(), prefix.size());

  for (size_t cut = prefix.size() + 1; cut < full.size(); ++cut) {
    WriteFileBytes(path, full.substr(0, cut));
    std::unique_ptr<Wal> reopened = Wal::Open({path, 0}, &status);
    ASSERT_NE(reopened, nullptr)
        << "cut at byte " << cut << ": " << status.ToString();
    EXPECT_EQ(reopened->recovered().size(), 2u) << "cut at byte " << cut;
    EXPECT_TRUE(reopened->recovered_torn_tail()) << "cut at byte " << cut;
    // The torn bytes are gone: the next record lands at LSN 3 and the file
    // scans clean afterwards.
    EXPECT_EQ(reopened->Append(SampleEndOfStep(9, 1)), 3u);
    reopened->WaitDurable(3);
    reopened.reset();
    reopened = Wal::Open({path, 0}, &status);
    ASSERT_NE(reopened, nullptr) << status.ToString();
    EXPECT_EQ(reopened->recovered().size(), 3u) << "cut at byte " << cut;
    EXPECT_FALSE(reopened->recovered_torn_tail()) << "cut at byte " << cut;
  }
  ::unlink(path.c_str());
}

TEST(WalTest, IoErrorIsStickyAndFailStop) {
  const std::string path = TempPath("wal_test_io_error");
  ::unlink(path.c_str());
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  EXPECT_EQ(wal->Append(SampleEndOfStep(1, 1)), 1u);
  EXPECT_TRUE(wal->WaitDurable(1).ok());
  EXPECT_EQ(wal->durable_lsn(), 1u);

  wal->SimulateIoErrorForTest(Status::Internal("injected fsync failure"));
  // Records past the failure never become durable: the wait surfaces the
  // sticky error instead of acknowledging, and the durable LSN is frozen.
  EXPECT_EQ(wal->Append(SampleEndOfStep(2, 1)), 2u);
  EXPECT_FALSE(wal->WaitDurable(2).ok());
  EXPECT_FALSE(wal->io_status().ok());
  EXPECT_EQ(wal->durable_lsn(), 1u);
  // The already-durable prefix still reports clean.
  EXPECT_TRUE(wal->WaitDurable(1).ok());
  wal.reset();  // The final-flush in the destructor must stay gated too.

  // Fail-stop kept the on-disk log exactly the durable prefix: no bytes
  // after the failure, so no LSN gap on reopen.
  wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  EXPECT_EQ(wal->recovered().size(), 1u);
  EXPECT_FALSE(wal->recovered_torn_tail());
  ::unlink(path.c_str());
}

TEST(WalTest, GroupCommitIoErrorWakesWaitersAndStopsFlusher) {
  const std::string path = TempPath("wal_test_io_error_group");
  ::unlink(path.c_str());
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 200}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  wal->SimulateIoErrorForTest(Status::Internal("injected fsync failure"));
  // A committer arriving after the failure must not block forever on the
  // (now stopped) flusher — it gets the sticky error.
  const uint64_t lsn = wal->Append(SampleEndOfStep(1, 1));
  EXPECT_FALSE(wal->WaitDurable(lsn).ok());
  EXPECT_EQ(wal->durable_lsn(), 0u);
  wal.reset();  // Destructor joins the exited flusher and writes nothing.

  wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  EXPECT_TRUE(wal->recovered().empty());
  ::unlink(path.c_str());
}

TEST(WalTest, CorruptedChecksumDropsTailRecord) {
  const std::string path = TempPath("wal_test_bad_crc");
  ::unlink(path.c_str());
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  wal->Append(SampleEndOfStep(1, 1));
  wal->WaitDurable(1);
  wal.reset();
  const std::string clean = ReadFileBytes(path);

  wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  wal->Append(SampleEndOfStep(2, 1));
  wal->WaitDurable(2);
  wal.reset();
  std::string bytes = ReadFileBytes(path);
  // Flip one payload byte of the second record: its CRC no longer matches,
  // so the scan must stop after the first record.
  bytes[clean.size() + 10] = static_cast<char>(bytes[clean.size() + 10] ^ 0xff);
  WriteFileBytes(path, bytes);

  wal = Wal::Open({path, 0}, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  EXPECT_EQ(wal->recovered().size(), 1u);
  EXPECT_TRUE(wal->recovered_torn_tail());
  ::unlink(path.c_str());
}

TEST(WalTest, ValidChecksumButGarbagePayloadIsAnError) {
  // A frame whose CRC matches but whose payload is not a WalRecord is
  // corruption the truncation rule must NOT paper over: Open fails.
  const std::string path = TempPath("wal_test_garbage_payload");
  ::unlink(path.c_str());
  std::string bytes;
  AppendFrame(&bytes, "definitely not a wal record");
  WriteFileBytes(path, bytes);
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 0}, &status);
  EXPECT_EQ(wal, nullptr);
  EXPECT_FALSE(status.ok());
  ::unlink(path.c_str());
}

TEST(WalTest, LsnGapInFileIsAnError) {
  // Two well-formed records whose LSNs skip 2: the log is not a dense
  // prefix, so Open must refuse rather than replay around the hole.
  const std::string path = TempPath("wal_test_lsn_gap");
  ::unlink(path.c_str());
  WalRecord first = SampleEndOfStep(1, 1);
  first.lsn = 1;
  WalRecord third = SampleEndOfStep(2, 1);
  third.lsn = 3;
  std::string bytes;
  AppendFrame(&bytes, EncodeWalRecord(first));
  AppendFrame(&bytes, EncodeWalRecord(third));
  WriteFileBytes(path, bytes);
  Status status;
  std::unique_ptr<Wal> wal = Wal::Open({path, 0}, &status);
  EXPECT_EQ(wal, nullptr);
  EXPECT_FALSE(status.ok());
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace accdb::acc
