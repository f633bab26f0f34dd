// Durable write-ahead log with group commit.
//
// The paper's ACC "stores an end-of-step record, used in crash recovery, in
// the log" (§5). This WAL makes that record — and the begin / commit /
// compensated records around it — durable: LSN-stamped records are
// serialized through a latched in-memory log buffer into an append-only
// file (checksummed frames, src/common/record_file.h), and committers block
// in WaitDurable() until their LSN has been fsynced.
//
// Two flush disciplines (Options::group_commit_us):
//   * 0 — sync-per-commit: every WaitDurable performs its own write+fsync
//     (serialized through the I/O latch). One fsync per forced record, the
//     classic non-batched discipline.
//   * N > 0 — group commit: a background flusher thread wakes when records
//     are buffered, sleeps the batch window, then flushes everything that
//     accumulated with a single write+fsync and wakes every committer whose
//     LSN the flush covered. Commits/s scales with the batch size instead
//     of the fsync rate (the log-buffer + log_add_and_flush shape).
//
// Durability is prefix-ordered: durable_lsn advances through the buffer in
// append order, so "record R durable" implies every lower LSN is durable.
// That is what lets the engine release step locks before waiting: any
// dependent record appends behind R and can never become durable first.
// A write/fsync failure makes the log fail-stop: the error is sticky,
// durable_lsn never advances past the last successful batch, no further
// bytes are written (a retry after a partial write could duplicate or gap
// frames), and WaitDurable surfaces the error to every committer from then
// on. The on-disk checksummed prefix therefore always equals the durable
// prefix, which is what recovery's scan assumes.
//
// Redo: each end-of-step (and compensated, and 2PL commit) record carries
// the physical after-images of the step's writes. Recovery rebuilds the
// database by reloading the deterministic initial state and replaying redo
// in LSN order, then compensates in-flight transactions (§3.4). A record
// is the atom: a compensation whose record is torn never applied any redo,
// so re-running it from scratch is exact.

#ifndef ACCDB_ACC_WAL_H_
#define ACCDB_ACC_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/record_file.h"
#include "common/status.h"
#include "lock/types.h"
#include "storage/database.h"
#include "storage/row_write.h"

namespace accdb::acc {

// Record kinds. Under the ACC a transaction logs one kBegin, one kEndOfStep
// per completed forward step, then kCommit or kCompensated; the monolithic
// backends log a single kCommit.
enum class LogRecordType : uint8_t {
  kBegin,
  kEndOfStep,
  kCommit,
  kCompensated,
};

// One durable log record. `redo` is populated on kEndOfStep (the step's
// writes), kCompensated (the compensating step's writes) and kCommit under
// the monolithic backends (the whole transaction's writes).
struct WalRecord {
  LogRecordType type = LogRecordType::kBegin;
  uint64_t lsn = 0;  // Assigned by Append.
  lock::TxnId txn = 0;
  std::string program;     // kBegin.
  int32_t step_index = 0;  // kEndOfStep (1-based).
  std::string work_area;   // kEndOfStep.
  std::vector<storage::RowWrite> redo;
};

// Serialization (exposed for tests; Append/scan use them internally).
std::string EncodeWalRecord(const WalRecord& record);
bool DecodeWalRecord(std::string_view payload, WalRecord* out);

class Wal {
 public:
  struct Options {
    std::string path;
    // Group-commit batch window in microseconds; 0 = sync-per-commit.
    uint32_t group_commit_us = 0;
  };

  struct Stats {
    uint64_t appends = 0;
    uint64_t forced_waits = 0;  // WaitDurable calls that had to wait/flush.
    uint64_t fsyncs = 0;
    uint64_t bytes_written = 0;
  };

  // Opens `path`, scans every valid record already in it (the surviving log
  // of a crashed process; a torn tail is detected, reported and truncated
  // away), and positions the appender after the last valid record with
  // next_lsn = last + 1. On failure returns null and sets *status.
  static std::unique_ptr<Wal> Open(const Options& options, Status* status);

  ~Wal();  // Stops the flusher after a final flush.

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Stamps the record with the next LSN and frames it into the log buffer.
  // Does not block on I/O. Returns the assigned LSN.
  uint64_t Append(WalRecord record);

  // Blocks until every record with LSN <= `lsn` is on disk. With
  // group_commit_us == 0 the caller flushes inline; otherwise it sleeps
  // until the flusher's batch covering `lsn` completes. Returns non-OK if
  // the log hit a write/fsync failure before `lsn` became durable; the WAL
  // is then fail-stop — the error is sticky, durable_lsn never advances
  // again, and every subsequent WaitDurable returns the same error, so no
  // commit is ever acknowledged past a log the disk refused.
  Status WaitDurable(uint64_t lsn);

  uint64_t durable_lsn() const;

  // The sticky I/O error (OK while the log is healthy). Set by the first
  // failed flush; never cleared.
  Status io_status() const;

  // Test hook: poison the log as if a flush had failed, so the fail-stop
  // paths (sticky WaitDurable error, flusher shutdown) are exercisable
  // without forcing a real disk error.
  void SimulateIoErrorForTest(Status error);

  // Records recovered by the opening scan, in LSN order.
  const std::vector<WalRecord>& recovered() const { return recovered_; }
  bool recovered_torn_tail() const { return recovered_torn_tail_; }
  // Largest transaction id appearing in the recovered records (0 if none):
  // the floor for post-recovery txn-id allocation, so a restarted process
  // never reuses a logged id.
  lock::TxnId max_recovered_txn() const { return max_recovered_txn_; }

  Stats StatsSnapshot() const;

  const Options& options() const { return options_; }

 private:
  explicit Wal(Options options) : options_(std::move(options)) {}

  // Writes and fsyncs everything currently buffered (serialized on io_mu_),
  // then publishes the new durable LSN. Safe to call from any thread.
  void Flush();

  void FlusherLoop();

  const Options options_;

  std::vector<WalRecord> recovered_;
  bool recovered_torn_tail_ = false;
  lock::TxnId max_recovered_txn_ = 0;

  // Buffer tier: append latch, byte buffer, LSN watermarks.
  mutable std::mutex mu_;
  std::condition_variable flusher_cv_;  // Signals the flusher: data buffered.
  std::condition_variable durable_cv_;  // Signals committers: durable_lsn_.
  std::string buffer_;
  uint64_t next_lsn_ = 1;
  uint64_t buffered_lsn_ = 0;  // Highest LSN framed into buffer_.
  uint64_t durable_lsn_ = 0;   // Highest LSN known fsynced.
  Status io_status_;           // Sticky first flush failure; never cleared.
  bool stop_ = false;
  Stats stats_;

  // I/O tier: one flush at a time; taken after (never under) mu_.
  std::mutex io_mu_;
  RecordFileWriter writer_;

  std::thread flusher_;
};

// Applies one record's redo ops to `db` (recovery replay; LSN order).
Status ApplyWalRedo(storage::Database& db, const WalRecord& record);

// Replays every record's redo in order (the recovery redo pass).
Status ReplayWal(storage::Database& db, const std::vector<WalRecord>& records);

}  // namespace accdb::acc

#endif  // ACCDB_ACC_WAL_H_
