// Tests for the alternative concurrency-control backends of src/cc:
// ExecMode::kOptimistic (OCC with backward validation) and
// ExecMode::kMultiVersion (MV2PL writers + snapshot readers), driven
// through the same Engine::Execute seam the paper's two systems use.
//
// The multi-threaded cases double as the tsan_smoke workload for the new
// backends: OCC executions never block (per-thread ImmediateEnv is safe),
// and MVCC mixes locking writers with lock-free snapshot readers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "acc/catalog.h"
#include "acc/engine.h"
#include "acc/function_program.h"
#include "acc/txn_context.h"
#include "acc/wal.h"
#include "cc/occ.h"
#include "cc/version_store.h"
#include "lock/conflict.h"
#include "runtime/thread_env.h"
#include "storage/database.h"

namespace accdb::acc {
namespace {

using storage::Key;
using storage::Row;
using storage::Value;

// Two counter variables plus one keyed table (key, val), an engine over a
// plain conflict matrix (the backends under test never consult assertional
// semantics), and a registered step type to satisfy the step protocol.
class CcBackendTest : public ::testing::Test {
 public:
  CcBackendTest() {
    counter_a_ = db_.CreateVariable("a", 0);
    counter_b_ = db_.CreateVariable("b", 0);
    storage::Schema schema;
    schema.columns = {{"k", storage::ColumnType::kInt64},
                      {"v", storage::ColumnType::kInt64}};
    schema.key_columns = {0};
    kv_ = db_.CreateTable("kv", schema);
    step_ = catalog_.RegisterStepType("step");
    EngineConfig config;
    config.charge_acc_overheads = false;
    MakeEngine(config);
  }

  void MakeEngine(const EngineConfig& config) {
    engine_ = std::make_unique<Engine>(&db_, &resolver_, config);
  }

  int64_t ReadCounter(storage::Table* t) { return db_.ReadVariable(*t); }

  // One-step program over `body`, optionally read-only (MVCC snapshot).
  ExecResult Run(ExecMode mode, ExecutionEnv& env, bool read_only,
                 const std::function<Status(TxnContext&)>& body) {
    FunctionProgram prog("cc_test", [&](TxnContext& ctx) {
      return ctx.RunStep(step_, {1}, AssertionInstance{}, body);
    });
    prog.set_read_only(read_only);
    return engine_->Execute(prog, env, mode);
  }

  storage::Database db_;
  storage::Table* counter_a_;
  storage::Table* counter_b_;
  storage::Table* kv_;
  Catalog catalog_;
  lock::MatrixConflictResolver resolver_;
  std::unique_ptr<Engine> engine_;
  ImmediateEnv env_;
  lock::ActorId step_;
};

// --- OCC ---

TEST_F(CcBackendTest, OccCommitAppliesBufferedWrites) {
  ExecResult result =
      Run(ExecMode::kOptimistic, env_, /*read_only=*/false,
          [&](TxnContext& c) -> Status {
            ACCDB_ASSIGN_OR_RETURN(int64_t v,
                                   c.ReadVariable(*counter_a_, true));
            ACCDB_RETURN_IF_ERROR(c.WriteVariable(*counter_a_, v + 1));
            // Nothing is visible in the table until commit.
            EXPECT_EQ(ReadCounter(counter_a_), 0);
            return Status::Ok();
          });
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.txn_restarts, 0);
  EXPECT_EQ(ReadCounter(counter_a_), 1);
}

TEST_F(CcBackendTest, OccReadsItsOwnBufferedInsertsAndUpdates) {
  ExecResult result = Run(
      ExecMode::kOptimistic, env_, /*read_only=*/false,
      [&](TxnContext& c) -> Status {
        ACCDB_ASSIGN_OR_RETURN(storage::RowId r1,
                               c.Insert(*kv_, {Value(int64_t{1}),
                                               Value(int64_t{10})}));
        ACCDB_ASSIGN_OR_RETURN(storage::RowId r2,
                               c.Insert(*kv_, {Value(int64_t{2}),
                                               Value(int64_t{20})}));
        // Buffered ids are virtual: they never touch the table.
        EXPECT_TRUE(cc::IsOccVirtual(r1));
        EXPECT_TRUE(cc::IsOccVirtual(r2));
        EXPECT_FALSE(kv_->LookupPk(Key(1)).has_value());
        // Point read and scans overlay the buffer.
        ACCDB_ASSIGN_OR_RETURN(Row row, c.ReadByKey(*kv_, Key(2)));
        EXPECT_EQ(row[1].AsInt64(), 20);
        ACCDB_ASSIGN_OR_RETURN(auto all, c.ScanPkPrefix(*kv_, Key()));
        EXPECT_EQ(all.size(), 2u);
        // Updating a buffered insert patches its image in place.
        ACCDB_RETURN_IF_ERROR(
            c.Update(*kv_, r1, {{1, Value(int64_t{11})}}));
        ACCDB_ASSIGN_OR_RETURN(Row row1, c.ReadByKey(*kv_, Key(1)));
        EXPECT_EQ(row1[1].AsInt64(), 11);
        return Status::Ok();
      });
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // Commit materialized both inserts under real ids.
  std::optional<storage::RowId> id1 = kv_->LookupPk(Key(1));
  ASSERT_TRUE(id1.has_value());
  EXPECT_FALSE(cc::IsOccVirtual(*id1));
  EXPECT_EQ((*kv_->GetCopy(*id1))[1].AsInt64(), 11);
  EXPECT_TRUE(kv_->LookupPk(Key(2)).has_value());
}

TEST_F(CcBackendTest, OccValidationFailureRestartsTransaction) {
  int attempts = 0;
  ExecResult result = Run(
      ExecMode::kOptimistic, env_, /*read_only=*/false,
      [&](TxnContext& c) -> Status {
        ++attempts;
        ACCDB_ASSIGN_OR_RETURN(int64_t v, c.ReadVariable(*counter_a_, true));
        if (attempts == 1) {
          // A concurrent optimistic writer commits between our read and our
          // commit: its version bump must fail our validation.
          ImmediateEnv other_env;
          ExecResult other = Run(ExecMode::kOptimistic, other_env,
                                 /*read_only=*/false,
                                 [&](TxnContext& oc) -> Status {
                                   ACCDB_ASSIGN_OR_RETURN(
                                       int64_t ov,
                                       oc.ReadVariable(*counter_a_, true));
                                   return oc.WriteVariable(*counter_a_,
                                                           ov + 10);
                                 });
          EXPECT_TRUE(other.status.ok());
        }
        return c.WriteVariable(*counter_a_, v + 1);
      });
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(result.txn_restarts, 1);
  // The restart re-read the committed 10; no lost update.
  EXPECT_EQ(ReadCounter(counter_a_), 11);
}

TEST_F(CcBackendTest, OccRestartLimitExhaustionSurfacesAsAborted) {
  EngineConfig config;
  config.charge_acc_overheads = false;
  config.txn_restart_limit = 2;
  MakeEngine(config);
  const lock::ItemId item =
      lock::ItemId::Row(counter_a_->id(), storage::kVariableRowId);
  int attempts = 0;
  ExecResult result = Run(
      ExecMode::kOptimistic, env_, /*read_only=*/false,
      [&](TxnContext& c) -> Status {
        ++attempts;
        ACCDB_ASSIGN_OR_RETURN(int64_t v, c.ReadVariable(*counter_a_, true));
        {
          // Invalidate our own read set on every attempt.
          std::lock_guard<std::mutex> g(
              engine_->occ_versions().commit_mutex());
          engine_->occ_versions().Bump(item);
        }
        return c.WriteVariable(*counter_a_, v + 1);
      });
  EXPECT_EQ(result.status.code(), StatusCode::kAborted);
  EXPECT_EQ(result.txn_restarts, 2);
  EXPECT_EQ(attempts, 3);  // Initial attempt + two restarts.
  EXPECT_EQ(ReadCounter(counter_a_), 0);  // Buffer never applied.
}

TEST_F(CcBackendTest, OccInsertKeyValidationCatchesConcurrentInsert) {
  int attempts = 0;
  ExecResult result = Run(
      ExecMode::kOptimistic, env_, /*read_only=*/false,
      [&](TxnContext& c) -> Status {
        ++attempts;
        if (attempts == 1) {
          // Buffer key 1, then lose the race to a committing writer.
          ACCDB_RETURN_IF_ERROR(
              c.Insert(*kv_, {Value(int64_t{1}), Value(int64_t{100})})
                  .status());
          ImmediateEnv other_env;
          ExecResult other =
              Run(ExecMode::kOptimistic, other_env, /*read_only=*/false,
                  [&](TxnContext& oc) -> Status {
                    return oc
                        .Insert(*kv_, {Value(int64_t{1}), Value(int64_t{7})})
                        .status();
                  });
          EXPECT_TRUE(other.status.ok());
          return Status::Ok();  // Commit-time key re-check must fail.
        }
        // The restart sees the committed duplicate immediately.
        Status dup =
            c.Insert(*kv_, {Value(int64_t{1}), Value(int64_t{100})}).status();
        EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
        return c.Insert(*kv_, {Value(int64_t{2}), Value(int64_t{200})})
            .status();
      });
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.txn_restarts, 1);
  ASSERT_TRUE(kv_->LookupPk(Key(1)).has_value());
  EXPECT_EQ((*kv_->GetCopy(*kv_->LookupPk(Key(1))))[1].AsInt64(), 7);
  EXPECT_TRUE(kv_->LookupPk(Key(2)).has_value());
}

// A key derived from a stale read can collide with the row the committer
// that changed the read inserted (TPC-C payment's HISTORY key). The early
// duplicate check must report the stale read set as a restart, not a hard
// kAlreadyExists.
TEST_F(CcBackendTest, OccDuplicateFromStaleReadRestarts) {
  int attempts = 0;
  ExecResult result = Run(
      ExecMode::kOptimistic, env_, /*read_only=*/false,
      [&](TxnContext& c) -> Status {
        ++attempts;
        ACCDB_ASSIGN_OR_RETURN(int64_t v, c.ReadVariable(*counter_a_, true));
        if (attempts == 1) {
          // A committer advances the counter and inserts key v.
          ImmediateEnv other_env;
          ExecResult other =
              Run(ExecMode::kOptimistic, other_env, /*read_only=*/false,
                  [&](TxnContext& oc) -> Status {
                    ACCDB_ASSIGN_OR_RETURN(
                        int64_t ov, oc.ReadVariable(*counter_a_, true));
                    ACCDB_RETURN_IF_ERROR(
                        oc.WriteVariable(*counter_a_, ov + 1));
                    return oc.Insert(*kv_, {Value(ov), Value(int64_t{7})})
                        .status();
                  });
          EXPECT_TRUE(other.status.ok());
        }
        ACCDB_RETURN_IF_ERROR(c.WriteVariable(*counter_a_, v + 1));
        return c.Insert(*kv_, {Value(v), Value(int64_t{100})}).status();
      });
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(result.txn_restarts, 1);
  EXPECT_EQ(ReadCounter(counter_a_), 2);
  ASSERT_TRUE(kv_->LookupPk(Key(0)).has_value());
  EXPECT_EQ((*kv_->GetCopy(*kv_->LookupPk(Key(0))))[1].AsInt64(), 7);
  ASSERT_TRUE(kv_->LookupPk(Key(1)).has_value());
  EXPECT_EQ((*kv_->GetCopy(*kv_->LookupPk(Key(1))))[1].AsInt64(), 100);
}

// OCC executions never block, so every thread can run on its own
// ImmediateEnv: pure validate/apply contention on one hot counter.
TEST_F(CcBackendTest, OccParallelIncrementsLoseNoUpdates) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ImmediateEnv env;
      for (int i = 0; i < kPerThread; ++i) {
        ExecResult result =
            Run(ExecMode::kOptimistic, env, /*read_only=*/false,
                [&](TxnContext& c) -> Status {
                  ACCDB_ASSIGN_OR_RETURN(int64_t v,
                                         c.ReadVariable(*counter_a_, true));
                  return c.WriteVariable(*counter_a_, v + 1);
                });
        if (!result.status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ReadCounter(counter_a_), kThreads * kPerThread);
}

// A doomed execution (another transaction committed our buffered insert's
// key after Insert()'s advisory check) keeps running until commit-time
// validation aborts it; its scans must never show the key twice — the
// merges resolve the collision to the buffered row.
TEST_F(CcBackendTest, DoomedExecutionScansNeverShowDuplicateKeys) {
  int attempts = 0;
  ExecResult result = Run(
      ExecMode::kOptimistic, env_, /*read_only=*/false,
      [&](TxnContext& c) -> Status {
        ++attempts;
        if (attempts > 1) return Status::Ok();  // Clean restart; commit.
        ACCDB_RETURN_IF_ERROR(
            c.Insert(*kv_, {Value(int64_t{1}), Value(int64_t{100})})
                .status());
        ImmediateEnv other_env;
        ExecResult other =
            Run(ExecMode::kOptimistic, other_env, /*read_only=*/false,
                [&](TxnContext& oc) -> Status {
                  return oc
                      .Insert(*kv_, {Value(int64_t{1}), Value(int64_t{7})})
                      .status();
                });
        EXPECT_TRUE(other.status.ok());
        // Both a buffered and a committed row now carry key 1.
        ACCDB_ASSIGN_OR_RETURN(auto all, c.ScanPkPrefix(*kv_, Key()));
        EXPECT_EQ(all.size(), 1u);
        if (!all.empty()) {
          EXPECT_EQ(all[0].second[1].AsInt64(), 100);
        }
        ACCDB_ASSIGN_OR_RETURN(auto min, c.MinPkPrefix(*kv_, Key()));
        EXPECT_TRUE(min.has_value());
        if (min.has_value()) {
          EXPECT_EQ(min->second[1].AsInt64(), 100);
        }
        return Status::Ok();  // Insert-key validation must fail.
      });
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.txn_restarts, 1);
  // The competitor's commit survived; ours never applied.
  ASSERT_TRUE(kv_->LookupPk(Key(1)).has_value());
  EXPECT_EQ((*kv_->GetCopy(*kv_->LookupPk(Key(1))))[1].AsInt64(), 7);
}

// WAL-attached OCC: the commit record is appended inside the commit
// critical section and must carry the transaction's complete redo — a
// replay of the log alone reproduces the committed state.
TEST_F(CcBackendTest, OccWalCommitRecordCarriesFullRedo) {
  const std::string wal_path =
      ::testing::TempDir() + "accdb_cc_backend_occ.wal";
  ::unlink(wal_path.c_str());
  EngineConfig config;
  config.charge_acc_overheads = false;
  config.wal.path = wal_path;
  config.wal.group_commit_us = 0;
  MakeEngine(config);
  ASSERT_TRUE(engine_->wal_status().ok())
      << engine_->wal_status().ToString();

  ExecResult first =
      Run(ExecMode::kOptimistic, env_, /*read_only=*/false,
          [&](TxnContext& c) -> Status {
            ACCDB_RETURN_IF_ERROR(
                c.Insert(*kv_, {Value(int64_t{1}), Value(int64_t{10})})
                    .status());
            ACCDB_RETURN_IF_ERROR(
                c.Insert(*kv_, {Value(int64_t{2}), Value(int64_t{20})})
                    .status());
            return c.WriteVariable(*counter_a_, 5);
          });
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ExecResult second =
      Run(ExecMode::kOptimistic, env_, /*read_only=*/false,
          [&](TxnContext& c) -> Status {
            ACCDB_ASSIGN_OR_RETURN(Row row, c.ReadByKey(*kv_, Key(1)));
            (void)row;
            std::optional<storage::RowId> id = kv_->LookupPk(Key(1));
            ACCDB_RETURN_IF_ERROR(
                c.Update(*kv_, *id, {{1, Value(int64_t{11})}}));
            return c.Delete(*kv_, *kv_->LookupPk(Key(2)));
          });
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  engine_.reset();  // Releases the log file for the re-open below.

  // A fresh database built in the same creation order (same table ids),
  // populated purely from the recovered records' redo.
  storage::Database db2;
  storage::Table* a2 = db2.CreateVariable("a", 0);
  db2.CreateVariable("b", 0);
  storage::Schema schema;
  schema.columns = {{"k", storage::ColumnType::kInt64},
                    {"v", storage::ColumnType::kInt64}};
  schema.key_columns = {0};
  storage::Table* kv2 = db2.CreateTable("kv", schema);

  Status status;
  Wal::Options reopen;
  reopen.path = wal_path;
  std::unique_ptr<Wal> wal = Wal::Open(reopen, &status);
  ASSERT_NE(wal, nullptr) << status.ToString();
  ASSERT_FALSE(wal->recovered().empty());
  ASSERT_TRUE(ReplayWal(db2, wal->recovered()).ok());

  EXPECT_EQ(db2.ReadVariable(*a2), 5);
  std::optional<storage::RowId> id1 = kv2->LookupPk(Key(1));
  ASSERT_TRUE(id1.has_value());
  EXPECT_EQ((*kv2->GetCopy(*id1))[1].AsInt64(), 11);
  EXPECT_FALSE(kv2->LookupPk(Key(2)).has_value());
  ::unlink(wal_path.c_str());
}

// --- MVCC ---

TEST_F(CcBackendTest, MvccSnapshotReaderIgnoresLaterCommits) {
  ExecResult result = Run(
      ExecMode::kMultiVersion, env_, /*read_only=*/true,
      [&](TxnContext& c) -> Status {
        ACCDB_ASSIGN_OR_RETURN(int64_t a0, c.ReadVariable(*counter_a_));
        EXPECT_EQ(a0, 0);
        // A writer commits both counters mid-transaction...
        ImmediateEnv writer_env;
        ExecResult writer =
            Run(ExecMode::kMultiVersion, writer_env, /*read_only=*/false,
                [&](TxnContext& wc) -> Status {
                  ACCDB_RETURN_IF_ERROR(
                      wc.ReadVariable(*counter_a_, true).status());
                  ACCDB_RETURN_IF_ERROR(wc.WriteVariable(*counter_a_, 5));
                  ACCDB_RETURN_IF_ERROR(
                      wc.ReadVariable(*counter_b_, true).status());
                  return wc.WriteVariable(*counter_b_, 7);
                });
        EXPECT_TRUE(writer.status.ok());
        EXPECT_EQ(ReadCounter(counter_a_), 5);  // Live table moved on.
        // ...but this snapshot stays pinned before it.
        ACCDB_ASSIGN_OR_RETURN(int64_t a1, c.ReadVariable(*counter_a_));
        ACCDB_ASSIGN_OR_RETURN(int64_t b1, c.ReadVariable(*counter_b_));
        EXPECT_EQ(a1, 0);
        EXPECT_EQ(b1, 0);
        return Status::Ok();
      });
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(ReadCounter(counter_a_), 5);
  EXPECT_EQ(ReadCounter(counter_b_), 7);
  EXPECT_EQ(engine_->version_store().active_snapshots(), 0u);
}

TEST_F(CcBackendTest, MvccSnapshotTransactionsCannotWrite) {
  ExecResult result =
      Run(ExecMode::kMultiVersion, env_, /*read_only=*/true,
          [&](TxnContext& c) -> Status {
            return c.WriteVariable(*counter_a_, 1);
          });
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(ReadCounter(counter_a_), 0);
}

TEST_F(CcBackendTest, MvccGcNeverReclaimsVersionsVisibleToActiveSnapshot) {
  cc::VersionStore& store = engine_->version_store();
  const uint64_t snapshot = store.AcquireSnapshot();
  // Two committed writes push two chain entries past the snapshot.
  for (int64_t v = 1; v <= 2; ++v) {
    ImmediateEnv writer_env;
    ExecResult writer =
        Run(ExecMode::kMultiVersion, writer_env, /*read_only=*/false,
            [&](TxnContext& wc) -> Status {
              ACCDB_RETURN_IF_ERROR(
                  wc.ReadVariable(*counter_a_, true).status());
              return wc.WriteVariable(*counter_a_, v);
            });
    ASSERT_TRUE(writer.status.ok());
  }
  ASSERT_GE(store.entry_count(), 1u);
  EXPECT_EQ(store.GcWatermark(), snapshot);
  // Forced GC reclaims nothing the pinned snapshot can still reach.
  EXPECT_EQ(store.Gc(), 0u);
  cc::SnapshotReader reader(&store, snapshot);
  Result<Row> as_of =
      reader.ReadById(*counter_a_, storage::kVariableRowId);
  ASSERT_TRUE(as_of.ok());
  EXPECT_EQ((*as_of)[0].AsInt64(), 0);  // Pre-writer value reconstructed.
  // Once released, the whole chain is reclaimable.
  store.ReleaseSnapshot(snapshot);
  EXPECT_GE(store.Gc(), 1u);
  EXPECT_EQ(store.entry_count(), 0u);
}

// Writers preserve a == b transactionally; snapshot readers must never
// observe a half-applied pair, no matter how the threads interleave.
TEST_F(CcBackendTest, MvccSnapshotReadersSeeConsistentPairs) {
  constexpr int kWriters = 2;
  constexpr int kWritesPerThread = 40;
  constexpr int kReaders = 2;
  constexpr int kReadsPerThread = 60;
  std::atomic<int> committed{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      runtime::ThreadExecutionEnv env(/*time_scale=*/0);
      for (int i = 0; i < kWritesPerThread; ++i) {
        ExecResult result = Run(
            ExecMode::kMultiVersion, env, /*read_only=*/false,
            [&](TxnContext& c) -> Status {
              ACCDB_ASSIGN_OR_RETURN(int64_t a,
                                     c.ReadVariable(*counter_a_, true));
              ACCDB_ASSIGN_OR_RETURN(int64_t b,
                                     c.ReadVariable(*counter_b_, true));
              EXPECT_EQ(a, b);  // X locks held: the pair is stable.
              ACCDB_RETURN_IF_ERROR(c.WriteVariable(*counter_a_, a + 1));
              return c.WriteVariable(*counter_b_, b + 1);
            });
        if (result.status.ok()) committed.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      runtime::ThreadExecutionEnv env(/*time_scale=*/0);
      for (int i = 0; i < kReadsPerThread; ++i) {
        ExecResult result =
            Run(ExecMode::kMultiVersion, env, /*read_only=*/true,
                [&](TxnContext& c) -> Status {
                  ACCDB_ASSIGN_OR_RETURN(int64_t a,
                                         c.ReadVariable(*counter_a_));
                  ACCDB_ASSIGN_OR_RETURN(int64_t b,
                                         c.ReadVariable(*counter_b_));
                  if (a != b) torn_reads.fetch_add(1);
                  return Status::Ok();
                });
        EXPECT_TRUE(result.status.ok());  // Snapshot readers never abort.
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(committed.load(), kWriters * kWritesPerThread);
  EXPECT_EQ(ReadCounter(counter_a_), committed.load());
  EXPECT_EQ(ReadCounter(counter_b_), committed.load());
  EXPECT_EQ(engine_->version_store().active_snapshots(), 0u);
  engine_->version_store().Gc();
  EXPECT_EQ(engine_->version_store().entry_count(), 0u);
}

}  // namespace
}  // namespace accdb::acc
