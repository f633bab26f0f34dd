// TxnContext data-access paths: locking discipline per statement, the
// lookup-lock-verify retry, scans, variables, undo integration, and the
// step-retry machinery.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "acc/catalog.h"
#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/function_program.h"
#include "acc/interference.h"
#include "acc/sim_env.h"
#include "acc/txn_context.h"
#include "lock/conflict.h"
#include "sim/simulation.h"
#include "storage/database.h"

namespace accdb::acc {
namespace {

using storage::ColumnType;
using storage::Key;
using storage::Row;
using storage::Schema;
using storage::Value;

class TxnContextTest : public ::testing::Test {
 public:
  TxnContextTest() : resolver_(&table_) {
    Schema schema;
    schema.columns = {{"id", ColumnType::kInt64},
                      {"group_id", ColumnType::kInt64},
                      {"value", ColumnType::kInt64}};
    schema.key_columns = {0};
    rows_ = db_.CreateTable("rows", schema);
    by_group_ = rows_->AddIndex("by_group", {1});
    for (int64_t i = 1; i <= 10; ++i) {
      EXPECT_TRUE(rows_->Insert({Value(i), Value(i % 3), Value(i * 100)}).ok());
    }
    step_ = catalog_.RegisterStepType("step");
    EngineConfig config;
    config.charge_acc_overheads = false;
    engine_ = std::make_unique<Engine>(&db_, &resolver_, config);
  }

  // Runs `body` as a single step (an ACC step by default) and returns its
  // status.
  Status RunBody(const std::function<Status(TxnContext&)>& body,
                 ExecMode mode = ExecMode::kAccDecomposed) {
    FunctionProgram prog("test", [&](TxnContext& ctx) {
      return ctx.RunStep(step_, {}, AssertionInstance{}, body);
    });
    return engine_->Execute(prog, env_, mode).status;
  }

  storage::Database db_;
  storage::Table* rows_;
  storage::IndexId by_group_;
  acc::Catalog catalog_;
  InterferenceTable table_;
  AccConflictResolver resolver_;
  std::unique_ptr<Engine> engine_;
  ImmediateEnv env_;
  lock::ActorId step_;
};

TEST_F(TxnContextTest, ReadByKeyTakesSharedLocks) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_ASSIGN_OR_RETURN(Row row, c.ReadByKey(*rows_, Key(int64_t{3})));
    EXPECT_EQ(row[2].AsInt64(), 300);
    lock::LockManager& lm = engine_->lock_manager();
    EXPECT_TRUE(lm.Holds(c.txn_id(), lock::ItemId::Table(rows_->id(), 0),
                         lock::LockMode::kIS));
    EXPECT_TRUE(lm.Holds(c.txn_id(),
                         lock::ItemId::Row(rows_->id(),
                                           *rows_->LookupPk(Key(int64_t{3}))),
                         lock::LockMode::kS));
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(TxnContextTest, ForUpdateTakesExclusiveLocks) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_RETURN_IF_ERROR(
        c.ReadByKey(*rows_, Key(int64_t{3}), /*for_update=*/true).status());
    lock::LockManager& lm = engine_->lock_manager();
    EXPECT_TRUE(lm.Holds(c.txn_id(), lock::ItemId::Table(rows_->id(), 0),
                         lock::LockMode::kIX));
    EXPECT_TRUE(lm.Holds(c.txn_id(),
                         lock::ItemId::Row(rows_->id(),
                                           *rows_->LookupPk(Key(int64_t{3}))),
                         lock::LockMode::kX));
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(TxnContextTest, ReadMissingKeyIsNotFound) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    Result<Row> row = c.ReadByKey(*rows_, Key(int64_t{999}));
    EXPECT_EQ(row.status().code(), StatusCode::kNotFound);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
}

TEST_F(TxnContextTest, ScanIndexPrefixReturnsMatchingRows) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_ASSIGN_OR_RETURN(auto group1,
                           c.ScanIndexPrefix(*rows_, by_group_,
                                             Key(int64_t{1})));
    EXPECT_EQ(group1.size(), 4u);  // Rows 1, 4, 7, 10.
    for (const auto& [id, row] : group1) {
      EXPECT_EQ(row[1].AsInt64(), 1);
    }
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
}

TEST_F(TxnContextTest, MinPkPrefixFindsSmallest) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_ASSIGN_OR_RETURN(auto min_row, c.MinPkPrefix(*rows_, {}));
    EXPECT_TRUE(min_row.has_value());
    if (min_row.has_value()) {
      EXPECT_EQ(min_row->second[0].AsInt64(), 1);
    }
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
}

TEST_F(TxnContextTest, InsertUpdateDeleteRoundTrip) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_ASSIGN_OR_RETURN(
        storage::RowId id,
        c.Insert(*rows_, {Value(int64_t{42}), Value(int64_t{0}),
                          Value(int64_t{1})}));
    ACCDB_RETURN_IF_ERROR(c.Update(*rows_, id, {{2, Value(int64_t{2})}}));
    ACCDB_ASSIGN_OR_RETURN(Row row, c.ReadById(*rows_, id));
    EXPECT_EQ(row[2].AsInt64(), 2);
    ACCDB_RETURN_IF_ERROR(c.Delete(*rows_, id));
    EXPECT_EQ(c.ReadById(*rows_, id).status().code(), StatusCode::kNotFound);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_FALSE(rows_->LookupPk(Key(int64_t{42})).has_value());
}

TEST_F(TxnContextTest, DuplicateInsertRejected) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    Result<storage::RowId> dup = c.Insert(
        *rows_, {Value(int64_t{3}), Value(int64_t{0}), Value(int64_t{0})});
    EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
}

TEST_F(TxnContextTest, VoluntaryAbortUndoesStepPhysically) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_RETURN_IF_ERROR(
        c.Update(*rows_, *rows_->LookupPk(Key(int64_t{5})),
                 {{2, Value(int64_t{-1})}}));
    ACCDB_RETURN_IF_ERROR(
        c.Delete(*rows_, *rows_->LookupPk(Key(int64_t{6}))));
    return Status::Aborted("changed my mind");
  });
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  // Both mutations physically undone.
  EXPECT_EQ((*rows_->Get(*rows_->LookupPk(Key(int64_t{5}))))[2].AsInt64(),
            500);
  EXPECT_TRUE(rows_->LookupPk(Key(int64_t{6})).has_value());
}

// Runs `writer` as one step that first X-locks row 3 (so the reader's
// lookup still finds it and the reader blocks on the row lock), computes
// while the reader waits, then does `then` to the row under its id. The
// reader starts mid-wait and reads key 3, reporting the value and the
// RowId ReadByKey bound. Returns the writer's and the reader's results.
struct RebindRun {
  ExecResult writer, reader;
  storage::RowId old_id = storage::kInvalidRowId;
  storage::RowId bound_id = storage::kInvalidRowId;
  int64_t seen = -1;
};

RebindRun RunReaderAgainstWriter(
    Engine& engine, storage::Table& rows, lock::ActorId step,
    const std::function<Status(TxnContext&, storage::RowId)>& then) {
  sim::Simulation sim;
  SimExecutionEnv env1(sim, nullptr), env2(sim, nullptr);
  RebindRun run;
  run.old_id = *rows.LookupPk(Key(int64_t{3}));
  FunctionProgram writer("writer", [&](TxnContext& ctx) {
    return ctx.RunStep(step, {}, AssertionInstance{},
                       [&](TxnContext& c) -> Status {
                         ACCDB_RETURN_IF_ERROR(
                             c.ReadById(rows, run.old_id, true).status());
                         c.Compute(0.1);  // The reader waits here.
                         return then(c, run.old_id);
                       });
  });
  FunctionProgram reader("reader", [&](TxnContext& ctx) {
    return ctx.RunStep(step, {}, AssertionInstance{},
                       [&](TxnContext& c) -> Status {
                         ACCDB_ASSIGN_OR_RETURN(
                             Row row,
                             c.ReadByKey(rows, Key(int64_t{3}),
                                         /*for_update=*/false, &run.bound_id));
                         run.seen = row[2].AsInt64();
                         return Status::Ok();
                       });
  });
  sim.Spawn("writer", [&] {
    run.writer = engine.Execute(writer, env1, ExecMode::kAccDecomposed);
  });
  sim.Spawn("reader", [&] {
    sim.Delay(0.05);
    run.reader = engine.Execute(reader, env2, ExecMode::kAccDecomposed);
  });
  sim.Run();
  return run;
}

TEST_F(TxnContextTest, ReadByKeyRetriesWhenRowReplacedDuringWait) {
  // The writer deletes row 3 and re-inserts its key under a new RowId while
  // the reader waits for the row lock: the dead id fails the liveness
  // re-check, and the reader rebinds to the new row and its new id.
  storage::RowId new_id = storage::kInvalidRowId;
  RebindRun run = RunReaderAgainstWriter(
      *engine_, *rows_, step_,
      [&](TxnContext& c, storage::RowId old_id) -> Status {
        ACCDB_RETURN_IF_ERROR(c.Delete(*rows_, old_id));
        ACCDB_ASSIGN_OR_RETURN(
            new_id, c.Insert(*rows_, {Value(int64_t{3}), Value(int64_t{0}),
                                      Value(int64_t{999})}));
        return Status::Ok();
      });
  ASSERT_TRUE(run.writer.status.ok());
  ASSERT_TRUE(run.reader.status.ok());
  EXPECT_EQ(run.seen, 999);  // The re-inserted row, not a stale read.
  EXPECT_NE(new_id, run.old_id);
  EXPECT_EQ(run.bound_id, new_id);
}

TEST_F(TxnContextTest, ReadByKeyAcceptsRowRestoredUnderItsOwnId) {
  // The writer deletes row 3 and aborts while the reader waits: the step
  // rollback restores the row through InsertWithId under its original id,
  // which still binds key 3, so the reader accepts that id.
  RebindRun run = RunReaderAgainstWriter(
      *engine_, *rows_, step_,
      [&](TxnContext& c, storage::RowId old_id) -> Status {
        ACCDB_RETURN_IF_ERROR(c.Delete(*rows_, old_id));
        return Status::Aborted("roll the delete back");
      });
  EXPECT_EQ(run.writer.status.code(), StatusCode::kAborted);
  ASSERT_TRUE(run.reader.status.ok()) << run.reader.status.ToString();
  EXPECT_EQ(run.seen, 300);
  EXPECT_EQ(run.bound_id, run.old_id);
  EXPECT_EQ(rows_->LookupPk(Key(int64_t{3})), run.old_id);
}

TEST_F(TxnContextTest, StepRetryAfterDeadlockSucceeds) {
  // Two single-step transactions locking two rows in opposite orders: one
  // loses the deadlock, its step retries and completes.
  sim::Simulation sim;
  SimExecutionEnv env1(sim, nullptr), env2(sim, nullptr);
  auto cross = [&](int64_t first, int64_t second) {
    return std::make_unique<FunctionProgram>(
        "cross", [=, this](TxnContext& ctx) {
          return ctx.RunStep(
              step_, {}, AssertionInstance{},
              [=, this](TxnContext& c) -> Status {
                ACCDB_RETURN_IF_ERROR(
                    c.ReadByKey(*rows_, Key(first), true).status());
                c.Compute(0.05);
                return c.ReadByKey(*rows_, Key(second), true).status();
              });
        });
  };
  auto p1 = cross(1, 2);
  auto p2 = cross(2, 1);
  ExecResult r1, r2;
  sim.Spawn("p1", [&] {
    r1 = engine_->Execute(*p1, env1, ExecMode::kAccDecomposed);
  });
  sim.Spawn("p2", [&] {
    sim.Delay(0.01);
    r2 = engine_->Execute(*p2, env2, ExecMode::kAccDecomposed);
  });
  sim.Run();
  EXPECT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r1.step_deadlock_retries + r2.step_deadlock_retries, 1);
}

TEST_F(TxnContextTest, ExhaustedStepRetryIsNotCountedAsRetry) {
  // With step_retry_limit = 0 the losing step escalates immediately: the
  // deadlock must surface as exactly one transaction restart and ZERO step
  // retries. (A victim used to be double-counted as both a step retry and
  // the escalation that follows.)
  EngineConfig config;
  config.charge_acc_overheads = false;
  config.step_retry_limit = 0;
  Engine engine(&db_, &resolver_, config);
  sim::Simulation sim;
  SimExecutionEnv env1(sim, nullptr), env2(sim, nullptr);
  auto cross = [&](int64_t first, int64_t second) {
    return std::make_unique<FunctionProgram>(
        "cross", [=, this](TxnContext& ctx) {
          return ctx.RunStep(
              step_, {}, AssertionInstance{},
              [=, this](TxnContext& c) -> Status {
                ACCDB_RETURN_IF_ERROR(
                    c.ReadByKey(*rows_, Key(first), true).status());
                c.Compute(0.05);
                return c.ReadByKey(*rows_, Key(second), true).status();
              });
        });
  };
  auto p1 = cross(1, 2);
  auto p2 = cross(2, 1);
  ExecResult r1, r2;
  sim.Spawn("p1",
            [&] { r1 = engine.Execute(*p1, env1, ExecMode::kAccDecomposed); });
  sim.Spawn("p2", [&] {
    sim.Delay(0.01);
    r2 = engine.Execute(*p2, env2, ExecMode::kAccDecomposed);
  });
  sim.Run();
  EXPECT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_TRUE(r2.status.ok()) << r2.status.ToString();
  EXPECT_EQ(r1.step_deadlock_retries + r2.step_deadlock_retries, 0);
  EXPECT_EQ(r1.txn_restarts + r2.txn_restarts, 1);
}

// --- Covered table-intent re-requests ---
//
// A table-item request that a mode the transaction holds covers is answered
// by TxnContext itself: counted as one request and one immediate grant (in
// the transaction's directory-stripe shard), without visiting the table's
// partition. Anything that is not covered must still reach the partition.

// Counters of the partition that owns `rows_`'s table item.
lock::LockManager::Stats TablePartitionStats(Engine& engine,
                                             const storage::Table& table) {
  const lock::LockManager& lm = engine.lock_manager();
  return lm.PartitionStatsForTest(
      lm.PartitionIndex(lock::ItemId::Table(table.id(), 0)));
}

// Takes the table intent (IX when `for_update`, else IS) and no row lock:
// the key prefix matches no row.
Status TouchTable(TxnContext& c, const storage::Table& table,
                  bool for_update) {
  return c.ScanPkPrefix(table, Key(int64_t{999}), for_update).status();
}

TEST_F(TxnContextTest, CoveredTableIntentSkipsThePartition) {
  lock::LockManager& lm = engine_->lock_manager();
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_RETURN_IF_ERROR(TouchTable(c, *rows_, /*for_update=*/true));
    for (bool for_update : {true, false}) {  // IX again, then IS under IX.
      const lock::LockManager::Stats before = lm.StatsSnapshot();
      const lock::LockManager::Stats part_before =
          TablePartitionStats(*engine_, *rows_);
      ACCDB_RETURN_IF_ERROR(TouchTable(c, *rows_, for_update));
      const lock::LockManager::Stats after = lm.StatsSnapshot();
      const lock::LockManager::Stats part_after =
          TablePartitionStats(*engine_, *rows_);
      EXPECT_EQ(after.requests, before.requests + 1);
      EXPECT_EQ(after.immediate_grants, before.immediate_grants + 1);
      EXPECT_EQ(part_after.requests, part_before.requests);
      EXPECT_EQ(part_after.immediate_grants, part_before.immediate_grants);
      EXPECT_EQ(part_after.upgrades, part_before.upgrades);
    }
    EXPECT_TRUE(lm.Holds(c.txn_id(), lock::ItemId::Table(rows_->id(), 0),
                         lock::LockMode::kIX));
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(TxnContextTest, TableIntentUpgradeReachesThePartition) {
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_RETURN_IF_ERROR(TouchTable(c, *rows_, /*for_update=*/false));
    const lock::LockManager::Stats before =
        TablePartitionStats(*engine_, *rows_);
    ACCDB_RETURN_IF_ERROR(TouchTable(c, *rows_, /*for_update=*/true));
    const lock::LockManager::Stats after =
        TablePartitionStats(*engine_, *rows_);
    EXPECT_EQ(after.requests, before.requests + 1);
    EXPECT_EQ(after.upgrades, before.upgrades + 1);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(TxnContextTest, FirstTableRequestAfterStepEndReachesThePartition) {
  int reached = 0;
  auto touch_and_count = [&](TxnContext& c) -> Status {
    const uint64_t before = TablePartitionStats(*engine_, *rows_).requests;
    ACCDB_RETURN_IF_ERROR(TouchTable(c, *rows_, /*for_update=*/true));
    reached += TablePartitionStats(*engine_, *rows_).requests - before;
    return Status::Ok();
  };
  FunctionProgram prog("two_steps", [&](TxnContext& ctx) -> Status {
    ACCDB_RETURN_IF_ERROR(
        ctx.RunStep(step_, {}, AssertionInstance{}, touch_and_count));
    return ctx.RunStep(step_, {}, AssertionInstance{}, touch_and_count);
  });
  ExecResult result = engine_->Execute(prog, env_, ExecMode::kAccDecomposed);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.steps_completed, 2);
  EXPECT_EQ(reached, 2);  // The step end released the IX; step 2 re-takes it.
}

TEST_F(TxnContextTest, FirstTableRequestAfterRollbackReachesThePartition) {
  uint64_t compensation_reached = 0;
  FunctionProgram prog("abort_second", [&](TxnContext& ctx) -> Status {
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        step_, {}, AssertionInstance{}, [&](TxnContext& c) {
          return TouchTable(c, *rows_, /*for_update=*/true);
        }));
    return ctx.RunStep(step_, {}, AssertionInstance{}, [&](TxnContext& c) {
      ACCDB_RETURN_IF_ERROR(TouchTable(c, *rows_, /*for_update=*/true));
      return Status::Aborted("voluntary");  // Rolls the step back.
    });
  });
  prog.set_compensation(step_, [&](TxnContext& c, int) -> Status {
    const uint64_t before = TablePartitionStats(*engine_, *rows_).requests;
    ACCDB_RETURN_IF_ERROR(TouchTable(c, *rows_, /*for_update=*/true));
    compensation_reached =
        TablePartitionStats(*engine_, *rows_).requests - before;
    return Status::Ok();
  });
  ExecResult result = engine_->Execute(prog, env_, ExecMode::kAccDecomposed);
  EXPECT_TRUE(result.compensated);
  EXPECT_EQ(compensation_reached, 1u);
}

TEST_F(TxnContextTest, ComputeUsesClientTimeNotServer) {
  ImmediateEnv env;
  FunctionProgram prog("compute", [&](TxnContext& ctx) {
    return ctx.RunStep(step_, {}, AssertionInstance{},
                       [](TxnContext& c) -> Status {
                         c.Compute(1.5);
                         return Status::Ok();
                       });
  });
  ASSERT_TRUE(
      engine_->Execute(prog, env, ExecMode::kAccDecomposed).status.ok());
  EXPECT_DOUBLE_EQ(env.client_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(env.server_seconds(), 0.0);
}

TEST_F(TxnContextTest, StatementsChargeServerTime) {
  EngineConfig config;  // Default costs.
  Engine engine(&db_, &resolver_, config);
  ImmediateEnv env;
  FunctionProgram prog("charged", [&](TxnContext& ctx) {
    return ctx.RunStep(step_, {}, AssertionInstance{},
                       [&](TxnContext& c) -> Status {
                         return c.ReadByKey(*rows_, Key(int64_t{1})).status();
                       });
  });
  ASSERT_TRUE(
      engine.Execute(prog, env, ExecMode::kAccDecomposed).status.ok());
  // One read statement + ACC overheads (lock ops + step end).
  EXPECT_GT(env.server_seconds(), config.costs.read_statement);
}

// --- Frozen tables ---
//
// A frozen table has no writer, so its IS/S requests are answered without
// the lock manager and counted like the immediate grants they would have
// been; its writes and for_update reads fail before any lock.

class FrozenTableTest : public TxnContextTest,
                        public ::testing::WithParamInterface<ExecMode> {};

TEST_P(FrozenTableTest, ReadTakesNoLockAndCountsItsGrants) {
  rows_->Freeze();
  lock::LockManager& lm = engine_->lock_manager();
  const storage::RowId id = *rows_->LookupPk(Key(int64_t{3}));
  Status status = RunBody(
      [&](TxnContext& c) -> Status {
        const lock::LockManager::Stats before = lm.StatsSnapshot();
        ACCDB_ASSIGN_OR_RETURN(Row row, c.ReadByKey(*rows_, Key(int64_t{3})));
        EXPECT_EQ(row[2].AsInt64(), 300);
        const lock::LockManager::Stats after = lm.StatsSnapshot();
        EXPECT_EQ(after.requests, before.requests + 2);  // IS, then S.
        EXPECT_EQ(after.immediate_grants, before.immediate_grants + 2);
        EXPECT_EQ(lm.HolderCount(lock::ItemId::Table(rows_->id(), 0)), 0u);
        EXPECT_EQ(lm.HolderCount(lock::ItemId::Row(rows_->id(), id)), 0u);
        // The other read paths answer from the table the same way.
        ACCDB_ASSIGN_OR_RETURN(Row by_id, c.ReadById(*rows_, id));
        EXPECT_TRUE(by_id == row);
        ACCDB_ASSIGN_OR_RETURN(auto group,
                               c.ScanIndexPrefix(*rows_, by_group_,
                                                 Key(int64_t{0})));
        EXPECT_EQ(group.size(), 3u);  // ids 3, 6, 9.
        ACCDB_ASSIGN_OR_RETURN(auto prefix,
                               c.ScanPkPrefix(*rows_, Key(int64_t{3})));
        EXPECT_EQ(prefix.size(), 1u);
        ACCDB_ASSIGN_OR_RETURN(auto min, c.MinPkPrefix(*rows_, {}));
        EXPECT_TRUE(min.has_value());
        EXPECT_EQ(lm.HeldItemCount(c.txn_id()), 0u);
        return Status::Ok();
      },
      GetParam());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_P(FrozenTableTest, WritesFailBeforeAnyLock) {
  rows_->Freeze();
  lock::LockManager& lm = engine_->lock_manager();
  const storage::RowId id = *rows_->LookupPk(Key(int64_t{3}));
  const Row original = *rows_->Get(id);
  Status status = RunBody(
      [&](TxnContext& c) -> Status {
        const uint64_t requests = lm.StatsSnapshot().requests;
        const std::vector<Status> refused = {
            c.Insert(*rows_, {Value(int64_t{11}), Value(int64_t{2}),
                              Value(int64_t{1100})})
                .status(),
            c.Update(*rows_, id, {{2, Value(int64_t{0})}}),
            c.Delete(*rows_, id),
            c.ReadByKey(*rows_, Key(int64_t{3}), /*for_update=*/true)
                .status(),
            c.ReadById(*rows_, id, /*for_update=*/true).status(),
            c.ScanPkPrefix(*rows_, Key(int64_t{3}), /*for_update=*/true)
                .status(),
            c.MinPkPrefix(*rows_, {}, /*for_update=*/true).status(),
            c.ScanIndexPrefix(*rows_, by_group_, Key(int64_t{0}),
                              /*for_update=*/true)
                .status(),
        };
        for (size_t i = 0; i < refused.size(); ++i) {
          EXPECT_EQ(refused[i].code(), StatusCode::kFailedPrecondition)
              << "statement " << i << ": " << refused[i].ToString();
        }
        EXPECT_EQ(lm.StatsSnapshot().requests, requests);
        EXPECT_EQ(lm.HeldItemCount(c.txn_id()), 0u);
        return Status::Ok();
      },
      GetParam());
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(*rows_->Get(id) == original);
  EXPECT_EQ(rows_->size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    LockingBackends, FrozenTableTest,
    ::testing::Values(ExecMode::kAccDecomposed, ExecMode::kSerializable),
    [](const ::testing::TestParamInfo<ExecMode>& info) {
      return info.param == ExecMode::kAccDecomposed ? "Acc" : "TwoPl";
    });

#ifdef ACCDB_EXPENSIVE_CHECKS
TEST_F(TxnContextTest, FrozenElisionAbortsIfTheItemIsLocked) {
  rows_->Freeze();
  // A lock the transaction layer could never take on a frozen table.
  ASSERT_EQ(engine_->lock_manager().Request(
                /*txn=*/999, lock::ItemId::Table(rows_->id(), 0),
                lock::LockMode::kIX, lock::RequestContext{}),
            lock::Outcome::kGranted);
  EXPECT_DEATH(RunBody([&](TxnContext& c) {
                 return c.ReadByKey(*rows_, Key(int64_t{3})).status();
               }),
               "frozen rows holds 1 lock");
}
#endif

// --- Shard table items ---
//
// A table has one table item per storage shard. A statement's intent lock
// lands on the item of the shard it touches; one that spans every shard
// locks every shard's item, in ascending order.

TEST(ShardItemTest, ShardZeroIsTheUnshardedTableItem) {
  EXPECT_EQ(lock::ItemId::Table(7, 0), (lock::ItemId{7, 0}));
  EXPECT_EQ(lock::ItemId::Table(7, 0).ToString(), "t7");
  EXPECT_EQ(lock::ItemId::Table(7, 2).ToString(), "t7/s2");
  EXPECT_NE(lock::ItemId::Table(7, 1), lock::ItemId::Table(7, 2));
}

TEST(ShardItemTest, IsTableExactlyForShardItems) {
  for (size_t shard : {size_t{0}, size_t{1}, size_t{2}, size_t{65535}}) {
    const lock::ItemId item = lock::ItemId::Table(7, shard);
    EXPECT_TRUE(item.is_table()) << item.ToString();
    EXPECT_EQ(item.shard(), shard);
  }
  for (storage::RowId row : {storage::MakeRowId(0, 1),
                             storage::MakeRowId(2, 1),
                             storage::MakeRowId(65535, 12345)}) {
    EXPECT_FALSE(lock::ItemId::Row(7, row).is_table()) << row;
  }
  for (lock::AssertionId decl : {1u, 42u, 0xFFFFFFFFu}) {
    EXPECT_FALSE(AssertionDeclItem(decl).is_table()) << decl;
  }
}

class ShardedTableTest : public TxnContextTest {
 public:
  static constexpr size_t kShards = 3;

  // sharded(w, id, group_id), keyed (w, id), routed by w % 3: rows with
  // w = 0, 1, 2 live in shards 0, 1, 2.
  ShardedTableTest() {
    Schema schema;
    schema.columns = {{"w", ColumnType::kInt64},
                      {"id", ColumnType::kInt64},
                      {"group_id", ColumnType::kInt64}};
    schema.key_columns = {0, 1};
    sharded_ = db_.CreateTable("sharded", schema, kShards);
    by_group_id_ = sharded_->AddIndex("by_group", {2});
    by_w_group_id_ = sharded_->AddIndex("by_w_group", {0, 2});
    for (int64_t w = 0; w < 3; ++w) {
      for (int64_t id = 1; id <= 2; ++id) {
        EXPECT_TRUE(sharded_->Insert({Value(w), Value(id), Value(id)}).ok());
      }
    }
  }

  lock::ItemId ShardItem(size_t shard) const {
    return lock::ItemId::Table(sharded_->id(), shard);
  }

  // The shards whose table item `txn` holds in `mode` (or a covering mode).
  std::vector<size_t> ShardsHeld(lock::TxnId txn, lock::LockMode mode) {
    std::vector<size_t> out;
    for (size_t s = 0; s < kShards; ++s) {
      if (engine_->lock_manager().Holds(txn, ShardItem(s), mode)) {
        out.push_back(s);
      }
    }
    return out;
  }

  // Counters of the partition that owns shard `shard`'s table item.
  lock::LockManager::Stats ShardPartitionStats(size_t shard) const {
    const lock::LockManager& lm = engine_->lock_manager();
    return lm.PartitionStatsForTest(lm.PartitionIndex(ShardItem(shard)));
  }

  // IX on the table item of shard `w % 3` and no row lock: no row has
  // w >= 3.
  Status TouchShard(TxnContext& c, int64_t w) {
    return c.ScanPkPrefix(*sharded_, Key(w), /*for_update=*/true).status();
  }

  storage::Table* sharded_;
  storage::IndexId by_group_id_;
  storage::IndexId by_w_group_id_;
};

TEST_F(ShardedTableTest, StatementIntentsLandOnTheRowsShardItem) {
  using V = std::vector<size_t>;
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_RETURN_IF_ERROR(c.ReadByKey(*sharded_, Key(1, 1)).status());
    EXPECT_EQ(ShardsHeld(c.txn_id(), lock::LockMode::kIS), V{1});
    EXPECT_EQ(ShardsHeld(c.txn_id(), lock::LockMode::kIX), V{});

    ACCDB_RETURN_IF_ERROR(
        c.Insert(*sharded_, {Value(int64_t{2}), Value(int64_t{9}),
                             Value(int64_t{0})})
            .status());
    EXPECT_EQ(ShardsHeld(c.txn_id(), lock::LockMode::kIX), V{2});

    const storage::RowId shard0_row = *sharded_->LookupPk(Key(0, 1));
    ACCDB_RETURN_IF_ERROR(
        c.Update(*sharded_, shard0_row, {{2, Value(int64_t{5})}}));
    EXPECT_EQ(ShardsHeld(c.txn_id(), lock::LockMode::kIX), (V{0, 2}));

    const storage::RowId shard1_row = *sharded_->LookupPk(Key(1, 2));
    ACCDB_RETURN_IF_ERROR(
        c.ReadById(*sharded_, shard1_row, /*for_update=*/true).status());
    EXPECT_EQ(ShardsHeld(c.txn_id(), lock::LockMode::kIX), (V{0, 1, 2}));
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ShardedTableTest, StepEndMarksTheWrittenRowsShardItem) {
  const storage::RowId row = *sharded_->LookupPk(Key(2, 1));
  std::vector<size_t> marked;
  bool row_marked = false;
  FunctionProgram prog("two_steps", [&](TxnContext& ctx) -> Status {
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        step_, {}, AssertionInstance{}, [&](TxnContext& c) {
          return c.Update(*sharded_, row, {{2, Value(int64_t{7})}});
        }));
    return ctx.RunStep(step_, {}, AssertionInstance{}, [&](TxnContext& c) {
      marked = ShardsHeld(c.txn_id(), lock::LockMode::kComp);
      row_marked = engine_->lock_manager().Holds(
          c.txn_id(), lock::ItemId::Row(sharded_->id(), row),
          lock::LockMode::kComp);
      return Status::Ok();
    });
  });
  ExecResult result = engine_->Execute(prog, env_, ExecMode::kAccDecomposed);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(marked, std::vector<size_t>{2});
  EXPECT_TRUE(row_marked);
}

TEST_F(ShardedTableTest, CoveredMemoAnswersPerShardItem) {
  lock::LockManager& lm = engine_->lock_manager();
  Status status = RunBody([&](TxnContext& c) -> Status {
    ACCDB_RETURN_IF_ERROR(TouchShard(c, 4));  // IX on shard 1.

    // IX on shard 1 does not cover IX on shard 2: the request reaches
    // shard 2's partition.
    const uint64_t shard2_before = ShardPartitionStats(2).requests;
    ACCDB_RETURN_IF_ERROR(TouchShard(c, 5));
    EXPECT_EQ(ShardPartitionStats(2).requests, shard2_before + 1);
    EXPECT_TRUE(lm.Holds(c.txn_id(), ShardItem(2), lock::LockMode::kIX));

    // A second IX on shard 1 is covered: counted, but no partition visit.
    const lock::LockManager::Stats before = lm.StatsSnapshot();
    const uint64_t shard1_before = ShardPartitionStats(1).requests;
    ACCDB_RETURN_IF_ERROR(TouchShard(c, 1 + 3 * 5));
    EXPECT_EQ(lm.StatsSnapshot().requests, before.requests + 1);
    EXPECT_EQ(ShardPartitionStats(1).requests, shard1_before);
    EXPECT_FALSE(lm.Holds(c.txn_id(), ShardItem(0), lock::LockMode::kIS));
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_F(ShardedTableTest, UnprefixedScansTakeIntentOnEveryShard) {
  using V = std::vector<size_t>;
  auto scan_holds = [&](const std::function<Status(TxnContext&)>& scan) {
    V held;
    Status status = RunBody([&](TxnContext& c) -> Status {
      ACCDB_RETURN_IF_ERROR(scan(c));
      held = ShardsHeld(c.txn_id(), lock::LockMode::kIS);
      return Status::Ok();
    });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return held;
  };
  EXPECT_EQ(scan_holds([&](TxnContext& c) -> Status {
              ACCDB_ASSIGN_OR_RETURN(auto rows, c.ScanPkPrefix(*sharded_, {}));
              EXPECT_EQ(rows.size(), 6u);
              return Status::Ok();
            }),
            (V{0, 1, 2}));
  EXPECT_EQ(scan_holds([&](TxnContext& c) {
              return c.MinPkPrefix(*sharded_, {}).status();
            }),
            (V{0, 1, 2}));
  // An index not led by the routing column spans every shard, whatever
  // the prefix; one led by it resolves a non-empty prefix to one shard.
  EXPECT_EQ(scan_holds([&](TxnContext& c) {
              return c.ScanIndexPrefix(*sharded_, by_group_id_,
                                       Key(int64_t{1}))
                  .status();
            }),
            (V{0, 1, 2}));
  EXPECT_EQ(scan_holds([&](TxnContext& c) {
              return c.ScanIndexPrefix(*sharded_, by_w_group_id_, Key(1, 1))
                  .status();
            }),
            V{1});
  EXPECT_EQ(scan_holds([&](TxnContext& c) {
              return c.ScanPkPrefix(*sharded_, Key(int64_t{2})).status();
            }),
            V{2});
}

TEST_F(ShardedTableTest, FrozenUnprefixedScanCountsEveryShardAndLocksNone) {
  sharded_->Freeze();
  lock::LockManager& lm = engine_->lock_manager();
  Status status = RunBody([&](TxnContext& c) -> Status {
    const lock::LockManager::Stats before = lm.StatsSnapshot();
    ACCDB_ASSIGN_OR_RETURN(auto rows, c.ScanPkPrefix(*sharded_, {}));
    EXPECT_EQ(rows.size(), 6u);
    const lock::LockManager::Stats after = lm.StatsSnapshot();
    // IS on each of the three shard items, then S on each row.
    EXPECT_EQ(after.requests, before.requests + kShards + rows.size());
    EXPECT_EQ(after.immediate_grants,
              before.immediate_grants + kShards + rows.size());
    for (size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(lm.HolderCount(ShardItem(s)), 0u) << s;
    }
    EXPECT_EQ(lm.HeldItemCount(c.txn_id()), 0u);
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace accdb::acc
