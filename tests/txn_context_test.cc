// TxnContext data-access paths: locking discipline per statement, the
// lookup-lock-verify retry, scans, variables, undo integration, and the
// step-retry machinery.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

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

  // Runs `body` as a single ACC step and returns its status.
  Status RunBody(const std::function<Status(TxnContext&)>& body) {
    FunctionProgram prog("test", [&](TxnContext& ctx) {
      return ctx.RunStep(step_, {}, AssertionInstance{}, body);
    });
    return engine_->Execute(prog, env_, ExecMode::kAccDecomposed).status;
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
    EXPECT_TRUE(lm.Holds(c.txn_id(), lock::ItemId::Table(rows_->id()),
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
    EXPECT_TRUE(lm.Holds(c.txn_id(), lock::ItemId::Table(rows_->id()),
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
      lm.PartitionIndex(lock::ItemId::Table(table.id())));
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
    EXPECT_TRUE(lm.Holds(c.txn_id(), lock::ItemId::Table(rows_->id()),
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

}  // namespace
}  // namespace accdb::acc
