#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "acc/catalog.h"
#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/function_program.h"
#include "acc/interference.h"
#include "acc/recovery.h"
#include "acc/sim_env.h"
#include "acc/txn_context.h"
#include "lock/conflict.h"
#include "sim/simulation.h"
#include "storage/database.h"
#include "test_files.h"

namespace accdb::acc {
namespace {

using storage::Key;
using storage::Value;

// Fixture with a two-counter database, a registered step type and a
// one-key assertion over counter A. Members are public so helper program
// classes in this file can reach them.
class EngineTest : public ::testing::Test {
 public:
  EngineTest() : resolver_(&table_) {
    counter_a_ = db_.CreateVariable("a", 0);
    counter_b_ = db_.CreateVariable("b", 0);
    step_inc_ = catalog_.RegisterStepType("inc");
    step_comp_ = catalog_.RegisterStepType("inc.comp");
    prefix_partial_ = catalog_.RegisterPrefix("inc.partial");
    assert_between_ = catalog_.RegisterAssertion("between", 1);
    // inc steps of different keys do not interfere.
    table_.Set(step_inc_, assert_between_, Interference::kIfSameKey);
    table_.Set(step_comp_, assert_between_, Interference::kIfSameKey);
    table_.Set(prefix_partial_, assert_between_, Interference::kIfSameKey);
    config_.charge_acc_overheads = false;
    engine_ = std::make_unique<Engine>(&db_, &resolver_, config_);
  }
  ~EngineTest() override { ::unlink(config_.wal.path.c_str()); }

  // Recreates the engine over a fresh temp-file WAL named `name`.
  void AttachWal(const std::string& name) {
    config_.wal.path = TempPath(name);
    ::unlink(config_.wal.path.c_str());
    engine_ = std::make_unique<Engine>(&db_, &resolver_, config_);
  }

  // Closes the engine and returns the records its WAL file holds.
  std::vector<WalRecord> CloseAndScanWal() {
    engine_.reset();
    Status status;
    std::unique_ptr<Wal> wal = Wal::Open({config_.wal.path, 0}, &status);
    EXPECT_NE(wal, nullptr) << status.ToString();
    return wal != nullptr ? wal->recovered() : std::vector<WalRecord>{};
  }

  int64_t ReadCounter(storage::Table* t) { return db_.ReadVariable(*t); }

  storage::Database db_;
  storage::Table* counter_a_;
  storage::Table* counter_b_;
  Catalog catalog_;
  InterferenceTable table_;
  AccConflictResolver resolver_;
  EngineConfig config_;
  std::unique_ptr<Engine> engine_;
  ImmediateEnv env_;
  lock::ActorId step_inc_, step_comp_, prefix_partial_;
  lock::AssertionId assert_between_;
};

std::vector<LogRecordType> Types(const std::vector<WalRecord>& records) {
  std::vector<LogRecordType> types;
  for (const WalRecord& rec : records) types.push_back(rec.type);
  return types;
}

// A two-step program: step 1 increments counter a, step 2 increments
// counter b; compensation decrements a.
class TwoStepInc {
 public:
  explicit TwoStepInc(EngineTest* t)
      : program_("two_step", [this](TxnContext& ctx) { return Run(ctx); }) {
    program_.set_compensation(
        t->step_comp_,
        [this](TxnContext& ctx, int steps) { return Compensate(ctx, steps); });
    test_ = t;
  }

  Status Run(TxnContext& ctx) {
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        test_->step_inc_, {1},
        AssertionInstance{test_->assert_between_, {1}, {}},
        [this](TxnContext& c) -> Status {
          ACCDB_ASSIGN_OR_RETURN(int64_t v,
                                 c.ReadVariable(*test_->counter_a_, true));
          return c.WriteVariable(*test_->counter_a_, v + 1);
        }));
    if (abort_between_steps) return Status::Aborted("requested");
    return ctx.RunStep(
        test_->step_inc_, {2}, AssertionInstance{},
        [this](TxnContext& c) -> Status {
          ACCDB_ASSIGN_OR_RETURN(int64_t v,
                                 c.ReadVariable(*test_->counter_b_, true));
          return c.WriteVariable(*test_->counter_b_, v + 1);
        });
  }

  Status Compensate(TxnContext& ctx, int completed_steps) {
    (void)completed_steps;
    ACCDB_ASSIGN_OR_RETURN(int64_t v,
                           ctx.ReadVariable(*test_->counter_a_, true));
    return ctx.WriteVariable(*test_->counter_a_, v - 1);
  }

  FunctionProgram program_;
  EngineTest* test_;
  bool abort_between_steps = false;
};

TEST_F(EngineTest, SerializableCommit) {
  FunctionProgram prog("inc_a", [&](TxnContext& ctx) {
    return ctx.RunStep(step_inc_, {1}, AssertionInstance{},
                       [&](TxnContext& c) -> Status {
                         ACCDB_ASSIGN_OR_RETURN(
                             int64_t v, c.ReadVariable(*counter_a_, true));
                         return c.WriteVariable(*counter_a_, v + 1);
                       });
  });
  ExecResult result = engine_->Execute(prog, env_, ExecMode::kSerializable);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(ReadCounter(counter_a_), 1);
  // All locks released after commit.
  EXPECT_EQ(engine_->lock_manager().HeldItemCount(1), 0u);
}

TEST_F(EngineTest, SerializableVoluntaryAbortRollsBackPhysically) {
  FunctionProgram prog("abort_mid", [&](TxnContext& ctx) {
    return ctx.RunStep(step_inc_, {1}, AssertionInstance{},
                       [&](TxnContext& c) -> Status {
                         ACCDB_ASSIGN_OR_RETURN(
                             int64_t v, c.ReadVariable(*counter_a_, true));
                         ACCDB_RETURN_IF_ERROR(
                             c.WriteVariable(*counter_a_, v + 100));
                         return Status::Aborted("no thanks");
                       });
  });
  ExecResult result = engine_->Execute(prog, env_, ExecMode::kSerializable);
  EXPECT_EQ(result.status.code(), StatusCode::kAborted);
  EXPECT_EQ(ReadCounter(counter_a_), 0);  // Physically undone.
}

TEST_F(EngineTest, AccCommitTwoSteps) {
  AttachWal("engine_commit_two_steps.wal");
  TwoStepInc txn(this);
  ExecResult result =
      engine_->Execute(txn.program_, env_, ExecMode::kAccDecomposed);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.steps_completed, 2);
  EXPECT_EQ(ReadCounter(counter_a_), 1);
  EXPECT_EQ(ReadCounter(counter_b_), 1);
  // The log: begin, two end-of-step records, commit.
  const std::vector<WalRecord> records = CloseAndScanWal();
  EXPECT_EQ(Types(records),
            (std::vector<LogRecordType>{
                LogRecordType::kBegin, LogRecordType::kEndOfStep,
                LogRecordType::kEndOfStep, LogRecordType::kCommit}));
  EXPECT_TRUE(FindInFlight(records).empty());
}

TEST_F(EngineTest, AccAbortBetweenStepsRunsCompensation) {
  AttachWal("engine_abort_between_steps.wal");
  TwoStepInc txn(this);
  txn.abort_between_steps = true;
  ExecResult result =
      engine_->Execute(txn.program_, env_, ExecMode::kAccDecomposed);
  EXPECT_EQ(result.status.code(), StatusCode::kAborted);
  EXPECT_TRUE(result.compensated);
  // Step 1 committed then was compensated: counter back to 0.
  EXPECT_EQ(ReadCounter(counter_a_), 0);
  EXPECT_EQ(ReadCounter(counter_b_), 0);
  const std::vector<WalRecord> records = CloseAndScanWal();
  EXPECT_EQ(Types(records),
            (std::vector<LogRecordType>{LogRecordType::kBegin,
                                        LogRecordType::kEndOfStep,
                                        LogRecordType::kCompensated}));
  EXPECT_TRUE(FindInFlight(records).empty());
}

TEST_F(EngineTest, AccVoluntaryAbortInFirstStepEvaporates) {
  FunctionProgram prog("abort_step1", [&](TxnContext& ctx) {
    return ctx.RunStep(step_inc_, {1}, AssertionInstance{},
                       [&](TxnContext& c) -> Status {
                         ACCDB_ASSIGN_OR_RETURN(
                             int64_t v, c.ReadVariable(*counter_a_, true));
                         ACCDB_RETURN_IF_ERROR(
                             c.WriteVariable(*counter_a_, v + 7));
                         return Status::Aborted("change of heart");
                       });
  });
  ExecResult result =
      engine_->Execute(prog, env_, ExecMode::kAccDecomposed);
  EXPECT_EQ(result.status.code(), StatusCode::kAborted);
  EXPECT_FALSE(result.compensated);
  EXPECT_EQ(ReadCounter(counter_a_), 0);
}

TEST_F(EngineTest, StepLocksReleasedBetweenSteps) {
  // Verify inside the program that after step 1 completes, the conventional
  // lock on counter a is gone but a kComp marker remains.
  lock::ItemId item =
      lock::ItemId::Row(counter_a_->id(), storage::kVariableRowId);
  lock::TxnId observed_txn = 0;
  FunctionProgram prog("check_locks", [&](TxnContext& ctx) {
    observed_txn = ctx.txn_id();
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        step_inc_, {1}, AssertionInstance{assert_between_, {1}, {}},
        [&](TxnContext& c) -> Status {
          ACCDB_ASSIGN_OR_RETURN(int64_t v,
                                 c.ReadVariable(*counter_a_, true));
          ACCDB_RETURN_IF_ERROR(c.WriteVariable(*counter_a_, v + 1));
          EXPECT_TRUE(
              engine_->lock_manager().Holds(c.txn_id(), item, lock::LockMode::kX));
          return Status::Ok();
        }));
    // Between steps: X released, kComp held, next assertion protects the
    // written item (auto_protect_writes).
    EXPECT_FALSE(
        engine_->lock_manager().Holds(observed_txn, item, lock::LockMode::kX));
    EXPECT_TRUE(engine_->lock_manager().Holds(observed_txn, item,
                                              lock::LockMode::kComp));
    EXPECT_TRUE(engine_->lock_manager().HoldsAssertion(observed_txn, item,
                                                       assert_between_));
    return ctx.RunStep(step_inc_, {1}, AssertionInstance{},
                       [](TxnContext&) { return Status::Ok(); });
  });
  prog.set_compensation(step_comp_,
                        [](TxnContext&, int) { return Status::Ok(); });
  ExecResult result =
      engine_->Execute(prog, env_, ExecMode::kAccDecomposed);
  ASSERT_TRUE(result.status.ok());
  // After commit everything is gone.
  EXPECT_EQ(engine_->lock_manager().HolderCount(item), 0u);
}

TEST_F(EngineTest, CompMarkersCoverRowAndTable) {
  // After a committed step, both the written row and its table carry kComp
  // markers, so a compensating step's intent locks never wait on foreign
  // assertional locks at any granularity.
  lock::ItemId row_item =
      lock::ItemId::Row(counter_a_->id(), storage::kVariableRowId);
  lock::ItemId table_item = lock::ItemId::Table(counter_a_->id());
  lock::TxnId observed = 0;
  FunctionProgram prog("marks", [&](TxnContext& ctx) {
    observed = ctx.txn_id();
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        step_inc_, {1}, AssertionInstance{assert_between_, {1}, {}},
        [&](TxnContext& c) -> Status {
          ACCDB_ASSIGN_OR_RETURN(int64_t v, c.ReadVariable(*counter_a_, true));
          return c.WriteVariable(*counter_a_, v + 1);
        }));
    EXPECT_TRUE(engine_->lock_manager().Holds(observed, row_item,
                                              lock::LockMode::kComp));
    EXPECT_TRUE(engine_->lock_manager().Holds(observed, table_item,
                                              lock::LockMode::kComp));
    return ctx.RunStep(step_inc_, {1}, AssertionInstance{},
                       [](TxnContext&) { return Status::Ok(); });
  });
  prog.set_compensation(step_comp_,
                        [](TxnContext&, int) { return Status::Ok(); });
  ASSERT_TRUE(
      engine_->Execute(prog, env_, ExecMode::kAccDecomposed).status.ok());
  EXPECT_EQ(engine_->lock_manager().HolderCount(table_item), 0u);
}

TEST_F(EngineTest, LegacyProgramRunsSerializableUnderAcc) {
  FunctionProgram prog("legacy", [&](TxnContext& ctx) {
    EXPECT_EQ(ctx.mode(), ExecMode::kSerializable);
    return ctx.RunStep(lock::kNoActor, {}, AssertionInstance{},
                       [&](TxnContext& c) -> Status {
                         ACCDB_ASSIGN_OR_RETURN(
                             int64_t v, c.ReadVariable(*counter_a_, true));
                         return c.WriteVariable(*counter_a_, v + 1);
                       });
  });
  prog.set_analyzed(false);
  ExecResult result =
      engine_->Execute(prog, env_, ExecMode::kAccDecomposed);
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(ReadCounter(counter_a_), 1);
}

TEST_F(EngineTest, TwoLevelDispatchBlocksAcrossDisjointItems) {
  // Two transactions touching DISJOINT items whose step type interferes
  // (kAlways default for an unregistered pair) with the other's held
  // assertion: the one-level ACC lets them interleave (no shared item);
  // the two-level dispatcher serializes them at the assertion level.
  lock::ActorId blind_step = catalog_.RegisterStepType("blind");
  // (blind_step, assert_between_) is NOT in the table => kAlways.
  for (bool two_level : {false, true}) {
    EngineConfig config;
    config.charge_acc_overheads = false;
    config.two_level_dispatch = two_level;
    config.dispatch_assertions = {assert_between_};
    Engine engine(&db_, &resolver_, config);

    sim::Simulation sim;
    SimExecutionEnv env_a(sim, nullptr), env_b(sim, nullptr);
    double b_done = -1, a_done = -1;
    // A: two steps over counter a, holding assert_between_ in between.
    FunctionProgram prog_a("a", [&](TxnContext& ctx) -> Status {
      ACCDB_RETURN_IF_ERROR(ctx.RunStep(
          step_inc_, {1}, AssertionInstance{assert_between_, {1}, {}},
          [&](TxnContext& c) -> Status {
            ACCDB_ASSIGN_OR_RETURN(int64_t v,
                                   c.ReadVariable(*counter_a_, true));
            return c.WriteVariable(*counter_a_, v + 1);
          }));
      ctx.Compute(1.0);
      return ctx.RunStep(step_inc_, {1}, AssertionInstance{},
                         [](TxnContext&) { return Status::Ok(); });
    });
    prog_a.set_compensation(step_comp_,
                            [](TxnContext&, int) { return Status::Ok(); });
    // B: one blind step over counter b — a different item entirely.
    FunctionProgram prog_b("b", [&](TxnContext& ctx) {
      return ctx.RunStep(blind_step, {}, AssertionInstance{},
                         [&](TxnContext& c) -> Status {
                           ACCDB_ASSIGN_OR_RETURN(
                               int64_t v, c.ReadVariable(*counter_b_, true));
                           return c.WriteVariable(*counter_b_, v + 1);
                         });
    });
    ExecResult ra, rb;
    sim.Spawn("a", [&] {
      ra = engine.Execute(prog_a, env_a, ExecMode::kAccDecomposed);
      a_done = sim.Now();
    });
    sim.Spawn("b", [&] {
      sim.Delay(0.1);  // Mid A's think window, assert_between_ held.
      rb = engine.Execute(prog_b, env_b, ExecMode::kAccDecomposed);
      b_done = sim.Now();
    });
    sim.Run();
    ASSERT_TRUE(ra.status.ok());
    ASSERT_TRUE(rb.status.ok());
    if (two_level) {
      EXPECT_GT(b_done, a_done) << "two-level dispatch must serialize";
    } else {
      EXPECT_LT(b_done, a_done) << "one-level must not (disjoint items)";
    }
  }
}

// --- Concurrency through the simulation ---

TEST_F(EngineTest, AccInterleavesNonInterferingSteps) {
  // Two two-step transactions with different keys interleave under ACC;
  // the simulation's timeline proves steps of txn B ran between steps of
  // txn A (client compute time creates the window).
  sim::Simulation sim;
  SimExecutionEnv env_a(sim, nullptr), env_b(sim, nullptr);
  std::vector<std::string> trace;

  auto make_program = [&](const char* tag, int64_t key,
                          storage::Table* counter, double pause) {
    return std::make_unique<FunctionProgram>(
        std::string("p") + tag, [=, &trace, this](TxnContext& ctx) -> Status {
          ACCDB_RETURN_IF_ERROR(ctx.RunStep(
              step_inc_, {key}, AssertionInstance{assert_between_, {key}, {}},
              [=, &trace](TxnContext& c) -> Status {
                trace.push_back(std::string(tag) + "1");
                ACCDB_ASSIGN_OR_RETURN(int64_t v,
                                       c.ReadVariable(*counter, true));
                return c.WriteVariable(*counter, v + 1);
              }));
          ctx.Compute(pause);
          return ctx.RunStep(step_inc_, {key}, AssertionInstance{},
                             [=, &trace](TxnContext& c) -> Status {
                               trace.push_back(std::string(tag) + "2");
                               ACCDB_ASSIGN_OR_RETURN(
                                   int64_t v, c.ReadVariable(*counter, true));
                               return c.WriteVariable(*counter, v + 1);
                             });
        });
  };

  auto prog_a = make_program("a", 1, counter_a_, 1.0);
  auto prog_b = make_program("b", 2, counter_b_, 0.1);
  prog_a->set_compensation(step_comp_,
                           [](TxnContext&, int) { return Status::Ok(); });
  prog_b->set_compensation(step_comp_,
                           [](TxnContext&, int) { return Status::Ok(); });

  ExecResult ra, rb;
  sim.Spawn("a", [&] {
    ra = engine_->Execute(*prog_a, env_a, ExecMode::kAccDecomposed);
  });
  sim.Spawn("b", [&] {
    sim.Delay(0.01);
    rb = engine_->Execute(*prog_b, env_b, ExecMode::kAccDecomposed);
  });
  sim.Run();
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  EXPECT_EQ(trace, (std::vector<std::string>{"a1", "b1", "b2", "a2"}));
  EXPECT_EQ(ReadCounter(counter_a_), 2);
  EXPECT_EQ(ReadCounter(counter_b_), 2);
}

TEST_F(EngineTest, SerializableBlocksUntilCommit) {
  // The same scenario under strict 2PL on a shared counter: B cannot touch
  // the counter until A commits.
  sim::Simulation sim;
  SimExecutionEnv env_a(sim, nullptr), env_b(sim, nullptr);
  std::vector<std::string> trace;

  auto make_program = [&](const char* tag, double pause) {
    return std::make_unique<FunctionProgram>(
        std::string("p") + tag, [=, &trace, this](TxnContext& ctx) -> Status {
          ACCDB_RETURN_IF_ERROR(ctx.RunStep(
              step_inc_, {1}, AssertionInstance{},
              [=, &trace, this](TxnContext& c) -> Status {
                // Record only after the (possibly blocking) lock is held.
                ACCDB_ASSIGN_OR_RETURN(int64_t v,
                                       c.ReadVariable(*counter_a_, true));
                trace.push_back(std::string(tag) + "1");
                return c.WriteVariable(*counter_a_, v + 1);
              }));
          ctx.Compute(pause);
          return ctx.RunStep(step_inc_, {1}, AssertionInstance{},
                             [=, &trace, this](TxnContext& c) -> Status {
                               ACCDB_ASSIGN_OR_RETURN(
                                   int64_t v,
                                   c.ReadVariable(*counter_a_, true));
                               trace.push_back(std::string(tag) + "2");
                               return c.WriteVariable(*counter_a_, v + 1);
                             });
        });
  };

  auto prog_a = make_program("a", 1.0);
  auto prog_b = make_program("b", 0.1);
  ExecResult ra, rb;
  sim.Spawn("a", [&] {
    ra = engine_->Execute(*prog_a, env_a, ExecMode::kSerializable);
  });
  sim.Spawn("b", [&] {
    sim.Delay(0.01);
    rb = engine_->Execute(*prog_b, env_b, ExecMode::kSerializable);
  });
  sim.Run();
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  EXPECT_EQ(trace, (std::vector<std::string>{"a1", "a2", "b1", "b2"}));
  EXPECT_EQ(ReadCounter(counter_a_), 4);
}

TEST_F(EngineTest, SerializableDeadlockRestartsAndCompletes) {
  sim::Simulation sim;
  SimExecutionEnv env_a(sim, nullptr), env_b(sim, nullptr);

  auto cross = [&](storage::Table* first, storage::Table* second) {
    return std::make_unique<FunctionProgram>(
        "cross", [=, this](TxnContext& ctx) -> Status {
          return ctx.RunStep(
              step_inc_, {}, AssertionInstance{},
              [=](TxnContext& c) -> Status {
                ACCDB_ASSIGN_OR_RETURN(int64_t v1,
                                       c.ReadVariable(*first, true));
                ACCDB_RETURN_IF_ERROR(c.WriteVariable(*first, v1 + 1));
                c.Compute(0.5);
                ACCDB_ASSIGN_OR_RETURN(int64_t v2,
                                       c.ReadVariable(*second, true));
                return c.WriteVariable(*second, v2 + 1);
              });
        });
  };

  auto prog_a = cross(counter_a_, counter_b_);
  auto prog_b = cross(counter_b_, counter_a_);
  ExecResult ra, rb;
  sim.Spawn("a", [&] {
    ra = engine_->Execute(*prog_a, env_a, ExecMode::kSerializable);
  });
  sim.Spawn("b", [&] {
    sim.Delay(0.01);
    rb = engine_->Execute(*prog_b, env_b, ExecMode::kSerializable);
  });
  sim.Run();
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  // One of them restarted after losing the deadlock.
  EXPECT_EQ(ra.txn_restarts + rb.txn_restarts, 1);
  EXPECT_EQ(ReadCounter(counter_a_), 2);
  EXPECT_EQ(ReadCounter(counter_b_), 2);
}

TEST_F(EngineTest, CrashRecoveryCompensatesInFlight) {
  // Run step 1 of a two-step transaction, then "crash" (abandon the
  // execution mid-flight by never running step 2) and recover on a fresh
  // engine over the same database and the surviving WAL.
  AttachWal("engine_crash.wal");
  sim::Simulation sim;
  SimExecutionEnv env(sim, nullptr);
  sim::Signal never(sim);
  FunctionProgram prog("two_step", [&](TxnContext& ctx) -> Status {
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        step_inc_, {1}, AssertionInstance{assert_between_, {1}, {}},
        [&](TxnContext& c) -> Status {
          ACCDB_ASSIGN_OR_RETURN(int64_t v, c.ReadVariable(*counter_a_, true));
          return c.WriteVariable(*counter_a_, v + 1);
        }));
    sim.WaitSignal(never);  // Crash point: the process hangs forever.
    return Status::Ok();
  });
  prog.set_compensation(step_comp_,
                        [](TxnContext&, int) { return Status::Ok(); });
  sim.Spawn("t", [&] {
    (void)engine_->Execute(prog, env, ExecMode::kAccDecomposed);
  });
  sim.Run();  // Drains: the transaction is stuck mid-flight.
  EXPECT_EQ(ReadCounter(counter_a_), 1);

  // Crash: volatile state lost, database + WAL file survive.
  EngineConfig config = config_;
  config.wal.path = TempPath("engine_crash_surviving.wal");
  WriteFileBytes(config.wal.path, ReadFileBytes(config_.wal.path));
  Engine fresh(&db_, &resolver_, config);
  ASSERT_NE(fresh.wal(), nullptr) << fresh.wal_status().ToString();
  CompensatorRegistry registry;
  Compensator comp;
  comp.comp_step_type = step_comp_;
  comp.fn = [&](TxnContext& ctx, const std::string&, int) -> Status {
    ACCDB_ASSIGN_OR_RETURN(int64_t v, ctx.ReadVariable(*counter_a_, true));
    return ctx.WriteVariable(*counter_a_, v - 1);
  };
  registry.Register("two_step", comp);
  ImmediateEnv recovery_env;
  RecoveryReport report =
      RunRecovery(fresh, fresh.wal()->recovered(), registry, recovery_env);
  EXPECT_EQ(report.in_flight, 1);
  EXPECT_EQ(report.compensated, 1);
  EXPECT_EQ(ReadCounter(counter_a_), 0);
  ::unlink(config.wal.path.c_str());
}


// --- TxnIdAllocator ---

TEST(TxnIdAllocatorTest, BlockOneIsSequential) {
  // block_size == 1 must reproduce the historical shared counter exactly:
  // the deterministic simulation's txn ids (and thus its schedules) depend
  // on it.
  TxnIdAllocator allocator(1);
  for (lock::TxnId expect = 1; expect <= 100; ++expect) {
    EXPECT_EQ(allocator.Next(), expect);
  }
}

TEST(TxnIdAllocatorTest, BatchedIdsUniqueAndDenseAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  TxnIdAllocator allocator(TxnIdAllocator::kDefaultBlock);
  std::vector<std::vector<lock::TxnId>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&allocator, &ids = per_thread[t]] {
      ids.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) ids.push_back(allocator.Next());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<lock::TxnId> all;
  for (const auto& ids : per_thread) {
    // Each thread sees strictly increasing ids (blocks are consumed in
    // order within a thread).
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    all.insert(all.end(), ids.begin(), ids.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  // Ids never exceed blocks handed out: the last id is bounded by the
  // number of blocks any thread could have drawn.
  EXPECT_GE(all.back(), static_cast<lock::TxnId>(kThreads * kPerThread));
  EXPECT_LE(all.back(),
            static_cast<lock::TxnId>(kThreads * kPerThread +
                                     kThreads * TxnIdAllocator::kDefaultBlock));
}

TEST(TxnIdAllocatorTest, InterleavedAllocatorsNeverShareBlocks) {
  // Two live allocators drawn from the same thread: the epoch tag must
  // keep their thread-local blocks apart (an id from A's space never comes
  // out of B and vice versa).
  TxnIdAllocator a(16);
  TxnIdAllocator b(16);
  std::vector<lock::TxnId> from_a, from_b;
  for (int i = 0; i < 200; ++i) {
    from_a.push_back(a.Next());
    from_b.push_back(b.Next());
  }
  std::sort(from_a.begin(), from_a.end());
  std::sort(from_b.begin(), from_b.end());
  EXPECT_TRUE(std::adjacent_find(from_a.begin(), from_a.end()) ==
              from_a.end());
  EXPECT_TRUE(std::adjacent_find(from_b.begin(), from_b.end()) ==
              from_b.end());
}

}  // namespace
}  // namespace accdb::acc
