// End-to-end WAL crash recovery at the engine level: transactions crash at
// step boundaries across TWO warehouse shards while normal traffic runs,
// then every volatile structure is discarded — database, engine, lock and
// undo state — and the WAL file is all that survives. Recovery reloads the
// deterministic initial state, replays the WAL's redo in LSN order, finds
// the in-flight transactions, and runs the §3.4 compensators. The database must end
// consistent, with no failed or uncompensatable transactions.

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/recovery.h"
#include "acc/sim_env.h"
#include "acc/wal.h"
#include "common/rng.h"
#include "sim/simulation.h"
#include "storage/database.h"
#include "test_files.h"
#include "tpcc/consistency.h"
#include "tpcc/loader.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {
namespace {

using acc::ExecMode;

// Runs the inner new-order with a truncated line list so it stops cleanly at
// a step boundary, then hangs at the crash point (as in the failure
// injection test, but with the WAL underneath).
class CrashingNewOrder : public acc::TransactionProgram {
 public:
  CrashingNewOrder(TpccDb* db, NewOrderInput input, int lines_before_crash,
                   sim::Simulation* sim, sim::Signal* crash)
      : db_(db),
        input_(std::move(input)),
        lines_before_crash_(lines_before_crash),
        sim_(sim),
        crash_(crash) {}

  std::string_view name() const override { return "tpcc.new_order"; }
  lock::ActorId PrefixActor(int steps) const override {
    return steps == 0 ? db_->prefix_empty : db_->prefix_no_partial;
  }
  bool has_compensation() const override { return true; }
  lock::ActorId CompensationStepType() const override {
    return db_->step_cs_no;
  }
  Status Compensate(acc::TxnContext& ctx, int steps) override {
    (void)steps;
    return inner_ != nullptr
               ? NewOrderTxn::CompensateOrder(ctx, *db_, input_.w_id,
                                              input_.d_id, inner_->order_id())
               : Status::Ok();
  }
  std::string SerializeWorkArea() const override {
    return inner_ != nullptr ? inner_->SerializeWorkArea() : "0 0 0";
  }

  Status Run(acc::TxnContext& ctx) override {
    NewOrderInput truncated = input_;
    truncated.lines.resize(
        std::min<size_t>(truncated.lines.size(), lines_before_crash_));
    inner_ = std::make_unique<NewOrderTxn>(db_, truncated);
    Status status = inner_->Run(ctx);
    if (!status.ok()) return status;
    sim_->WaitSignal(*crash_);  // Crash point; never fires.
    return Status::Internal("unreachable");
  }

 private:
  TpccDb* db_;
  NewOrderInput input_;
  int lines_before_crash_;
  sim::Simulation* sim_;
  sim::Signal* crash_;
  std::unique_ptr<NewOrderTxn> inner_;
};

class WalRecoveryTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, WalRecoveryTest, ::testing::Values(3, 91));

TEST_P(WalRecoveryTest, CrossShardCrashRecoversFromSurvivingWalOnly) {
  const uint64_t seed = GetParam();
  const std::string wal_path =
      TempPath("wal_recovery_" + std::to_string(seed) + ".wal");
  ::unlink(wal_path.c_str());

  ScaleConfig scale = ScaleConfig::Test();
  scale.warehouses = 2;

  acc::EngineConfig config;
  config.charge_acc_overheads = false;
  config.wal.path = wal_path;
  config.wal.group_commit_us = 0;

  // Phase 1: crash one transaction in each warehouse shard mid-flight,
  // with normal traffic around them.
  int crashers = 0;
  std::string surviving_wal;
  {
    storage::Database database;
    TpccDb db(&database);
    LoadDatabase(db, scale, seed);
    acc::AccConflictResolver resolver(&db.interference);
    acc::Engine engine(&database, &resolver, config);
    ASSERT_TRUE(engine.wal_status().ok()) << engine.wal_status().ToString();

    Rng rng(seed * 31 + 7);
    InputGenConfig gen_config;
    gen_config.scale = scale;
    InputGenerator gen(gen_config, rng.Next());

    sim::Simulation sim;
    sim::Signal crash_point(sim);
    std::vector<std::unique_ptr<acc::SimExecutionEnv>> envs;
    std::vector<std::unique_ptr<acc::TransactionProgram>> programs;

    // One crasher per warehouse: the in-flight set spans both shards.
    bool have_warehouse[3] = {false, false, false};
    for (int tries = 0; tries < 200 && crashers < 2; ++tries) {
      NewOrderInput input = gen.NextNewOrder();
      input.rollback = false;
      if (input.lines.size() < 4) continue;
      const auto w = static_cast<size_t>(input.w_id);
      if (w < 1 || w > 2 || have_warehouse[w]) continue;
      have_warehouse[w] = true;
      envs.push_back(std::make_unique<acc::SimExecutionEnv>(sim, nullptr));
      programs.push_back(std::make_unique<CrashingNewOrder>(
          &db, input, static_cast<int>(rng.UniformInt(1, 3)), &sim,
          &crash_point));
      acc::SimExecutionEnv* env = envs.back().get();
      acc::TransactionProgram* prog = programs.back().get();
      double start = 0.01 * crashers;
      sim.Spawn("crasher", [&, env, prog, start] {
        sim.Delay(start);
        (void)engine.Execute(*prog, *env, ExecMode::kAccDecomposed);
      });
      ++crashers;
    }
    ASSERT_EQ(crashers, 2);

    for (int t = 0; t < 4; ++t) {
      envs.push_back(std::make_unique<acc::SimExecutionEnv>(sim, nullptr));
      acc::SimExecutionEnv* env = envs.back().get();
      uint64_t term_seed = rng.Next();
      sim.Spawn("terminal", [&, env, term_seed] {
        Rng term_rng(term_seed);
        InputGenConfig cfg;
        cfg.scale = scale;
        InputGenerator term_gen(cfg, term_rng.Next());
        for (int i = 0; i < 15; ++i) {
          sim.Delay(term_rng.Exponential(0.02));
          switch (term_gen.NextType()) {
            case TxnType::kNewOrder: {
              NewOrderTxn txn(&db, term_gen.NextNewOrder());
              (void)engine.Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
            case TxnType::kPayment: {
              PaymentTxn txn(&db, term_gen.NextPayment());
              (void)engine.Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
            case TxnType::kOrderStatus: {
              OrderStatusTxn txn(&db, term_gen.NextOrderStatus());
              (void)engine.Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
            case TxnType::kDelivery: {
              DeliveryTxn txn(&db, term_gen.NextDelivery());
              (void)engine.Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
            case TxnType::kStockLevel: {
              StockLevelTxn txn(&db, term_gen.NextStockLevel());
              (void)engine.Execute(txn, *env, ExecMode::kAccDecomposed);
              break;
            }
          }
        }
      });
    }
    sim.Run();  // Drains; the crashers are stuck mid-flight.
    EXPECT_GE(sim.live_processes(), crashers);

    // The crash: snapshot the file as it exists on disk RIGHT NOW — only
    // what WaitDurable forced. The engine destructor below would kindly
    // flush its remaining buffer; a kill -9 does not, so discard that.
    surviving_wal = ReadFileBytes(wal_path);
    ASSERT_FALSE(surviving_wal.empty());
  }
  WriteFileBytes(wal_path, surviving_wal);

  // Phase 2: a fresh process. Reload the deterministic initial state,
  // replay the surviving WAL's redo, compensate the in-flight transactions.
  storage::Database database;
  TpccDb db(&database);
  LoadDatabase(db, scale, seed);
  acc::AccConflictResolver resolver(&db.interference);
  auto engine = std::make_unique<acc::Engine>(&database, &resolver, config);
  ASSERT_TRUE(engine->wal_status().ok()) << engine->wal_status().ToString();
  acc::Wal* wal = engine->wal();
  ASSERT_NE(wal, nullptr);
  ASSERT_FALSE(wal->recovered().empty());

  ASSERT_TRUE(ReplayWal(database, wal->recovered()).ok());
  acc::CompensatorRegistry registry;
  RegisterTpccCompensators(&db, &registry);
  acc::ImmediateEnv recovery_env;
  acc::RecoveryReport report =
      acc::RunRecovery(*engine, wal->recovered(), registry, recovery_env);
  EXPECT_GE(report.in_flight, crashers);
  EXPECT_EQ(report.compensated, report.in_flight);
  EXPECT_EQ(report.failed, 0) << report.first_error.ToString();
  EXPECT_EQ(report.missing_compensator, 0);
  EXPECT_TRUE(report.clean());
  // The reload froze ITEM, and replay and compensation left it so.
  EXPECT_TRUE(db.item->frozen());
  EXPECT_EQ(db.item->size(), static_cast<size_t>(scale.item_count));

  ConsistencyReport consistency = CheckConsistency(db, /*strict=*/false);
  EXPECT_TRUE(consistency.ok) << (consistency.violations.empty()
                                      ? ""
                                      : consistency.violations[0]);
  engine.reset();  // Releases the log file before the re-scan below.

  // Idempotence after a second crash: the compensations above were logged
  // under the ORIGINAL transaction ids, so a re-scan of the log finds
  // nothing left in flight.
  Status status;
  acc::Wal::Options reopen_options;
  reopen_options.path = wal_path;
  std::unique_ptr<acc::Wal> reopened = acc::Wal::Open(reopen_options, &status);
  ASSERT_NE(reopened, nullptr) << status.ToString();
  EXPECT_TRUE(acc::FindInFlight(reopened->recovered()).empty());

  ::unlink(wal_path.c_str());
}

}  // namespace
}  // namespace accdb::tpcc
