// Runtime assertion auditor (EngineConfig::audit_assertions) end to end on
// the Section 4 order-processing system, under the deterministic simulator:
//
//  * Under the sound (derived == hand) interference table an audited run
//    never observes a falsified assertion instance — the auditor's numbers
//    are the machine-checked form of the paper's soundness argument.
//  * With one table entry deliberately weakened after construction, the
//    classic unsound interleaving (bill slipping between the steps of a
//    new_order on the same order) actually happens — and the auditor
//    catches the violated I1 instance at the moment bill claims it.

#include <gtest/gtest.h>

#include <memory>

#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/interference.h"
#include "acc/sim_env.h"
#include "orderproc/order_system.h"
#include "orderproc/transactions.h"
#include "sim/simulation.h"
#include "storage/database.h"

namespace accdb::orderproc {
namespace {

using acc::AccConflictResolver;
using acc::Engine;
using acc::EngineConfig;
using acc::ExecMode;
using acc::ExecResult;
using acc::Interference;
using acc::SimExecutionEnv;

class SpecAuditTest : public ::testing::Test {
 protected:
  SpecAuditTest() : sys_(&db_), resolver_(&sys_.interference) {
    sys_.LoadItems(/*item_count=*/50, /*stock_level=*/100,
                   /*price_cents=*/250);
    EngineConfig config;
    config.charge_acc_overheads = false;
    config.audit_assertions = true;
    engine_ = std::make_unique<Engine>(&db_, &resolver_, config);
    engine_->set_assertion_auditor(sys_.specs.MakeAuditor());
  }

  // Runs a 4-line new_order with think pauses between steps and a bill on
  // the same (not-yet-committed) order id launched mid-flight.
  void RunBillAgainstInFlightNewOrder() {
    sim::Simulation sim;
    SimExecutionEnv env_no(sim, nullptr), env_bill(sim, nullptr);
    NewOrderTxn no(&sys_, 1, {{1, 2}, {2, 2}, {3, 2}, {4, 2}});
    no.set_pause_between_steps(0.02);
    int64_t expected_order = db_.ReadVariable(*sys_.order_counter);
    std::unique_ptr<BillTxn> bill;
    ExecResult r_no, r_bill;
    sim.Spawn("new_order", [&] {
      r_no = engine_->Execute(no, env_no, ExecMode::kAccDecomposed);
    });
    sim.Spawn("bill", [&] {
      sim.Delay(0.04);  // Between two NO2 steps.
      bill = std::make_unique<BillTxn>(&sys_, expected_order);
      r_bill = engine_->Execute(*bill, env_bill, ExecMode::kAccDecomposed);
    });
    sim.Run();
    ASSERT_TRUE(r_no.status.ok());
    ASSERT_TRUE(r_bill.status.ok());
  }

  storage::Database db_;
  OrderSystem sys_;
  AccConflictResolver resolver_;
  std::unique_ptr<Engine> engine_;
};

TEST_F(SpecAuditTest, SoundTableAuditsCleanly) {
  RunBillAgainstInFlightNewOrder();
  const acc::EngineMetrics metrics = engine_->MetricsSnapshot();
  EXPECT_GT(metrics.assertions_audited, 0u);
  EXPECT_EQ(metrics.assertion_violations, 0u)
      << metrics.first_assertion_violation;
  EXPECT_TRUE(sys_.CheckConsistency());
}

TEST_F(SpecAuditTest, WeakenedEntryIsDetected) {
  // Erase the entry that makes bill's initiation check wait for the
  // in-flight new_order on the same order — the exact soundness hole the
  // construction-time cross-check would refuse if it were in the hand
  // table (here it is injected after construction, behind the check's
  // back). Bill now slips between two NO2 steps, its initial assertion
  // I1^{o} is granted while the order has fewer lines than
  // num_distinct_items — and the auditor sees the falsified instance.
  sys_.interference.Set(sys_.prefix_no_partial, sys_.assert_i1,
                        Interference::kNone);
  RunBillAgainstInFlightNewOrder();
  const acc::EngineMetrics metrics = engine_->MetricsSnapshot();
  EXPECT_GT(metrics.assertion_violations, 0u);
  EXPECT_FALSE(metrics.first_assertion_violation.empty());
}

}  // namespace
}  // namespace accdb::orderproc
