#include "tpcc/driver.h"

#include <algorithm>
#include <memory>

#include "acc/conflict_resolver.h"
#include "acc/sim_env.h"
#include "common/string_util.h"
#include "lock/conflict.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "storage/database.h"
#include "tpcc/consistency.h"
#include "tpcc/loader.h"
#include "tpcc/tpcc_db.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {

namespace {

// One terminal: a closed loop of keying, transaction, thinking.
class Terminal {
 public:
  Terminal(TpccDb* db, acc::Engine* engine, const WorkloadConfig& config,
           sim::Simulation* sim, sim::Resource* servers, uint64_t seed,
           WorkloadResult* result)
      : db_(db),
        engine_(engine),
        config_(config),
        sim_(sim),
        env_(*sim, servers),
        gen_(config.inputs, seed),
        rng_(seed ^ 0x9e3779b97f4a7c15ULL),
        result_(result) {}

  void Run() {
    while (sim_->Now() < config_.sim_seconds) {
      if (config_.keying_seconds > 0) sim_->Delay(config_.keying_seconds);
      TxnType type = gen_.NextType();
      double start = sim_->Now();
      acc::ExecResult exec = RunOne(type);
      double response = sim_->Now() - start;

      result_->response_all.Add(response);
      result_->response_hist.Add(response);
      result_->response_by_type[static_cast<int>(type)].Add(response);
      if (exec.status.ok()) {
        ++result_->completed;
      } else {
        ++result_->aborted;
      }
      if (exec.compensated) ++result_->compensated;
      result_->step_deadlock_retries += exec.step_deadlock_retries;
      result_->txn_restarts += exec.txn_restarts;

      if (config_.mean_think_seconds > 0) {
        sim_->Delay(rng_.Exponential(config_.mean_think_seconds));
      }
    }
    result_->total_lock_wait += env_.total_lock_wait();
  }

 private:
  acc::ExecResult RunOne(TxnType type) {
    return RunOneTpccTxn(db_, engine_, gen_, type, config_.compute_seconds,
                         config_.granularity, env_, config_.mode);
  }

  TpccDb* db_;
  acc::Engine* engine_;
  const WorkloadConfig& config_;
  sim::Simulation* sim_;
  acc::SimExecutionEnv env_;
  InputGenerator gen_;
  Rng rng_;
  WorkloadResult* result_;
};

}  // namespace

TpccSystem::TpccSystem(const WorkloadConfig& config)
    : db_(&database_,
          static_cast<size_t>(std::max<int64_t>(
              1, config.inputs.scale.warehouses))),
      acc_resolver_(&db_.interference) {
  LoadDatabase(db_, config.inputs.scale, config.seed);
  db_.interference.set_key_refinement(config.key_refinement);
  // Only the ACC uses assertional conflict semantics; every monolithic
  // backend (2PL, OCC's restart path, MVCC's writer side) locks under the
  // conventional matrix.
  const lock::ConflictResolver* resolver =
      config.mode == acc::ExecMode::kAccDecomposed
          ? static_cast<const lock::ConflictResolver*>(&acc_resolver_)
          : &matrix_resolver_;
  acc::EngineConfig engine_config = config.engine;
  if (engine_config.two_level_dispatch &&
      engine_config.dispatch_assertions.empty()) {
    engine_config.dispatch_assertions = {db_.assert_no_loop,
                                         db_.assert_order_complete,
                                         db_.assert_pay, db_.assert_dlv};
  }
  engine_ = std::make_unique<acc::Engine>(&database_, resolver, engine_config);
  // The auditor is only consulted when engine_config.audit_assertions is
  // set, so wiring it unconditionally costs nothing in normal runs.
  engine_->set_assertion_auditor(db_.specs.MakeAuditor());
}

acc::ExecResult RunOneTpccTxn(TpccDb* db, acc::Engine* engine,
                              InputGenerator& gen, TxnType type,
                              double compute_seconds,
                              NewOrderGranularity granularity,
                              acc::ExecutionEnv& env, acc::ExecMode mode) {
  switch (type) {
    case TxnType::kNewOrder: {
      NewOrderTxn txn(db, gen.NextNewOrder(), compute_seconds, granularity);
      return engine->Execute(txn, env, mode);
    }
    case TxnType::kPayment: {
      PaymentTxn txn(db, gen.NextPayment(), compute_seconds);
      return engine->Execute(txn, env, mode);
    }
    case TxnType::kOrderStatus: {
      OrderStatusTxn txn(db, gen.NextOrderStatus(), compute_seconds);
      return engine->Execute(txn, env, mode);
    }
    case TxnType::kDelivery: {
      DeliveryTxn txn(db, gen.NextDelivery(), compute_seconds);
      return engine->Execute(txn, env, mode);
    }
    case TxnType::kStockLevel: {
      StockLevelTxn txn(db, gen.NextStockLevel(), compute_seconds);
      return engine->Execute(txn, env, mode);
    }
  }
  return acc::ExecResult{Status::Internal("bad type"), 0, 0, 0, false};
}

WorkloadResult RunWorkload(const WorkloadConfig& config) {
  TpccSystem system(config);
  TpccDb& db = system.db();
  acc::Engine& engine = system.engine();

  WorkloadResult result;
  {
    sim::Simulation sim;
    sim::Resource servers(sim, config.servers);
    Rng seeder(config.seed * 7919 + 17);
    std::vector<std::unique_ptr<Terminal>> terminals;
    terminals.reserve(config.terminals);
    for (int t = 0; t < config.terminals; ++t) {
      terminals.push_back(std::make_unique<Terminal>(
          &db, &engine, config, &sim, &servers, seeder.Next(), &result));
      Terminal* terminal = terminals.back().get();
      sim.Spawn(StrFormat("terminal-%d", t),
                [terminal] { terminal->Run(); });
    }
    result.sim_seconds = sim.Run();
    result.lock_stats = engine.lock_manager().stats();
    acc::EngineMetrics metrics = engine.MetricsSnapshot();
    result.step_latency_hist = metrics.step_latency;
    result.txn_latency_hist = metrics.txn_latency;
    result.lock_wait_hist = metrics.lock_wait;
    result.assertions_audited = metrics.assertions_audited;
    result.assertion_violations = metrics.assertion_violations;
    result.first_assertion_violation =
        std::move(metrics.first_assertion_violation);
  }

  ConsistencyReport consistency =
      CheckConsistency(db, /*strict=*/result.compensated == 0);
  result.consistent = consistency.ok;
  if (!consistency.ok) result.first_violation = consistency.violations[0];
  return result;
}

}  // namespace accdb::tpcc
