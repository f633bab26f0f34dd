// The paper's introductory example (Section 3.1): a stock-trading database
// where a buy transaction purchases n shares, always taking the cheapest
// sell orders available.
//
// The postcondition Q_i of a buy is: "n shares were bought, the sales were
// recorded in the ledger, and WHEN EACH SHARE WAS BOUGHT no cheaper unbought
// share existed". Under the ACC, two concurrent buys can each get half of
// the $30 pool and then finish at $31 — a final state NO serial schedule can
// produce (serially, one buyer takes all of the $30 shares) — yet both
// postconditions hold and the database stays consistent. This is semantic
// correctness without serializability.

#include <cstdio>
#include <vector>

#include "acc/catalog.h"
#include "acc/conflict_resolver.h"
#include "acc/engine.h"
#include "acc/function_program.h"
#include "acc/interference.h"
#include "acc/sim_env.h"
#include "acc/txn_context.h"
#include "sim/simulation.h"
#include "storage/database.h"

using namespace accdb;
using storage::Key;
using storage::Value;

namespace {

struct TradingDb {
  explicit TradingDb(storage::Database* database) : db(database) {
    storage::Schema sell_schema;
    sell_schema.columns = {{"price", storage::ColumnType::kInt64},
                           {"shares", storage::ColumnType::kInt64}};
    sell_schema.key_columns = {0};
    sell_orders = db->CreateTable("sell_orders", sell_schema);

    storage::Schema ledger_schema;
    ledger_schema.columns = {{"buyer", storage::ColumnType::kInt64},
                             {"seq", storage::ColumnType::kInt64},
                             {"price", storage::ColumnType::kInt64},
                             {"shares", storage::ColumnType::kInt64}};
    ledger_schema.key_columns = {0, 1};
    ledger = db->CreateTable("ledger", ledger_schema);

    step_buy = catalog.RegisterStepType("buy.step");
    prefix_buy = catalog.RegisterPrefix("buy.partial");
    assert_progress = catalog.RegisterAssertion("buy.progress", 1);
    // The design-time analysis: one buy's purchase step removes shares from
    // the cheapest tier, which never invalidates another buy's progress
    // invariant ("I have bought k shares, each cheapest at its time") —
    // prices only move UP as stock depletes, so earlier purchases stay
    // justified.
    interference.Set(step_buy, assert_progress, acc::Interference::kNone);
    interference.Set(prefix_buy, assert_progress, acc::Interference::kNone);
  }

  storage::Database* db;
  storage::Table* sell_orders;
  storage::Table* ledger;
  acc::Catalog catalog;
  acc::InterferenceTable interference;
  lock::ActorId step_buy, prefix_buy;
  lock::AssertionId assert_progress;
};

// buy(buyer, n): decomposed into one step per purchase tranche — each step
// buys as many shares as possible from the cheapest available tier.
Status RunBuy(TradingDb& trading, acc::TxnContext& ctx, int64_t buyer,
              int64_t want, std::vector<std::pair<int64_t, int64_t>>* bought) {
  int64_t remaining = want;
  int64_t seq = 0;
  while (remaining > 0) {
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        trading.step_buy, {buyer},
        acc::AssertionInstance{trading.assert_progress, {buyer}, {}},
        [&](acc::TxnContext& c) -> Status {
          // Cheapest tier with stock.
          ACCDB_ASSIGN_OR_RETURN(auto cheapest,
                                 c.MinPkPrefix(*trading.sell_orders, {},
                                               /*for_update=*/true));
          if (!cheapest.has_value()) {
            return Status::Aborted("market sold out");
          }
          int64_t price = cheapest->second[0].AsInt64();
          int64_t available = cheapest->second[1].AsInt64();
          // A tranche buys at most 5 shares: the step boundary between
          // tranches is where the two buyers interleave.
          int64_t take = std::min({available, remaining, int64_t{5}});
          if (available - take == 0) {
            ACCDB_RETURN_IF_ERROR(
                c.Delete(*trading.sell_orders, cheapest->first));
          } else {
            ACCDB_RETURN_IF_ERROR(c.Update(*trading.sell_orders,
                                           cheapest->first,
                                           {{1, Value(available - take)}}));
          }
          ACCDB_RETURN_IF_ERROR(
              c.Insert(*trading.ledger, {Value(buyer), Value(seq),
                                         Value(price), Value(take)})
                  .status());
          bought->push_back({price, take});
          remaining -= take;
          ++seq;
          // Let the other buyer in between tranches (the think time that
          // creates the famous interleaving).
          c.Compute(0.01);
          return Status::Ok();
        }));
  }
  return Status::Ok();
}

}  // namespace

int main() {
  storage::Database database;
  TradingDb trading(&database);
  // n = 10 shares at $30; unlimited-ish at $31.
  (void)trading.sell_orders->Insert({Value(int64_t{30}), Value(int64_t{10})});
  (void)trading.sell_orders->Insert({Value(int64_t{31}), Value(int64_t{100})});

  acc::AccConflictResolver resolver(&trading.interference);
  acc::EngineConfig config;
  config.charge_acc_overheads = false;
  acc::Engine engine(&database, &resolver, config);

  sim::Simulation sim;
  acc::SimExecutionEnv env1(sim, nullptr), env2(sim, nullptr);
  std::vector<std::pair<int64_t, int64_t>> bought1, bought2;

  acc::FunctionProgram buyer1("buy1", [&](acc::TxnContext& ctx) {
    return RunBuy(trading, ctx, 1, 10, &bought1);
  });
  acc::FunctionProgram buyer2("buy2", [&](acc::TxnContext& ctx) {
    return RunBuy(trading, ctx, 2, 10, &bought2);
  });

  sim.Spawn("T1", [&] {
    (void)engine.Execute(buyer1, env1, acc::ExecMode::kAccDecomposed);
  });
  sim.Spawn("T2", [&] {
    sim.Delay(0.005);  // Arrives while T1 pauses between tranches.
    (void)engine.Execute(buyer2, env2, acc::ExecMode::kAccDecomposed);
  });
  sim.Run();

  auto print = [](const char* name,
                  const std::vector<std::pair<int64_t, int64_t>>& bought) {
    std::printf("%s bought:", name);
    int64_t total = 0;
    for (auto [price, shares] : bought) {
      std::printf(" %lld@$%lld", static_cast<long long>(shares),
                  static_cast<long long>(price));
      total += shares;
    }
    std::printf("  (total %lld shares)\n", static_cast<long long>(total));
  };
  print("T1", bought1);
  print("T2", bought2);
  std::printf(
      "\nBoth buyers got shares at $30 — a state unreachable by any serial\n"
      "schedule (serially one buyer drains the $30 tier first), yet each\n"
      "postcondition holds: every share was the cheapest available when\n"
      "bought. This is the paper's semantic correctness.\n");
  // Exit status: each buyer got its 10 shares, the first tranche at $30.
  auto got_cheap_tier = [](const auto& bought) {
    int64_t total = 0;
    for (auto [price, shares] : bought) total += shares;
    return total == 10 && !bought.empty() && bought.front().first == 30;
  };
  return got_cheap_tier(bought1) && got_cheap_tier(bought2) ? 0 : 1;
}
