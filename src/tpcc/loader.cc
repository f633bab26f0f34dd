#include "tpcc/loader.h"

#include <cassert>
#include <map>
#include <utility>

#include "common/money.h"

namespace accdb::tpcc {

using storage::Row;
using storage::Value;

std::string CustomerLastName(int64_t number) {
  static constexpr const char* kSyllables[] = {
      "BAR", "OUGHT", "ABLE", "PRI", "PRES",
      "ESE", "ANTI", "CALLY", "ATION", "EING"};
  return std::string(kSyllables[(number / 100) % 10]) +
         kSyllables[(number / 10) % 10] + kSyllables[number % 10];
}

namespace {

void MustInsert(storage::Table* table, Row row) {
  auto result = table->Insert(std::move(row));
  assert(result.ok());
  (void)result;
}

}  // namespace

void LoadDatabase(TpccDb& db, const ScaleConfig& scale, uint64_t seed) {
  Rng rng(seed);

  // Items.
  for (int64_t i = 1; i <= scale.item_count; ++i) {
    MustInsert(db.item,
               {Value(i), Value(rng.UniformInt(1, 10000)),
                Value("item-" + rng.AlnumString(6, 14)),
                Value(Money::FromCents(rng.UniformInt(100, 10000))),
                Value(rng.AlnumString(26, 50))});
  }
  // No transaction writes ITEM: reads of it need no lock and no latch.
  db.item->Freeze();

  for (int64_t w = 1; w <= scale.warehouses; ++w) {
    MustInsert(db.warehouse,
               {Value(w), Value("wh-" + rng.AlnumString(4, 8)),
                Value(rng.UniformInt(0, 2000) / 10000.0),
                Value(Money::FromDollars(300000))});

    // Quantities sold per item by this (supplying) warehouse's initial
    // order lines; folded into the stock counters below so the
    // stock-vs-order-line consistency condition holds from the start.
    std::map<int64_t, std::pair<int64_t, int64_t>> stock_tally;

    // Stock.
    for (int64_t i = 1; i <= scale.item_count; ++i) {
      MustInsert(db.stock,
                 {Value(w), Value(i), Value(rng.UniformInt(10, 100)),
                  Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{0}),
                  Value(rng.AlnumString(26, 50))});
    }

    for (int64_t d = 1; d <= scale.districts_per_warehouse; ++d) {
      int64_t next_o_id = scale.initial_orders_per_district + 1;
      MustInsert(db.district,
                 {Value(w), Value(d), Value("dist-" + rng.AlnumString(4, 8)),
                  Value(rng.UniformInt(0, 2000) / 10000.0),
                  Value(Money::FromDollars(30000)), Value(next_o_id)});

      // Customers: balance -10, ytd_payment 10, one initial history row of
      // $10 each, so the balance-vs-history conditions hold exactly.
      for (int64_t c = 1; c <= scale.customers_per_district; ++c) {
        // Spec: the first customers get sequential last names so name
        // lookups find multiple matches; the rest NURand-distributed.
        int64_t name_num = c <= 999 ? c - 1 : NuRand(rng, 255, 0, 999, 123);
        MustInsert(
            db.customer,
            {Value(w), Value(d), Value(c), Value(rng.AlnumString(8, 16)),
             Value(CustomerLastName(name_num)),
             Value(rng.Bernoulli(0.1) ? "BC" : "GC"),
             Value(rng.UniformInt(0, 5000) / 10000.0),
             Value(Money::FromDollars(-10)), Value(Money::FromDollars(10)),
             Value(int64_t{1}), Value(int64_t{0}),
             Value(rng.AlnumString(30, 60))});
        MustInsert(db.history, {Value(w), Value(d), Value(c), Value(int64_t{1}),
                                Value(d), Value(w),
                                Value(Money::FromDollars(10))});
      }

      // Initial orders: delivered, one per o_id, random customers.
      // Loading them delivered keeps every consistency condition true at
      // the start (no undelivered backlog).
      for (int64_t o = 1; o <= scale.initial_orders_per_district; ++o) {
        int64_t cust = rng.UniformInt(1, scale.customers_per_district);
        int64_t ol_cnt = rng.UniformInt(5, 15);
        MustInsert(db.orders, {Value(w), Value(d), Value(o), Value(cust),
                               Value(int64_t{0}),
                               Value(rng.UniformInt(1, 10)),  // Carrier.
                               Value(ol_cnt), Value(int64_t{1})});
        for (int64_t n = 1; n <= ol_cnt; ++n) {
          int64_t item_id = rng.UniformInt(1, scale.item_count);
          int64_t quantity = rng.UniformInt(1, 10);
          MustInsert(db.order_line,
                     {Value(w), Value(d), Value(o), Value(n), Value(item_id),
                      Value(w), Value(int64_t{1}),  // Delivered.
                      Value(quantity), Value(Money())});
          auto& tally = stock_tally[item_id];
          tally.first += quantity;
          tally.second += 1;
        }
      }
    }

    // Back-fill s_ytd / s_order_cnt from the initial order lines (all
    // supplied locally, so s_remote_cnt stays 0). Done after the fact to
    // keep the RNG draw sequence identical to the historical loader.
    for (const auto& [item_id, tally] : stock_tally) {
      auto row_id = db.stock->LookupPk(storage::Key(w, item_id));
      assert(row_id.has_value());
      Status updated = db.stock->UpdateColumns(
          *row_id, {{db.s_ytd, Value(tally.first)},
                    {db.s_order_cnt, Value(tally.second)}});
      assert(updated.ok());
      (void)updated;
    }
  }
}

}  // namespace accdb::tpcc
