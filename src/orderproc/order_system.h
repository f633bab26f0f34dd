// The order-processing system of Section 4 of the paper — the worked
// example of transaction decomposition and interference analysis.
//
// Tables (keys underlined in the paper):
//   orders(order_id, customer_id, num_distinct_items, price)
//   stock(item_id, s_level)
//   prices(item_id, price)
//   orderlines(order_id, item_id, ordered, filled)
// plus the database variable current_order_number.
//
// The consistency conjunct analyzed in the paper:
//   I1^o: the number of orderlines tuples with order_id = o equals
//         orders[o].num_distinct_items.
//
// Decomposition: new_order = one creation step (NO1) followed by one step
// per orderline (NO2); its partial execution falsifies I1^{o} for its own
// order only. bill is a single step requiring I1^{o} as precondition. The
// interference table, derived from the step/assertion specs, encodes
// exactly the paper's analysis: instances of new_order interleave
// arbitrarily; bill cannot be interleaved between the steps of a new_order
// acting on the same order.

#ifndef ACCDB_ORDERPROC_ORDER_SYSTEM_H_
#define ACCDB_ORDERPROC_ORDER_SYSTEM_H_

#include <memory>

#include "acc/catalog.h"
#include "acc/interference.h"
#include "acc/spec.h"
#include "storage/database.h"

namespace accdb::orderproc {

struct OrderSystem {
  // Creates the schema in `db` and registers the design-time analysis
  // products (step types, prefixes, assertions, specs, and the interference
  // table derived from them).
  explicit OrderSystem(storage::Database* db);

  storage::Database* db;

  // Tables.
  storage::Table* orders;
  storage::Table* stock;
  storage::Table* prices;
  storage::Table* orderlines;
  storage::Table* order_counter;  // Variable current_order_number.

  // Column indexes (orders).
  int o_order_id, o_customer_id, o_num_items, o_price;
  // stock.
  int s_item_id, s_level;
  // prices.
  int p_item_id, p_price;
  // orderlines.
  int ol_order_id, ol_item_id, ol_ordered, ol_filled;

  // Design-time analysis.
  acc::Catalog catalog;
  // Derived from `specs` at construction (acc::spec::DeriveInterferenceTable;
  // pinned by tests/golden/interference_orderproc.md).
  acc::InterferenceTable interference;
  // Machine-checkable footprints: the one source of the interference table
  // (DESIGN.md §14). Also carries the runtime checkers for
  // EngineConfig::audit_assertions.
  acc::spec::SpecRegistry specs;

  // Step types.
  lock::ActorId step_no_create;     // NO1: counter, insert into orders.
  lock::ActorId step_no_orderline;  // NO2: per-item stock/orderline.
  lock::ActorId step_no_compensate;
  lock::ActorId step_bill;

  // Prefixes.
  lock::ActorId prefix_no_empty;    // new_order, nothing executed.
  lock::ActorId prefix_no_partial;  // new_order, steps 1..j done, j >= 1.
  lock::ActorId prefix_bill_empty;

  // Assertions.
  lock::AssertionId assert_no_loop;  // Loop invariant, keys {order_id}.
  lock::AssertionId assert_i1;       // I1^{order_id}, keys {order_id}.

  // Populates stock/prices with item ids [1, item_count] at the given level
  // and unit price cents.
  void LoadItems(int64_t item_count, int64_t stock_level, int64_t price_cents);

  // Shared body of the runtime checkers: order `order_id` exists and its
  // orderline count is <= (or exactly ==, for I1) num_distinct_items.
  // Latched Table reads only.
  acc::AuditVerdict CheckOrderLines(int64_t order_id, bool exact,
                                    std::string* detail) const;

  // Checks I1 over the whole database plus referential integrity of
  // orderlines; true iff consistent. Used by tests and examples
  // (offline — no locks). When `violation` is non-null, the first
  // violation found is described there.
  bool CheckConsistency(std::string* violation = nullptr) const;
};

}  // namespace accdb::orderproc

#endif  // ACCDB_ORDERPROC_ORDER_SYSTEM_H_
