#include "orderproc/order_system.h"

#include <cassert>
#include <map>

#include "acc/spec_derive.h"
#include "common/string_util.h"

namespace accdb::orderproc {

using acc::AuditVerdict;
using acc::spec::AssertionSpec;
using acc::spec::kExistence;
using acc::spec::PrefixSpec;
using acc::spec::ReadAccess;
using acc::spec::StepSpec;
using acc::spec::WriteAccess;
using acc::spec::WriteKind;
using acc::spec::WriteScope;
using storage::ColumnType;
using storage::Schema;
using storage::Value;

OrderSystem::OrderSystem(storage::Database* db_in) : db(db_in) {
  // --- Schema ---
  Schema orders_schema;
  orders_schema.columns = {{"order_id", ColumnType::kInt64},
                           {"customer_id", ColumnType::kInt64},
                           {"num_distinct_items", ColumnType::kInt64},
                           {"price", ColumnType::kMoney}};
  orders_schema.key_columns = {0};
  orders = db->CreateTable("orders", orders_schema);
  o_order_id = 0;
  o_customer_id = 1;
  o_num_items = 2;
  o_price = 3;

  Schema stock_schema;
  stock_schema.columns = {{"item_id", ColumnType::kInt64},
                          {"s_level", ColumnType::kInt64}};
  stock_schema.key_columns = {0};
  stock = db->CreateTable("stock", stock_schema);
  s_item_id = 0;
  s_level = 1;

  Schema prices_schema;
  prices_schema.columns = {{"item_id", ColumnType::kInt64},
                           {"price", ColumnType::kMoney}};
  prices_schema.key_columns = {0};
  prices = db->CreateTable("prices", prices_schema);
  p_item_id = 0;
  p_price = 1;

  Schema orderlines_schema;
  orderlines_schema.columns = {{"order_id", ColumnType::kInt64},
                               {"item_id", ColumnType::kInt64},
                               {"ordered", ColumnType::kInt64},
                               {"filled", ColumnType::kInt64}};
  orderlines_schema.key_columns = {0, 1};
  orderlines = db->CreateTable("orderlines", orderlines_schema);
  ol_order_id = 0;
  ol_item_id = 1;
  ol_ordered = 2;
  ol_filled = 3;

  order_counter = db->CreateVariable("current_order_number", 1);

  // --- Design-time analysis products ---
  step_no_create = catalog.RegisterStepType("new_order.create");
  step_no_orderline = catalog.RegisterStepType("new_order.orderline");
  step_no_compensate = catalog.RegisterStepType("new_order.compensate");
  step_bill = catalog.RegisterStepType("bill.run");

  prefix_no_empty = catalog.RegisterPrefix("new_order.prefix.empty");
  prefix_no_partial = catalog.RegisterPrefix("new_order.prefix.partial");
  prefix_bill_empty = catalog.RegisterPrefix("bill.prefix.empty");

  assert_no_loop = catalog.RegisterAssertion("new_order.loop_invariant", 1);
  assert_i1 = catalog.RegisterAssertion("I1", 1);

  // --- Step/assertion specs (DESIGN.md §14) ---
  //
  // The machine-checkable form of §4's analysis, from which the constructor
  // derives the interference table. "In the proof (3) of new_order, no
  // inter-step assertion is interfered with by any step of another instance
  // of new_order": each step touches only the order it created itself, and
  // order ids are unique.
  {
    // Loop invariant of a new_order mid-flight (keys {o}): "my order row
    // exists with num_distinct_items = N, and the orderlines inserted so
    // far (<= N) each have filled <= ordered".
    AssertionSpec s;
    s.decl = assert_no_loop;
    s.key_dims = {"o"};
    s.footprint = {
        ReadAccess{orders->id(), {kExistence, o_num_items}, {0}, {}},
        ReadAccess{orderlines->id(),
                   {kExistence, ol_ordered, ol_filled},
                   {0},
                   {}},
    };
    s.checker = [this](const std::vector<int64_t>& keys,
                       std::string* detail) -> AuditVerdict {
      // Announced with no keys before NO1 allocates the order id.
      if (keys.empty()) return AuditVerdict::kNotChecked;
      return CheckOrderLines(keys[0], /*exact=*/false, detail);
    };
    specs.DeclareAssertion(std::move(s));
  }
  {
    // I1^{o} (keys {o}): the orderlines count equals num_distinct_items.
    AssertionSpec s;
    s.decl = assert_i1;
    s.key_dims = {"o"};
    s.footprint = {
        ReadAccess{orders->id(), {kExistence, o_num_items}, {0}, {}},
        ReadAccess{orderlines->id(), {kExistence}, {0}, {}},
    };
    s.checker = [this](const std::vector<int64_t>& keys,
                       std::string* detail) -> AuditVerdict {
      if (keys.empty()) return AuditVerdict::kNotChecked;
      return CheckOrderLines(keys[0], /*exact=*/true, detail);
    };
    specs.DeclareAssertion(std::move(s));
  }
  {
    // NO1: counter increment (commutative) + insert of a FRESH order — the
    // "order ids are unique" argument, as provenance. Both writes must be
    // discharged outright: NO1's discriminators are unknown when it starts
    // (no key dims), and the counter row it writes is shared by every
    // new_order, so any charged overlap would derive kAlways. Its completion
    // leaves I1 falsified for the new order until the last NO2 runs.
    StepSpec s;
    s.actor = step_no_create;
    s.key_dims = {};
    s.writes = {
        WriteAccess{order_counter->id(),
                    WriteKind::kMutate,
                    {0},
                    {},
                    WriteScope::kShared,
                    /*commutative=*/true},
        WriteAccess{orders->id(), WriteKind::kInsert, {}, {},
                    WriteScope::kFresh},
    };
    s.breaks = {assert_i1};
    specs.DeclareStep(std::move(s));
  }
  {
    // NO2 {o, item}: stock decrement (commutes with the invariant's
    // filled <= ordered bound) + orderline insert pinned by the order id.
    // The paper charges the insert as same-key interference (rather than
    // leaning on an ownership argument): it perturbs exactly the
    // assertions over order o. The one-level ACC compares the run-time
    // keys; the two-level design of [5] cannot and must conservatively
    // assume interference — the false-conflict ablation turns exactly this
    // refinement off.
    StepSpec s;
    s.actor = step_no_orderline;
    s.key_dims = {"o", "item"};
    s.writes = {
        WriteAccess{stock->id(),
                    WriteKind::kMutate,
                    {s_level},
                    {},
                    WriteScope::kShared,
                    /*commutative=*/true},
        WriteAccess{orderlines->id(), WriteKind::kInsert, {}, {0},
                    WriteScope::kShared},
    };
    specs.DeclareStep(std::move(s));
  }
  {
    // Compensation {o}: removes order o and its lines, returns stock —
    // same-key interference with both assertions over order o, like NO2.
    StepSpec s;
    s.actor = step_no_compensate;
    s.key_dims = {"o"};
    s.writes = {
        WriteAccess{orderlines->id(), WriteKind::kDelete, {}, {0},
                    WriteScope::kShared},
        WriteAccess{orders->id(), WriteKind::kDelete, {}, {0},
                    WriteScope::kShared},
        WriteAccess{stock->id(),
                    WriteKind::kMutate,
                    {s_level},
                    {},
                    WriteScope::kShared,
                    /*commutative=*/true},
    };
    specs.DeclareStep(std::move(s));
  }
  {
    // bill {o}: writes only orders.price, which no assertion reads;
    // same-order bills serialize on conventional row locks anyway.
    StepSpec s;
    s.actor = step_bill;
    s.key_dims = {"o"};
    s.writes = {WriteAccess{orders->id(), WriteKind::kMutate, {o_price}, {0},
                            WriteScope::kShared}};
    specs.DeclareStep(std::move(s));
  }
  // Prefixes: empty prefixes interfere with nothing. The one load-bearing
  // conditional entry: a *partial* new_order has falsified I1 (NO1's
  // `breaks`) for its own order, so a transaction initiating with
  // pre = I1^{o} (bill) must wait iff it names the same order.
  specs.DeclarePrefix(PrefixSpec{prefix_no_empty, {}});
  specs.DeclarePrefix(
      PrefixSpec{prefix_no_partial, {step_no_create, step_no_orderline}});
  specs.DeclarePrefix(PrefixSpec{prefix_bill_empty, {}});

  interference = acc::spec::DeriveInterferenceTable(specs, catalog);
}

AuditVerdict OrderSystem::CheckOrderLines(int64_t order_id, bool exact,
                                          std::string* detail) const {
  auto fail = [detail](std::string message) {
    if (detail != nullptr) *detail = std::move(message);
    return AuditVerdict::kViolated;
  };
  std::optional<storage::RowId> order_row =
      orders->LookupPk(storage::Key(order_id));
  if (!order_row.has_value()) {
    return fail(StrFormat("orderproc: order %lld missing",
                          static_cast<long long>(order_id)));
  }
  std::optional<storage::Row> order = orders->GetCopy(*order_row);
  if (!order.has_value()) {
    return fail("orderproc: order row vanished under audit");
  }
  int64_t num_items = (*order)[o_num_items].AsInt64();
  int64_t lines = static_cast<int64_t>(
      orderlines->ScanPkPrefix(storage::Key(order_id)).size());
  bool ok = exact ? lines == num_items : lines <= num_items;
  if (!ok) {
    return fail(StrFormat(
        "orderproc: order %lld has %lld lines vs num_distinct_items %lld",
        static_cast<long long>(order_id), static_cast<long long>(lines),
        static_cast<long long>(num_items)));
  }
  return AuditVerdict::kHolds;
}

void OrderSystem::LoadItems(int64_t item_count, int64_t stock_level,
                            int64_t price_cents) {
  for (int64_t item = 1; item <= item_count; ++item) {
    auto s = stock->Insert({Value(item), Value(stock_level)});
    assert(s.ok());
    (void)s;
    auto p = prices->Insert({Value(item), Value(Money::FromCents(price_cents))});
    assert(p.ok());
    (void)p;
  }
}

bool OrderSystem::CheckConsistency(std::string* violation) const {
  auto fail = [violation](std::string message) {
    if (violation != nullptr) *violation = std::move(message);
    return false;
  };
  // Count orderlines per order.
  std::map<int64_t, int64_t> line_counts;
  for (storage::RowId id : orderlines->ScanAll()) {
    const storage::Row& row = *orderlines->Get(id);
    int64_t order_id = row[ol_order_id].AsInt64();
    ++line_counts[order_id];
    // Referential integrity: the order and the item must exist.
    if (!orders->LookupPk(storage::Key(order_id)).has_value()) {
      return fail(StrFormat("orderline for missing order %lld",
                            static_cast<long long>(order_id)));
    }
    if (!stock->LookupPk(storage::Key(row[ol_item_id].AsInt64()))
             .has_value()) {
      return fail("orderline for missing item");
    }
  }
  // I1: per-order line count matches num_distinct_items.
  for (storage::RowId id : orders->ScanAll()) {
    const storage::Row& row = *orders->Get(id);
    int64_t order_id = row[o_order_id].AsInt64();
    if (line_counts[order_id] != row[o_num_items].AsInt64()) {
      return fail(StrFormat("I1 violated for order %lld: %lld lines vs "
                            "num_distinct_items %lld",
                            static_cast<long long>(order_id),
                            static_cast<long long>(line_counts[order_id]),
                            static_cast<long long>(
                                row[o_num_items].AsInt64())));
    }
  }
  // Every stock level must be non-negative.
  for (storage::RowId id : stock->ScanAll()) {
    if ((*stock->Get(id))[s_level].AsInt64() < 0) {
      return fail("negative stock level");
    }
  }
  return true;
}

}  // namespace accdb::orderproc
