#include "tpcc/tpcc_db.h"

#include "acc/spec_derive.h"
#include "common/string_util.h"

namespace accdb::tpcc {

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

namespace {

int Col(Schema& schema, const char* name, ColumnType type) {
  schema.columns.push_back({name, type});
  return static_cast<int>(schema.columns.size() - 1);
}

}  // namespace

TpccDb::TpccDb(storage::Database* db_in, size_t warehouse_shards)
    : db(db_in) {
  if (warehouse_shards < 1) warehouse_shards = 1;
  // --- warehouse ---
  {
    Schema s;
    w_id = Col(s, "w_id", ColumnType::kInt64);
    w_name = Col(s, "w_name", ColumnType::kString);
    w_tax = Col(s, "w_tax", ColumnType::kDouble);
    w_ytd = Col(s, "w_ytd", ColumnType::kMoney);
    s.key_columns = {w_id};
    warehouse = db->CreateTable("warehouse", std::move(s), warehouse_shards);
  }
  // --- district ---
  {
    Schema s;
    d_w_id = Col(s, "d_w_id", ColumnType::kInt64);
    d_id = Col(s, "d_id", ColumnType::kInt64);
    d_name = Col(s, "d_name", ColumnType::kString);
    d_tax = Col(s, "d_tax", ColumnType::kDouble);
    d_ytd = Col(s, "d_ytd", ColumnType::kMoney);
    d_next_o_id = Col(s, "d_next_o_id", ColumnType::kInt64);
    s.key_columns = {d_w_id, d_id};
    district = db->CreateTable("district", std::move(s), warehouse_shards);
  }
  // --- customer ---
  {
    Schema s;
    c_w_id = Col(s, "c_w_id", ColumnType::kInt64);
    c_d_id = Col(s, "c_d_id", ColumnType::kInt64);
    c_id = Col(s, "c_id", ColumnType::kInt64);
    c_first = Col(s, "c_first", ColumnType::kString);
    c_last = Col(s, "c_last", ColumnType::kString);
    c_credit = Col(s, "c_credit", ColumnType::kString);
    c_discount = Col(s, "c_discount", ColumnType::kDouble);
    c_balance = Col(s, "c_balance", ColumnType::kMoney);
    c_ytd_payment = Col(s, "c_ytd_payment", ColumnType::kMoney);
    c_payment_cnt = Col(s, "c_payment_cnt", ColumnType::kInt64);
    c_delivery_cnt = Col(s, "c_delivery_cnt", ColumnType::kInt64);
    c_data = Col(s, "c_data", ColumnType::kString);
    s.key_columns = {c_w_id, c_d_id, c_id};
    customer = db->CreateTable("customer", std::move(s), warehouse_shards);
    customer_by_last =
        customer->AddIndex("customer_by_last", {c_w_id, c_d_id, c_last});
  }
  // --- history ---
  {
    Schema s;
    h_c_w_id = Col(s, "h_c_w_id", ColumnType::kInt64);
    h_c_d_id = Col(s, "h_c_d_id", ColumnType::kInt64);
    h_c_id = Col(s, "h_c_id", ColumnType::kInt64);
    h_seq = Col(s, "h_seq", ColumnType::kInt64);
    h_d_id = Col(s, "h_d_id", ColumnType::kInt64);
    h_w_id = Col(s, "h_w_id", ColumnType::kInt64);
    h_amount = Col(s, "h_amount", ColumnType::kMoney);
    s.key_columns = {h_c_w_id, h_c_d_id, h_c_id, h_seq};
    history = db->CreateTable("history", std::move(s), warehouse_shards);
  }
  // --- new_order ---
  {
    Schema s;
    no_w_id = Col(s, "no_w_id", ColumnType::kInt64);
    no_d_id = Col(s, "no_d_id", ColumnType::kInt64);
    no_o_id = Col(s, "no_o_id", ColumnType::kInt64);
    s.key_columns = {no_w_id, no_d_id, no_o_id};
    new_order = db->CreateTable("new_order", std::move(s), warehouse_shards);
  }
  // --- orders ---
  {
    Schema s;
    o_w_id = Col(s, "o_w_id", ColumnType::kInt64);
    o_d_id = Col(s, "o_d_id", ColumnType::kInt64);
    o_id = Col(s, "o_id", ColumnType::kInt64);
    o_c_id = Col(s, "o_c_id", ColumnType::kInt64);
    o_entry_d = Col(s, "o_entry_d", ColumnType::kInt64);
    o_carrier_id = Col(s, "o_carrier_id", ColumnType::kInt64);
    o_ol_cnt = Col(s, "o_ol_cnt", ColumnType::kInt64);
    o_all_local = Col(s, "o_all_local", ColumnType::kInt64);
    s.key_columns = {o_w_id, o_d_id, o_id};
    orders = db->CreateTable("orders", std::move(s), warehouse_shards);
    orders_by_customer =
        orders->AddIndex("orders_by_customer", {o_w_id, o_d_id, o_c_id, o_id});
  }
  // --- order_line ---
  {
    Schema s;
    ol_w_id = Col(s, "ol_w_id", ColumnType::kInt64);
    ol_d_id = Col(s, "ol_d_id", ColumnType::kInt64);
    ol_o_id = Col(s, "ol_o_id", ColumnType::kInt64);
    ol_number = Col(s, "ol_number", ColumnType::kInt64);
    ol_i_id = Col(s, "ol_i_id", ColumnType::kInt64);
    ol_supply_w_id = Col(s, "ol_supply_w_id", ColumnType::kInt64);
    ol_delivery_d = Col(s, "ol_delivery_d", ColumnType::kInt64);
    ol_quantity = Col(s, "ol_quantity", ColumnType::kInt64);
    ol_amount = Col(s, "ol_amount", ColumnType::kMoney);
    s.key_columns = {ol_w_id, ol_d_id, ol_o_id, ol_number};
    order_line = db->CreateTable("order_line", std::move(s), warehouse_shards);
  }
  // --- item ---
  {
    Schema s;
    i_id = Col(s, "i_id", ColumnType::kInt64);
    i_im_id = Col(s, "i_im_id", ColumnType::kInt64);
    i_name = Col(s, "i_name", ColumnType::kString);
    i_price = Col(s, "i_price", ColumnType::kMoney);
    i_data = Col(s, "i_data", ColumnType::kString);
    s.key_columns = {i_id};
    item = db->CreateTable("item", std::move(s));
  }
  // --- stock ---
  {
    Schema s;
    s_w_id = Col(s, "s_w_id", ColumnType::kInt64);
    s_i_id = Col(s, "s_i_id", ColumnType::kInt64);
    s_quantity = Col(s, "s_quantity", ColumnType::kInt64);
    s_ytd = Col(s, "s_ytd", ColumnType::kInt64);
    s_order_cnt = Col(s, "s_order_cnt", ColumnType::kInt64);
    s_remote_cnt = Col(s, "s_remote_cnt", ColumnType::kInt64);
    s_data = Col(s, "s_data", ColumnType::kString);
    s.key_columns = {s_w_id, s_i_id};
    stock = db->CreateTable("stock", std::move(s), warehouse_shards);
  }

  // --- Step types, prefixes, assertions ---
  step_no1 = catalog.RegisterStepType("tpcc.no1");
  step_no2 = catalog.RegisterStepType("tpcc.no2");
  step_no3 = catalog.RegisterStepType("tpcc.no3");
  step_p1 = catalog.RegisterStepType("tpcc.p1");
  step_p2 = catalog.RegisterStepType("tpcc.p2");
  step_p3 = catalog.RegisterStepType("tpcc.p3");
  step_d1 = catalog.RegisterStepType("tpcc.d1");
  step_d2 = catalog.RegisterStepType("tpcc.d2");
  step_d3 = catalog.RegisterStepType("tpcc.d3");
  step_os1 = catalog.RegisterStepType("tpcc.os1");
  step_sl1 = catalog.RegisterStepType("tpcc.sl1");
  step_cs_no = catalog.RegisterStepType("tpcc.cs_no");
  step_cs_p = catalog.RegisterStepType("tpcc.cs_p");
  step_cs_d = catalog.RegisterStepType("tpcc.cs_d");

  prefix_empty = catalog.RegisterPrefix("tpcc.prefix.empty");
  prefix_no_partial = catalog.RegisterPrefix("tpcc.prefix.no_partial");
  prefix_p_partial = catalog.RegisterPrefix("tpcc.prefix.p_partial");
  prefix_d_partial = catalog.RegisterPrefix("tpcc.prefix.d_partial");

  assert_no_loop = catalog.RegisterAssertion("tpcc.no.loop", 3);
  assert_order_complete = catalog.RegisterAssertion("tpcc.order_complete", 3);
  // Arity 2: P1/P2 announce instances keyed {w, d} (the customer is only
  // resolved in P3, after the last announcement).
  assert_pay = catalog.RegisterAssertion("tpcc.pay", 2);
  assert_dlv = catalog.RegisterAssertion("tpcc.dlv", 1);

  // --- Step/assertion specs (DESIGN.md §14) ---
  //
  // The design-time analysis, as data: footprints + provenance and
  // commutativity facts from which spec_derive computes the interference
  // table the engine runs on (the constructor's last statement). Every
  // step, prefix and assertion in the catalog has a spec, so every analyzed
  // pair gets a derived entry; anything else (legacy/ad-hoc writers) hits
  // the table's conservative kAlways default. The base fact the specs
  // encode: TPC-C steps touch disjoint logical state — their own order,
  // commuting ytd/balance increments, the order-number counter which only
  // grows — so most entries derive kNone. That is what lets new-order and
  // payment interleave in the same district (the d_next_o_id vs d_ytd
  // field-level insight).

  // Assertion footprints. Key dims are positional; a ReadAccess pins a
  // position when differing values there prove the predicate ranges over
  // disjoint rows of that table.
  {
    // Loop invariant of a new-order under construction (keys {w, d, o}):
    // "my ORDER row exists undelivered (carrier unset, lines unstamped), at
    // most o_ol_cnt ORDER-LINE rows exist so far, and o < d_next_o_id". The
    // counter comparison survives further increments (commute-tolerant).
    // Deliberately NOT claimed: survival of the NEW-ORDER row — a
    // same-district D2 may pop it early and then block on the orders row
    // (the o_carrier_id read below) until this transaction completes.
    // Known gap: if this new-order then rolls back, the early pop plus
    // CompensateOrder's unlocked NEW-ORDER LookupPk probe is the hot-regime
    // compensation race (ROADMAP.md) — the compensator skips the popped row,
    // D2 fails with ABORTED:orders and its undo leaves an orphan NEW-ORDER.
    // Reproducer: `perfbench_driver --kind=embedded --mode=acc
    // --warehouses=1 --threads=4 --cost-scale=1 --seconds=2 --seed=7004
    // --audit`.
    AssertionSpec s;
    s.decl = assert_no_loop;
    s.key_dims = {"w", "d", "o"};
    s.footprint = {
        ReadAccess{orders->id(),
                   {kExistence, o_ol_cnt, o_carrier_id},
                   {0, 1, 2},
                   {}},
        ReadAccess{order_line->id(),
                   {kExistence, ol_delivery_d},
                   {0, 1, 2},
                   {}},
        ReadAccess{district->id(),
                   {d_next_o_id},
                   {0, 1},
                   /*commute_tolerant=*/{d_next_o_id}},
    };
    s.checker = [this](const std::vector<int64_t>& keys,
                       std::string* detail) -> AuditVerdict {
      // Announced as {w, d} before NO1 allocates the order id; only the
      // refined {w, d, o} instance names checkable rows.
      if (keys.size() < 3) return AuditVerdict::kNotChecked;
      return CheckOrderRows(keys[0], keys[1], keys[2],
                            /*require_undelivered=*/true,
                            /*exact_line_count=*/false, detail);
    };
    specs.DeclareAssertion(std::move(s));
  }
  {
    // Completeness conjunct of order o (keys {w, d, o}): all o_ol_cnt lines
    // exist — and, while a new-order holds it, the order has not been
    // consumed by delivery (carrier/delivery-date untouched): §3.4 forbids
    // steps whose surviving effects consume state a compensation would
    // reverse, which is why the footprint reads o_carrier_id and
    // ol_delivery_d even though the count alone does not.
    AssertionSpec s;
    s.decl = assert_order_complete;
    s.key_dims = {"w", "d", "o"};
    s.footprint = {
        ReadAccess{orders->id(),
                   {kExistence, o_ol_cnt, o_carrier_id},
                   {0, 1, 2},
                   {}},
        ReadAccess{order_line->id(),
                   {kExistence, ol_delivery_d},
                   {0, 1, 2},
                   {}},
    };
    s.checker = [this](const std::vector<int64_t>& keys,
                       std::string* detail) -> AuditVerdict {
      if (keys.size() < 3) return AuditVerdict::kNotChecked;
      // Only the count is audited: a delivered order still satisfies the
      // conjunct order-status acquires (OS1 legitimately reads delivered
      // orders); the undelivered-ness half is private to the new-order
      // holder, whose own steps never set the carrier.
      return CheckOrderRows(keys[0], keys[1], keys[2],
                            /*require_undelivered=*/false,
                            /*exact_line_count=*/true, detail);
    };
    specs.DeclareAssertion(std::move(s));
  }
  {
    // Payment mid-flight (keys {w, d}): "w_ytd / d_ytd include my
    // increments so far" — constrained only up to commutative deltas, so
    // concurrent payments never falsify it. No runtime checker: the
    // predicate depends on the holder's private increment history.
    AssertionSpec s;
    s.decl = assert_pay;
    s.key_dims = {"w", "d"};
    s.footprint = {
        ReadAccess{warehouse->id(), {w_ytd}, {0}, /*commute_tolerant=*/{w_ytd}},
        ReadAccess{district->id(),
                   {d_ytd},
                   {0, 1},
                   /*commute_tolerant=*/{d_ytd}},
    };
    specs.DeclareAssertion(std::move(s));
  }
  {
    // Delivery progress (keys {w}): bookkeeping private to the holder (which
    // districts of warehouse w are done); reads nothing another actor
    // writes. No runtime checker for the same reason.
    AssertionSpec s;
    s.decl = assert_dlv;
    s.key_dims = {"w"};
    specs.DeclareAssertion(std::move(s));
  }

  // Step footprints.
  {
    // NO1 {w, d}: bump d_next_o_id (commutative), insert ORDER + NEW-ORDER
    // under the freshly allocated id (no existing instance can name it).
    // The undecomposed (kSingle) granularity runs the whole transaction
    // under this step type, so the stock update and ORDER-LINE inserts are
    // included — both discharge the same way (commutative / fresh). Its
    // completion leaves the new order incomplete until the last NO2:
    // breaks the completeness conjunct.
    StepSpec s;
    s.actor = step_no1;
    s.key_dims = {"w", "d"};
    s.writes = {
        WriteAccess{district->id(),
                    WriteKind::kMutate,
                    {d_next_o_id},
                    {0, 1},
                    WriteScope::kShared,
                    /*commutative=*/true},
        WriteAccess{orders->id(), WriteKind::kInsert, {}, {0, 1},
                    WriteScope::kFresh},
        WriteAccess{new_order->id(), WriteKind::kInsert, {}, {0, 1},
                    WriteScope::kFresh},
        WriteAccess{order_line->id(), WriteKind::kInsert, {}, {0, 1},
                    WriteScope::kFresh},
        WriteAccess{stock->id(),
                    WriteKind::kMutate,
                    {s_quantity, s_ytd, s_order_cnt, s_remote_cnt},
                    {0},
                    WriteScope::kShared,
                    /*commutative=*/true},
    };
    s.breaks = {assert_order_complete};
    specs.DeclareStep(std::move(s));
  }
  {
    // NO2 {w, d, o}: stock update (commutative counters) + ORDER-LINE
    // insert into the transaction's OWN order — own-state effects are the
    // prefix entry's burden (prefix_no_partial breaks the completeness
    // conjunct), not this step's.
    StepSpec s;
    s.actor = step_no2;
    s.key_dims = {"w", "d", "o"};
    s.writes = {
        WriteAccess{stock->id(),
                    WriteKind::kMutate,
                    {s_quantity, s_ytd, s_order_cnt, s_remote_cnt},
                    {0},
                    WriteScope::kShared,
                    /*commutative=*/true},
        WriteAccess{order_line->id(), WriteKind::kInsert, {}, {0, 1, 2},
                    WriteScope::kOwn},
    };
    specs.DeclareStep(std::move(s));
  }
  {
    // NO3 {w, d, o}: reads customer, computes the total client-side.
    StepSpec s;
    s.actor = step_no3;
    s.key_dims = {"w", "d", "o"};
    specs.DeclareStep(std::move(s));
  }
  {
    // P1 {w}: w_ytd increment.
    StepSpec s;
    s.actor = step_p1;
    s.key_dims = {"w"};
    s.writes = {WriteAccess{warehouse->id(),
                            WriteKind::kMutate,
                            {w_ytd},
                            {0},
                            WriteScope::kShared,
                            /*commutative=*/true}};
    specs.DeclareStep(std::move(s));
  }
  {
    // P2 {w, d}: d_ytd increment.
    StepSpec s;
    s.actor = step_p2;
    s.key_dims = {"w", "d"};
    s.writes = {WriteAccess{district->id(),
                            WriteKind::kMutate,
                            {d_ytd},
                            {0, 1},
                            WriteScope::kShared,
                            /*commutative=*/true}};
    specs.DeclareStep(std::move(s));
  }
  {
    // P3 {w, d, c}: customer balance counters (commutative) + a HISTORY row
    // under a fresh (w, d, c, seq) key.
    StepSpec s;
    s.actor = step_p3;
    s.key_dims = {"w", "d", "c"};
    s.writes = {
        WriteAccess{customer->id(),
                    WriteKind::kMutate,
                    {c_balance, c_ytd_payment, c_payment_cnt, c_data},
                    {0, 1, 2},
                    WriteScope::kShared,
                    /*commutative=*/true},
        WriteAccess{history->id(), WriteKind::kInsert, {}, {0, 1, 2},
                    WriteScope::kFresh},
    };
    specs.DeclareStep(std::move(s));
  }
  {
    // D1 {w}: delimits the batch; writes nothing.
    StepSpec s;
    s.actor = step_d1;
    s.key_dims = {"w"};
    specs.DeclareStep(std::move(s));
  }
  {
    // D2 {w, d}: pops the district's oldest NEW-ORDER row, stamps the order
    // and its lines, credits the customer. The delete and the stamps hit
    // shared rows another transaction's assertion may range over — the rows
    // are pinned by {w, d}, so interference refines to same-district keys.
    // The stamps invalidate the construction invariant of the order they
    // deliver, and they consume state that order's compensation would
    // reverse, so they are charged against its completeness assertion too
    // (order_complete reads o_carrier_id / ol_delivery_d): "the need for
    // compensation limits step decomposition" — results a compensating step
    // might undo must not be consumed by steps whose effects would survive
    // the compensation.
    StepSpec s;
    s.actor = step_d2;
    s.key_dims = {"w", "d"};
    s.writes = {
        WriteAccess{new_order->id(), WriteKind::kDelete, {}, {0, 1},
                    WriteScope::kShared},
        WriteAccess{orders->id(), WriteKind::kMutate, {o_carrier_id}, {0, 1},
                    WriteScope::kShared},
        WriteAccess{order_line->id(),
                    WriteKind::kMutate,
                    {ol_delivery_d},
                    {0, 1},
                    WriteScope::kShared},
        WriteAccess{customer->id(),
                    WriteKind::kMutate,
                    {c_balance, c_delivery_cnt},
                    {0, 1},
                    WriteScope::kShared,
                    /*commutative=*/true},
    };
    specs.DeclareStep(std::move(s));
  }
  {
    // D3 {w}: reports skipped districts; writes nothing.
    StepSpec s;
    s.actor = step_d3;
    s.key_dims = {"w"};
    specs.DeclareStep(std::move(s));
  }
  {
    // OS1 / SL1: read-only.
    StepSpec s;
    s.actor = step_os1;
    s.key_dims = {"w", "d"};
    specs.DeclareStep(std::move(s));
  }
  {
    StepSpec s;
    s.actor = step_sl1;
    s.key_dims = {"w", "d"};
    specs.DeclareStep(std::move(s));
  }
  {
    // CS_NO {w, d, o}: removes the partially built order — deletes pinned
    // by the full key, stock counters reversed commutatively. The deletes
    // invalidate both order assertions, for the same order only.
    StepSpec s;
    s.actor = step_cs_no;
    s.key_dims = {"w", "d", "o"};
    s.writes = {
        WriteAccess{order_line->id(), WriteKind::kDelete, {}, {0, 1, 2},
                    WriteScope::kShared},
        WriteAccess{new_order->id(), WriteKind::kDelete, {}, {0, 1, 2},
                    WriteScope::kShared},
        WriteAccess{orders->id(), WriteKind::kDelete, {}, {0, 1, 2},
                    WriteScope::kShared},
        WriteAccess{stock->id(),
                    WriteKind::kMutate,
                    {s_quantity, s_ytd, s_order_cnt, s_remote_cnt},
                    {0},
                    WriteScope::kShared,
                    /*commutative=*/true},
    };
    specs.DeclareStep(std::move(s));
  }
  {
    // CS_P {w, d, c}: reverses the ytd/balance increments (commutative).
    StepSpec s;
    s.actor = step_cs_p;
    s.key_dims = {"w", "d", "c"};
    s.writes = {
        WriteAccess{warehouse->id(),
                    WriteKind::kMutate,
                    {w_ytd},
                    {0},
                    WriteScope::kShared,
                    /*commutative=*/true},
        WriteAccess{district->id(),
                    WriteKind::kMutate,
                    {d_ytd},
                    {0, 1},
                    WriteScope::kShared,
                    /*commutative=*/true},
        WriteAccess{customer->id(),
                    WriteKind::kMutate,
                    {c_balance, c_ytd_payment, c_payment_cnt},
                    {0, 1, 2},
                    WriteScope::kShared,
                    /*commutative=*/true},
    };
    specs.DeclareStep(std::move(s));
  }
  {
    // CS_D {w}: restores the NEW-ORDER rows its own D2 steps consumed and
    // clears the stamps they set — state the forward steps took under
    // their locks, now protected by kComp locks: own-transaction
    // provenance, charged to D2's entries rather than duplicated here.
    StepSpec s;
    s.actor = step_cs_d;
    s.key_dims = {"w"};
    s.writes = {
        WriteAccess{new_order->id(), WriteKind::kInsert, {}, {0},
                    WriteScope::kOwn},
        WriteAccess{orders->id(), WriteKind::kMutate, {o_carrier_id}, {0},
                    WriteScope::kOwn},
        WriteAccess{order_line->id(),
                    WriteKind::kMutate,
                    {ol_delivery_d},
                    {0},
                    WriteScope::kOwn},
        WriteAccess{customer->id(),
                    WriteKind::kMutate,
                    {c_balance, c_delivery_cnt},
                    {0},
                    WriteScope::kShared,
                    /*commutative=*/true},
    };
    specs.DeclareStep(std::move(s));
  }

  // Prefixes: which forward steps may have completed within each. An empty
  // prefix has changed nothing. A partial new-order has falsified the
  // completeness conjunct for its own order (NO1's `breaks`) — the entry
  // that delays order-status, and any reader requiring the conjunct, on an
  // in-flight order. Partial payments/deliveries falsify only ytd-sum
  // conjuncts, which none of these assertions require.
  specs.DeclarePrefix(PrefixSpec{prefix_empty, {}});
  specs.DeclarePrefix(PrefixSpec{prefix_no_partial,
                                 {step_no1, step_no2, step_no3}});
  specs.DeclarePrefix(PrefixSpec{prefix_p_partial,
                                 {step_p1, step_p2, step_p3}});
  specs.DeclarePrefix(PrefixSpec{prefix_d_partial,
                                 {step_d1, step_d2, step_d3}});

  interference = acc::spec::DeriveInterferenceTable(specs, catalog);
}

AuditVerdict TpccDb::CheckOrderRows(int64_t w, int64_t d, int64_t o,
                                    bool require_undelivered,
                                    bool exact_line_count,
                                    std::string* detail) const {
  auto fail = [detail](std::string message) {
    if (detail != nullptr) *detail = std::move(message);
    return AuditVerdict::kViolated;
  };
  std::optional<storage::RowId> order_row =
      orders->LookupPk(storage::Key(w, d, o));
  if (!order_row.has_value()) {
    return fail(StrFormat("tpcc: order (%lld,%lld,%lld) missing",
                          static_cast<long long>(w),
                          static_cast<long long>(d),
                          static_cast<long long>(o)));
  }
  std::optional<storage::Row> order = orders->GetCopy(*order_row);
  if (!order.has_value()) {
    return fail("tpcc: order row vanished under audit");
  }
  int64_t ol_cnt = (*order)[o_ol_cnt].AsInt64();
  if (require_undelivered && (*order)[o_carrier_id].AsInt64() != 0) {
    return fail(StrFormat(
        "tpcc: order (%lld,%lld,%lld) delivered while under construction",
        static_cast<long long>(w), static_cast<long long>(d),
        static_cast<long long>(o)));
  }
  std::vector<storage::RowId> lines_rows =
      order_line->ScanPkPrefix(storage::Key(w, d, o));
  if (require_undelivered) {
    for (storage::RowId line_row : lines_rows) {
      std::optional<storage::Row> line = order_line->GetCopy(line_row);
      if (line.has_value() && (*line)[ol_delivery_d].AsInt64() != 0) {
        return fail(StrFormat(
            "tpcc: order (%lld,%lld,%lld) has a stamped line while under "
            "construction",
            static_cast<long long>(w), static_cast<long long>(d),
            static_cast<long long>(o)));
      }
    }
  }
  int64_t lines = static_cast<int64_t>(lines_rows.size());
  bool ok = exact_line_count ? lines == ol_cnt : lines <= ol_cnt;
  if (!ok) {
    return fail(StrFormat(
        "tpcc: order (%lld,%lld,%lld) has %lld lines vs o_ol_cnt %lld",
        static_cast<long long>(w), static_cast<long long>(d),
        static_cast<long long>(o), static_cast<long long>(lines),
        static_cast<long long>(ol_cnt)));
  }
  return AuditVerdict::kHolds;
}

lock::ItemId TpccDb::DistrictItem(int64_t w, int64_t d) const {
  auto row = district->LookupPk(storage::Key(w, d));
  return lock::ItemId::Row(district->id(), row.value_or(0));
}

lock::ItemId TpccDb::WarehouseItem(int64_t w) const {
  auto row = warehouse->LookupPk(storage::Key(w));
  return lock::ItemId::Row(warehouse->id(), row.value_or(0));
}

std::optional<lock::ItemId> TpccDb::OrderItem(int64_t w, int64_t d,
                                              int64_t o) const {
  auto row = orders->LookupPk(storage::Key(w, d, o));
  if (!row.has_value()) return std::nullopt;
  return lock::ItemId::Row(orders->id(), *row);
}

}  // namespace accdb::tpcc
