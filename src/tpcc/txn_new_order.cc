#include <algorithm>
#include <cassert>
#include <cinttypes>

#include "common/string_util.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {

using storage::Key;
using storage::Row;
using storage::Value;

NewOrderTxn::NewOrderTxn(TpccDb* db, NewOrderInput input,
                         double compute_seconds,
                         NewOrderGranularity granularity)
    : TpccTxn(db, compute_seconds),
      input_(std::move(input)),
      granularity_(granularity) {}

lock::ActorId NewOrderTxn::PrefixActor(int completed_steps) const {
  return completed_steps == 0 ? db_->prefix_empty : db_->prefix_no_partial;
}

lock::ActorId NewOrderTxn::CompensationStepType() const {
  return db_->step_cs_no;
}

std::vector<int64_t> NewOrderTxn::CompensationKeys() const {
  return {input_.w_id, input_.d_id, o_id_};
}

Status NewOrderTxn::Phase1(acc::TxnContext& c, double* w_tax, double* d_tax) {
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  const int64_t d = input_.d_id;
  const int64_t n_lines = static_cast<int64_t>(input_.lines.size());

  Think(c);
  ACCDB_ASSIGN_OR_RETURN(Row wh, c.ReadByKey(*db.warehouse, Key(w)));
  *w_tax = wh[db.w_tax].AsDouble();
  Think(c);
  storage::RowId dist_id = storage::kInvalidRowId;
  ACCDB_ASSIGN_OR_RETURN(Row dist, c.ReadByKey(*db.district, Key(w, d),
                                               /*for_update=*/true, &dist_id));
  *d_tax = dist[db.d_tax].AsDouble();
  int64_t o = dist[db.d_next_o_id].AsInt64();
  Think(c);
  ACCDB_RETURN_IF_ERROR(
      c.Update(*db.district, dist_id, {{db.d_next_o_id, Value(o + 1)}}));
  int64_t all_local = 1;
  for (const NewOrderInput::Line& line : input_.lines) {
    if (line.supply_w_id > 0 && line.supply_w_id != w) all_local = 0;
  }
  Think(c);
  ACCDB_ASSIGN_OR_RETURN(
      storage::RowId order_row,
      c.Insert(*db.orders,
               {Value(w), Value(d), Value(o), Value(input_.c_id),
                Value(int64_t{0}), Value(int64_t{0}), Value(n_lines),
                Value(all_local)}));
  Think(c);
  ACCDB_RETURN_IF_ERROR(
      c.Insert(*db.new_order, {Value(w), Value(d), Value(o)}).status());
  o_id_ = o;
  order_row_id_ = order_row;
  // The loop invariant names the fresh order; keep its row protected across
  // every subsequent instance.
  c.UpdateNextAssertion(acc::AssertionInstance{
      db.assert_no_loop,
      {w, d, o},
      {lock::ItemId::Row(db.orders->id(), order_row)}});
  return Status::Ok();
}

Status NewOrderTxn::PhaseLine(acc::TxnContext& c, size_t index, Money* sum) {
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  const int64_t d = input_.d_id;
  const NewOrderInput::Line& line = input_.lines[index];
  const bool last = (index + 1 == input_.lines.size());

  // Clause 2.4.1.5: 1% of new-orders use an unused item number on the final
  // line and must roll back.
  if (input_.rollback && last) {
    return Status::Aborted("unused item number");
  }
  // The supplying warehouse is usually local; ~1% remote at spec scale.
  const int64_t supply_w = line.supply_w_id > 0 ? line.supply_w_id : w;
  const bool remote = supply_w != w;

  Think(c);
  ACCDB_ASSIGN_OR_RETURN(Row item_row,
                         c.ReadByKey(*db.item, Key(line.item_id)));
  Money price = item_row[db.i_price].AsMoney();
  Think(c);
  storage::RowId stock_id = storage::kInvalidRowId;
  ACCDB_ASSIGN_OR_RETURN(Row stock_row,
                         c.ReadByKey(*db.stock, Key(supply_w, line.item_id),
                                     /*for_update=*/true, &stock_id));
  int64_t quantity = stock_row[db.s_quantity].AsInt64();
  int64_t new_quantity = quantity - line.quantity;
  if (new_quantity < 10) new_quantity += 91;
  Think(c);
  ACCDB_RETURN_IF_ERROR(c.Update(
      *db.stock, stock_id,
      {{db.s_quantity, Value(new_quantity)},
       {db.s_ytd, Value(stock_row[db.s_ytd].AsInt64() + line.quantity)},
       {db.s_order_cnt, Value(stock_row[db.s_order_cnt].AsInt64() + 1)},
       {db.s_remote_cnt, Value(stock_row[db.s_remote_cnt].AsInt64() +
                               (remote ? 1 : 0))}}));
  Money amount = price * line.quantity;
  Think(c);
  ACCDB_RETURN_IF_ERROR(
      c.Insert(*db.order_line,
               {Value(w), Value(d), Value(o_id_),
                Value(static_cast<int64_t>(index + 1)), Value(line.item_id),
                Value(supply_w), Value(int64_t{0}), Value(line.quantity),
                Value(amount)})
          .status());
  *sum += amount;
  return Status::Ok();
}

Status NewOrderTxn::Phase3(acc::TxnContext& c, double w_tax, double d_tax,
                           Money sum) {
  TpccDb& db = *db_;
  Think(c);
  ACCDB_ASSIGN_OR_RETURN(
      Row cust,
      c.ReadByKey(*db.customer, Key(input_.w_id, input_.d_id, input_.c_id)));
  double discount = cust[db.c_discount].AsDouble();
  total_ =
      Money::FromDouble(sum.ToDouble() * (1 + w_tax + d_tax) * (1 - discount));
  return Status::Ok();
}

Status NewOrderTxn::Run(acc::TxnContext& ctx) {
  o_id_ = 0;
  total_ = Money();
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  const int64_t d = input_.d_id;
  double w_tax = 0, d_tax = 0;
  Money sum;

  if (granularity_ == NewOrderGranularity::kSingle) {
    // Undecomposed: one atomic step containing the whole transaction.
    return ctx.RunStep(db.step_no1, {w, d}, acc::AssertionInstance{},
                       [&](acc::TxnContext& c) -> Status {
                         ACCDB_RETURN_IF_ERROR(Phase1(c, &w_tax, &d_tax));
                         for (size_t i = 0; i < input_.lines.size(); ++i) {
                           ACCDB_RETURN_IF_ERROR(PhaseLine(c, i, &sum));
                         }
                         return Phase3(c, w_tax, d_tax, sum);
                       });
  }

  // NO1.
  ACCDB_RETURN_IF_ERROR(
      ctx.RunStep(db.step_no1, {w, d},
                  acc::AssertionInstance{db.assert_no_loop, {w, d}, {}},
                  [&](acc::TxnContext& c) { return Phase1(c, &w_tax, &d_tax); }));

  std::vector<lock::ItemId> invariant_items = {
      lock::ItemId::Row(db.orders->id(), order_row_id_)};
  acc::AssertionInstance loop_assertion{db.assert_no_loop,
                                        {w, d, o_id_},
                                        invariant_items};
  acc::AssertionInstance complete_assertion{db.assert_order_complete,
                                            {w, d, o_id_},
                                            invariant_items};

  if (granularity_ == NewOrderGranularity::kCoarse) {
    // One NO2 step for every line.
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        db.step_no2, {w, d, o_id_}, complete_assertion,
        [&](acc::TxnContext& c) -> Status {
          for (size_t i = 0; i < input_.lines.size(); ++i) {
            ACCDB_RETURN_IF_ERROR(PhaseLine(c, i, &sum));
          }
          return Status::Ok();
        }));
  } else {
    // The paper's decomposition: one NO2 step per line. The final
    // iteration restores the completeness conjunct, which stays protected
    // (with the order row) until commit.
    for (size_t i = 0; i < input_.lines.size(); ++i) {
      const bool last = (i + 1 == input_.lines.size());
      ACCDB_RETURN_IF_ERROR(ctx.RunStep(
          db.step_no2, {w, d, o_id_},
          last ? complete_assertion : loop_assertion,
          [&, i](acc::TxnContext& c) { return PhaseLine(c, i, &sum); }));
    }
  }

  // NO3. The "next" assertion is the transaction's post-assertion: the
  // order is complete (or compensation will run) — held with the order row
  // until commit, so a delivery cannot consume the still-uncommitted order
  // that a crash/abort might yet compensate away.
  return ctx.RunStep(db.step_no3, {w, d, o_id_}, complete_assertion,
                     [&](acc::TxnContext& c) {
                       return Phase3(c, w_tax, d_tax, sum);
                     });
}

Status NewOrderTxn::CompensateOrder(acc::TxnContext& ctx, TpccDb& db,
                                    int64_t w, int64_t d, int64_t o) {
  // Return stock and delete the order lines.
  ACCDB_ASSIGN_OR_RETURN(auto lines,
                         ctx.ScanPkPrefix(*db.order_line, Key(w, d, o),
                                          /*for_update=*/true));
  for (const auto& [line_id, line] : lines) {
    int64_t item_id = line[db.ol_i_id].AsInt64();
    int64_t quantity = line[db.ol_quantity].AsInt64();
    int64_t supply_w = line[db.ol_supply_w_id].AsInt64();
    bool remote = supply_w != w;
    storage::RowId stock_id = storage::kInvalidRowId;
    ACCDB_ASSIGN_OR_RETURN(Row stock_row,
                           ctx.ReadByKey(*db.stock, Key(supply_w, item_id),
                                         /*for_update=*/true, &stock_id));
    ACCDB_RETURN_IF_ERROR(ctx.Update(
        *db.stock, stock_id,
        {{db.s_quantity, Value(stock_row[db.s_quantity].AsInt64() + quantity)},
         {db.s_ytd, Value(stock_row[db.s_ytd].AsInt64() - quantity)},
         {db.s_order_cnt, Value(stock_row[db.s_order_cnt].AsInt64() - 1)},
         {db.s_remote_cnt, Value(stock_row[db.s_remote_cnt].AsInt64() -
                                 (remote ? 1 : 0))}}));
    ACCDB_RETURN_IF_ERROR(ctx.Delete(*db.order_line, line_id));
  }
  // Delete the NEW-ORDER and ORDER rows, if present.
  std::optional<storage::RowId> no_row = db.new_order->LookupPk(Key(w, d, o));
  if (no_row.has_value()) {
    ACCDB_RETURN_IF_ERROR(
        ctx.ReadById(*db.new_order, *no_row, /*for_update=*/true).status());
    ACCDB_RETURN_IF_ERROR(ctx.Delete(*db.new_order, *no_row));
  }
  std::optional<storage::RowId> order_row = db.orders->LookupPk(Key(w, d, o));
  if (order_row.has_value()) {
    ACCDB_RETURN_IF_ERROR(
        ctx.ReadById(*db.orders, *order_row, /*for_update=*/true).status());
    ACCDB_RETURN_IF_ERROR(ctx.Delete(*db.orders, *order_row));
  }
  return Status::Ok();
}

Status NewOrderTxn::Compensate(acc::TxnContext& ctx, int completed_steps) {
  (void)completed_steps;
  return CompensateOrder(ctx, *db_, input_.w_id, input_.d_id, o_id_);
}

std::string NewOrderTxn::SerializeWorkArea() const {
  return StrFormat("%" PRId64 " %" PRId64 " %" PRId64, input_.w_id,
                   input_.d_id, o_id_);
}

}  // namespace accdb::tpcc
