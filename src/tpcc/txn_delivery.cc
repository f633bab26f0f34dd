#include <cassert>
#include <cinttypes>

#include "common/string_util.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {

using storage::Key;
using storage::Row;
using storage::Value;

DeliveryTxn::DeliveryTxn(TpccDb* db, DeliveryInput input,
                         double compute_seconds)
    : TpccTxn(db, compute_seconds), input_(std::move(input)) {}

lock::ActorId DeliveryTxn::PrefixActor(int completed_steps) const {
  return completed_steps == 0 ? db_->prefix_empty : db_->prefix_d_partial;
}

lock::ActorId DeliveryTxn::CompensationStepType() const {
  return db_->step_cs_d;
}

std::vector<int64_t> DeliveryTxn::CompensationKeys() const {
  return {input_.w_id};
}

Status DeliveryTxn::Run(acc::TxnContext& ctx) {
  delivered_.clear();
  skipped_ = 0;
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  const int64_t districts =
      static_cast<int64_t>(db.district->ScanPkPrefix(Key(w)).size());

  // D1: begin the delivery batch (carrier allocation is client-side work;
  // the step exists to delimit the batch in the log). The spec's delivery
  // touches no warehouse/district rows.
  ACCDB_RETURN_IF_ERROR(ctx.RunStep(
      db.step_d1, {w}, acc::AssertionInstance{db.assert_dlv, {w}, {}},
      [&](acc::TxnContext& c) -> Status {
        Think(c);
        return Status::Ok();
      }));

  // D2: one step per district — the reason delivery is the long-running
  // transaction in the suite.
  for (int64_t d = 1; d <= districts; ++d) {
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        db.step_d2, {w, d},
        acc::AssertionInstance{db.assert_dlv, {w}, {}},
        [&](acc::TxnContext& c) -> Status {
          Think(c);
          // Oldest undelivered order of this district. If the row we pop
          // belongs to an in-flight new-order, the X lock performs the
          // interference check against its construction invariant and we
          // wait for that order to finish.
          ACCDB_ASSIGN_OR_RETURN(
              auto oldest, c.MinPkPrefix(*db.new_order, Key(w, d),
                                         /*for_update=*/true));
          if (!oldest.has_value()) {
            ++skipped_;  // Clause 2.7.4.2: skip the district.
            return Status::Ok();
          }
          int64_t o = oldest->second[db.no_o_id].AsInt64();
          ACCDB_RETURN_IF_ERROR(c.Delete(*db.new_order, oldest->first));

          Think(c);
          storage::RowId order_id = storage::kInvalidRowId;
          ACCDB_ASSIGN_OR_RETURN(Row order,
                                 c.ReadByKey(*db.orders, Key(w, d, o),
                                             /*for_update=*/true, &order_id));
          int64_t cust = order[db.o_c_id].AsInt64();
          ACCDB_RETURN_IF_ERROR(
              c.Update(*db.orders, order_id,
                       {{db.o_carrier_id, Value(input_.carrier_id)}}));

          Think(c);
          ACCDB_ASSIGN_OR_RETURN(auto lines,
                                 c.ScanPkPrefix(*db.order_line, Key(w, d, o),
                                                /*for_update=*/true));
          Money sum;
          for (const auto& [line_id, line] : lines) {
            sum += line[db.ol_amount].AsMoney();
            ACCDB_RETURN_IF_ERROR(c.Update(
                *db.order_line, line_id,
                {{db.ol_delivery_d, Value(int64_t{1})}}));
          }

          Think(c);
          storage::RowId cust_id = storage::kInvalidRowId;
          ACCDB_ASSIGN_OR_RETURN(Row customer,
                                 c.ReadByKey(*db.customer, Key(w, d, cust),
                                             /*for_update=*/true, &cust_id));
          ACCDB_RETURN_IF_ERROR(c.Update(
              *db.customer, cust_id,
              {{db.c_balance, Value(customer[db.c_balance].AsMoney() + sum)},
               {db.c_delivery_cnt,
                Value(customer[db.c_delivery_cnt].AsInt64() + 1)}}));
          delivered_.push_back(Delivered{d, o, cust, sum});
          return Status::Ok();
        }));
  }

  // D3: finish (the terminal reports skipped districts here).
  return ctx.RunStep(db.step_d3, {w}, acc::AssertionInstance{},
                     [&](acc::TxnContext& c) -> Status {
                       Think(c);
                       return Status::Ok();
                     });
}

Status DeliveryTxn::Compensate(acc::TxnContext& ctx, int completed_steps) {
  (void)completed_steps;
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  // Undo the delivered districts in reverse order: restore the NEW-ORDER
  // row, clear the carrier and delivery dates, debit the customer.
  for (auto it = delivered_.rbegin(); it != delivered_.rend(); ++it) {
    ACCDB_RETURN_IF_ERROR(
        ctx.Insert(*db.new_order, {Value(w), Value(it->d), Value(it->o)})
            .status());
    storage::RowId order_id = storage::kInvalidRowId;
    ACCDB_RETURN_IF_ERROR(ctx.ReadByKey(*db.orders, Key(w, it->d, it->o),
                                        /*for_update=*/true, &order_id)
                              .status());
    ACCDB_RETURN_IF_ERROR(ctx.Update(*db.orders, order_id,
                                     {{db.o_carrier_id, Value(int64_t{0})}}));
    ACCDB_ASSIGN_OR_RETURN(
        auto lines, ctx.ScanPkPrefix(*db.order_line, Key(w, it->d, it->o),
                                     /*for_update=*/true));
    for (const auto& [line_id, line] : lines) {
      (void)line;
      ACCDB_RETURN_IF_ERROR(ctx.Update(
          *db.order_line, line_id, {{db.ol_delivery_d, Value(int64_t{0})}}));
    }
    storage::RowId cust_id = storage::kInvalidRowId;
    ACCDB_ASSIGN_OR_RETURN(Row customer,
                           ctx.ReadByKey(*db.customer, Key(w, it->d, it->c),
                                         /*for_update=*/true, &cust_id));
    ACCDB_RETURN_IF_ERROR(ctx.Update(
        *db.customer, cust_id,
        {{db.c_balance, Value(customer[db.c_balance].AsMoney() - it->sum)},
         {db.c_delivery_cnt,
          Value(customer[db.c_delivery_cnt].AsInt64() - 1)}}));
  }
  return Status::Ok();
}

std::string DeliveryTxn::SerializeWorkArea() const {
  std::string out = StrFormat("%" PRId64, input_.w_id);
  for (const Delivered& rec : delivered_) {
    out += StrFormat(";%" PRId64 ":%" PRId64 ":%" PRId64 ":%" PRId64, rec.d,
                     rec.o, rec.c, rec.sum.cents());
  }
  return out;
}

}  // namespace accdb::tpcc
