#include <cassert>
#include <cinttypes>

#include "common/string_util.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {

using storage::Key;
using storage::Row;
using storage::Value;

PaymentTxn::PaymentTxn(TpccDb* db, PaymentInput input, double compute_seconds)
    : TpccTxn(db, compute_seconds), input_(std::move(input)) {}

lock::ActorId PaymentTxn::PrefixActor(int completed_steps) const {
  return completed_steps == 0 ? db_->prefix_empty : db_->prefix_p_partial;
}

lock::ActorId PaymentTxn::CompensationStepType() const {
  return db_->step_cs_p;
}

std::vector<int64_t> PaymentTxn::CompensationKeys() const {
  return {input_.w_id, input_.d_id};
}

Status PaymentTxn::Run(acc::TxnContext& ctx) {
  resolved_c_id_ = 0;
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  const int64_t d = input_.d_id;

  // P1: warehouse year-to-date.
  ACCDB_RETURN_IF_ERROR(ctx.RunStep(
      db.step_p1, {w, d},
      acc::AssertionInstance{db.assert_pay, {w, d}, {}},
      [&](acc::TxnContext& c) -> Status {
        Think(c);
        storage::RowId wh_id = storage::kInvalidRowId;
        ACCDB_ASSIGN_OR_RETURN(
            Row wh,
            c.ReadByKey(*db.warehouse, Key(w), /*for_update=*/true, &wh_id));
        return c.Update(*db.warehouse, wh_id,
                        {{db.w_ytd, Value(wh[db.w_ytd].AsMoney() +
                                          input_.amount)}});
      }));

  // P2: district year-to-date — the write that conflicts with new-order's
  // order-number counter under tuple-granularity 2PL but not under the ACC.
  ACCDB_RETURN_IF_ERROR(ctx.RunStep(
      db.step_p2, {w, d},
      acc::AssertionInstance{db.assert_pay, {w, d}, {}},
      [&](acc::TxnContext& c) -> Status {
        Think(c);
        storage::RowId dist_id = storage::kInvalidRowId;
        ACCDB_ASSIGN_OR_RETURN(
            Row dist, c.ReadByKey(*db.district, Key(w, d),
                                  /*for_update=*/true, &dist_id));
        return c.Update(*db.district, dist_id,
                        {{db.d_ytd, Value(dist[db.d_ytd].AsMoney() +
                                          input_.amount)}});
      }));

  // P3: customer update + history insert.
  return ctx.RunStep(
      db.step_p3, {input_.c_w_id, input_.c_d_id}, acc::AssertionInstance{},
      [&](acc::TxnContext& c) -> Status {
        Think(c);
        storage::RowId cust_row_id = 0;
        Row cust;
        if (input_.by_last_name) {
          // Clause 2.5.2.2: select the customer in the middle (rounded up)
          // of the matches ordered by first name; we order by id, which is
          // equivalent for the experiment.
          ACCDB_ASSIGN_OR_RETURN(
              auto matches,
              c.ScanIndexPrefix(*db.customer, db.customer_by_last,
                                Key(input_.c_w_id, input_.c_d_id,
                                    input_.c_last)));
          if (matches.empty()) {
            return Status::Aborted("no customer with last name " +
                                   input_.c_last);
          }
          auto& [row_id, row] = matches[matches.size() / 2];
          cust_row_id = row_id;
          cust = row;
          // Re-lock for update.
          ACCDB_ASSIGN_OR_RETURN(cust, c.ReadById(*db.customer, cust_row_id,
                                                  /*for_update=*/true));
        } else {
          ACCDB_ASSIGN_OR_RETURN(
              cust, c.ReadByKey(*db.customer,
                                Key(input_.c_w_id, input_.c_d_id, input_.c_id),
                                /*for_update=*/true, &cust_row_id));
        }
        resolved_c_id_ = cust[db.c_id].AsInt64();
        int64_t payment_cnt = cust[db.c_payment_cnt].AsInt64() + 1;
        Think(c);
        ACCDB_RETURN_IF_ERROR(c.Update(
            *db.customer, cust_row_id,
            {{db.c_balance,
              Value(cust[db.c_balance].AsMoney() - input_.amount)},
             {db.c_ytd_payment,
              Value(cust[db.c_ytd_payment].AsMoney() + input_.amount)},
             {db.c_payment_cnt, Value(payment_cnt)}}));
        Think(c);
        return c
            .Insert(*db.history,
                    {Value(input_.c_w_id), Value(input_.c_d_id),
                     Value(resolved_c_id_), Value(payment_cnt), Value(d),
                     Value(w), Value(input_.amount)})
            .status();
      });
}

Status PaymentTxn::Compensate(acc::TxnContext& ctx, int completed_steps) {
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  const int64_t d = input_.d_id;
  // Reverse in inverse step order. P3 is the final step: if it completed,
  // the transaction committed, so only P1/P2 prefixes reach compensation.
  if (completed_steps >= 2) {
    storage::RowId dist_id = storage::kInvalidRowId;
    ACCDB_ASSIGN_OR_RETURN(Row dist, ctx.ReadByKey(*db.district, Key(w, d),
                                                   /*for_update=*/true,
                                                   &dist_id));
    ACCDB_RETURN_IF_ERROR(
        ctx.Update(*db.district, dist_id,
                   {{db.d_ytd,
                     Value(dist[db.d_ytd].AsMoney() - input_.amount)}}));
  }
  if (completed_steps >= 1) {
    storage::RowId wh_id = storage::kInvalidRowId;
    ACCDB_ASSIGN_OR_RETURN(Row wh, ctx.ReadByKey(*db.warehouse, Key(w),
                                                 /*for_update=*/true, &wh_id));
    ACCDB_RETURN_IF_ERROR(
        ctx.Update(*db.warehouse, wh_id,
                   {{db.w_ytd,
                     Value(wh[db.w_ytd].AsMoney() - input_.amount)}}));
  }
  return Status::Ok();
}

std::string PaymentTxn::SerializeWorkArea() const {
  return StrFormat("%" PRId64 " %" PRId64 " %" PRId64, input_.w_id,
                   input_.d_id, input_.amount.cents());
}

}  // namespace accdb::tpcc
