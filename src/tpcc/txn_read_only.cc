// order-status (OS1) and stock-level (SL1): the two read-only single-step
// transactions, plus the crash-recovery compensator registry.

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <set>

#include "common/string_util.h"
#include "tpcc/transactions.h"

namespace accdb::tpcc {

using storage::Key;
using storage::Row;
using storage::Value;

OrderStatusTxn::OrderStatusTxn(TpccDb* db, OrderStatusInput input,
                               double compute_seconds)
    : TpccTxn(db, compute_seconds), input_(std::move(input)) {}

lock::ActorId OrderStatusTxn::PrefixActor(int) const {
  return db_->prefix_empty;
}

Status OrderStatusTxn::Run(acc::TxnContext& ctx) {
  found_order_ = false;
  last_order_id_ = 0;
  line_count_ = 0;
  ol_cnt_field_ = 0;
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  const int64_t d = input_.d_id;

  return ctx.RunStep(
      db.step_os1, {w, d}, acc::AssertionInstance{},
      [&](acc::TxnContext& c) -> Status {
        Think(c);
        // Resolve the customer.
        int64_t cust;
        if (input_.by_last_name) {
          ACCDB_ASSIGN_OR_RETURN(
              auto matches,
              c.ScanIndexPrefix(*db.customer, db.customer_by_last,
                                Key(w, d, input_.c_last)));
          if (matches.empty()) {
            return Status::Aborted("no customer with last name " +
                                   input_.c_last);
          }
          cust = matches[matches.size() / 2].second[db.c_id].AsInt64();
        } else {
          ACCDB_ASSIGN_OR_RETURN(Row row,
                                 c.ReadByKey(*db.customer, Key(w, d,
                                                               input_.c_id)));
          cust = row[db.c_id].AsInt64();
        }
        // Locate the customer's most recent order.
        Think(c);
        ACCDB_ASSIGN_OR_RETURN(
            auto orders, c.ScanIndexPrefix(*db.orders, db.orders_by_customer,
                                           Key(w, d, cust)));
        if (orders.empty()) return Status::Ok();  // Nothing to report.
        // Index order is (w, d, c, o): the last entry has the largest o_id.
        int64_t o = 0;
        storage::RowId order_row_id = 0;
        for (const auto& [row_id, row] : orders) {
          if (row[db.o_id].AsInt64() > o) {
            o = row[db.o_id].AsInt64();
            order_row_id = row_id;
          }
        }
        // This transaction's precondition is the completeness conjunct of
        // the order it reports; acquire it dynamically. An in-flight
        // new-order constructing this very order blocks us here (its
        // partial prefix interferes).
        ACCDB_RETURN_IF_ERROR(c.AcquireAssertion(acc::AssertionInstance{
            db.assert_order_complete,
            {w, d, o},
            {lock::ItemId::Row(db.orders->id(), order_row_id)}}));
        Think(c);
        ACCDB_ASSIGN_OR_RETURN(Row order, c.ReadById(*db.orders, order_row_id));
        ol_cnt_field_ = order[db.o_ol_cnt].AsInt64();
        Think(c);
        ACCDB_ASSIGN_OR_RETURN(auto lines,
                               c.ScanPkPrefix(*db.order_line, Key(w, d, o)));
        found_order_ = true;
        last_order_id_ = o;
        line_count_ = static_cast<int>(lines.size());
        return Status::Ok();
      });
}

StockLevelTxn::StockLevelTxn(TpccDb* db, StockLevelInput input,
                             double compute_seconds)
    : TpccTxn(db, compute_seconds), input_(std::move(input)) {}

lock::ActorId StockLevelTxn::PrefixActor(int) const {
  return db_->prefix_empty;
}

Status StockLevelTxn::Run(acc::TxnContext& ctx) {
  low_stock_ = 0;
  TpccDb& db = *db_;
  const int64_t w = input_.w_id;
  const int64_t d = input_.d_id;

  return ctx.RunStep(
      db.step_sl1, {w, d}, acc::AssertionInstance{},
      [&](acc::TxnContext& c) -> Status {
        Think(c);
        ACCDB_ASSIGN_OR_RETURN(Row dist, c.ReadByKey(*db.district, Key(w, d)));
        int64_t next_o = dist[db.d_next_o_id].AsInt64();
        // Clause 2.8.2.2: the districts' last 20 orders.
        std::set<int64_t> items;
        for (int64_t o = std::max<int64_t>(1, next_o - 20); o < next_o; ++o) {
          ACCDB_ASSIGN_OR_RETURN(auto lines,
                                 c.ScanPkPrefix(*db.order_line, Key(w, d, o)));
          for (const auto& [line_id, line] : lines) {
            (void)line_id;
            items.insert(line[db.ol_i_id].AsInt64());
          }
        }
        Think(c);
        int64_t low = 0;
        for (int64_t item_id : items) {
          ACCDB_ASSIGN_OR_RETURN(Row stock,
                                 c.ReadByKey(*db.stock, Key(w, item_id)));
          if (stock[db.s_quantity].AsInt64() < input_.threshold) ++low;
        }
        low_stock_ = low;
        return Status::Ok();
      });
}

// --- Crash-recovery compensators ---

void RegisterTpccCompensators(TpccDb* db, acc::CompensatorRegistry* registry) {
  {
    acc::Compensator comp;
    comp.comp_step_type = db->step_cs_no;
    comp.fn = [db](acc::TxnContext& ctx, const std::string& work_area,
                   int completed_steps) -> Status {
      (void)completed_steps;
      int64_t w = 0, d = 0, o = 0;
      if (std::sscanf(work_area.c_str(),
                      "%" SCNd64 " %" SCNd64 " %" SCNd64, &w, &d, &o) != 3 ||
          o == 0) {
        return Status::Ok();  // NO1 never completed; nothing to undo.
      }
      return NewOrderTxn::CompensateOrder(ctx, *db, w, d, o);
    };
    registry->Register("tpcc.new_order", std::move(comp));
  }
  {
    acc::Compensator comp;
    comp.comp_step_type = db->step_cs_p;
    comp.fn = [db](acc::TxnContext& ctx, const std::string& work_area,
                   int completed_steps) -> Status {
      int64_t w = 0, d = 0, cents = 0;
      if (std::sscanf(work_area.c_str(),
                      "%" SCNd64 " %" SCNd64 " %" SCNd64, &w, &d,
                      &cents) != 3) {
        return Status::Ok();
      }
      Money amount = Money::FromCents(cents);
      if (completed_steps >= 2) {
        storage::RowId dist_id = storage::kInvalidRowId;
        ACCDB_ASSIGN_OR_RETURN(Row dist,
                               ctx.ReadByKey(*db->district, Key(w, d),
                                             /*for_update=*/true, &dist_id));
        ACCDB_RETURN_IF_ERROR(ctx.Update(
            *db->district, dist_id,
            {{db->d_ytd, Value(dist[db->d_ytd].AsMoney() - amount)}}));
      }
      if (completed_steps >= 1) {
        storage::RowId wh_id = storage::kInvalidRowId;
        ACCDB_ASSIGN_OR_RETURN(Row wh, ctx.ReadByKey(*db->warehouse, Key(w),
                                                     /*for_update=*/true,
                                                     &wh_id));
        ACCDB_RETURN_IF_ERROR(ctx.Update(
            *db->warehouse, wh_id,
            {{db->w_ytd, Value(wh[db->w_ytd].AsMoney() - amount)}}));
      }
      return Status::Ok();
    };
    registry->Register("tpcc.payment", std::move(comp));
  }
  {
    acc::Compensator comp;
    comp.comp_step_type = db->step_cs_d;
    comp.fn = [db](acc::TxnContext& ctx, const std::string& work_area,
                   int completed_steps) -> Status {
      (void)completed_steps;
      // Format: "w;d:o:c:cents;d:o:c:cents;..."
      int64_t w = std::atoll(work_area.c_str());
      std::vector<std::array<int64_t, 4>> records;
      size_t pos = work_area.find(';');
      while (pos != std::string::npos) {
        int64_t d, o, c, cents;
        if (std::sscanf(work_area.c_str() + pos + 1,
                        "%" SCNd64 ":%" SCNd64 ":%" SCNd64 ":%" SCNd64, &d,
                        &o, &c, &cents) == 4) {
          records.push_back({d, o, c, cents});
        }
        pos = work_area.find(';', pos + 1);
      }
      for (auto it = records.rbegin(); it != records.rend(); ++it) {
        auto [d, o, cust, cents] = *it;
        ACCDB_RETURN_IF_ERROR(
            ctx.Insert(*db->new_order, {Value(w), Value(d), Value(o)})
                .status());
        storage::RowId order_id = storage::kInvalidRowId;
        ACCDB_RETURN_IF_ERROR(ctx.ReadByKey(*db->orders, Key(w, d, o),
                                            /*for_update=*/true, &order_id)
                                  .status());
        ACCDB_RETURN_IF_ERROR(
            ctx.Update(*db->orders, order_id,
                       {{db->o_carrier_id, Value(int64_t{0})}}));
        ACCDB_ASSIGN_OR_RETURN(
            auto lines, ctx.ScanPkPrefix(*db->order_line, Key(w, d, o),
                                         /*for_update=*/true));
        for (const auto& [line_id, line] : lines) {
          (void)line;
          ACCDB_RETURN_IF_ERROR(
              ctx.Update(*db->order_line, line_id,
                         {{db->ol_delivery_d, Value(int64_t{0})}}));
        }
        storage::RowId cust_id = storage::kInvalidRowId;
        ACCDB_ASSIGN_OR_RETURN(Row customer,
                               ctx.ReadByKey(*db->customer, Key(w, d, cust),
                                             /*for_update=*/true, &cust_id));
        ACCDB_RETURN_IF_ERROR(ctx.Update(
            *db->customer, cust_id,
            {{db->c_balance, Value(customer[db->c_balance].AsMoney() -
                                   Money::FromCents(cents))},
             {db->c_delivery_cnt,
              Value(customer[db->c_delivery_cnt].AsInt64() - 1)}}));
      }
      return Status::Ok();
    };
    registry->Register("tpcc.delivery", std::move(comp));
  }
}

}  // namespace accdb::tpcc
