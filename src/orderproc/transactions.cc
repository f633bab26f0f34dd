#include "orderproc/transactions.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "common/string_util.h"

namespace accdb::orderproc {

using storage::Key;
using storage::Value;

NewOrderTxn::NewOrderTxn(OrderSystem* system, int64_t customer_id,
                         std::vector<ItemRequest> items,
                         bool abort_at_last_item)
    : system_(system),
      customer_id_(customer_id),
      items_(std::move(items)),
      abort_at_last_item_(abort_at_last_item) {}

lock::ActorId NewOrderTxn::PrefixActor(int completed_steps) const {
  return completed_steps == 0 ? system_->prefix_no_empty
                              : system_->prefix_no_partial;
}

lock::ActorId NewOrderTxn::CompensationStepType() const {
  return system_->step_no_compensate;
}

std::vector<int64_t> NewOrderTxn::CompensationKeys() const {
  return {order_id_};
}

Status NewOrderTxn::Run(acc::TxnContext& ctx) {
  order_id_ = 0;
  total_filled_ = 0;
  OrderSystem& sys = *system_;
  const int64_t n = static_cast<int64_t>(items_.size());

  // STEP 1 (NO1): allocate the order number and create the order tuple.
  // pre(S_2) — the loop invariant over the fresh order — is identified only
  // once the counter has been read, hence the in-body refinement.
  ACCDB_RETURN_IF_ERROR(ctx.RunStep(
      sys.step_no_create, /*step_keys=*/{},
      acc::AssertionInstance{sys.assert_no_loop, {}, {}},
      [&](acc::TxnContext& c) -> Status {
        ACCDB_ASSIGN_OR_RETURN(int64_t o_num,
                               c.ReadVariable(*sys.order_counter,
                                              /*for_update=*/true));
        ACCDB_RETURN_IF_ERROR(c.WriteVariable(*sys.order_counter, o_num + 1));
        ACCDB_ASSIGN_OR_RETURN(
            storage::RowId order_row,
            c.Insert(*sys.orders, {Value(o_num), Value(customer_id_),
                                   Value(n), Value(Money())}));
        (void)order_row;
        order_id_ = o_num;
        c.UpdateNextAssertion(
            acc::AssertionInstance{sys.assert_no_loop, {o_num}, {}});
        return Status::Ok();
      }));
  if (pause_between_steps_ > 0) ctx.Compute(pause_between_steps_);

  // The loop invariant (and I1) reference the order tuple itself, so every
  // assertion instance must keep the order row among its locked items —
  // this is what delays a same-order bill until commit.
  std::optional<storage::RowId> order_row =
      sys.orders->LookupPk(storage::Key(order_id_));
  assert(order_row.has_value());
  std::vector<lock::ItemId> invariant_items = {
      lock::ItemId::Row(sys.orders->id(), *order_row)};

  // STEPS 2..n+1 (NO2): one orderline per requested item.
  for (size_t i = 0; i < items_.size(); ++i) {
    const ItemRequest& req = items_[i];
    const bool last = (i + 1 == items_.size());
    // The final iteration restores I1^{o}; its "next" assertion is I1
    // itself, held (with the order row protected) until commit.
    acc::AssertionInstance next =
        last ? acc::AssertionInstance{sys.assert_i1, {order_id_},
                                      invariant_items}
             : acc::AssertionInstance{sys.assert_no_loop, {order_id_},
                                      invariant_items};
    ACCDB_RETURN_IF_ERROR(ctx.RunStep(
        sys.step_no_orderline, /*step_keys=*/{order_id_, req.item_id}, next,
        [&, last](acc::TxnContext& c) -> Status {
          if (abort_at_last_item_ && last) {
            return Status::Aborted("requested abort at final item");
          }
          storage::RowId stock_id = storage::kInvalidRowId;
          ACCDB_ASSIGN_OR_RETURN(storage::Row stock_row,
                                 c.ReadByKey(*sys.stock, Key(req.item_id),
                                             /*for_update=*/true, &stock_id));
          int64_t level = stock_row[sys.s_level].AsInt64();
          int64_t filled = std::min(level, req.quantity);
          ACCDB_RETURN_IF_ERROR(
              c.Update(*sys.stock, stock_id,
                       {{sys.s_level, Value(level - filled)}}));
          ACCDB_ASSIGN_OR_RETURN(
              storage::RowId line,
              c.Insert(*sys.orderlines,
                       {Value(order_id_), Value(req.item_id),
                        Value(req.quantity), Value(filled)}));
          (void)line;
          total_filled_ += filled;
          return Status::Ok();
        }));
    if (pause_between_steps_ > 0 && !last) ctx.Compute(pause_between_steps_);
  }
  return Status::Ok();
}

Status NewOrderTxn::CompensateOrder(acc::TxnContext& ctx, OrderSystem& sys,
                                    int64_t order_id) {
  // Return filled quantities to stock and delete the orderlines.
  ACCDB_ASSIGN_OR_RETURN(auto lines,
                         ctx.ScanPkPrefix(*sys.orderlines, Key(order_id),
                                          /*for_update=*/true));
  for (const auto& [line_id, line_row] : lines) {
    int64_t item_id = line_row[sys.ol_item_id].AsInt64();
    int64_t filled = line_row[sys.ol_filled].AsInt64();
    storage::RowId stock_id = storage::kInvalidRowId;
    ACCDB_ASSIGN_OR_RETURN(storage::Row stock_row,
                           ctx.ReadByKey(*sys.stock, Key(item_id),
                                         /*for_update=*/true, &stock_id));
    ACCDB_RETURN_IF_ERROR(ctx.Update(
        *sys.stock, stock_id,
        {{sys.s_level, Value(stock_row[sys.s_level].AsInt64() + filled)}}));
    ACCDB_RETURN_IF_ERROR(ctx.Delete(*sys.orderlines, line_id));
  }
  // Remove the order tuple itself.
  std::optional<storage::RowId> order_row = sys.orders->LookupPk(Key(order_id));
  if (order_row.has_value()) {
    ACCDB_RETURN_IF_ERROR(
        ctx.ReadById(*sys.orders, *order_row, /*for_update=*/true).status());
    ACCDB_RETURN_IF_ERROR(ctx.Delete(*sys.orders, *order_row));
  }
  return Status::Ok();
}

Status NewOrderTxn::Compensate(acc::TxnContext& ctx, int completed_steps) {
  (void)completed_steps;
  return CompensateOrder(ctx, *system_, order_id_);
}

std::string NewOrderTxn::SerializeWorkArea() const {
  return StrFormat("%lld", static_cast<long long>(order_id_));
}

BillTxn::BillTxn(OrderSystem* system, int64_t order_id)
    : system_(system), order_id_(order_id) {}

lock::ActorId BillTxn::PrefixActor(int) const {
  return system_->prefix_bill_empty;
}

acc::AssertionInstance BillTxn::InitialAssertion() const {
  // I1^{order}: references the order tuple and the orderlines with that
  // order id. The order row comes FIRST: it is the item on which the
  // initiation check against an in-flight same-order new_order blocks, and
  // acquiring it before the table items means bill holds nothing another
  // transaction could wait on while it is itself delayed (avoiding
  // needless initiation deadlocks).
  std::vector<lock::ItemId> items;
  std::optional<storage::RowId> order_row =
      system_->orders->LookupPk(Key(order_id_));
  if (order_row.has_value()) {
    items.push_back(lock::ItemId::Row(system_->orders->id(), *order_row));
  }
  // The table items: I1 ranges over whole tables, so every shard's.
  for (const storage::Table* table : {system_->orders, system_->orderlines}) {
    for (const lock::ItemId& item : lock::ItemId::ShardItems(*table)) {
      items.push_back(item);
    }
  }
  return acc::AssertionInstance{system_->assert_i1, {order_id_}, items};
}

Status BillTxn::Run(acc::TxnContext& ctx) {
  found_ = false;
  total_ = Money();
  OrderSystem& sys = *system_;
  return ctx.RunStep(
      sys.step_bill, /*step_keys=*/{order_id_}, acc::AssertionInstance{},
      [&](acc::TxnContext& c) -> Status {
        storage::RowId order_row = storage::kInvalidRowId;
        Result<storage::Row> order = c.ReadByKey(
            *sys.orders, Key(order_id_), /*for_update=*/true, &order_row);
        if (!order.ok()) {
          if (order.status().code() == StatusCode::kNotFound) {
            return Status::Ok();  // Nothing to bill.
          }
          return order.status();
        }
        found_ = true;
        ACCDB_ASSIGN_OR_RETURN(auto lines,
                               c.ScanPkPrefix(*sys.orderlines,
                                              Key(order_id_)));
        Money total;
        for (const auto& [line_id, line] : lines) {
          (void)line_id;
          ACCDB_ASSIGN_OR_RETURN(
              storage::Row price_row,
              c.ReadByKey(*sys.prices,
                          Key(line[sys.ol_item_id].AsInt64())));
          total += price_row[sys.p_price].AsMoney() *
                   line[sys.ol_filled].AsInt64();
        }
        ACCDB_RETURN_IF_ERROR(
            c.Update(*sys.orders, order_row, {{sys.o_price, Value(total)}}));
        total_ = total;
        return Status::Ok();
      });
}

void RegisterCompensators(OrderSystem* system,
                          acc::CompensatorRegistry* registry) {
  acc::Compensator compensator;
  compensator.comp_step_type = system->step_no_compensate;
  compensator.fn = [system](acc::TxnContext& ctx, const std::string& work_area,
                            int completed_steps) -> Status {
    (void)completed_steps;
    int64_t order_id = std::atoll(work_area.c_str());
    if (order_id == 0) return Status::Ok();  // Step 1 never completed.
    return NewOrderTxn::CompensateOrder(ctx, *system, order_id);
  };
  registry->Register("new_order", std::move(compensator));
}

}  // namespace accdb::orderproc
