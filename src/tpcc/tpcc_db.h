// TPC-C schema and the design-time analysis products (step types,
// prefixes, interstep assertions, interference table) for the decomposed
// TPC-C transactions.
//
// Decomposition (Section 5.1 of the paper: "Eleven distinct forward step
// types were defined"):
//
//   new-order   NO1  read W and D, increment d_next_o_id, insert ORDER and
//                    NEW-ORDER
//               NO2  per requested item: read ITEM, update STOCK, insert
//                    ORDER-LINE (loop step)
//               NO3  read CUSTOMER, compute the total (the spec-mandated 1%
//                    aborts strike while ordering the final item, i.e. the
//                    last NO2)
//   payment     P1   update w_ytd
//               P2   update d_ytd
//               P3   resolve customer (by last name or id), update balance /
//                    ytd_payment / payment_cnt, insert HISTORY
//   delivery    D1   begin (read warehouse, allocate carrier)
//               D2   per district: pop the oldest NEW-ORDER, set carrier,
//                    stamp order lines, credit the customer (loop step)
//               D3   finish (report skipped districts)
//   order-status OS1 single read-only step
//   stock-level  SL1 single read-only step (read committed per the spec)
//
// plus compensating step types CS_NO, CS_P, CS_D.
//
// The interference analysis mirrors Section 5.1's headline observation:
// "updates to the [order-number] counter and the year-to-date payment field
// do not interfere", so new-order and payment steps within the same
// district interleave freely under the ACC, while both serialize on the
// district row under conventional two-phase locking.

#ifndef ACCDB_TPCC_TPCC_DB_H_
#define ACCDB_TPCC_TPCC_DB_H_

#include "acc/catalog.h"
#include "acc/interference.h"
#include "acc/spec.h"
#include "storage/database.h"
#include "tpcc/config.h"

namespace accdb::tpcc {

struct TpccDb {
  // Creates the schema and registers the analysis products. With
  // `warehouse_shards` > 1, every warehouse-keyed table is data-partitioned
  // into that many storage shards routed by its leading warehouse-id key
  // column (ITEM, which is warehouse-less and read-only, stays unsharded) —
  // workers bound to different warehouses then never contend on a storage
  // latch. Pass the warehouse count to give every warehouse its own shard.
  explicit TpccDb(storage::Database* db, size_t warehouse_shards = 1);

  storage::Database* db;

  // --- Tables and column positions ---

  storage::Table* warehouse;
  int w_id, w_name, w_tax, w_ytd;

  storage::Table* district;
  int d_w_id, d_id, d_name, d_tax, d_ytd, d_next_o_id;

  storage::Table* customer;
  int c_w_id, c_d_id, c_id, c_first, c_last, c_credit, c_discount, c_balance,
      c_ytd_payment, c_payment_cnt, c_delivery_cnt, c_data;
  storage::IndexId customer_by_last;  // (w, d, last).

  storage::Table* history;  // PK (w, d, c, seq): seq = payment count.
  int h_c_w_id, h_c_d_id, h_c_id, h_seq, h_d_id, h_w_id, h_amount;

  storage::Table* new_order;  // PK (w, d, o).
  int no_w_id, no_d_id, no_o_id;

  storage::Table* orders;  // PK (w, d, o).
  int o_w_id, o_d_id, o_id, o_c_id, o_entry_d, o_carrier_id, o_ol_cnt,
      o_all_local;
  storage::IndexId orders_by_customer;  // (w, d, c, o).

  storage::Table* order_line;  // PK (w, d, o, number).
  int ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_supply_w_id,
      ol_delivery_d, ol_quantity, ol_amount;

  storage::Table* item;
  int i_id, i_im_id, i_name, i_price, i_data;

  storage::Table* stock;  // PK (w, i).
  int s_w_id, s_i_id, s_quantity, s_ytd, s_order_cnt, s_remote_cnt, s_data;

  // --- Design-time analysis ---

  acc::Catalog catalog;
  // Derived from `specs` at construction (acc::spec::DeriveInterferenceTable;
  // pinned by tests/golden/interference_tpcc.md).
  acc::InterferenceTable interference;
  // Machine-checkable step/assertion footprints: the one source of the
  // interference table (DESIGN.md §14). Also carries the runtime assertion
  // checkers for EngineConfig::audit_assertions.
  acc::spec::SpecRegistry specs;

  // Forward step types (11) and compensating step types (3).
  lock::ActorId step_no1, step_no2, step_no3;
  lock::ActorId step_p1, step_p2, step_p3;
  lock::ActorId step_d1, step_d2, step_d3;
  lock::ActorId step_os1, step_sl1;
  lock::ActorId step_cs_no, step_cs_p, step_cs_d;

  // Prefixes.
  lock::ActorId prefix_empty;       // Any transaction before its first step.
  lock::ActorId prefix_no_partial;  // new-order with >= 1 completed step.
  lock::ActorId prefix_p_partial;   // payment with >= 1 completed step.
  lock::ActorId prefix_d_partial;   // delivery with >= 1 completed step.

  // Interstep assertion declarations.
  lock::AssertionId assert_no_loop;        // Keys {w, d, o}: order under
                                           // construction, i lines so far.
  lock::AssertionId assert_order_complete; // Keys {w, d, o}: I-conjunct —
                                           // order has o_ol_cnt lines.
  lock::AssertionId assert_pay;            // Keys {w, d}: payment mid-flight
                                           // increments (arity matches the
                                           // {w, d} instances P1/P2 announce).
  lock::AssertionId assert_dlv;            // Keys {w}: delivery progress.

  // Shared body of the no_loop / order_complete runtime checkers: order
  // (w, d, o) exists, its ORDER-LINE count is <= (or exactly ==) o_ol_cnt,
  // and, with `require_undelivered`, its o_carrier_id is unset and no line
  // carries an ol_delivery_d stamp. The NEW-ORDER row is never read — no
  // assertion claims it survives — so an orphan NEW-ORDER row is invisible
  // to the auditor. Reads go through the latched Table primitives only.
  acc::AuditVerdict CheckOrderRows(int64_t w, int64_t d, int64_t o,
                                   bool require_undelivered,
                                   bool exact_line_count,
                                   std::string* detail) const;

  lock::ItemId DistrictItem(int64_t w, int64_t d) const;
  lock::ItemId WarehouseItem(int64_t w) const;
  std::optional<lock::ItemId> OrderItem(int64_t w, int64_t d,
                                        int64_t o) const;
};

}  // namespace accdb::tpcc

#endif  // ACCDB_TPCC_TPCC_DB_H_
