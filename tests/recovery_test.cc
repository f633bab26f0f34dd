// FindInFlight over WAL record sequences: which transactions recovery must
// compensate, and in what order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "acc/recovery.h"
#include "acc/wal.h"

namespace accdb::acc {
namespace {

// `text` is the program name of a kBegin and the work area of a kEndOfStep.
WalRecord Rec(LogRecordType type, lock::TxnId txn, const char* text = "",
              int32_t step = 0) {
  WalRecord rec;
  rec.type = type;
  rec.txn = txn;
  (type == LogRecordType::kBegin ? rec.program : rec.work_area) = text;
  rec.step_index = step;
  return rec;
}
WalRecord Begin(lock::TxnId txn, const char* program) {
  return Rec(LogRecordType::kBegin, txn, program);
}
WalRecord Step(lock::TxnId txn, int32_t step, const char* work_area) {
  return Rec(LogRecordType::kEndOfStep, txn, work_area, step);
}
WalRecord Commit(lock::TxnId txn) { return Rec(LogRecordType::kCommit, txn); }
WalRecord Compensated(lock::TxnId txn) {
  return Rec(LogRecordType::kCompensated, txn);
}

// One line per in-flight txn: "txn program completed_steps work_area".
std::vector<std::string> Describe(const std::vector<InFlightTxn>& in_flight) {
  std::vector<std::string> out;
  for (const InFlightTxn& t : in_flight) {
    out.push_back(std::to_string(t.txn) + " " + t.program + " " +
                  std::to_string(t.completed_steps) + " " + t.work_area);
  }
  return out;
}

struct Case {
  const char* name;
  std::vector<WalRecord> log;
  std::vector<std::string> in_flight;
};

TEST(RecoveryTest, FindInFlight) {
  const Case cases[] = {
      {"empty log", {}, {}},
      {"committed",
       {Begin(1, "p"), Step(1, 1, "wa1"), Step(1, 2, "wa2"), Commit(1)},
       {}},
      // Also the restarted-then-recovered shape: a second crash must not
      // find the already-compensated transaction in flight again.
      {"compensated", {Begin(9, "p"), Step(9, 1, "wa"), Compensated(9)}, {}},
      // Nothing durable happened: the transaction evaporates.
      {"begun, no steps", {Begin(1, "p")}, {}},
      {"latest work area",
       {Begin(7, "new_order"), Step(7, 1, "after 1"), Step(7, 2, "after 2")},
       {"7 new_order 2 after 2"}},
      {"most recent begin first",
       {Begin(1, "a"), Step(1, 1, "a1"), Begin(2, "b"), Step(2, 1, "b1"),
        Begin(3, "c"), Step(3, 1, "c1"), Commit(2)},
       {"3 c 1 c1", "1 a 1 a1"}},
      {"interleaved, first commits",
       {Begin(1, "a"), Begin(2, "b"), Step(1, 1, "a1"), Step(2, 1, "b1"),
        Step(1, 2, "a2"), Commit(1)},
       {"2 b 1 b1"}},
      {"interleaved, second commits",
       {Begin(1, "new_order"), Begin(2, "payment"), Step(1, 1, "no1"),
        Step(2, 1, "pay1"), Step(1, 2, "no2"), Commit(2)},
       {"1 new_order 2 no2"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(Describe(FindInFlight(c.log)), c.in_flight);
  }
}

}  // namespace
}  // namespace accdb::acc
