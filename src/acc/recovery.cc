#include "acc/recovery.h"

#include <algorithm>

#include "acc/txn_context.h"

namespace accdb::acc {

std::vector<InFlightTxn> FindInFlight(const std::vector<WalRecord>& records) {
  struct State {
    std::string program;
    int completed_steps = 0;
    std::string work_area;
    bool finished = false;
    size_t begin_order = 0;
  };
  std::unordered_map<lock::TxnId, State> states;
  size_t order = 0;
  for (const WalRecord& rec : records) {
    switch (rec.type) {
      case LogRecordType::kBegin: {
        State& s = states[rec.txn];
        s.program = rec.program;
        s.begin_order = order++;
        break;
      }
      case LogRecordType::kEndOfStep: {
        State& s = states[rec.txn];
        s.completed_steps = std::max(s.completed_steps, rec.step_index);
        s.work_area = rec.work_area;
        break;
      }
      case LogRecordType::kCommit:
      case LogRecordType::kCompensated:
        states[rec.txn].finished = true;
        break;
    }
  }
  std::vector<std::pair<size_t, InFlightTxn>> pending;
  for (const auto& [txn, s] : states) {
    if (s.finished || s.completed_steps == 0) continue;
    pending.emplace_back(
        s.begin_order,
        InFlightTxn{txn, s.program, s.completed_steps, s.work_area});
  }
  std::sort(pending.begin(), pending.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<InFlightTxn> out;
  out.reserve(pending.size());
  for (auto& [ord, txn] : pending) out.push_back(std::move(txn));
  return out;
}

void CompensatorRegistry::Register(const std::string& program_name,
                                   Compensator compensator) {
  compensators_[program_name] = std::move(compensator);
}

const Compensator* CompensatorRegistry::Find(
    const std::string& program_name) const {
  auto it = compensators_.find(program_name);
  return it == compensators_.end() ? nullptr : &it->second;
}

RecoveryReport RunRecovery(Engine& engine,
                           const std::vector<WalRecord>& records,
                           const CompensatorRegistry& registry,
                           ExecutionEnv& env) {
  RecoveryReport report;
  for (const InFlightTxn& txn : FindInFlight(records)) {
    ++report.in_flight;
    const Compensator* compensator = registry.Find(txn.program);
    if (compensator == nullptr) {
      ++report.missing_compensator;
      continue;
    }
    Status status = engine.ExecuteCompensation(
        txn.program, compensator->comp_step_type, /*comp_keys=*/{}, env,
        [&](TxnContext& ctx) {
          return compensator->fn(ctx, txn.work_area, txn.completed_steps);
        },
        /*logged_txn=*/txn.txn);
    if (status.ok()) {
      ++report.compensated;
    } else {
      ++report.failed;
      if (report.first_error.ok()) report.first_error = status;
    }
  }
  return report;
}

}  // namespace accdb::acc
