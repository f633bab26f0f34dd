// Crash recovery (Section 3.4).
//
// A crash loses all volatile state — lock tables, undo logs, in-memory
// program objects — while the WAL survives (steps are atomic and
// force-logged at step end). The database is either rebuilt from the WAL's
// redo (ReplayWal) or, in the single-process tests, kept as it was.
// Recovery then finds every transaction with completed forward steps but no
// commit/compensated record and runs its compensating step, reconstructed
// from the serialized work area by a registered compensator.

#ifndef ACCDB_ACC_RECOVERY_H_
#define ACCDB_ACC_RECOVERY_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "acc/engine.h"
#include "acc/wal.h"

namespace accdb::acc {

class TxnContext;

// A transaction that needs compensation after a crash.
struct InFlightTxn {
  lock::TxnId txn;
  std::string program;
  int completed_steps;
  std::string work_area;  // From the latest end-of-step record.
};

// Scans `records` (LSN order) for transactions with at least one
// end-of-step record and no commit/compensated record, in reverse begin
// order (most recent first) — the order recovery compensates them in.
std::vector<InFlightTxn> FindInFlight(const std::vector<WalRecord>& records);

// Rebuilds and runs compensation for one program type from a logged work
// area.
struct Compensator {
  lock::ActorId comp_step_type = lock::kNoActor;
  // (ctx, work_area, completed_steps) -> status.
  std::function<Status(TxnContext&, const std::string&, int)> fn;
};

class CompensatorRegistry {
 public:
  void Register(const std::string& program_name, Compensator compensator);
  const Compensator* Find(const std::string& program_name) const;

 private:
  std::unordered_map<std::string, Compensator> compensators_;
};

struct RecoveryReport {
  int in_flight = 0;
  int compensated = 0;
  int missing_compensator = 0;
  // Compensations that ran but returned a non-OK status. A clean recovery
  // requires failed == 0 && missing_compensator == 0; `first_error` carries
  // the first failure for diagnostics.
  int failed = 0;
  Status first_error;

  bool clean() const { return failed == 0 && missing_compensator == 0; }
};

// Runs recovery against `engine` (a fresh post-crash engine over the
// surviving database) using the pre-crash log `records`.
RecoveryReport RunRecovery(Engine& engine,
                           const std::vector<WalRecord>& records,
                           const CompensatorRegistry& registry,
                           ExecutionEnv& env);

}  // namespace accdb::acc

#endif  // ACCDB_ACC_RECOVERY_H_
