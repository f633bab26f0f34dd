// TxnContext: the interface a transaction program uses to access the
// database and to delimit its steps. Created by Engine::Execute; one
// instance per execution attempt.
//
// Locking protocol implemented by the data-access methods (per statement):
//   * reads take an IS table lock and S row locks; for_update reads take IX
//     and X (read-for-update avoids the classic S->X upgrade deadlock on hot
//     rows, as production systems do);
//   * writes take IX table locks and X row locks, record before-images in
//     the step/transaction undo log, and are tracked in the step write set;
//   * a frozen (read-only) table takes no locks: its reads are answered
//     without the lock manager, and its writes and for_update reads fail
//     with kFailedPrecondition before any lock is requested;
//   * a "table lock" goes on the table item of the storage shard the
//     statement touches (lock::ItemId::Table): the row's shard for keyed and
//     id-addressed access and inserts, the prefix's shard for routable
//     scans, and every shard's item, in ascending order, for a scan that
//     spans them all;
//   * each statement charges CostModel server time, plus ACC lock-overhead
//     time proportional to the lock-manager calls it made.
// OCC and MVCC read-only programs take no locks: each data-access method
// hands the statement to a cc::LockFreeAccess instead (the OCC buffer or
// the pinned snapshot) — its one backend branch.
//
// Step protocol (kAccDecomposed; see DESIGN.md §4): RunStep grants the next
// interstep assertion's A-locks before the body runs, executes the body
// under step-duration 2PL, and on success writes the end-of-step record,
// attaches kComp and next-assertion A locks to written items, then releases
// step locks and the consumed assertion. A body aborted as a deadlock victim
// is physically rolled back and retried up to step_retry_limit times before
// the error propagates (which triggers compensation at the Engine level).

#ifndef ACCDB_ACC_TXN_CONTEXT_H_
#define ACCDB_ACC_TXN_CONTEXT_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "acc/engine.h"
#include "acc/program.h"
#include "cc/lock_free_access.h"
#include "cc/version_store.h"
#include "common/status.h"
#include "lock/types.h"
#include "storage/database.h"
#include "storage/row_write.h"
#include "storage/undo_log.h"

namespace accdb::acc {

class TxnContext {
 public:
  using StepBody = std::function<Status(TxnContext&)>;

  // --- Step control ---

  // Runs one atomic step. `step_type` is the design-time step-type actor;
  // `step_keys` are the run-time discriminators of this step's writes (for
  // kIfSameKey refinement); `next_assertion` is pre(S_{j+1}) — empty for the
  // final step.
  Status RunStep(lock::ActorId step_type, lock::KeyList step_keys,
                 const AssertionInstance& next_assertion,
                 const StepBody& body);

  // Replaces/refines the next interstep assertion from inside the step body
  // once its run-time identity is known (e.g. after the order number is
  // allocated): A-locks on the new items are granted immediately, and the
  // refined keys drive the dynamic write protection at step end. This is
  // the paper's "implemented algorithm acquires assertional locks on items
  // dynamically". No-op under kSerializable.
  void UpdateNextAssertion(const AssertionInstance& next_assertion);

  // Conditionally acquires A-locks for `assertion` on its items, checking
  // holder prefixes against the interference table (same discipline as the
  // transaction-initiation check). For steps whose precondition references
  // items only identified at run time — e.g. a read-only transaction that
  // first locates the order it requires I1 of. Returns kDeadlock if this
  // transaction lost a deadlock while waiting. No-op under kSerializable.
  Status AcquireAssertion(const AssertionInstance& assertion);

  // --- Data access (only valid inside a step body) ---

  // `bound_id` (if set) receives the RowId the key is bound to, for a
  // following Update/Delete without a second index walk.
  Result<storage::Row> ReadByKey(const storage::Table& table,
                                 const storage::CompositeKey& key,
                                 bool for_update = false,
                                 storage::RowId* bound_id = nullptr);
  Result<storage::Row> ReadById(const storage::Table& table,
                                storage::RowId id, bool for_update = false);
  // Rows whose primary key extends `prefix`, in key order.
  Result<std::vector<std::pair<storage::RowId, storage::Row>>> ScanPkPrefix(
      const storage::Table& table, const storage::CompositeKey& prefix,
      bool for_update = false);
  // Smallest-keyed row extending `prefix`, if any.
  Result<std::optional<std::pair<storage::RowId, storage::Row>>> MinPkPrefix(
      const storage::Table& table, const storage::CompositeKey& prefix,
      bool for_update = false);
  Result<std::vector<std::pair<storage::RowId, storage::Row>>> ScanIndexPrefix(
      const storage::Table& table, storage::IndexId index,
      const storage::CompositeKey& prefix, bool for_update = false);

  Result<storage::RowId> Insert(storage::Table& table, storage::Row row);
  Status Update(storage::Table& table, storage::RowId id,
                const std::vector<std::pair<int, storage::Value>>& updates);
  Status Delete(storage::Table& table, storage::RowId id);

  // Scalar database variables (single-row tables).
  Result<int64_t> ReadVariable(const storage::Table& var,
                               bool for_update = false);
  Status WriteVariable(storage::Table& var, int64_t value);

  // Client-side compute time between statements (lengthens lock hold times;
  // the knob behind Figure 3).
  void Compute(double seconds);

  // --- Metadata ---

  lock::TxnId txn_id() const { return txn_; }
  int completed_steps() const { return completed_steps_; }
  int step_deadlock_retries() const { return step_deadlock_retries_; }
  bool in_compensation() const { return in_compensation_; }
  ExecMode mode() const { return mode_; }

  // Drains the redo accumulated since the last drain (WAL attached only;
  // empty otherwise). ACC forward steps drain into their end-of-step
  // records internally; Commit drains the rest into the commit record and
  // the engine drains a compensating step's into its compensated record.
  std::vector<storage::RowWrite> TakeRedo() {
    std::vector<storage::RowWrite> out = std::move(redo_);
    redo_.clear();
    return out;
  }

 private:
  friend class Engine;

  TxnContext(Engine* engine, TransactionProgram* program, ExecutionEnv* env,
             lock::TxnId txn, ExecMode mode, bool analyzed);

  // Engine-side entry points.
  Status AcquireInitialAssertion(const AssertionInstance& assertion);
  Status RunCompensation(lock::ActorId comp_step_type,
                         std::vector<int64_t> comp_keys, const StepBody& body);
  // Commits under every backend: OCC first validates and applies its
  // buffer (kDeadlock, nothing applied or logged, on failure); the commit
  // record, carrying the redo not yet logged, is appended before any other
  // transaction can build on these writes; then an MVCC writer's versions
  // are stamped, the undo dropped and every lock released. Returns the LSN
  // to wait on (0 without a WAL).
  Result<uint64_t> Commit();
  // Full physical rollback (the monolithic backends, and an ACC
  // transaction with no completed step).
  void PhysicalRollbackAll();
  // Release locks without touching the database (after compensation).
  void ReleaseLocks();

  // --- Internals ---

  struct HeldAssertion {
    AssertionInstance instance;
    uint32_t instance_number = 0;
    bool held = false;
  };

  // A conventional mode this transaction holds on a (shard) table item.
  struct TableIntent {
    lock::ItemId item;
    lock::LockMode mode;
  };

  // One lock-manager round trip; resolves waiting through the env. Returns
  // OK, kDeadlock when this transaction lost a deadlock, or
  // kDeadlineExceeded when the env's lock-wait deadline expired first.
  Status RequestAndWait(lock::ItemId item, lock::LockMode mode,
                        const lock::RequestContext& ctx);
  // A conventional request of the current step (RequestAndWait). A
  // table-item request that a held mode covers is answered from
  // table_intents_ instead, with the same answer and the same counts.
  Status AcquireLock(lock::ItemId item, lock::LockMode mode);
  TableIntent* FindTableIntent(lock::ItemId item);
  // Records a granted conventional request in table_intents_ (table items
  // only).
  void NoteGranted(lock::ItemId item, lock::LockMode mode);

  // Blocks on the pending request of `txn_`, measuring the wait on the env
  // clock and feeding it to the lock manager's per-mode attribution and the
  // engine's lock-wait histogram. Bounded by the env's LockWaitDeadline()
  // except during compensation (§3.4: compensation always completes); on
  // timeout the queued request is cancelled and kDeadlineExceeded returned.
  Status AwaitTimed(lock::LockMode mode);

  // The read paths' locks: IS/IX on the table item of `shard`, or of every
  // shard when it is std::nullopt; S/X on a row. Both go through
  // AcquireStatementLock.
  Status LockTableForStatement(const storage::Table& table,
                               std::optional<size_t> shard, bool for_update);
  Status LockRowForStatement(const storage::Table& table, storage::RowId id,
                             bool for_update);
  // A read statement's request of `mode` on `item` of `table`. On a frozen
  // table an IS/S request is answered here without the lock manager, and
  // counted like the immediate grant it would have been: no transaction
  // can write a frozen table, so no conflicting mode is ever held or queued
  // on its items. An IX/X request there is refused (kFailedPrecondition)
  // before any lock is taken.
  Status AcquireStatementLock(const storage::Table& table, lock::ItemId item,
                              lock::LockMode mode);
  // Locks and copies each of `ids` that is still live, then charges the
  // statement (the scans' locking path).
  Result<std::vector<std::pair<storage::RowId, storage::Row>>>
  LockAndCopyRows(const storage::Table& table,
                  const std::vector<storage::RowId>& ids, bool for_update);

  // The update/delete locking path before the in-place write: IX on the
  // row's shard table item, X on the row, then its before-image into the
  // undo log and, for an MVCC writer, into a pending version
  // (RegisterVersion). NotFound, with the statement charged, when the row
  // is gone.
  Status LockAndSaveRow(storage::Table& table, storage::RowId id,
                        cc::VersionStore::Kind kind);
  // An MVCC writer registers the row's pending version entry; a no-op for
  // every other backend.
  void RegisterVersion(cc::VersionStore::Kind kind,
                       const storage::Table& table, storage::RowId id,
                       const storage::Row& before);

  // Charges statement CPU plus ACC lock overhead accumulated since the last
  // charge.
  void ChargeStatement(double base_cost);

  // Charge a statement served by lock_free_, passing its result through. A
  // snapshot's refused writes did no work and cost nothing.
  template <typename T>
  T ChargeLockFreeRead(T result) {
    ChargeStatement(engine_->config().costs.read_statement);
    return result;
  }
  template <typename T>
  T ChargeLockFreeWrite(T result) {
    if (mode_ == ExecMode::kOptimistic) {
      ChargeStatement(engine_->config().costs.write_statement);
    }
    return result;
  }

  // Books a row write the locking path just made: into the step's write
  // set and, when the engine logs, into the redo.
  void NoteWrite(storage::RowWrite::Kind kind, const storage::Table& table,
                 storage::RowId id, storage::Row inserted = {},
                 const std::vector<std::pair<int, storage::Value>>* columns =
                     nullptr);

  // The context of an A-lock on `assertion` (instance `number`), requested
  // as the prefix actor after `prefix_steps` completed steps.
  lock::RequestContext AssertionContext(const AssertionInstance& assertion,
                                        uint32_t number,
                                        int prefix_steps) const;

  // Requests A-locks for `assertion` (instance `number`) on its items as
  // the current prefix actor, waiting as needed; under two-level dispatch
  // on its declaration item too ("locking the assertions themselves").
  Status RequestAssertionLocks(const AssertionInstance& assertion,
                               uint32_t number);

  // Grants A-locks for `assertion` (instance `number`) on its items,
  // unconditionally, as the prefix actor of the step about to complete
  // (and on its declaration item under two-level dispatch).
  void GrantAssertionLocks(const AssertionInstance& assertion,
                           uint32_t number);

  // Two-level dispatcher gate (no-op unless EngineConfig::
  // two_level_dispatch): takes IX on every dispatch-relevant assertion
  // declaration, so the step waits while any interfering assertion is
  // locked by another transaction — regardless of item overlap.
  Status DispatchTwoLevel();

  // End-of-step bookkeeping (log record, kComp locks, releases).
  void CompleteStep(const AssertionInstance& next_assertion,
                    uint32_t next_number);

  // Physical rollback of the current step's changes and release of its
  // conventional locks.
  void RollbackStep(storage::UndoLog::Savepoint sp);

  // Assembles the RequestContext for conventional requests of the current
  // step (actor, keys, compensation/analyzed flags).
  lock::RequestContext BuildContext() const;

  Engine* engine_;
  TransactionProgram* program_;
  ExecutionEnv* env_;
  lock::TxnId txn_;
  ExecMode mode_;
  bool analyzed_;

  // kOptimistic's read-set/write-buffer, or a kMultiVersion read-only
  // program's pinned snapshot: every data access routes through it and no
  // locks are taken. Null for the inline locking path (ACC, 2PL, MVCC
  // writers).
  std::unique_ptr<cc::LockFreeAccess> lock_free_;
  // kMultiVersion, writer — runs like kSerializable but registers a
  // pending version entry before every in-place write.
  bool mvcc_writer_ = false;

  storage::UndoLog undo_;
  bool in_step_ = false;
  bool in_compensation_ = false;
  lock::ActorId current_step_type_ = lock::kNoActor;
  lock::KeyList step_keys_;
  std::vector<lock::ItemId> step_writes_;
  // The (shard) table items this transaction holds a conventional lock on,
  // with the held mode: exact, because only this transaction's own requests
  // and releases change it. Cleared wherever its conventional locks are
  // released (CompleteStep, RollbackStep, ReleaseLocks).
  std::vector<TableIntent> table_intents_;
  // CompleteStep's mark buffers, reused from step to step.
  lock::LockManager::StepMarks step_marks_;
  int completed_steps_ = 0;
  int step_deadlock_retries_ = 0;
  uint32_t next_assertion_instance_number_ = 0;
  HeldAssertion current_assertion_;
  AssertionInstance pending_next_assertion_;
  uint32_t pending_next_number_ = 0;
  int pending_lock_ops_ = 0;  // Lock-manager calls since last ChargeStatement.

  // Physical redo captured by Insert/Update/Delete when the engine has a
  // WAL (always empty otherwise — the simulation takes no extra work).
  // ACC forward steps drain it per step; serializable mode accumulates to
  // commit; a rolled-back step truncates back to step_redo_mark_.
  std::vector<storage::RowWrite> redo_;
  size_t step_redo_mark_ = 0;
};

}  // namespace accdb::acc

#endif  // ACCDB_ACC_TXN_CONTEXT_H_
