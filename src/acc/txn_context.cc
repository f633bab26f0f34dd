#include "acc/txn_context.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

#include "cc/occ.h"
#include "cc/version_store.h"

namespace accdb::acc {

namespace {

Status DeadlockStatus() { return Status::Deadlock("deadlock victim"); }

}  // namespace

TxnContext::TxnContext(Engine* engine, TransactionProgram* program,
                       ExecutionEnv* env, lock::TxnId txn, ExecMode mode,
                       bool analyzed)
    : engine_(engine),
      program_(program),
      env_(env),
      txn_(txn),
      mode_(mode),
      analyzed_(analyzed),
      undo_(&engine->db()) {
  if (mode_ == ExecMode::kOptimistic) {
    lock_free_ = std::make_unique<cc::OccBuffer>(&engine_->occ_versions());
  } else if (mode_ == ExecMode::kMultiVersion) {
    if (program_ != nullptr && program_->read_only()) {
      lock_free_ =
          std::make_unique<cc::SnapshotReader>(&engine_->version_store());
    } else {
      mvcc_writer_ = true;
    }
  }
}

lock::RequestContext TxnContext::BuildContext() const {
  lock::RequestContext ctx;
  ctx.actor = current_step_type_;
  ctx.keys = step_keys_;
  ctx.for_compensation = in_compensation_;
  ctx.analyzed = analyzed_;
  return ctx;
}

TxnContext::TableIntent* TxnContext::FindTableIntent(lock::ItemId item) {
  auto it = std::find_if(
      table_intents_.begin(), table_intents_.end(),
      [item](const TableIntent& intent) { return intent.item == item; });
  return it == table_intents_.end() ? nullptr : &*it;
}

void TxnContext::NoteGranted(lock::ItemId item, lock::LockMode mode) {
  if (!item.is_table()) return;
  if (TableIntent* intent = FindTableIntent(item)) {
    intent->mode = lock::ModeCombine(intent->mode, mode);
  } else {
    table_intents_.push_back(TableIntent{item, mode});
  }
}

Status TxnContext::RequestAndWait(lock::ItemId item, lock::LockMode mode,
                                  const lock::RequestContext& ctx) {
  ++pending_lock_ops_;
  env_->PrepareWait(txn_);
  switch (engine_->lock_manager().Request(txn_, item, mode, ctx, env_)) {
    case lock::Outcome::kGranted:
      env_->DiscardWait(txn_);
      return Status::Ok();
    case lock::Outcome::kAborted:
      env_->DiscardWait(txn_);
      return DeadlockStatus();
    case lock::Outcome::kWaiting:
      return AwaitTimed(mode);
  }
  return Status::Internal("unreachable");
}

Status TxnContext::AcquireLock(lock::ItemId item, lock::LockMode mode) {
  if (item.is_table()) {
    const TableIntent* intent = FindTableIntent(item);
    if (intent != nullptr && lock::ModeCovers(intent->mode, mode)) {
      lock::LockManager& lm = engine_->lock_manager();
      // Covered re-request: the lock manager would grant it at once, after
      // a visit to the table item's partition. Answer it here, counted the
      // same.
#ifdef ACCDB_EXPENSIVE_CHECKS
      if (!lm.Holds(txn_, item, mode)) {
        std::fprintf(stderr, "txn %llu table-intent memo claims %s on %s\n",
                     static_cast<unsigned long long>(txn_),
                     std::string(lock::LockModeName(mode)).c_str(),
                     item.ToString().c_str());
        std::abort();
      }
#endif
      ++pending_lock_ops_;
      lm.RecordCoveredRequest(txn_);
      return Status::Ok();
    }
  }
  ACCDB_RETURN_IF_ERROR(RequestAndWait(item, mode, BuildContext()));
  NoteGranted(item, mode);
  return Status::Ok();
}

Status TxnContext::AwaitTimed(lock::LockMode mode) {
  // Compensation must always complete (§3.4), so it is exempt from the
  // request deadline; forward steps give up once the deadline passes.
  const double deadline = in_compensation_
                              ? std::numeric_limits<double>::infinity()
                              : env_->LockWaitDeadline();
  const double wait_start = env_->Now();
  WaitVerdict verdict = env_->AwaitLockUntil(txn_, deadline);
  if (verdict == WaitVerdict::kTimedOut) {
    // The request is still queued and the wait cell still armed. Cancel the
    // waiter first; if a grant raced in before the cancel, the transaction
    // now holds the lock and the abort path's ReleaseAll drops it.
    engine_->lock_manager().CancelWaiter(txn_);
    env_->DiscardWait(txn_);
  }
  const double waited = env_->Now() - wait_start;
  engine_->lock_manager().RecordWaitTime(mode, waited);
  engine_->RecordLockWait(*env_, waited);
  switch (verdict) {
    case WaitVerdict::kGranted:
      return Status::Ok();
    case WaitVerdict::kAborted:
      return DeadlockStatus();
    case WaitVerdict::kTimedOut:
      return Status::DeadlineExceeded("lock wait deadline");
  }
  return Status::Internal("unreachable");
}

void TxnContext::ChargeStatement(double base_cost) {
  double cost = base_cost;
  if (mode_ == ExecMode::kAccDecomposed &&
      engine_->config().charge_acc_overheads) {
    cost += pending_lock_ops_ * engine_->config().costs.acc_lock_overhead;
  }
  pending_lock_ops_ = 0;
  env_->UseServer(cost);
}

Status TxnContext::LockTableForStatement(const storage::Table& table,
                                         std::optional<size_t> shard,
                                         bool for_update) {
  const lock::LockMode mode =
      for_update ? lock::LockMode::kIX : lock::LockMode::kIS;
  if (shard.has_value()) {
    return AcquireStatementLock(
        table, lock::ItemId::Table(table.id(), *shard), mode);
  }
  for (const lock::ItemId& item : lock::ItemId::ShardItems(table)) {
    ACCDB_RETURN_IF_ERROR(AcquireStatementLock(table, item, mode));
  }
  return Status::Ok();
}

Status TxnContext::LockRowForStatement(const storage::Table& table,
                                       storage::RowId id, bool for_update) {
  return AcquireStatementLock(
      table, lock::ItemId::Row(table.id(), id),
      for_update ? lock::LockMode::kX : lock::LockMode::kS);
}

Status TxnContext::AcquireStatementLock(const storage::Table& table,
                                        lock::ItemId item,
                                        lock::LockMode mode) {
  if (!table.frozen()) return AcquireLock(item, mode);
  if (mode != lock::LockMode::kIS && mode != lock::LockMode::kS) {
    return table.CheckWritable();
  }
  // IS and S conflict only with IX/SIX/X, and (for an unanalyzed requester)
  // with kComp; every one of those comes from a write, and a frozen table
  // refuses writes before they lock. So the lock manager would grant this
  // at once: answer it here, counted the same.
  lock::LockManager& lm = engine_->lock_manager();
#ifdef ACCDB_EXPENSIVE_CHECKS
  if (lm.HolderCount(item) != 0) {
    std::fprintf(stderr, "txn %llu: frozen %s holds %zu lock(s) on %s\n",
                 static_cast<unsigned long long>(txn_), table.name().c_str(),
                 lm.HolderCount(item), item.ToString().c_str());
    std::abort();
  }
#endif
  ++pending_lock_ops_;
  lm.RecordCoveredRequest(txn_);
  return Status::Ok();
}

Result<std::vector<std::pair<storage::RowId, storage::Row>>>
TxnContext::LockAndCopyRows(const storage::Table& table,
                            const std::vector<storage::RowId>& ids,
                            bool for_update) {
  std::vector<std::pair<storage::RowId, storage::Row>> out;
  for (storage::RowId id : ids) {
    ACCDB_RETURN_IF_ERROR(LockRowForStatement(table, id, for_update));
    const storage::Row* row = table.Get(id);
    if (row != nullptr) out.emplace_back(id, *row);
  }
  ChargeStatement(engine_->config().costs.read_statement);
  return out;
}

Result<storage::Row> TxnContext::ReadByKey(const storage::Table& table,
                                           const storage::CompositeKey& key,
                                           bool for_update,
                                           storage::RowId* bound_id) {
  // Lock-free backends first (for_update is meaningless without locks: OCC
  // conflicts are caught by validation, snapshot readers never write).
  if (lock_free_ != nullptr) {
    return ChargeLockFreeRead(lock_free_->ReadByKey(table, key, bound_id));
  }
  ACCDB_RETURN_IF_ERROR(
      LockTableForStatement(table, table.ShardOfKey(key), for_update));
  // Lookup-lock-verify loop: the binding key -> row id may change while we
  // wait for the row lock. Primary keys are immutable and RowIds are never
  // reused (InsertWithId restores a row under its own key), so a row that
  // is still live after the lock is still bound to `key`; a dead one was
  // deleted (and perhaps re-inserted under a new id) while we waited.
  for (;;) {
    std::optional<storage::RowId> id = table.LookupPk(key);
    if (!id.has_value()) {
      ChargeStatement(engine_->config().costs.read_statement);
      return Status::NotFound(table.name() + " " +
                              storage::CompositeKeyToString(key));
    }
    ACCDB_RETURN_IF_ERROR(LockRowForStatement(table, *id, for_update));
    if (const storage::Row* row = table.Get(*id)) {
      ChargeStatement(engine_->config().costs.read_statement);
      if (bound_id != nullptr) *bound_id = *id;
      return *row;
    }
  }
}

Result<storage::Row> TxnContext::ReadById(const storage::Table& table,
                                          storage::RowId id, bool for_update) {
  if (lock_free_ != nullptr) {
    return ChargeLockFreeRead(lock_free_->ReadById(table, id));
  }
  ACCDB_RETURN_IF_ERROR(
      LockTableForStatement(table, storage::RowIdShard(id), for_update));
  ACCDB_RETURN_IF_ERROR(LockRowForStatement(table, id, for_update));
  const storage::Row* row = table.Get(id);
  ChargeStatement(engine_->config().costs.read_statement);
  if (row == nullptr) {
    return Status::NotFound(table.name() + " row");
  }
  return *row;
}

Result<std::vector<std::pair<storage::RowId, storage::Row>>>
TxnContext::ScanPkPrefix(const storage::Table& table,
                         const storage::CompositeKey& prefix,
                         bool for_update) {
  if (lock_free_ != nullptr) {
    return ChargeLockFreeRead(lock_free_->ScanPkPrefix(table, prefix));
  }
  ACCDB_RETURN_IF_ERROR(LockTableForStatement(
      table, table.ShardOfPkPrefix(prefix), for_update));
  return LockAndCopyRows(table, table.ScanPkPrefix(prefix), for_update);
}

Result<std::optional<std::pair<storage::RowId, storage::Row>>>
TxnContext::MinPkPrefix(const storage::Table& table,
                        const storage::CompositeKey& prefix, bool for_update) {
  if (lock_free_ != nullptr) {
    return ChargeLockFreeRead(lock_free_->MinPkPrefix(table, prefix));
  }
  ACCDB_RETURN_IF_ERROR(LockTableForStatement(
      table, table.ShardOfPkPrefix(prefix), for_update));
  for (;;) {
    std::optional<storage::RowId> id = table.MinPkPrefix(prefix);
    if (!id.has_value()) {
      ChargeStatement(engine_->config().costs.read_statement);
      return std::optional<std::pair<storage::RowId, storage::Row>>();
    }
    ACCDB_RETURN_IF_ERROR(LockRowForStatement(table, *id, for_update));
    if (table.MinPkPrefix(prefix) == id) {
      const storage::Row* row = table.Get(*id);
      assert(row != nullptr);
      ChargeStatement(engine_->config().costs.read_statement);
      return std::optional<std::pair<storage::RowId, storage::Row>>(
          std::make_pair(*id, *row));
    }
  }
}

Result<std::vector<std::pair<storage::RowId, storage::Row>>>
TxnContext::ScanIndexPrefix(const storage::Table& table,
                            storage::IndexId index,
                            const storage::CompositeKey& prefix,
                            bool for_update) {
  if (lock_free_ != nullptr) {
    return ChargeLockFreeRead(
        lock_free_->ScanIndexPrefix(table, index, prefix));
  }
  ACCDB_RETURN_IF_ERROR(LockTableForStatement(
      table, table.ShardOfIndexPrefix(index, prefix), for_update));
  return LockAndCopyRows(table, table.ScanIndexPrefix(index, prefix),
                         for_update);
}

Result<storage::RowId> TxnContext::Insert(storage::Table& table,
                                          storage::Row row) {
  ACCDB_RETURN_IF_ERROR(table.CheckWritable());
  if (lock_free_ != nullptr) {
    // OCC buffers the row under a virtual RowId; the real id is assigned
    // when the insert applies at commit.
    return ChargeLockFreeWrite(lock_free_->Insert(table, std::move(row)));
  }
  ACCDB_RETURN_IF_ERROR(
      AcquireLock(lock::ItemId::Table(table.id(), table.ShardOfRow(row)),
                  lock::LockMode::kIX));
  // The X-lock on the new row is taken inside the table's publication hook,
  // i.e. under the exclusive table latch, so no concurrent scanner can ever
  // observe the row before this transaction holds it. The grant is
  // necessarily immediate: the RowId was assigned under the latch, so no
  // other transaction can have requested a lock on it yet.
  lock::LockManager& lm = engine_->lock_manager();
  Result<storage::RowId> inserted =
      table.Insert(row, [&](storage::RowId id) {
        ++pending_lock_ops_;
        env_->PrepareWait(txn_);
        lock::Outcome outcome = lm.Request(
            txn_, lock::ItemId::Row(table.id(), id), lock::LockMode::kX,
            BuildContext(), env_);
        env_->DiscardWait(txn_);
        assert(outcome == lock::Outcome::kGranted &&
               "fresh-row X lock must grant immediately");
        (void)outcome;
        // Registered while still under the exclusive shard latch: no
        // snapshot reader can copy the row before its kCreate entry
        // (= invisible until our commit timestamp) exists.
        RegisterVersion(cc::VersionStore::Kind::kCreate, table, id,
                        storage::Row{});
      });
  if (!inserted.ok()) {
    ChargeStatement(engine_->config().costs.write_statement);
    return inserted.status();
  }
  storage::RowId id = *inserted;
  undo_.WillInsert(table.id(), id);
  NoteWrite(storage::RowWrite::Kind::kInsert, table, id, std::move(row));
  ChargeStatement(engine_->config().costs.write_statement);
  return id;
}

Status TxnContext::Update(
    storage::Table& table, storage::RowId id,
    const std::vector<std::pair<int, storage::Value>>& updates) {
  ACCDB_RETURN_IF_ERROR(table.CheckWritable());
  if (lock_free_ != nullptr) {
    return ChargeLockFreeWrite(lock_free_->Update(table, id, updates));
  }
  ACCDB_RETURN_IF_ERROR(
      LockAndSaveRow(table, id, cc::VersionStore::Kind::kUpdate));
  ACCDB_RETURN_IF_ERROR(table.UpdateColumns(id, updates));
  NoteWrite(storage::RowWrite::Kind::kUpdate, table, id, {}, &updates);
  ChargeStatement(engine_->config().costs.write_statement);
  return Status::Ok();
}

Status TxnContext::Delete(storage::Table& table, storage::RowId id) {
  ACCDB_RETURN_IF_ERROR(table.CheckWritable());
  if (lock_free_ != nullptr) {
    return ChargeLockFreeWrite(lock_free_->Delete(table, id));
  }
  ACCDB_RETURN_IF_ERROR(
      LockAndSaveRow(table, id, cc::VersionStore::Kind::kDelete));
  ACCDB_RETURN_IF_ERROR(table.Delete(id));
  NoteWrite(storage::RowWrite::Kind::kDelete, table, id);
  ChargeStatement(engine_->config().costs.write_statement);
  return Status::Ok();
}

Status TxnContext::LockAndSaveRow(storage::Table& table, storage::RowId id,
                                  cc::VersionStore::Kind kind) {
  ACCDB_RETURN_IF_ERROR(
      AcquireLock(lock::ItemId::Table(table.id(), storage::RowIdShard(id)),
                  lock::LockMode::kIX));
  ACCDB_RETURN_IF_ERROR(
      AcquireLock(lock::ItemId::Row(table.id(), id), lock::LockMode::kX));
  const storage::Row* before = table.Get(id);
  if (before == nullptr) {
    ChargeStatement(engine_->config().costs.write_statement);
    return Status::NotFound(table.name() + " row");
  }
  if (kind == cc::VersionStore::Kind::kDelete) {
    undo_.WillDelete(table.id(), id, *before);
  } else {
    undo_.WillUpdate(table.id(), id, *before);
  }
  // Before the in-place write, so a snapshot reader that copies the
  // mutated row always finds this entry's pre-image.
  RegisterVersion(kind, table, id, *before);
  return Status::Ok();
}

void TxnContext::RegisterVersion(cc::VersionStore::Kind kind,
                                 const storage::Table& table,
                                 storage::RowId id,
                                 const storage::Row& before) {
  if (!mvcc_writer_) return;
  engine_->version_store().RegisterPending(
      txn_, lock::ItemId::Row(table.id(), id), kind, before);
}

void TxnContext::NoteWrite(
    storage::RowWrite::Kind kind, const storage::Table& table,
    storage::RowId id, storage::Row inserted,
    const std::vector<std::pair<int, storage::Value>>* columns) {
  step_writes_.push_back(lock::ItemId::Row(table.id(), id));
  if (engine_->wal() == nullptr) return;
  storage::RowWrite& write = redo_.emplace_back();
  write.kind = kind;
  write.table = table.id();
  write.row = id;
  write.row_data = std::move(inserted);
  if (columns != nullptr) write.columns = *columns;
}

Result<int64_t> TxnContext::ReadVariable(const storage::Table& var,
                                         bool for_update) {
  Result<storage::Row> row =
      ReadById(var, storage::kVariableRowId, for_update);
  if (!row.ok()) return row.status();
  return (*row)[1].AsInt64();
}

Status TxnContext::WriteVariable(storage::Table& var, int64_t value) {
  return Update(var, storage::kVariableRowId,
                {{1, storage::Value(value)}});
}

void TxnContext::Compute(double seconds) { env_->ClientDelay(seconds); }

void TxnContext::UpdateNextAssertion(const AssertionInstance& next_assertion) {
  if (mode_ != ExecMode::kAccDecomposed) return;
  assert(in_step_ && "UpdateNextAssertion outside a step");
  pending_next_assertion_ = next_assertion;
  GrantAssertionLocks(pending_next_assertion_, pending_next_number_);
}

Status TxnContext::AcquireAssertion(const AssertionInstance& assertion) {
  if (mode_ != ExecMode::kAccDecomposed || assertion.empty()) {
    return Status::Ok();
  }
  assert(in_step_ && "AcquireAssertion outside a step");
  ACCDB_RETURN_IF_ERROR(
      RequestAssertionLocks(assertion, pending_next_number_));
  // Audit: the locks are granted, so the assertion instance is claimed to
  // hold for this reader from here on.
  if (!in_compensation_) engine_->AuditAssertion(assertion, *env_);
  return Status::Ok();
}

lock::RequestContext TxnContext::AssertionContext(
    const AssertionInstance& assertion, uint32_t number,
    int prefix_steps) const {
  lock::RequestContext ctx;
  ctx.actor = program_->PrefixActor(prefix_steps);
  ctx.assertion = assertion.decl;
  ctx.assertion_instance = number;
  ctx.keys = assertion.keys;
  ctx.analyzed = analyzed_;
  return ctx;
}

Status TxnContext::RequestAssertionLocks(const AssertionInstance& assertion,
                                         uint32_t number) {
  lock::RequestContext ctx =
      AssertionContext(assertion, number, completed_steps_);
  ctx.for_compensation = in_compensation_;
  for (const lock::ItemId& item : assertion.items) {
    ACCDB_RETURN_IF_ERROR(RequestAndWait(item, lock::LockMode::kAssert, ctx));
  }
  if (engine_->config().two_level_dispatch) {
    ACCDB_RETURN_IF_ERROR(RequestAndWait(AssertionDeclItem(assertion.decl),
                                         lock::LockMode::kAssert, ctx));
  }
  return Status::Ok();
}

void TxnContext::GrantAssertionLocks(const AssertionInstance& assertion,
                                     uint32_t number) {
  if (assertion.empty()) return;
  lock::LockManager& lm = engine_->lock_manager();
  const lock::RequestContext ctx =
      AssertionContext(assertion, number, completed_steps_ + 1);
  for (const lock::ItemId& item : assertion.items) {
    lm.GrantUnconditional(txn_, item, lock::LockMode::kAssert, ctx);
  }
  if (engine_->config().two_level_dispatch) {
    lm.GrantUnconditional(txn_, AssertionDeclItem(assertion.decl),
                          lock::LockMode::kAssert, ctx);
  }
}

Status TxnContext::DispatchTwoLevel() {
  const EngineConfig& config = engine_->config();
  if (!config.two_level_dispatch || in_compensation_) return Status::Ok();
  for (lock::AssertionId decl : config.dispatch_assertions) {
    ACCDB_RETURN_IF_ERROR(
        AcquireLock(AssertionDeclItem(decl), lock::LockMode::kIX));
  }
  return Status::Ok();
}

Status TxnContext::RunStep(lock::ActorId step_type, lock::KeyList step_keys,
                           const AssertionInstance& next_assertion,
                           const StepBody& body) {
  assert(!in_step_ && "steps do not nest");

  const double step_start = env_->Now();

  if (mode_ != ExecMode::kAccDecomposed) {
    // Monolithic backends (2PL / OCC / MVCC): the body runs inline — locks
    // held to commit for 2PL and MVCC writers, no locks at all for OCC and
    // snapshot readers. Errors (deadlock, voluntary abort) propagate to the
    // Engine, which performs a full physical rollback (including on
    // teardown unwind, see Execute).
    in_step_ = true;
    current_step_type_ = step_type;
    step_keys_ = step_keys;
    Status status = body(*this);
    in_step_ = false;
    if (status.ok()) {
      ++completed_steps_;
      engine_->RecordStepLatency(*env_, env_->Now() - step_start);
    }
    return status;
  }

  in_step_ = true;
  current_step_type_ = step_type;
  step_keys_ = step_keys;
  pending_next_number_ = ++next_assertion_instance_number_;
  pending_next_assertion_ = next_assertion;

  storage::UndoLog::Savepoint sp = undo_.Mark();
  assert(sp == 0 && "ACC steps release undo at step end");
  step_redo_mark_ = redo_.size();

  // Audit: the interstep assertion carried across the think-time gap must
  // still hold now that the next step begins — its A-locks are supposed to
  // have excluded every interfering actor in between. This is the check
  // that catches an unsound interference-table entry at run time.
  if (current_assertion_.held && !in_compensation_) {
    engine_->AuditAssertion(current_assertion_.instance, *env_);
  }

  bool granted_next = false;
  int attempts = 0;
  for (;;) {
    step_writes_.clear();
    pending_next_assertion_ = next_assertion;  // Undo in-body refinements.
    // The two-level dispatcher (when configured) gates the step before it
    // announces its next assertion or touches any item.
    Status status = DispatchTwoLevel();
    if (status.ok() && !granted_next) {
      // "Before initiating step S_{i,j}: unconditionally grant
      // A(pre(S_{i,j+1})) locks on all items in pre(S_{i,j+1})."
      GrantAssertionLocks(pending_next_assertion_, pending_next_number_);
      granted_next = true;
    }
    if (!status.ok()) {
      // Dispatch deadlock: nothing executed yet; fall through to the retry
      // machinery below.
    }
    try {
      if (status.ok()) status = body(*this);
    } catch (...) {
      // Teardown unwind (the simulation kernel's shutdown): steps are
      // atomic, so the in-flight step's physical effects must not survive —
      // this models the WAL undo pass a real system performs at restart.
      RollbackStep(sp);
      in_step_ = false;
      throw;
    }
    if (status.ok()) {
      CompleteStep(pending_next_assertion_, pending_next_number_);
      in_step_ = false;
      engine_->RecordStepLatency(*env_, env_->Now() - step_start);
      return Status::Ok();
    }
    RollbackStep(sp);
    if (status.code() != StatusCode::kDeadlock) {
      // Voluntary abort or logic error: propagate for compensation.
      in_step_ = false;
      return status;
    }
    if (++attempts > engine_->config().step_retry_limit) {
      // "If the deadlock recurs when S_{i,j} restarts, the system will
      // rollback T_i by executing CS_{i,j-1}." The exhausted attempt is
      // escalated, not retried, so it must not count as a step retry (it
      // surfaces as a compensation/txn restart instead — counting both
      // would double-book one deadlock).
      in_step_ = false;
      return status;
    }
    ++step_deadlock_retries_;
  }
}

void TxnContext::CompleteStep(const AssertionInstance& next_assertion,
                              uint32_t next_number) {
  lock::LockManager& lm = engine_->lock_manager();
  const EngineConfig& config = engine_->config();

  // End-of-step record + compensation work area (overhead charged).
  if (config.charge_acc_overheads) {
    env_->UseServer(config.costs.acc_step_end_overhead);
  }
  uint64_t force_lsn = 0;
  if (!in_compensation_ && engine_->wal() != nullptr) {
    // The step's redo rides in the end-of-step record: a durable record
    // means the step's writes replay at recovery, an absent record means
    // none of them happened — the atomic-step contract.
    WalRecord rec;
    rec.type = LogRecordType::kEndOfStep;
    rec.txn = txn_;
    rec.step_index = completed_steps_ + 1;
    rec.work_area = program_->SerializeWorkArea();
    rec.redo = TakeRedo();
    force_lsn = engine_->wal()->Append(std::move(rec));
  }

  // Items written by this step: kComp markers (compensation reservation and
  // legacy isolation), plus dynamic extension of the next assertion's
  // A-locks to every written item ("the implemented algorithm acquires
  // assertional locks on items dynamically at the time conventional locks
  // are acquired"). The release below installs them.
  lock::LockManager::StepMarks& marks = step_marks_;
  marks.comp.clear();
  marks.asserts.clear();
  marks.comp_ctx = lock::RequestContext{};
  marks.comp_ctx.analyzed = analyzed_;
  marks.assert_ctx =
      AssertionContext(next_assertion, next_number, completed_steps_ + 1);
  const bool protect = !next_assertion.empty();
  for (const lock::ItemId& item : step_writes_) {
    marks.comp.push_back(item);
    // The compensating step will also need the intent lock on the table
    // item of every row it touches (the row's shard item); mark that item
    // too so compensation never waits for foreign assertional locks at any
    // granularity (Section 3.4).
    marks.comp.push_back(lock::ItemId::Table(item.table, item.shard()));
    if (protect) marks.asserts.push_back(item);
  }

  // The step is durable; physical rollback is no longer possible.
  undo_.ReleaseAll();

  // "When a step S_{i,j} terminates: unconditionally release all
  // conventional and A(pre(S_{i,j})) locks." The marks go in during the
  // same partition visits.
  lm.ReleaseConventional(txn_, marks);
  table_intents_.clear();
  if (current_assertion_.held) {
    lm.ReleaseAssertion(txn_, current_assertion_.instance.decl,
                        current_assertion_.instance_number);
  }
  current_assertion_.instance = next_assertion;
  current_assertion_.instance_number = next_number;
  current_assertion_.held = !next_assertion.empty();
  ++completed_steps_;
  step_writes_.clear();

  // Audit: the step body must have established the assertion it announced
  // (the "claim" end of the contract; the RunStep-entry audit checks the
  // "survives interleaving" end).
  if (current_assertion_.held && !in_compensation_) {
    engine_->AuditAssertion(current_assertion_.instance, *env_);
  }

  // Force the end-of-step record before the step's result publishes to the
  // program. Locks were already released above: anything that reads this
  // step's writes logs behind our record, and durability is prefix-ordered,
  // so releasing early is safe and keeps lock hold times off the fsync path.
  // A force failure needs no handling here: the WAL is fail-stop, so the
  // transaction's own commit/compensated force returns the same sticky
  // error and nothing downstream of this step is ever acknowledged.
  if (force_lsn != 0) (void)engine_->wal()->WaitDurable(force_lsn);
}

void TxnContext::RollbackStep(storage::UndoLog::Savepoint sp) {
  Status status = undo_.RollbackTo(sp);
  assert(status.ok() && "step undo must succeed");
  (void)status;
  engine_->lock_manager().ReleaseConventional(txn_);
  table_intents_.clear();
  step_writes_.clear();
  // The rolled-back step's writes were physically undone; drop their redo.
  if (redo_.size() > step_redo_mark_) redo_.resize(step_redo_mark_);
}

Status TxnContext::AcquireInitialAssertion(const AssertionInstance& assertion) {
  if (assertion.empty()) return Status::Ok();
  if (engine_->config().charge_acc_overheads) {
    env_->UseServer(engine_->config().costs.acc_init_overhead);
  }
  // Instance 0, as the prefix actor of zero completed steps.
  ACCDB_RETURN_IF_ERROR(RequestAssertionLocks(assertion, 0));
  current_assertion_.instance = assertion;
  current_assertion_.instance_number = 0;
  current_assertion_.held = true;
  pending_lock_ops_ = 0;
  // Audit: the transaction initiates assuming its initial assertion; the
  // initiation check just proved no in-flight actor interferes with it.
  engine_->AuditAssertion(assertion, *env_);
  return Status::Ok();
}

Status TxnContext::RunCompensation(lock::ActorId comp_step_type,
                                   std::vector<int64_t> comp_keys,
                                   const StepBody& body) {
  in_compensation_ = true;
  // A compensating step must eventually succeed: deadlocks are always
  // resolved in its favour (the lock manager aborts the steps delaying it),
  // so retrying cannot livelock.
  for (;;) {
    Status status =
        RunStep(comp_step_type, comp_keys, AssertionInstance{}, body);
    if (status.ok()) {
      in_compensation_ = false;
      return Status::Ok();
    }
    if (status.code() != StatusCode::kDeadlock) {
      in_compensation_ = false;
      return status;  // Compensation logic error; surfaced to caller.
    }
  }
}

Result<uint64_t> TxnContext::Commit() {
  uint64_t commit_lsn = 0;
  auto log_commit = [this, &commit_lsn] {
    commit_lsn = engine_->AppendLog(LogRecordType::kCommit, txn_, TakeRedo());
  };
  if (lock_free_ != nullptr) {
    // OCC logs inside its commit critical section: the moment the mutex
    // releases, the applied writes can feed a dependent transaction's
    // validation, and recoverability requires that dependent to log at a
    // higher LSN. The applied writes become this record's redo.
    ACCDB_RETURN_IF_ERROR(lock_free_->Commit(
        engine_->wal() != nullptr ? &redo_ : nullptr, log_commit));
  } else {
    // The locking backends log before the release below, so every
    // dependent logs behind us. ACC's steps drained their redo into their
    // end-of-step records: its commit record carries none.
    log_commit();
  }
  // Stamp before the locks release: a snapshot acquired afterwards must
  // already see this transaction's entries fully timestamped.
  if (mvcc_writer_) engine_->version_store().CommitTxn(txn_);
  undo_.ReleaseAll();
  ReleaseLocks();
  return commit_lsn;
}

void TxnContext::PhysicalRollbackAll() {
  Status status = undo_.RollbackAll();
  assert(status.ok() && "transaction undo must succeed");
  (void)status;
  redo_.clear();
  // After the undo restored the rows (between the two, each pending
  // entry's image equals the live row, so readers are indifferent).
  if (mvcc_writer_) engine_->version_store().AbortTxn(txn_);
  ReleaseLocks();
}

void TxnContext::ReleaseLocks() {
  engine_->lock_manager().ReleaseAll(txn_);
  table_intents_.clear();
}

}  // namespace accdb::acc
