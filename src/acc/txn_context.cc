#include "acc/txn_context.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

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
    occ_ = std::make_unique<cc::OccBuffer>(&engine_->occ_versions());
  } else if (mode_ == ExecMode::kMultiVersion) {
    if (program_ != nullptr && program_->read_only()) {
      snapshot_.emplace(&engine_->version_store(),
                        engine_->version_store().AcquireSnapshot());
    } else {
      mvcc_writer_ = true;
    }
  }
}

TxnContext::~TxnContext() {
  if (snapshot_.has_value()) {
    engine_->version_store().ReleaseSnapshot(snapshot_->snapshot());
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

TxnContext::TableIntent* TxnContext::FindTableIntent(
    storage::TableId table) {
  auto it = std::find_if(
      table_intents_.begin(), table_intents_.end(),
      [table](const TableIntent& intent) { return intent.table == table; });
  return it == table_intents_.end() ? nullptr : &*it;
}

void TxnContext::NoteGranted(lock::ItemId item, lock::LockMode mode) {
  if (!item.is_table()) return;
  if (TableIntent* intent = FindTableIntent(item.table)) {
    intent->mode = lock::ModeCombine(intent->mode, mode);
  } else {
    table_intents_.push_back(TableIntent{item.table, mode});
  }
}

Status TxnContext::AcquireLock(lock::ItemId item, lock::LockMode mode) {
  ++pending_lock_ops_;
  lock::LockManager& lm = engine_->lock_manager();
  if (item.is_table()) {
    const TableIntent* intent = FindTableIntent(item.table);
    if (intent != nullptr && lock::ModeCovers(intent->mode, mode)) {
      // Covered re-request: the lock manager would grant it at once, after
      // a visit to the table's partition. Answer it here, counted the same.
#ifdef ACCDB_EXPENSIVE_CHECKS
      if (!lm.Holds(txn_, item, mode)) {
        std::fprintf(stderr, "txn %llu table-intent memo claims %s on %s\n",
                     static_cast<unsigned long long>(txn_),
                     std::string(lock::LockModeName(mode)).c_str(),
                     item.ToString().c_str());
        std::abort();
      }
#endif
      lm.RecordCoveredRequest(txn_);
      return Status::Ok();
    }
  }
  env_->PrepareWait(txn_);
  lock::Outcome outcome = lm.Request(txn_, item, mode, BuildContext(), env_);
  Status status;
  switch (outcome) {
    case lock::Outcome::kGranted:
      env_->DiscardWait(txn_);
      break;
    case lock::Outcome::kAborted:
      env_->DiscardWait(txn_);
      return DeadlockStatus();
    case lock::Outcome::kWaiting:
      status = AwaitTimed(mode);
      break;
  }
  if (status.ok()) NoteGranted(item, mode);
  return status;
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

Status TxnContext::LockRowForStatement(const storage::Table& table,
                                       storage::RowId id, bool for_update) {
  return AcquireLock(lock::ItemId::Row(table.id(), id),
                     for_update ? lock::LockMode::kX : lock::LockMode::kS);
}

Result<storage::Row> TxnContext::ReadByKey(const storage::Table& table,
                                           const storage::CompositeKey& key,
                                           bool for_update,
                                           storage::RowId* bound_id) {
  // Lock-free backends first (for_update is meaningless without locks: OCC
  // conflicts are caught by validation, snapshot readers never write).
  if (occ_ != nullptr) {
    Result<storage::Row> row = occ_->ReadByKey(table, key, bound_id);
    ChargeStatement(engine_->config().costs.read_statement);
    return row;
  }
  if (snapshot_.has_value()) {
    Result<storage::Row> row = snapshot_->ReadByKey(table, key, bound_id);
    ChargeStatement(engine_->config().costs.read_statement);
    return row;
  }
  ACCDB_RETURN_IF_ERROR(AcquireLock(
      lock::ItemId::Table(table.id()),
      for_update ? lock::LockMode::kIX : lock::LockMode::kIS));
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
  if (occ_ != nullptr) {
    Result<storage::Row> row = occ_->ReadById(table, id);
    ChargeStatement(engine_->config().costs.read_statement);
    return row;
  }
  if (snapshot_.has_value()) {
    Result<storage::Row> row = snapshot_->ReadById(table, id);
    ChargeStatement(engine_->config().costs.read_statement);
    return row;
  }
  ACCDB_RETURN_IF_ERROR(AcquireLock(
      lock::ItemId::Table(table.id()),
      for_update ? lock::LockMode::kIX : lock::LockMode::kIS));
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
  if (occ_ != nullptr) {
    auto rows = occ_->ScanPkPrefix(table, prefix);
    ChargeStatement(engine_->config().costs.read_statement);
    return rows;
  }
  if (snapshot_.has_value()) {
    auto rows = snapshot_->ScanPkPrefix(table, prefix);
    ChargeStatement(engine_->config().costs.read_statement);
    return rows;
  }
  ACCDB_RETURN_IF_ERROR(AcquireLock(
      lock::ItemId::Table(table.id()),
      for_update ? lock::LockMode::kIX : lock::LockMode::kIS));
  std::vector<std::pair<storage::RowId, storage::Row>> out;
  for (storage::RowId id : table.ScanPkPrefix(prefix)) {
    ACCDB_RETURN_IF_ERROR(LockRowForStatement(table, id, for_update));
    const storage::Row* row = table.Get(id);
    if (row != nullptr) out.emplace_back(id, *row);
  }
  ChargeStatement(engine_->config().costs.read_statement);
  return out;
}

Result<std::optional<std::pair<storage::RowId, storage::Row>>>
TxnContext::MinPkPrefix(const storage::Table& table,
                        const storage::CompositeKey& prefix, bool for_update) {
  if (occ_ != nullptr) {
    auto row = occ_->MinPkPrefix(table, prefix);
    ChargeStatement(engine_->config().costs.read_statement);
    return row;
  }
  if (snapshot_.has_value()) {
    auto row = snapshot_->MinPkPrefix(table, prefix);
    ChargeStatement(engine_->config().costs.read_statement);
    return row;
  }
  ACCDB_RETURN_IF_ERROR(AcquireLock(
      lock::ItemId::Table(table.id()),
      for_update ? lock::LockMode::kIX : lock::LockMode::kIS));
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
  if (occ_ != nullptr) {
    auto rows = occ_->ScanIndexPrefix(table, index, prefix);
    ChargeStatement(engine_->config().costs.read_statement);
    return rows;
  }
  if (snapshot_.has_value()) {
    auto rows = snapshot_->ScanIndexPrefix(table, index, prefix);
    ChargeStatement(engine_->config().costs.read_statement);
    return rows;
  }
  ACCDB_RETURN_IF_ERROR(AcquireLock(
      lock::ItemId::Table(table.id()),
      for_update ? lock::LockMode::kIX : lock::LockMode::kIS));
  std::vector<std::pair<storage::RowId, storage::Row>> out;
  for (storage::RowId id : table.ScanIndexPrefix(index, prefix)) {
    ACCDB_RETURN_IF_ERROR(LockRowForStatement(table, id, for_update));
    const storage::Row* row = table.Get(id);
    if (row != nullptr) out.emplace_back(id, *row);
  }
  ChargeStatement(engine_->config().costs.read_statement);
  return out;
}

Result<storage::RowId> TxnContext::Insert(storage::Table& table,
                                          storage::Row row) {
  if (occ_ != nullptr) {
    // Buffered under a virtual RowId; the real id is assigned when the
    // insert applies at commit.
    Result<storage::RowId> id = occ_->Insert(table, std::move(row));
    ChargeStatement(engine_->config().costs.write_statement);
    return id;
  }
  if (snapshot_.has_value()) {
    return Status::Internal("snapshot transaction is read-only");
  }
  ACCDB_RETURN_IF_ERROR(
      AcquireLock(lock::ItemId::Table(table.id()), lock::LockMode::kIX));
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
        if (mvcc_writer_) {
          // Registered while still under the exclusive shard latch: no
          // snapshot reader can copy the row before its kCreate entry
          // (= invisible until our commit timestamp) exists.
          engine_->version_store().RegisterPending(
              txn_, lock::ItemId::Row(table.id(), id),
              cc::VersionStore::Kind::kCreate, storage::Row{});
        }
      });
  if (!inserted.ok()) {
    ChargeStatement(engine_->config().costs.write_statement);
    return inserted.status();
  }
  storage::RowId id = *inserted;
  undo_.WillInsert(table.id(), id);
  step_writes_.push_back(lock::ItemId::Row(table.id(), id));
  if (engine_->wal() != nullptr) {
    WalRedoOp op;
    op.kind = WalRedoOp::Kind::kInsert;
    op.table = table.id();
    op.row = id;
    op.row_data = std::move(row);
    redo_.push_back(std::move(op));
  }
  ChargeStatement(engine_->config().costs.write_statement);
  return id;
}

Status TxnContext::Update(
    storage::Table& table, storage::RowId id,
    const std::vector<std::pair<int, storage::Value>>& updates) {
  if (occ_ != nullptr) {
    Status status = occ_->Update(table, id, updates);
    ChargeStatement(engine_->config().costs.write_statement);
    return status;
  }
  if (snapshot_.has_value()) {
    return Status::Internal("snapshot transaction is read-only");
  }
  ACCDB_RETURN_IF_ERROR(
      AcquireLock(lock::ItemId::Table(table.id()), lock::LockMode::kIX));
  ACCDB_RETURN_IF_ERROR(
      AcquireLock(lock::ItemId::Row(table.id(), id), lock::LockMode::kX));
  const storage::Row* before = table.Get(id);
  if (before == nullptr) {
    ChargeStatement(engine_->config().costs.write_statement);
    return Status::NotFound(table.name() + " row");
  }
  undo_.WillUpdate(table.id(), id, *before);
  if (mvcc_writer_) {
    // Before the in-place write, so a snapshot reader that copies the
    // mutated row always finds this entry's pre-image.
    engine_->version_store().RegisterPending(
        txn_, lock::ItemId::Row(table.id(), id),
        cc::VersionStore::Kind::kUpdate, *before);
  }
  ACCDB_RETURN_IF_ERROR(table.UpdateColumns(id, updates));
  step_writes_.push_back(lock::ItemId::Row(table.id(), id));
  if (engine_->wal() != nullptr) {
    WalRedoOp op;
    op.kind = WalRedoOp::Kind::kUpdate;
    op.table = table.id();
    op.row = id;
    op.columns = updates;
    redo_.push_back(std::move(op));
  }
  ChargeStatement(engine_->config().costs.write_statement);
  return Status::Ok();
}

Status TxnContext::Delete(storage::Table& table, storage::RowId id) {
  if (occ_ != nullptr) {
    Status status = occ_->Delete(table, id);
    ChargeStatement(engine_->config().costs.write_statement);
    return status;
  }
  if (snapshot_.has_value()) {
    return Status::Internal("snapshot transaction is read-only");
  }
  ACCDB_RETURN_IF_ERROR(
      AcquireLock(lock::ItemId::Table(table.id()), lock::LockMode::kIX));
  ACCDB_RETURN_IF_ERROR(
      AcquireLock(lock::ItemId::Row(table.id(), id), lock::LockMode::kX));
  const storage::Row* before = table.Get(id);
  if (before == nullptr) {
    ChargeStatement(engine_->config().costs.write_statement);
    return Status::NotFound(table.name() + " row");
  }
  undo_.WillDelete(table.id(), id, *before);
  if (mvcc_writer_) {
    engine_->version_store().RegisterPending(
        txn_, lock::ItemId::Row(table.id(), id),
        cc::VersionStore::Kind::kDelete, *before);
  }
  ACCDB_RETURN_IF_ERROR(table.Delete(id));
  step_writes_.push_back(lock::ItemId::Row(table.id(), id));
  if (engine_->wal() != nullptr) {
    WalRedoOp op;
    op.kind = WalRedoOp::Kind::kDelete;
    op.table = table.id();
    op.row = id;
    redo_.push_back(std::move(op));
  }
  ChargeStatement(engine_->config().costs.write_statement);
  return Status::Ok();
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
  lock::LockManager& lm = engine_->lock_manager();
  lock::RequestContext ctx;
  ctx.actor = program_->PrefixActor(completed_steps_);
  ctx.assertion = assertion.decl;
  ctx.assertion_instance = pending_next_number_;
  ctx.keys = assertion.keys;
  ctx.analyzed = analyzed_;
  ctx.for_compensation = in_compensation_;
  std::vector<lock::ItemId> items = assertion.items;
  if (engine_->config().two_level_dispatch) {
    items.push_back(AssertionDeclItem(assertion.decl));
  }
  for (const lock::ItemId& item : items) {
    ++pending_lock_ops_;
    env_->PrepareWait(txn_);
    lock::Outcome outcome =
        lm.Request(txn_, item, lock::LockMode::kAssert, ctx, env_);
    if (outcome == lock::Outcome::kGranted) {
      env_->DiscardWait(txn_);
      continue;
    }
    if (outcome == lock::Outcome::kAborted) {
      env_->DiscardWait(txn_);
      return DeadlockStatus();
    }
    ACCDB_RETURN_IF_ERROR(AwaitTimed(lock::LockMode::kAssert));
  }
  // Audit: the locks are granted, so the assertion instance is claimed to
  // hold for this reader from here on.
  if (!in_compensation_) engine_->AuditAssertion(assertion, *env_);
  return Status::Ok();
}

void TxnContext::GrantAssertionLocks(const AssertionInstance& assertion,
                                     uint32_t number) {
  if (assertion.empty()) return;
  lock::LockManager& lm = engine_->lock_manager();
  lock::RequestContext ctx;
  ctx.actor = program_->PrefixActor(completed_steps_ + 1);
  ctx.assertion = assertion.decl;
  ctx.assertion_instance = number;
  ctx.keys = assertion.keys;
  ctx.analyzed = analyzed_;
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
  // protection. The release below installs them.
  lock::LockManager::StepMarks& marks = step_marks_;
  marks.comp.clear();
  marks.asserts.clear();
  marks.comp_ctx = lock::RequestContext{};
  marks.comp_ctx.analyzed = analyzed_;
  marks.assert_ctx = lock::RequestContext{};
  marks.assert_ctx.actor = program_->PrefixActor(completed_steps_ + 1);
  marks.assert_ctx.assertion = next_assertion.decl;
  marks.assert_ctx.assertion_instance = next_number;
  marks.assert_ctx.keys = next_assertion.keys;
  marks.assert_ctx.analyzed = analyzed_;
  const bool protect = config.auto_protect_writes && !next_assertion.empty();
  for (const lock::ItemId& item : step_writes_) {
    marks.comp.push_back(item);
    // The compensating step will also need the table-level intent lock of
    // every row it touches; mark the table too so compensation never waits
    // for foreign assertional locks at any granularity (Section 3.4).
    marks.comp.push_back(lock::ItemId::Table(item.table));
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
  lock::LockManager& lm = engine_->lock_manager();
  lock::RequestContext ctx;
  ctx.actor = program_->PrefixActor(0);
  ctx.assertion = assertion.decl;
  ctx.assertion_instance = 0;
  ctx.keys = assertion.keys;
  ctx.analyzed = analyzed_;
  std::vector<lock::ItemId> items = assertion.items;
  if (engine_->config().two_level_dispatch) {
    items.push_back(AssertionDeclItem(assertion.decl));
  }
  for (const lock::ItemId& item : items) {
    ++pending_lock_ops_;
    env_->PrepareWait(txn_);
    lock::Outcome outcome =
        lm.Request(txn_, item, lock::LockMode::kAssert, ctx, env_);
    if (outcome == lock::Outcome::kGranted) {
      env_->DiscardWait(txn_);
      continue;
    }
    if (outcome == lock::Outcome::kAborted) {
      env_->DiscardWait(txn_);
      return DeadlockStatus();
    }
    ACCDB_RETURN_IF_ERROR(AwaitTimed(lock::LockMode::kAssert));
  }
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
                                   const StepBody& body,
                                   const std::string& program_name) {
  (void)program_name;
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

Status TxnContext::OccCommit() {
  assert(occ_ != nullptr && "OccCommit outside kOptimistic");
  if (engine_->wal() == nullptr) return occ_->Commit(nullptr);
  // The commit record must be appended while OccBuffer::Commit still holds
  // the OCC commit mutex — the moment it releases, the applied writes can
  // feed a dependent transaction's validation, and recoverability requires
  // that dependent to log at a higher LSN. The callback runs inside the
  // critical section, right after `applied` is complete.
  std::vector<cc::OccAppliedWrite> applied;
  auto log_commit = [this, &applied] {
    for (cc::OccAppliedWrite& op : applied) {
      WalRedoOp redo;
      redo.table = op.table;
      redo.row = op.row;
      switch (op.kind) {
        case cc::OccAppliedWrite::Kind::kInsert:
          redo.kind = WalRedoOp::Kind::kInsert;
          redo.row_data = std::move(op.row_data);
          break;
        case cc::OccAppliedWrite::Kind::kUpdate:
          redo.kind = WalRedoOp::Kind::kUpdate;
          redo.columns = std::move(op.columns);
          break;
        case cc::OccAppliedWrite::Kind::kDelete:
          redo.kind = WalRedoOp::Kind::kDelete;
          break;
      }
      redo_.push_back(std::move(redo));
    }
    WalRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn = txn_;
    rec.redo = TakeRedo();
    occ_commit_lsn_ = engine_->wal()->Append(std::move(rec));
  };
  return occ_->Commit(&applied, log_commit);
}

void TxnContext::FinishCommit() {
  // Stamp before the locks release: a snapshot acquired afterwards must
  // already see this transaction's entries fully timestamped.
  if (mvcc_writer_) engine_->version_store().CommitTxn(txn_);
  undo_.ReleaseAll();
  ReleaseLocks();
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
