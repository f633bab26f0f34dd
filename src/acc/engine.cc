#include "acc/engine.h"

#include <cassert>

#include "acc/txn_context.h"

namespace accdb::acc {

namespace {

// Final status of an execution that did not commit. Deadline expiry stays
// typed (serving layers dispatch on it); every other cause collapses to the
// classic kAborted.
Status FinalAbortStatus(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) return status;
  return Status::Aborted(status.message());
}

}  // namespace

lock::ItemId AssertionDeclItem(lock::AssertionId decl) {
  return lock::ItemId{/*table=*/0xFFFFFFFFu, /*row=*/decl};
}

std::string_view ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kAccDecomposed: return "acc";
    case ExecMode::kSerializable: return "2pl";
    case ExecMode::kOptimistic: return "occ";
    case ExecMode::kMultiVersion: return "mvcc";
  }
  return "?";
}

std::optional<ExecMode> ParseExecMode(std::string_view text) {
  if (text == "acc") return ExecMode::kAccDecomposed;
  if (text == "2pl") return ExecMode::kSerializable;
  if (text == "occ") return ExecMode::kOptimistic;
  if (text == "mvcc") return ExecMode::kMultiVersion;
  return std::nullopt;
}

thread_local TxnIdAllocator::Cache TxnIdAllocator::cache_;
std::atomic<uint64_t> TxnIdAllocator::next_epoch_{1};

lock::TxnId TxnIdAllocator::Next() {
  if (block_size_ == 1) {
    return last_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  Cache& cache = cache_;
  if (cache.epoch != epoch_ || cache.next == cache.end) {
    const lock::TxnId base =
        last_id_.fetch_add(block_size_, std::memory_order_relaxed);
    cache.epoch = epoch_;
    cache.next = base + 1;
    cache.end = base + block_size_ + 1;
  }
  return cache.next++;
}

Engine::Engine(storage::Database* db, const lock::ConflictResolver* resolver,
               EngineConfig config)
    : db_(db),
      config_(std::move(config)),
      lock_manager_(resolver,
                    lock::LockManagerOptions{config_.lock_partitions, {}}),
      txn_ids_(config_.txn_id_block) {
  lock_manager_.set_listener(this);
  if (!config_.wal.path.empty()) {
    wal_ = Wal::Open(config_.wal, &wal_status_);
    if (wal_ != nullptr) txn_ids_.FloorTo(wal_->max_recovered_txn());
  }
}

void Engine::OnGranted(lock::TxnId txn) {
  std::lock_guard<std::mutex> guard(env_mu_);
  auto it = txn_envs_.find(txn);
  if (it != txn_envs_.end()) it->second->LockGranted(txn);
}

void Engine::OnWaiterAborted(lock::TxnId txn) {
  std::lock_guard<std::mutex> guard(env_mu_);
  auto it = txn_envs_.find(txn);
  if (it != txn_envs_.end()) it->second->LockAborted(txn);
}

void Engine::AuditAssertion(const AssertionInstance& instance) {
  if (!config_.audit_assertions || !auditor_ || instance.empty()) return;
  std::string detail;
  AuditVerdict verdict = auditor_(instance, &detail);
  if (verdict == AuditVerdict::kNotChecked) return;
  std::lock_guard<std::mutex> guard(metrics_mu_);
  ++metrics_.assertions_audited;
  if (verdict == AuditVerdict::kViolated) {
    ++metrics_.assertion_violations;
    if (metrics_.first_assertion_violation.empty()) {
      metrics_.first_assertion_violation = std::move(detail);
    }
  }
}

ExecResult Engine::Execute(TransactionProgram& program, ExecutionEnv& env,
                           ExecMode mode) {
  const bool analyzed = program.analyzed();
  // A never-analyzed program cannot run decomposed; the other backends do
  // not depend on analysis, so only the ACC mode falls back.
  if (!analyzed && mode == ExecMode::kAccDecomposed) {
    mode = ExecMode::kSerializable;
  }

  ExecResult result;
  // Measured across every restart: the latency a client of this execution
  // would observe. Recorded only on normal completion (not teardown unwind).
  const double exec_start = env.Now();
  auto record_txn_latency = [&] { RecordTxnLatency(env.Now() - exec_start); };
  for (int attempt = 0;; ++attempt) {
    lock::TxnId txn = NextTxnId();
    BindEnv(txn, &env);
    TxnContext ctx(this, &program, &env, txn, mode, analyzed);

    Status status;
    if (mode == ExecMode::kAccDecomposed) {
      if (wal_ != nullptr) {
        // Not forced: a begin with no durable end-of-step is invisible to
        // recovery, so it may ride along with the first step's force.
        WalRecord rec;
        rec.type = LogRecordType::kBegin;
        rec.txn = txn;
        rec.program = std::string(program.name());
        wal_->Append(std::move(rec));
      }
      status = ctx.AcquireInitialAssertion(program.InitialAssertion());
    }
    if (status.ok()) {
      try {
        status = program.Run(ctx);
      } catch (...) {
        // Teardown unwind: outside the ACC the whole uncommitted
        // transaction evaporates physically (the WAL undo pass) — for OCC
        // nothing was applied, for 2PL/MVCC the undo log restores the rows
        // (and MVCC drops its pending versions). Under the ACC, RunStep
        // already rolled back the in-flight step and the committed steps
        // await compensation by recovery.
        if (mode != ExecMode::kAccDecomposed) ctx.PhysicalRollbackAll();
        UnbindEnv(txn);
        throw;
      }
    }

    result.steps_completed = ctx.completed_steps();
    result.step_deadlock_retries += ctx.step_deadlock_retries();

    if (status.ok() && mode == ExecMode::kOptimistic) {
      // Backward validation + write-buffer apply under the commit mutex,
      // with the WAL commit record (if any) appended inside the same
      // critical section — so a dependent transaction that reads these
      // writes necessarily logs at a higher LSN. A failure comes back as
      // kDeadlock, so the restart branch below re-runs the program exactly
      // like a lost deadlock would.
      status = ctx.OccCommit();
    }

    if (status.ok()) {
      uint64_t commit_lsn = 0;
      if (mode == ExecMode::kAccDecomposed) {
        if (wal_ != nullptr) {
          WalRecord rec;
          rec.type = LogRecordType::kCommit;
          rec.txn = txn;
          commit_lsn = wal_->Append(std::move(rec));
        }
      } else if (mode == ExecMode::kOptimistic) {
        // The commit record was already appended inside OccCommit's
        // critical section; only the durability wait remains.
        commit_lsn = ctx.occ_commit_lsn();
      } else if (wal_ != nullptr) {
        // Monolithic locking backends (2PL/MVCC): nothing was logged
        // before this point, so the single commit record carries the whole
        // transaction's redo. Appended before FinishCommit releases the
        // locks, so dependents log behind us.
        WalRecord rec;
        rec.type = LogRecordType::kCommit;
        rec.txn = txn;
        rec.redo = ctx.TakeRedo();
        commit_lsn = wal_->Append(std::move(rec));
      }
      ctx.FinishCommit();
      UnbindEnv(txn);
      // Any transaction that read our writes logs behind us — 2PL/MVCC
      // append before the locks release above, OCC appends under the
      // commit mutex — and durability is prefix-ordered, so a dependent
      // cannot become durable first.
      if (commit_lsn != 0) {
        Status durable = wal_->WaitDurable(commit_lsn);
        if (!durable.ok()) {
          // Applied in memory but the commit record never reached disk (the
          // WAL is fail-stop): the outcome will not survive a restart, so
          // it must not be acknowledged as a commit.
          result.status = durable;
          record_txn_latency();
          return result;
        }
      }
      result.status = Status::Ok();
      record_txn_latency();
      return result;
    }

    if (mode == ExecMode::kAccDecomposed) {
      // The failing step was already physically rolled back inside RunStep.
      if (ctx.completed_steps() > 0) {
        assert(program.has_compensation() &&
               "multi-step programs must provide compensation");
        const int forward_steps = ctx.completed_steps();
        Status comp = ctx.RunCompensation(
            program.CompensationStepType(), program.CompensationKeys(),
            [&program, forward_steps](TxnContext& c) {
              return program.Compensate(c, forward_steps);
            },
            std::string(program.name()));
        ctx.ReleaseLocks();
        UnbindEnv(txn);
        if (!comp.ok()) {
          // A compensation that cannot complete is a programming error in
          // the workload (its semantic undo must always be executable);
          // surface it instead of silently leaving the database broken.
          result.status = Status::Internal("compensation failed: " +
                                           comp.ToString());
          record_txn_latency();
          return result;
        }
        result.compensated = true;
        if (wal_ != nullptr) {
          // The compensating step's redo rides inside its kCompensated
          // record: either both are durable (replay applies the undo and
          // recovery skips the txn) or neither is (recovery re-runs the
          // compensation from scratch) — never half.
          WalRecord rec;
          rec.type = LogRecordType::kCompensated;
          rec.txn = txn;
          rec.redo = ctx.TakeRedo();
          Status durable = wal_->WaitDurable(wal_->Append(std::move(rec)));
          if (!durable.ok()) {
            // The compensation ran in memory but its record is not durable;
            // report the log failure, not a clean abort.
            result.status = durable;
            record_txn_latency();
            return result;
          }
        }
        result.status = FinalAbortStatus(status);
        record_txn_latency();
        return result;
      }
      // No step completed: the transaction simply evaporates.
      if (wal_ != nullptr) {
        // Unforced bookkeeping: no durable end-of-step exists, so recovery
        // ignores this txn either way.
        WalRecord rec;
        rec.type = LogRecordType::kCompensated;
        rec.txn = txn;
        wal_->Append(std::move(rec));
      }
      ctx.ReleaseLocks();
      UnbindEnv(txn);
      if (status.code() == StatusCode::kDeadlock &&
          attempt < config_.txn_restart_limit) {
        ++result.txn_restarts;
        continue;
      }
      result.status = FinalAbortStatus(status);
      record_txn_latency();
      return result;
    }

    // Monolithic backends: full physical rollback (a no-op for OCC, whose
    // writes never left its buffer); restart on deadlock — which is also
    // how an OCC validation failure arrives here.
    ctx.PhysicalRollbackAll();
    UnbindEnv(txn);
    if (status.code() == StatusCode::kDeadlock &&
        attempt < config_.txn_restart_limit) {
      ++result.txn_restarts;
      continue;
    }
    result.status = FinalAbortStatus(status);
    record_txn_latency();
    return result;
  }
}

Status Engine::ExecuteCompensation(
    const std::string& program_name, lock::ActorId comp_step_type,
    std::vector<int64_t> comp_keys, ExecutionEnv& env,
    const std::function<Status(TxnContext&)>& body, lock::TxnId logged_txn) {
  // A minimal program shell so TxnContext has a program to talk to.
  class RecoveryShell : public TransactionProgram {
   public:
    explicit RecoveryShell(const std::string& name) : name_(name) {}
    std::string_view name() const override { return name_; }
    Status Run(TxnContext&) override {
      return Status::Internal("recovery shell is not runnable");
    }

   private:
    std::string name_;
  };

  RecoveryShell shell(program_name);
  lock::TxnId txn = NextTxnId();
  BindEnv(txn, &env);
  TxnContext ctx(this, &shell, &env, txn, ExecMode::kAccDecomposed,
                 /*analyzed=*/true);
  Status status = ctx.RunCompensation(comp_step_type, std::move(comp_keys),
                                      body, program_name);
  if (status.ok()) {
    // Log under the crashed transaction's id (when given), so that a crash
    // during recovery does not lead to a double compensation on the next
    // restart.
    const lock::TxnId logged =
        logged_txn != lock::kInvalidTxn ? logged_txn : txn;
    if (wal_ != nullptr) {
      WalRecord rec;
      rec.type = LogRecordType::kCompensated;
      rec.txn = logged;
      rec.redo = ctx.TakeRedo();
      Status durable = wal_->WaitDurable(wal_->Append(std::move(rec)));
      // A non-durable compensated record fails the recovery attempt (the
      // next restart will re-run this compensation from scratch).
      if (!durable.ok()) status = durable;
    }
  }
  ctx.ReleaseLocks();
  UnbindEnv(txn);
  return status;
}

Status TransactionProgram::Compensate(TxnContext&, int) {
  return Status::Internal("program does not define compensation");
}

}  // namespace accdb::acc
