#include "runtime/thread_env.h"

#include <cassert>
#include <cmath>
#include <thread>

namespace accdb::runtime {

void ThreadExecutionEnv::PrepareWait(lock::TxnId txn) {
  std::lock_guard<std::mutex> guard(mu_);
  assert(!armed_ && "nested PrepareWait on one env");
  armed_ = true;
  resolved_ = false;
  granted_ = false;
  armed_txn_ = txn;
}

bool ThreadExecutionEnv::AwaitLock(lock::TxnId txn) {
  std::unique_lock<std::mutex> lk(mu_);
  assert(armed_ && armed_txn_ == txn && "AwaitLock without PrepareWait");
  (void)txn;
  const double start = Now();
  cv_.wait(lk, [this] { return resolved_; });
  total_lock_wait_ += Now() - start;
  armed_ = false;
  return granted_;
}

acc::WaitVerdict ThreadExecutionEnv::AwaitLockUntil(lock::TxnId txn,
                                                    double deadline) {
  if (std::isinf(deadline)) {
    return AwaitLock(txn) ? acc::WaitVerdict::kGranted
                          : acc::WaitVerdict::kAborted;
  }
  std::unique_lock<std::mutex> lk(mu_);
  assert(armed_ && armed_txn_ == txn && "AwaitLockUntil without PrepareWait");
  const double start = Now();
  // The deadline is on this env's clock (steady_clock seconds), so convert
  // the remaining budget to a relative wait.
  const auto until =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(deadline - start));
  bool resolved = cv_.wait_until(lk, until, [this] { return resolved_; });
  total_lock_wait_ += Now() - start;
  if (!resolved) {
    // Timed out: the request is still queued and the cell stays armed so a
    // racing grant notification is still absorbed; the caller cancels the
    // waiter and then discards the wait.
    return acc::WaitVerdict::kTimedOut;
  }
  armed_ = false;
  return granted_ ? acc::WaitVerdict::kGranted : acc::WaitVerdict::kAborted;
}

void ThreadExecutionEnv::DiscardWait(lock::TxnId txn) {
  std::lock_guard<std::mutex> guard(mu_);
  assert(armed_ && armed_txn_ == txn && "DiscardWait without PrepareWait");
  (void)txn;
  armed_ = false;
}

void ThreadExecutionEnv::LockGranted(lock::TxnId txn) {
  // Notify under the latch: once we release mu_, the woken worker may tear
  // the env down, so nothing here may touch members after unlocking.
  std::lock_guard<std::mutex> guard(mu_);
  // Notifications for a txn this env is not armed for are stale (e.g. the
  // request resolved synchronously and the wait was discarded); drop them.
  if (!armed_ || armed_txn_ != txn || resolved_) return;
  resolved_ = true;
  granted_ = true;
  cv_.notify_all();
}

void ThreadExecutionEnv::LockAborted(lock::TxnId txn) {
  std::lock_guard<std::mutex> guard(mu_);
  if (!armed_ || armed_txn_ != txn || resolved_) return;
  resolved_ = true;
  granted_ = false;
  cv_.notify_all();
}

}  // namespace accdb::runtime
