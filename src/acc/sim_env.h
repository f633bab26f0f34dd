// ExecutionEnv backed by the discrete-event simulation: database-server CPU
// is a sim Resource, lock waits suspend the calling sim process until the
// lock manager's grant/abort notification arrives.

#ifndef ACCDB_ACC_SIM_ENV_H_
#define ACCDB_ACC_SIM_ENV_H_

#include <memory>
#include <unordered_map>

#include "acc/engine.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace accdb::acc {

class SimExecutionEnv : public ExecutionEnv {
 public:
  // `servers` may be null when statements should cost no queueing (pure
  // lock-behaviour experiments).
  SimExecutionEnv(sim::Simulation& sim, sim::Resource* servers)
      : sim_(sim), servers_(servers) {}

  void UseServer(double seconds) override {
    if (servers_ == nullptr) {
      sim_.Delay(seconds);
      return;
    }
    sim::ResourceGuard guard(*servers_);
    sim_.Delay(seconds);
  }

  void ClientDelay(double seconds) override { sim_.Delay(seconds); }

  double Now() const override { return sim_.Now(); }

  void PrepareWait(lock::TxnId txn) override;
  bool AwaitLock(lock::TxnId txn) override;
  void DiscardWait(lock::TxnId txn) override;

  void LockGranted(lock::TxnId txn) override;
  void LockAborted(lock::TxnId txn) override;

  // Every sim process runs on its own OS thread, but all of them share one
  // timeline: one shard keeps each histogram's floating-point sums in event
  // order, so results stay bit-identical from run to run.
  size_t MetricsShard() const override { return 0; }

  // Cumulative virtual time transactions spent blocked on locks.
  double total_lock_wait() const { return total_lock_wait_; }

 private:
  struct WaitCell {
    explicit WaitCell(sim::Simulation& sim) : signal(sim) {}
    sim::Signal signal;
    bool resolved = false;
    bool granted = false;
  };

  sim::Simulation& sim_;
  sim::Resource* servers_;
  std::unordered_map<lock::TxnId, std::unique_ptr<WaitCell>> cells_;
  double total_lock_wait_ = 0;
};

}  // namespace accdb::acc

#endif  // ACCDB_ACC_SIM_ENV_H_
