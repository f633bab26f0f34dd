// Randomized lock-manager stress: many simulated transactions take random
// mixes of conventional, assertional, and compensation locks in random
// orders with random hold patterns. Invariants checked per seed:
//   * the simulation always drains (every deadlock is detected and
//     resolved — no silent wedges),
//   * after the run the lock table is empty,
//   * aborted waiters always correspond to reported deadlocks,
//   * determinism: identical stats for identical seeds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "acc/catalog.h"
#include "acc/conflict_resolver.h"
#include "acc/interference.h"
#include "common/rng.h"
#include "lock/lock_manager.h"
#include "sim/simulation.h"

namespace accdb::lock {
namespace {

struct StressResult {
  uint64_t completed = 0;
  uint64_t victim_aborts = 0;
  LockManager::Stats stats;
};

// A minimal blocking shim: each simulated worker owns a wait cell; the
// listener resolves it.
class StressHarness : public LockManager::Listener {
 public:
  StressHarness(sim::Simulation& sim, LockManager& lm) : sim_(sim), lm_(lm) {
    lm_.set_listener(this);
  }

  // Returns true if granted, false if this txn lost a deadlock.
  bool AcquireBlocking(TxnId txn, ItemId item, LockMode mode,
                       RequestContext ctx) {
    cells_[txn] = Cell{std::make_unique<sim::Signal>(sim_), false, false};
    Outcome outcome = lm_.Request(txn, item, mode, std::move(ctx));
    if (outcome == Outcome::kGranted) {
      cells_.erase(txn);
      return true;
    }
    if (outcome == Outcome::kAborted) {
      cells_.erase(txn);
      return false;
    }
    Cell& cell = cells_[txn];
    while (!cell.resolved) sim_.WaitSignal(*cell.signal);
    bool granted = cell.granted;
    cells_.erase(txn);
    return granted;
  }

  void OnGranted(TxnId txn, void*) override { Resolve(txn, true); }
  void OnWaiterAborted(TxnId txn, void*) override { Resolve(txn, false); }

 private:
  struct Cell {
    std::unique_ptr<sim::Signal> signal;
    bool resolved = false;
    bool granted = false;
  };

  void Resolve(TxnId txn, bool granted) {
    auto it = cells_.find(txn);
    if (it == cells_.end()) return;
    it->second.resolved = true;
    it->second.granted = granted;
    it->second.signal->Notify();
  }

  sim::Simulation& sim_;
  LockManager& lm_;
  std::unordered_map<TxnId, Cell> cells_;
};

StressResult RunStress(uint64_t seed, int workers, int txns_per_worker,
                       int items, bool with_assertions) {
  acc::Catalog catalog;
  acc::InterferenceTable table;
  ActorId writer = catalog.RegisterStepType("w");
  AssertionId assertion = catalog.RegisterAssertion("a", 1);
  table.Set(writer, assertion, acc::Interference::kIfSameKey);
  acc::AccConflictResolver resolver(&table);

  StressResult result;
  sim::Simulation sim;
  LockManager lm(&resolver);
  StressHarness harness(sim, lm);
  uint64_t next_txn = 0;

  Rng seeder(seed);
  for (int w = 0; w < workers; ++w) {
    uint64_t worker_seed = seeder.Next();
    sim.Spawn("worker", [&, worker_seed] {
      Rng rng(worker_seed);
      for (int t = 0; t < txns_per_worker; ++t) {
        sim.Delay(rng.Exponential(0.001));
        TxnId txn = ++next_txn;
        bool aborted = false;
        int ops = static_cast<int>(rng.UniformInt(1, 6));
        for (int op = 0; op < ops && !aborted; ++op) {
          ItemId item = ItemId::Row(1, rng.UniformInt(1, items));
          double choice = rng.UniformDouble();
          if (with_assertions && choice < 0.15) {
            RequestContext ctx;
            ctx.actor = writer;
            ctx.assertion = assertion;
            ctx.assertion_instance = static_cast<uint32_t>(op);
            ctx.keys = {rng.UniformInt(1, 4)};
            lm.GrantUnconditional(txn, item, LockMode::kAssert, ctx);
          } else if (with_assertions && choice < 0.25) {
            RequestContext ctx;
            lm.GrantUnconditional(txn, item, LockMode::kComp, ctx);
          } else {
            RequestContext ctx;
            ctx.actor = writer;
            ctx.keys = {rng.UniformInt(1, 4)};
            LockMode mode =
                rng.Bernoulli(0.5) ? LockMode::kS : LockMode::kX;
            if (!harness.AcquireBlocking(txn, item, mode, ctx)) {
              aborted = true;
              ++result.victim_aborts;
            }
          }
          if (!aborted) sim.Delay(rng.Exponential(0.0005));
        }
        lm.ReleaseAll(txn);
        // The simulation is cooperative (one process runs at a time), so
        // probing the release index mid-run is race-free. Every 16th txn
        // keeps the O(table) check from dominating the test.
        if (txn % 16 == 0) {
          std::string violation;
          EXPECT_TRUE(lm.CheckIndexConsistency(&violation)) << violation;
        }
        if (!aborted) ++result.completed;
      }
    });
  }
  sim.Run();
  EXPECT_EQ(sim.live_processes(), 0) << lm.DumpWaiters();
  {
    std::string violation;
    EXPECT_TRUE(lm.CheckIndexConsistency(&violation)) << violation;
  }
  result.stats = lm.stats();
  // After ReleaseAll for every txn, nothing is held anywhere.
  for (int i = 1; i <= items; ++i) {
    EXPECT_EQ(lm.HolderCount(ItemId::Row(1, i)), 0u);
    EXPECT_EQ(lm.QueueLength(ItemId::Row(1, i)), 0u);
  }
  return result;
}

class LockStressTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, LockStressTest,
                         ::testing::Values(3, 7, 31, 127, 8191));

TEST_P(LockStressTest, ConventionalOnlyDrains) {
  StressResult result = RunStress(GetParam(), /*workers=*/16,
                                  /*txns_per_worker=*/40, /*items=*/8,
                                  /*with_assertions=*/false);
  EXPECT_GT(result.completed, 300u);
  // Victim aborts only happen when deadlocks were reported.
  EXPECT_LE(result.victim_aborts, result.stats.deadlocks);
}

TEST_P(LockStressTest, WithAssertionalModesDrains) {
  StressResult result = RunStress(GetParam(), /*workers=*/16,
                                  /*txns_per_worker=*/40, /*items=*/8,
                                  /*with_assertions=*/true);
  EXPECT_GT(result.completed, 300u);
}

TEST_P(LockStressTest, Deterministic) {
  StressResult a = RunStress(GetParam(), 8, 20, 6, true);
  StressResult b = RunStress(GetParam(), 8, 20, 6, true);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.victim_aborts, b.victim_aborts);
  EXPECT_EQ(a.stats.requests, b.stats.requests);
  EXPECT_EQ(a.stats.deadlocks, b.stats.deadlocks);
}

}  // namespace
}  // namespace accdb::lock
