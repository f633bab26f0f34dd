// Multi-threaded lock-manager stress: real OS threads hammer one
// LockManager with random conventional, assertional, and compensation locks
// across random items, with deadlock-victim aborts resolved through the
// real-thread wait protocol (ThreadExecutionEnv as the blocking shim).
// This is the TSan workhorse for the lock manager's latching: tsan_smoke
// runs it under -fsanitize=thread.
//
// Invariants checked:
//   * the run drains (every worker finishes; no lost wakeup wedges),
//   * CheckIndexConsistency holds mid-run (latched probe) and after,
//   * the lock table is empty after every transaction released,
//   * stats counters are conserved: every request is an immediate grant, a
//     wait, or a deadlock abort; victims never exceed reported deadlocks.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "acc/catalog.h"
#include "acc/conflict_resolver.h"
#include "acc/interference.h"
#include "common/rng.h"
#include "lock/lock_manager.h"
#include "runtime/thread_env.h"

namespace accdb::lock {
namespace {

// Routes lock-manager notifications to the owning worker's env. Txn ids are
// striped per worker (worker w uses w+1, w+1+W, w+1+2W, ...), so the owner
// is a pure function of the id and the routing table is immutable while
// threads run.
class StripedRouter : public LockManager::Listener {
 public:
  StripedRouter(std::vector<runtime::ThreadExecutionEnv>* envs)
      : envs_(envs) {}

  void OnGranted(TxnId txn, void*) override { EnvOf(txn).LockGranted(txn); }
  void OnWaiterAborted(TxnId txn, void*) override {
    EnvOf(txn).LockAborted(txn);
  }

 private:
  runtime::ThreadExecutionEnv& EnvOf(TxnId txn) {
    return (*envs_)[(txn - 1) % envs_->size()];
  }

  std::vector<runtime::ThreadExecutionEnv>* envs_;
};

struct MtStressResult {
  uint64_t completed = 0;
  uint64_t victim_aborts = 0;
  LockManager::Stats stats;
};

MtStressResult RunMtStress(uint64_t seed, size_t partitions, int workers,
                           int txns_per_worker, int items,
                           bool with_assertions) {
  acc::Catalog catalog;
  acc::InterferenceTable table;
  ActorId writer = catalog.RegisterStepType("w");
  AssertionId assertion = catalog.RegisterAssertion("a", 1);
  table.Set(writer, assertion, acc::Interference::kIfSameKey);
  acc::AccConflictResolver resolver(&table);

  LockManagerOptions options;
  options.partitions = partitions;
  LockManager lm(&resolver, std::move(options));
  EXPECT_EQ(lm.partition_count(), partitions);
  std::vector<runtime::ThreadExecutionEnv> envs(workers);
  StripedRouter router(&envs);
  lm.set_listener(&router);

  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> victim_aborts{0};

  Rng seeder(seed);
  std::vector<uint64_t> worker_seeds;
  for (int w = 0; w < workers; ++w) worker_seeds.push_back(seeder.Next());

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      runtime::ThreadExecutionEnv& env = envs[w];
      Rng rng(worker_seeds[w]);
      for (int t = 0; t < txns_per_worker; ++t) {
        const TxnId txn = static_cast<TxnId>(w + 1) +
                          static_cast<TxnId>(t) * workers;
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
            LockMode mode = rng.Bernoulli(0.5) ? LockMode::kS : LockMode::kX;
            env.PrepareWait(txn);
            Outcome outcome = lm.Request(txn, item, mode, std::move(ctx));
            bool granted;
            if (outcome == Outcome::kWaiting) {
              granted = env.AwaitLock(txn);
            } else {
              env.DiscardWait(txn);
              granted = outcome == Outcome::kGranted;
            }
            if (!granted) {
              aborted = true;
              ++victim_aborts;
            }
          }
        }
        lm.ReleaseAll(txn);
        // The consistency probe is latched, so sampling it mid-run from
        // many threads is exactly what this test is for. Every 16th txn
        // keeps the O(table) scan from dominating.
        if (t % 16 == 0) {
          std::string violation;
          EXPECT_TRUE(lm.CheckIndexConsistency(&violation)) << violation;
        }
        if (!aborted) ++completed;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  MtStressResult result;
  result.completed = completed.load();
  result.victim_aborts = victim_aborts.load();
  {
    std::string violation;
    EXPECT_TRUE(lm.CheckIndexConsistency(&violation)) << violation;
  }
  result.stats = lm.StatsSnapshot();
  for (int i = 1; i <= items; ++i) {
    EXPECT_EQ(lm.HolderCount(ItemId::Row(1, i)), 0u);
    EXPECT_EQ(lm.QueueLength(ItemId::Row(1, i)), 0u);
  }
  return result;
}

// Parameterized over (seed, partition count): the same schedules drive the
// single-latch configuration (1 partition) and the striped two-tier
// configurations, including one where items spread across more partitions
// than there are hot items (64).
class LockMtStressTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    SeedsByPartitions, LockMtStressTest,
    ::testing::Combine(::testing::Values(11, 42, 20250806),
                       ::testing::Values(size_t{1}, size_t{4}, size_t{64})));

TEST_P(LockMtStressTest, ConventionalOnlyDrains) {
  const auto [seed, partitions] = GetParam();
  MtStressResult result =
      RunMtStress(seed, partitions, /*workers=*/8, /*txns_per_worker=*/120,
                  /*items=*/8, /*with_assertions=*/false);
  EXPECT_GT(result.completed, 200u);
  EXPECT_LE(result.victim_aborts, result.stats.deadlocks);
  // Conservation: every request resolved exactly one way. No compensation
  // contexts here, so the bounds are tight up to waiter kills.
  EXPECT_GE(result.stats.requests,
            result.stats.immediate_grants + result.stats.waits);
  EXPECT_LE(result.stats.requests,
            result.stats.immediate_grants + result.stats.waits +
                result.stats.deadlock_victim_aborts);
}

TEST_P(LockMtStressTest, WithAssertionalModesDrains) {
  const auto [seed, partitions] = GetParam();
  MtStressResult result =
      RunMtStress(seed, partitions, /*workers=*/8, /*txns_per_worker=*/120,
                  /*items=*/8, /*with_assertions=*/true);
  EXPECT_GT(result.completed, 200u);
  EXPECT_GE(result.stats.requests,
            result.stats.immediate_grants + result.stats.waits);
}

}  // namespace
}  // namespace accdb::lock
