#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lock/conflict.h"
#include "lock/lock_manager.h"
#include "lock/types.h"
#include "lock/wait_for_graph.h"

namespace accdb::lock {
namespace {

class RecordingListener : public LockManager::Listener {
 public:
  void OnGranted(TxnId txn, void*) override { granted.push_back(txn); }
  void OnWaiterAborted(TxnId txn, void*) override { aborted.push_back(txn); }

  std::vector<TxnId> granted;
  std::vector<TxnId> aborted;
};

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : lm_(&resolver_) { lm_.set_listener(&listener_); }

  Outcome Req(TxnId txn, ItemId item, LockMode mode,
              RequestContext ctx = {}) {
    return lm_.Request(txn, item, mode, std::move(ctx));
  }

  MatrixConflictResolver resolver_;
  LockManager lm_;
  RecordingListener listener_;
  ItemId item_ = ItemId::Row(1, 10);
  ItemId item2_ = ItemId::Row(1, 20);
};

// --- Mode helpers ---

TEST(LockModeTest, Covers) {
  EXPECT_TRUE(ModeCovers(LockMode::kX, LockMode::kS));
  EXPECT_TRUE(ModeCovers(LockMode::kX, LockMode::kIX));
  EXPECT_TRUE(ModeCovers(LockMode::kSIX, LockMode::kS));
  EXPECT_TRUE(ModeCovers(LockMode::kSIX, LockMode::kIX));
  EXPECT_TRUE(ModeCovers(LockMode::kS, LockMode::kIS));
  EXPECT_FALSE(ModeCovers(LockMode::kS, LockMode::kX));
  EXPECT_FALSE(ModeCovers(LockMode::kIX, LockMode::kS));
}

TEST(LockModeTest, Combine) {
  EXPECT_EQ(ModeCombine(LockMode::kS, LockMode::kIX), LockMode::kSIX);
  EXPECT_EQ(ModeCombine(LockMode::kS, LockMode::kX), LockMode::kX);
  EXPECT_EQ(ModeCombine(LockMode::kIS, LockMode::kIX), LockMode::kIX);
  EXPECT_EQ(ModeCombine(LockMode::kS, LockMode::kS), LockMode::kS);
}

// --- Basic compatibility ---

TEST_F(LockManagerTest, SharedLocksCoexist) {
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(lm_.HolderCount(item_), 2u);
}

TEST_F(LockManagerTest, ExclusiveBlocksShared) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kWaiting);
  EXPECT_TRUE(lm_.IsWaiting(2));
  EXPECT_EQ(lm_.BlockedBy(2), std::vector<TxnId>{1});
}

TEST_F(LockManagerTest, IntentLocksCompatible) {
  EXPECT_EQ(Req(1, item_, LockMode::kIS), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kIX), Outcome::kGranted);
  EXPECT_EQ(Req(3, item_, LockMode::kIX), Outcome::kGranted);
  EXPECT_EQ(Req(4, item_, LockMode::kS), Outcome::kWaiting);  // S vs IX.
}

TEST_F(LockManagerTest, ReleaseGrantsWaiter) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kWaiting);
  lm_.ReleaseAll(1);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{2});
  EXPECT_TRUE(lm_.Holds(2, item_, LockMode::kX));
}

TEST_F(LockManagerTest, FifoFairnessReaderBehindWriter) {
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kWaiting);
  // A reader arriving after a queued writer must queue behind it.
  EXPECT_EQ(Req(3, item_, LockMode::kS), Outcome::kWaiting);
  lm_.ReleaseAll(1);
  // Writer first, reader still queued.
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{2});
  lm_.ReleaseAll(2);
  EXPECT_EQ(listener_.granted, (std::vector<TxnId>{2, 3}));
}

TEST_F(LockManagerTest, RereqestCoveredModeIsFree) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(lm_.HolderCount(item_), 1u);
}

TEST_F(LockManagerTest, BatchGrantOfCompatibleWaiters) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kWaiting);
  EXPECT_EQ(Req(3, item_, LockMode::kS), Outcome::kWaiting);
  lm_.ReleaseAll(1);
  EXPECT_EQ(listener_.granted, (std::vector<TxnId>{2, 3}));
}

// --- Upgrades ---

TEST_F(LockManagerTest, UpgradeGrantedWhenAlone) {
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_TRUE(lm_.Holds(1, item_, LockMode::kX));
  EXPECT_EQ(lm_.stats().upgrades, 1u);
}

TEST_F(LockManagerTest, UpgradeWaitsForOtherReader) {
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kWaiting);
  lm_.ReleaseAll(2);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{1});
  EXPECT_TRUE(lm_.Holds(1, item_, LockMode::kX));
}

TEST_F(LockManagerTest, UpgradeJumpsQueue) {
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(3, item_, LockMode::kX), Outcome::kWaiting);
  // Txn 2's upgrade goes ahead of txn 3.
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kWaiting);
  lm_.ReleaseAll(1);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{2});
  EXPECT_TRUE(lm_.Holds(2, item_, LockMode::kX));
}

TEST_F(LockManagerTest, DualUpgradeIsDeadlock) {
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kAborted);
  EXPECT_EQ(lm_.stats().deadlocks, 1u);
  // Txn 2 still holds its S lock; once it releases, txn 1 upgrades.
  lm_.ReleaseAll(2);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{1});
}

// --- Deadlock detection ---

TEST_F(LockManagerTest, TwoPartyCycleAbortsRequester) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item2_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item2_, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kAborted);
  EXPECT_FALSE(lm_.IsWaiting(2));
  // Txn 1 is still waiting; when 2 releases, it gets the lock.
  lm_.ReleaseAll(2);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{1});
}

TEST_F(LockManagerTest, ThreePartyCycleDetected) {
  ItemId item3 = ItemId::Row(1, 30);
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item2_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(3, item3, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item2_, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(Req(2, item3, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(Req(3, item_, LockMode::kX), Outcome::kAborted);
}

TEST_F(LockManagerTest, NoFalseDeadlockOnSharedChain) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kWaiting);
  EXPECT_EQ(Req(3, item_, LockMode::kS), Outcome::kWaiting);
  EXPECT_EQ(lm_.stats().deadlocks, 0u);
}

TEST_F(LockManagerTest, WaiterOnWaiterEdgeClosesCycle) {
  // T1 holds S on item; T2 queues an X behind it. T3's S queues behind
  // T2's X (FIFO). If T1 then needs something T3 holds, cycle through the
  // waiter edge must be found.
  EXPECT_EQ(Req(3, item2_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(Req(3, item_, LockMode::kS), Outcome::kWaiting);  // Behind T2.
  // T2 blocked by T1 (holder); T3 blocked by T2 (earlier waiter).
  EXPECT_EQ(Req(1, item2_, LockMode::kX), Outcome::kAborted);  // 1->3->2->1.
}

// --- Compensation priority (Section 3.4) ---

TEST_F(LockManagerTest, CompensatingRequesterAbortsCycleMembers) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item2_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kWaiting);
  RequestContext comp;
  comp.for_compensation = true;
  // Txn 1's compensating request closes the cycle; txn 2 must be the
  // victim instead of txn 1.
  Outcome outcome = Req(1, item2_, LockMode::kX, comp);
  EXPECT_EQ(listener_.aborted, std::vector<TxnId>{2});
  EXPECT_EQ(lm_.stats().compensation_priority_aborts, 1u);
  // Txn 2's pending request was cancelled but it still holds item2; the
  // compensating request waits for the (rolled back) txn 2 to release.
  EXPECT_EQ(outcome, Outcome::kWaiting);
  lm_.ReleaseAll(2);  // Txn 2's rollback.
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{1});
}

// A deadlock cycle can be *closed* by an unconditional assertional grant,
// with no new lock request to trigger the eager check: T1 waits for T9's X;
// T2 waits for T1's X; then T2's A-lock lands (unconditionally) on the item
// T1 waits on. ResolveAllDeadlocks must catch it.
TEST_F(LockManagerTest, LateEdgeDeadlockResolvedOnUnconditionalGrant) {
  ItemId item_a = ItemId::Row(1, 100);
  ItemId item_b = ItemId::Row(1, 200);
  EXPECT_EQ(Req(9, item_a, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_b, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_b, LockMode::kX), Outcome::kWaiting);  // T2 -> T1.
  EXPECT_EQ(Req(1, item_a, LockMode::kX), Outcome::kWaiting);  // T1 -> T9.
  EXPECT_EQ(lm_.stats().deadlocks, 0u);
  // T2's assertional lock lands on item_a: now T1 -> {T9, T2} and
  // T2 -> T1 — a cycle with no triggering request.
  RequestContext actx;
  actx.assertion = 5;
  lm_.GrantUnconditional(2, item_a, LockMode::kAssert, actx);
  EXPECT_EQ(lm_.stats().deadlocks, 1u);
  // One of the two waiters was aborted, breaking the cycle.
  EXPECT_EQ(listener_.aborted.size(), 1u);
  TxnId victim = listener_.aborted[0];
  EXPECT_FALSE(lm_.IsWaiting(victim));
}

// Same late-edge closure, but the stranded waiter is a compensating step:
// the OTHER cycle member must be the victim (Section 3.4).
TEST_F(LockManagerTest, LateEdgeDeadlockSparesCompensatingStep) {
  ItemId item_a = ItemId::Row(1, 100);
  ItemId item_b = ItemId::Row(1, 200);
  EXPECT_EQ(Req(9, item_a, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_b, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_b, LockMode::kX), Outcome::kWaiting);  // T2 -> T1.
  RequestContext comp;
  comp.for_compensation = true;
  EXPECT_EQ(Req(1, item_a, LockMode::kX, comp), Outcome::kWaiting);
  RequestContext actx;
  actx.assertion = 5;
  lm_.GrantUnconditional(2, item_a, LockMode::kAssert, actx);
  // T1 (compensating) survives; T2's request was aborted.
  EXPECT_EQ(listener_.aborted, std::vector<TxnId>{2});
  EXPECT_TRUE(lm_.IsWaiting(1));
}

// --- Assertional and compensation modes (matrix resolver semantics) ---

TEST_F(LockManagerTest, AssertBlocksForeignWriteByDefault) {
  RequestContext actx;
  actx.assertion = 5;
  lm_.GrantUnconditional(1, item_, LockMode::kAssert, actx);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(3, item_, LockMode::kX), Outcome::kWaiting);
}

TEST_F(LockManagerTest, AssertRequestBlockedByForeignWriter) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  RequestContext actx;
  actx.assertion = 5;
  EXPECT_EQ(Req(2, item_, LockMode::kAssert, actx), Outcome::kWaiting);
}

TEST_F(LockManagerTest, AssertLocksCoexist) {
  RequestContext a1;
  a1.assertion = 5;
  RequestContext a2;
  a2.assertion = 6;
  EXPECT_EQ(Req(1, item_, LockMode::kAssert, a1), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kAssert, a2), Outcome::kGranted);
  EXPECT_TRUE(lm_.HoldsAssertion(1, item_, 5));
  EXPECT_TRUE(lm_.HoldsAssertion(2, item_, 6));
}

TEST_F(LockManagerTest, ReleaseAssertionIsInstanceSpecific) {
  RequestContext first;
  first.assertion = 5;
  first.assertion_instance = 1;
  RequestContext second;
  second.assertion = 5;
  second.assertion_instance = 2;
  lm_.GrantUnconditional(1, item_, LockMode::kAssert, first);
  lm_.GrantUnconditional(1, item_, LockMode::kAssert, second);
  lm_.ReleaseAssertion(1, 5, 1);
  EXPECT_TRUE(lm_.HoldsAssertion(1, item_, 5));  // Instance 2 survives.
  lm_.ReleaseAssertion(1, 5, 2);
  EXPECT_FALSE(lm_.HoldsAssertion(1, item_, 5));
}

TEST_F(LockManagerTest, ReleaseConventionalKeepsAssertional) {
  RequestContext actx;
  actx.assertion = 5;
  lm_.GrantUnconditional(1, item_, LockMode::kAssert, actx);
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  lm_.ReleaseConventional(1);
  EXPECT_FALSE(lm_.Holds(1, item_, LockMode::kX));
  EXPECT_TRUE(lm_.HoldsAssertion(1, item_, 5));
}

TEST_F(LockManagerTest, CompLockInvisibleToAnalyzedVisibleToLegacy) {
  EXPECT_EQ(Req(1, item_, LockMode::kComp), Outcome::kGranted);
  RequestContext analyzed;  // analyzed = true by default.
  EXPECT_EQ(Req(2, item_, LockMode::kS, analyzed), Outcome::kGranted);
  RequestContext legacy;
  legacy.analyzed = false;
  EXPECT_EQ(Req(3, item_, LockMode::kS, legacy), Outcome::kWaiting);
  lm_.ReleaseAll(1);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{3});
}

TEST_F(LockManagerTest, CancelWaiterUnblocksThoseBehind) {
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(Req(3, item_, LockMode::kS), Outcome::kWaiting);
  lm_.CancelWaiter(2);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{3});
}

TEST_F(LockManagerTest, StatsCountBasics) {
  Req(1, item_, LockMode::kS);
  Req(2, item_, LockMode::kX);
  lm_.ReleaseAll(1);
  const LockManager::Stats& stats = lm_.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.immediate_grants, 1u);
  EXPECT_EQ(stats.waits, 1u);
}

// Pin the full stats picture for the canonical two-txn deadlock: exactly
// one deadlock, exactly one victim abort (the requester), no double count.
TEST_F(LockManagerTest, TwoTxnDeadlockStatsPinned) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item2_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item2_, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kAborted);
  const LockManager::Stats& stats = lm_.stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.immediate_grants, 2u);
  // The aborted requester does not count as a wait; only txn 1 waits.
  EXPECT_EQ(stats.waits, 1u);
  EXPECT_EQ(stats.deadlocks, 1u);
  EXPECT_EQ(stats.deadlock_victim_aborts, 1u);
  // Both blocked requests were X-vs-X: exclusive class, conv-vs-conv kind.
  EXPECT_EQ(stats.blocks_by_class[static_cast<int>(WaitClass::kExclusive)],
            2u);
  EXPECT_EQ(stats.conv_conv_blocks, 2u);
  EXPECT_EQ(stats.write_assert_blocks, 0u);
  EXPECT_EQ(stats.assert_write_blocks, 0u);
}

// A compensation-priority resolution aborts the *other* cycle member; that
// victim must be counted exactly once.
TEST_F(LockManagerTest, CompensationVictimCountedOnce) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item2_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kWaiting);
  RequestContext comp;
  comp.for_compensation = true;
  EXPECT_EQ(Req(1, item2_, LockMode::kX, comp), Outcome::kWaiting);
  EXPECT_EQ(listener_.aborted, std::vector<TxnId>{2});
  EXPECT_EQ(lm_.stats().deadlocks, 1u);
  EXPECT_EQ(lm_.stats().deadlock_victim_aborts, 1u);
  EXPECT_EQ(lm_.stats().compensation_priority_aborts, 1u);
}

// ResetStats must zero every counter so per-repetition collection does not
// accumulate across runs; re-running the same workload must reproduce the
// same counts, not double them.
TEST_F(LockManagerTest, ResetStatsClearsEverything) {
  auto run_once = [&] {
    EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
    EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kWaiting);
    lm_.RecordWaitTime(LockMode::kS, 0.25);
    lm_.ReleaseAll(1);
    lm_.ReleaseAll(2);
  };
  run_once();
  const LockManager::Stats first = lm_.stats();
  EXPECT_EQ(first.waits, 1u);
  EXPECT_DOUBLE_EQ(
      first.wait_seconds_by_class[static_cast<int>(WaitClass::kShared)], 0.25);
  EXPECT_EQ(first.queue_depth_sum, 1u);
  EXPECT_EQ(first.queue_depth_max, 1u);

  lm_.ResetStats();
  const LockManager::Stats& zeroed = lm_.stats();
  EXPECT_EQ(zeroed.requests, 0u);
  EXPECT_EQ(zeroed.waits, 0u);
  EXPECT_EQ(zeroed.deadlocks, 0u);
  EXPECT_EQ(zeroed.deadlock_victim_aborts, 0u);
  EXPECT_EQ(zeroed.queue_depth_sum, 0u);
  EXPECT_EQ(zeroed.queue_depth_max, 0u);
  for (int c = 0; c < kNumWaitClasses; ++c) {
    EXPECT_EQ(zeroed.blocks_by_class[c], 0u);
    EXPECT_DOUBLE_EQ(zeroed.wait_seconds_by_class[c], 0.0);
  }

  run_once();
  const LockManager::Stats& second = lm_.stats();
  EXPECT_EQ(second.requests, first.requests);
  EXPECT_EQ(second.waits, first.waits);
  EXPECT_EQ(second.blocks_by_class[static_cast<int>(WaitClass::kShared)],
            first.blocks_by_class[static_cast<int>(WaitClass::kShared)]);
  EXPECT_DOUBLE_EQ(
      second.wait_seconds_by_class[static_cast<int>(WaitClass::kShared)],
      first.wait_seconds_by_class[static_cast<int>(WaitClass::kShared)]);
}

// Blocked time and block counts attribute to the requested mode's wait
// class, and the conflict kind classifies by requester vs first blocker.
TEST_F(LockManagerTest, BlockAttributionByClassAndKind) {
  // S blocked by X holder: shared class, conv-vs-conv kind.
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kWaiting);
  // Foreign write blocked by an assertional holder: write-vs-assert kind.
  RequestContext actx;
  actx.assertion = 5;
  lm_.GrantUnconditional(3, item2_, LockMode::kAssert, actx);
  EXPECT_EQ(Req(4, item2_, LockMode::kX), Outcome::kWaiting);
  // Assertional request blocked by a foreign writer: assert-vs-write kind.
  ItemId item3 = ItemId::Row(1, 30);
  EXPECT_EQ(Req(5, item3, LockMode::kX), Outcome::kGranted);
  RequestContext actx2;
  actx2.assertion = 6;
  EXPECT_EQ(Req(6, item3, LockMode::kAssert, actx2), Outcome::kWaiting);

  const LockManager::Stats& stats = lm_.stats();
  EXPECT_EQ(stats.blocks_by_class[static_cast<int>(WaitClass::kShared)], 1u);
  EXPECT_EQ(stats.blocks_by_class[static_cast<int>(WaitClass::kExclusive)],
            1u);
  EXPECT_EQ(stats.blocks_by_class[static_cast<int>(WaitClass::kAssert)], 1u);
  EXPECT_EQ(stats.conv_conv_blocks, 1u);
  EXPECT_EQ(stats.write_assert_blocks, 1u);
  EXPECT_EQ(stats.assert_write_blocks, 1u);

  lm_.RecordWaitTime(LockMode::kS, 0.5);
  lm_.RecordWaitTime(LockMode::kX, 1.5);
  lm_.RecordWaitTime(LockMode::kAssert, 2.0);
  // stats() is a merged snapshot of the counter shards; re-fetch.
  const LockManager::Stats after = lm_.stats();
  EXPECT_DOUBLE_EQ(
      after.wait_seconds_by_class[static_cast<int>(WaitClass::kShared)], 0.5);
  EXPECT_DOUBLE_EQ(
      after.wait_seconds_by_class[static_cast<int>(WaitClass::kExclusive)],
      1.5);
  EXPECT_DOUBLE_EQ(
      after.wait_seconds_by_class[static_cast<int>(WaitClass::kAssert)], 2.0);
}

// Queue depth is sampled at enqueue time: depth after insertion.
TEST_F(LockManagerTest, QueueDepthStats) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kWaiting);  // Depth 1.
  EXPECT_EQ(Req(3, item_, LockMode::kX), Outcome::kWaiting);  // Depth 2.
  EXPECT_EQ(Req(4, item_, LockMode::kX), Outcome::kWaiting);  // Depth 3.
  EXPECT_EQ(lm_.stats().queue_depth_sum, 6u);
  EXPECT_EQ(lm_.stats().queue_depth_max, 3u);
}

// --- Per-transaction holder index (release fast paths) ---
//
// ReleaseConventional / ReleaseAssertion / ReleaseAll walk the per-txn
// holder index instead of scanning every item's holder vector; these tests
// pin the index to the lock table through merges, upgrades, partial
// releases and deadlock aborts via CheckIndexConsistency().

TEST_F(LockManagerTest, ReleaseConventionalManyItemsLeavesAssertions) {
  RequestContext actx;
  actx.assertion = 5;
  for (uint64_t k = 1; k <= 16; ++k) {
    EXPECT_EQ(Req(1, ItemId::Row(1, k), LockMode::kS), Outcome::kGranted);
  }
  lm_.GrantUnconditional(1, ItemId::Row(2, 1), LockMode::kAssert, actx);
  lm_.GrantUnconditional(1, ItemId::Row(2, 2), LockMode::kAssert, actx);
  lm_.ReleaseConventional(1);
  for (uint64_t k = 1; k <= 16; ++k) {
    EXPECT_EQ(lm_.HolderCount(ItemId::Row(1, k)), 0u);
  }
  EXPECT_TRUE(lm_.HoldsAssertion(1, ItemId::Row(2, 1), 5));
  EXPECT_TRUE(lm_.HoldsAssertion(1, ItemId::Row(2, 2), 5));
  std::string violation;
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
  lm_.ReleaseAll(1);
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
}

TEST_F(LockManagerTest, ReleaseAssertionSkipsConventionalItems) {
  // Conventional locks on many items; assertional instances on two. The
  // instance-specific release must leave every conventional lock (and the
  // other instance) in place.
  for (uint64_t k = 1; k <= 8; ++k) {
    EXPECT_EQ(Req(1, ItemId::Row(1, k), LockMode::kX), Outcome::kGranted);
  }
  RequestContext first;
  first.assertion = 5;
  first.assertion_instance = 1;
  RequestContext second;
  second.assertion = 5;
  second.assertion_instance = 2;
  lm_.GrantUnconditional(1, ItemId::Row(1, 1), LockMode::kAssert, first);
  lm_.GrantUnconditional(1, ItemId::Row(2, 1), LockMode::kAssert, second);
  lm_.ReleaseAssertion(1, 5, 1);
  EXPECT_FALSE(lm_.HoldsAssertion(1, ItemId::Row(1, 1), 5));
  EXPECT_TRUE(lm_.HoldsAssertion(1, ItemId::Row(2, 1), 5));
  for (uint64_t k = 1; k <= 8; ++k) {
    EXPECT_TRUE(lm_.Holds(1, ItemId::Row(1, k), LockMode::kX));
  }
  std::string violation;
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
}

TEST_F(LockManagerTest, IndexSurvivesMergeAndUpgrade) {
  // Repeated conventional requests on one item merge into a single holder
  // entry; the index must keep counting it as one.
  EXPECT_EQ(Req(1, item_, LockMode::kIS), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_, LockMode::kS), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_, LockMode::kIX), Outcome::kGranted);  // -> SIX.
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);   // Upgrade.
  EXPECT_EQ(lm_.HolderCount(item_), 1u);
  std::string violation;
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
  lm_.ReleaseConventional(1);
  EXPECT_EQ(lm_.HolderCount(item_), 0u);
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
}

TEST_F(LockManagerTest, IndexConsistentThroughDeadlockAbort) {
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item2_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item2_, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(Req(2, item_, LockMode::kX), Outcome::kAborted);
  std::string violation;
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
  lm_.ReleaseAll(2);
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
  lm_.ReleaseAll(1);
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
}

TEST_F(LockManagerTest, ItemSlotReuseKeepsSemantics) {
  // Drain an item completely, then lock it again: the fresh slot must not
  // inherit holders, queue entries, or stale index state.
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
    EXPECT_EQ(Req(2, item_, LockMode::kS), Outcome::kWaiting);
    lm_.ReleaseAll(1);
    EXPECT_TRUE(lm_.Holds(2, item_, LockMode::kS));
    lm_.ReleaseAll(2);
    EXPECT_EQ(lm_.HolderCount(item_), 0u);
    EXPECT_EQ(lm_.QueueLength(item_), 0u);
  }
  std::string violation;
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
}

TEST_F(LockManagerTest, FullyReleasedItemsLeaveNothingBehind) {
  // Conventional, assertional and kComp locks (plus a queued waiter) on
  // many distinct items: once every transaction has released, the item
  // table is empty — nothing is retained per released item.
  RequestContext actx;
  actx.assertion = 1;
  for (int64_t row = 0; row < 2000; ++row) {
    const ItemId item = ItemId::Row(1, row);
    EXPECT_EQ(Req(1, item, LockMode::kX), Outcome::kGranted);
    lm_.GrantUnconditional(1, item, LockMode::kAssert, actx);
    lm_.GrantUnconditional(2, item, LockMode::kComp, {});
  }
  EXPECT_EQ(Req(3, ItemId::Row(1, 0), LockMode::kS), Outcome::kWaiting);
  EXPECT_EQ(lm_.ItemCountForTest(), 2000u);

  lm_.ReleaseConventional(1);
  lm_.ReleaseAssertion(1, actx.assertion, actx.assertion_instance);
  EXPECT_EQ(lm_.HeldItemCount(1), 0u);
  EXPECT_EQ(lm_.ItemCountForTest(), 2000u);  // Txn 2's kComp marks remain.
  lm_.ReleaseAll(2);
  EXPECT_TRUE(lm_.Holds(3, ItemId::Row(1, 0), LockMode::kS));
  EXPECT_EQ(lm_.ItemCountForTest(), 1u);
  lm_.ReleaseAll(3);
  EXPECT_EQ(lm_.ItemCountForTest(), 0u);
  std::string violation;
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
}

uint64_t TotalReleaseVisits(const LockManager& lm) {
  uint64_t visits = 0;
  for (size_t p = 0; p < lm.partition_count(); ++p) {
    visits += lm.PartitionReleaseVisitsForTest(p);
  }
  return visits;
}

TEST_F(LockManagerTest, ReleasingOneInstanceKeepsAnotherOnSharedItems) {
  // Two instances of one assertion, held by one transaction, overlap on b.
  const ItemId a = ItemId::Row(1, 1);
  const ItemId b = ItemId::Row(1, 2);
  const ItemId c = ItemId::Row(1, 3);
  RequestContext first;
  first.assertion = 7;
  first.assertion_instance = 1;
  RequestContext second = first;
  second.assertion_instance = 2;
  for (const ItemId& item : {a, b}) {
    lm_.GrantUnconditional(1, item, LockMode::kAssert, first);
  }
  for (const ItemId& item : {b, c}) {
    lm_.GrantUnconditional(1, item, LockMode::kAssert, second);
  }
  std::string violation;
  ASSERT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;

  const uint64_t visits = TotalReleaseVisits(lm_);
  lm_.ReleaseAssertion(1, 7, 1);
  EXPECT_EQ(TotalReleaseVisits(lm_), visits + 2);  // a and b, nothing else.
  EXPECT_EQ(lm_.HolderCount(a), 0u);
  EXPECT_EQ(lm_.HolderCount(b), 1u);
  EXPECT_TRUE(lm_.HoldsAssertion(1, b, 7));
  EXPECT_TRUE(lm_.HoldsAssertion(1, c, 7));
  EXPECT_EQ(lm_.HeldItemCount(1), 2u);
  // The audit checks the surviving instance's list against the holders.
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;

  lm_.ReleaseAssertion(1, 7, 1);  // Already consumed: visits nothing.
  EXPECT_EQ(TotalReleaseVisits(lm_), visits + 2);
  lm_.ReleaseAssertion(1, 7, 2);
  EXPECT_EQ(TotalReleaseVisits(lm_), visits + 4);
  EXPECT_EQ(lm_.HeldItemCount(1), 0u);
  EXPECT_EQ(lm_.ItemCountForTest(), 0u);
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
}

TEST_F(LockManagerTest, MergedStepEndLeavesMarksAndNoConventionalLock) {
  // One step wrote r1 twice and r2 once, under an IX on their table, and
  // marks r3, which it never locked.
  const ItemId table = ItemId::Table(1);
  const ItemId r1 = ItemId::Row(1, 11);
  const ItemId r2 = ItemId::Row(1, 12);
  const ItemId r3 = ItemId::Row(1, 13);
  EXPECT_EQ(Req(1, table, LockMode::kIX), Outcome::kGranted);
  EXPECT_EQ(Req(1, r1, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, r2, LockMode::kX), Outcome::kGranted);
  // A reader queued behind r2 is granted by the step end.
  EXPECT_EQ(Req(2, r2, LockMode::kS), Outcome::kWaiting);

  LockManager::StepMarks marks;
  marks.comp = {r1, table, r1, table, r2, table, r3};
  marks.assert_ctx.assertion = 9;
  marks.assert_ctx.assertion_instance = 3;
  marks.asserts = {r1, r1, r2};
  const LockManager::Stats before = lm_.StatsSnapshot();
  const uint64_t visits = TotalReleaseVisits(lm_);
  lm_.ReleaseConventional(1, marks);

  // Every mark requested counts, repeats included.
  EXPECT_EQ(lm_.StatsSnapshot().unconditional_grants,
            before.unconditional_grants + 10);
  EXPECT_EQ(lm_.StatsSnapshot().release_calls, before.release_calls + 1);
  // One visit per conventionally held item; r3's mark is not a release.
  EXPECT_EQ(TotalReleaseVisits(lm_), visits + 3);
  for (const ItemId& row : {r1, r2}) {
    EXPECT_TRUE(lm_.Holds(1, row, LockMode::kComp));
    EXPECT_TRUE(lm_.Holds(1, row, LockMode::kAssert));
    EXPECT_FALSE(lm_.Holds(1, row, LockMode::kIS));  // No conventional mode.
  }
  EXPECT_EQ(lm_.HolderCount(r1), 2u);  // Repeats installed once.
  EXPECT_TRUE(lm_.Holds(1, table, LockMode::kComp));
  EXPECT_FALSE(lm_.Holds(1, table, LockMode::kIS));
  EXPECT_EQ(lm_.HolderCount(table), 1u);
  EXPECT_TRUE(lm_.Holds(1, r3, LockMode::kComp));
  EXPECT_TRUE(lm_.Holds(2, r2, LockMode::kS));
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{2});
  std::string violation;
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;

  lm_.ReleaseAssertion(1, 9, 3);
  EXPECT_FALSE(lm_.Holds(1, r1, LockMode::kAssert));
  EXPECT_TRUE(lm_.Holds(1, r1, LockMode::kComp));
  lm_.ReleaseAll(1);
  lm_.ReleaseAll(2);
  EXPECT_EQ(lm_.ItemCountForTest(), 0u);
  EXPECT_TRUE(lm_.CheckIndexConsistency(&violation)) << violation;
}

TEST_F(LockManagerTest, WaiterTagComesBackWithTheGrant) {
  class TagListener : public LockManager::Listener {
   public:
    void OnGranted(TxnId, void* tag) override { granted = tag; }
    void OnWaiterAborted(TxnId, void*) override {}
    void* granted = nullptr;
  } tags;
  lm_.set_listener(&tags);
  int waiter_env = 0;
  EXPECT_EQ(Req(1, item_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(lm_.Request(2, item_, LockMode::kX, {}, &waiter_env),
            Outcome::kWaiting);
  lm_.ReleaseAll(1);
  EXPECT_EQ(tags.granted, &waiter_env);
  lm_.ReleaseAll(2);
}

// --- Inline key lists ---

TEST(KeyListTest, HoldsUpToCapacityAndComparesByValue) {
  const KeyList keys = {1, 2, 3, 4};
  EXPECT_EQ(keys.size(), KeyList::kCapacity);
  EXPECT_EQ(keys[3], 4);
  EXPECT_EQ(keys, KeyList(std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_FALSE(keys == (KeyList{1, 2, 3}));
  EXPECT_TRUE(KeyList{}.empty());
}

TEST(KeyListDeathTest, OverflowAbortsInsteadOfTruncating) {
  const std::vector<int64_t> five = {1, 2, 3, 4, 5};
  EXPECT_DEATH({ KeyList keys(five); }, "exceed the inline capacity");
}

// --- Conventional bitmask fast path ---

TEST(ConflictBitmaskTest, MatchesMatrixSemantics) {
  const LockMode modes[5] = {LockMode::kIS, LockMode::kIX, LockMode::kS,
                             LockMode::kSIX, LockMode::kX};
  MatrixConflictResolver resolver;
  RequestContext hctx;
  RequestContext rctx;
  for (LockMode a : modes) {
    for (LockMode b : modes) {
      HolderView holder{1, a, &hctx};
      RequestView request{2, b, &rctx, false};
      EXPECT_EQ(ConventionalModesConflict(a, b),
                resolver.Conflicts(holder, request))
          << "held=" << static_cast<int>(a)
          << " requested=" << static_cast<int>(b);
    }
  }
}

// --- CycleDetector unit ---

TEST(CycleDetectorTest, FindsSimpleCycle) {
  CycleDetector detector([](TxnId t) -> std::vector<TxnId> {
    if (t == 1) return {2};
    if (t == 2) return {3};
    if (t == 3) return {1};
    return {};
  });
  EXPECT_EQ(detector.FindCycle(1), (std::vector<TxnId>{1, 2, 3}));
}

TEST(CycleDetectorTest, NoCycleReturnsEmpty) {
  CycleDetector detector([](TxnId t) -> std::vector<TxnId> {
    if (t == 1) return {2, 3};
    return {};
  });
  EXPECT_TRUE(detector.FindCycle(1).empty());
}

TEST(CycleDetectorTest, IgnoresCycleNotThroughStart) {
  // 1 -> 2 <-> 3 : a cycle exists but not through 1.
  CycleDetector detector([](TxnId t) -> std::vector<TxnId> {
    if (t == 1) return {2};
    if (t == 2) return {3};
    if (t == 3) return {2};
    return {};
  });
  EXPECT_TRUE(detector.FindCycle(1).empty());
}

}  // namespace
}  // namespace accdb::lock
