// Partitioned lock-table coverage: deadlock cycles whose items live on
// DIFFERENT partitions (pinned with the test-only partition_fn override),
// the compensation-breaks-cycle rule spanning partitions, release-path
// partition isolation (a txn's release latches only the partitions its
// holder index names), and stats-shard conservation (summing the partition
// shards, the wait-tier shard and the directory-stripe shards reproduces
// the single-latch totals — and the merged totals are identical for any
// partition count).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "lock/conflict.h"
#include "lock/lock_manager.h"
#include "lock/types.h"

namespace accdb::lock {
namespace {

class RecordingListener : public LockManager::Listener {
 public:
  void OnGranted(TxnId txn, void*) override { granted.push_back(txn); }
  void OnWaiterAborted(TxnId txn, void*) override { aborted.push_back(txn); }

  std::vector<TxnId> granted;
  std::vector<TxnId> aborted;
};

// Pins every item to partition (row % divisor) so tests can place a cycle's
// items on chosen partitions regardless of the hash.
LockManagerOptions PinnedByRow(size_t partitions) {
  LockManagerOptions options;
  options.partitions = partitions;
  options.partition_fn = [](const ItemId& item) {
    return static_cast<size_t>(item.row);
  };
  return options;
}

class LockPartitionTest : public ::testing::Test {
 protected:
  LockPartitionTest() : lm_(&resolver_, PinnedByRow(4)) {
    lm_.set_listener(&listener_);
  }

  Outcome Req(TxnId txn, ItemId item, LockMode mode, RequestContext ctx = {}) {
    return lm_.Request(txn, item, mode, std::move(ctx));
  }

  MatrixConflictResolver resolver_;
  LockManager lm_;
  RecordingListener listener_;
  // Rows chosen so the items land on partitions 0, 1, 2 and 3.
  ItemId item_p0_ = ItemId::Row(1, 4);  // 4 % 4 == 0
  ItemId item_p1_ = ItemId::Row(1, 5);  // 5 % 4 == 1
  ItemId item_p2_ = ItemId::Row(1, 6);  // 6 % 4 == 2
  ItemId item_p3_ = ItemId::Row(1, 7);  // 7 % 4 == 3
};

TEST_F(LockPartitionTest, PartitionPinningAndResolution) {
  EXPECT_EQ(lm_.partition_count(), 4u);
  EXPECT_EQ(lm_.PartitionIndex(item_p0_), 0u);
  EXPECT_EQ(lm_.PartitionIndex(item_p1_), 1u);
  EXPECT_EQ(lm_.PartitionIndex(item_p3_), 3u);
  // The override wraps modulo the partition count.
  EXPECT_EQ(lm_.PartitionIndex(ItemId::Row(1, 9)), 1u);

  // Default / rounding behaviour of the partition count itself.
  EXPECT_EQ(LockManager::ResolvePartitionCount(1), 1u);
  EXPECT_EQ(LockManager::ResolvePartitionCount(3), 4u);
  EXPECT_EQ(LockManager::ResolvePartitionCount(64), 64u);
  EXPECT_EQ(LockManager::ResolvePartitionCount(0), 1024u);
}

// A two-member cycle whose items live on different partitions: the
// requester that closes the cycle is refused, exactly as under one latch.
TEST_F(LockPartitionTest, CrossPartitionDeadlockRequesterVictim) {
  EXPECT_EQ(Req(1, item_p0_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_p3_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_p3_, LockMode::kX), Outcome::kWaiting);
  EXPECT_EQ(lm_.BlockedBy(1), std::vector<TxnId>{2});
  // Txn 2's request on partition 0 closes a cycle through partition 3.
  EXPECT_EQ(Req(2, item_p0_, LockMode::kX), Outcome::kAborted);

  LockManager::Stats stats = lm_.stats();
  EXPECT_EQ(stats.deadlocks, 1u);
  EXPECT_EQ(stats.deadlock_victim_aborts, 1u);
  EXPECT_FALSE(lm_.IsWaiting(2));
  EXPECT_TRUE(lm_.IsWaiting(1));
  // Unwinding txn 2 hands partition 3 to txn 1.
  lm_.ReleaseAll(2);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{1});
}

// A three-member cycle spanning three partitions.
TEST_F(LockPartitionTest, ThreePartitionCycle) {
  EXPECT_EQ(Req(1, item_p0_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_p1_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(3, item_p2_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_p1_, LockMode::kX), Outcome::kWaiting);  // 1 -> 2
  EXPECT_EQ(Req(2, item_p2_, LockMode::kX), Outcome::kWaiting);  // 2 -> 3
  // 3 -> 1 closes the cycle across partitions 0, 1 and 2.
  EXPECT_EQ(Req(3, item_p0_, LockMode::kX), Outcome::kAborted);
  EXPECT_EQ(lm_.stats().deadlocks, 1u);
  // The survivors drain: 3's rollback frees partition 2 for 2, whose
  // completion frees partition 1 for 1.
  lm_.ReleaseAll(3);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{2});
  lm_.ReleaseAll(2);
  EXPECT_EQ(listener_.granted, (std::vector<TxnId>{2, 1}));
}

// Section 3.4 across partitions: a compensating step closing a
// cross-partition cycle is never the victim — the other member's pending
// request (queued on a different partition) is aborted instead.
TEST_F(LockPartitionTest, CrossPartitionCompensationBreaksCycle) {
  EXPECT_EQ(Req(1, item_p0_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_p3_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_p0_, LockMode::kX), Outcome::kWaiting);
  RequestContext comp;
  comp.for_compensation = true;
  Outcome outcome = Req(1, item_p3_, LockMode::kX, comp);
  // Txn 2's pending request (partition 0) was killed; txn 1 still waits
  // for txn 2's lingering hold on partition 3 until the rollback releases.
  EXPECT_EQ(listener_.aborted, std::vector<TxnId>{2});
  EXPECT_EQ(outcome, Outcome::kWaiting);
  LockManager::Stats stats = lm_.stats();
  EXPECT_EQ(stats.compensation_priority_aborts, 1u);
  EXPECT_EQ(stats.deadlock_victim_aborts, 1u);
  lm_.ReleaseAll(2);
  EXPECT_EQ(listener_.granted, std::vector<TxnId>{1});
}

// A cycle closed by an unconditional grant — no triggering request — whose
// edges span partitions: the wait-tier resolver (materialized waits-for
// graph) must catch it without latching any partition during the DFS.
TEST_F(LockPartitionTest, LateEdgeCycleAcrossPartitionsResolved) {
  EXPECT_EQ(Req(9, item_p0_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(1, item_p1_, LockMode::kX), Outcome::kGranted);
  EXPECT_EQ(Req(2, item_p1_, LockMode::kX), Outcome::kWaiting);  // 2 -> 1
  EXPECT_EQ(Req(1, item_p0_, LockMode::kX), Outcome::kWaiting);  // 1 -> 9
  EXPECT_EQ(lm_.stats().deadlocks, 0u);
  // Txn 2's assertional lock lands on partition 0's item: 1 -> {9, 2} and
  // 2 -> 1 — a cross-partition cycle with no new request.
  RequestContext actx;
  actx.assertion = 5;
  lm_.GrantUnconditional(2, item_p0_, LockMode::kAssert, actx);
  EXPECT_EQ(lm_.stats().deadlocks, 1u);
  EXPECT_EQ(listener_.aborted.size(), 1u);
  EXPECT_FALSE(lm_.IsWaiting(listener_.aborted[0]));
}

// ReleaseAll is strictly index-driven: a transaction whose locks all live
// on one partition never latches the other partitions' release paths.
TEST_F(LockPartitionTest, ReleaseVisitsOnlyHoldingPartitions) {
  // Rows ≡ 1 (mod 4): everything txn 1 touches lives on partition 1.
  for (uint64_t row = 1; row <= 33; row += 4) {
    EXPECT_EQ(Req(1, ItemId::Row(1, row), LockMode::kX), Outcome::kGranted);
  }
  // A second transaction parks locks on partition 2.
  EXPECT_EQ(Req(2, item_p2_, LockMode::kX), Outcome::kGranted);

  lm_.ReleaseAll(1);
  EXPECT_EQ(lm_.HeldItemCount(1), 0u);
  EXPECT_GT(lm_.PartitionReleaseVisitsForTest(1), 0u);
  EXPECT_EQ(lm_.PartitionReleaseVisitsForTest(0), 0u);
  EXPECT_EQ(lm_.PartitionReleaseVisitsForTest(2), 0u);
  EXPECT_EQ(lm_.PartitionReleaseVisitsForTest(3), 0u);

  lm_.ReleaseConventional(2);
  EXPECT_EQ(lm_.PartitionReleaseVisitsForTest(2), 1u);
  EXPECT_EQ(lm_.PartitionReleaseVisitsForTest(0), 0u);
}

// Drives one fixed scripted scenario (grants, waits, upgrades, a deadlock,
// an unconditional grant, releases) against a manager; used to compare
// counter behaviour across partition counts.
LockManager::Stats RunScriptedScenario(LockManager& lm,
                                       LockManager::Listener* listener) {
  lm.set_listener(listener);
  ItemId a = ItemId::Row(1, 100);
  ItemId b = ItemId::Row(1, 201);
  ItemId c = ItemId::Row(1, 302);
  ItemId d = ItemId::Row(1, 403);

  EXPECT_EQ(lm.Request(1, a, LockMode::kS, {}), Outcome::kGranted);
  EXPECT_EQ(lm.Request(2, a, LockMode::kS, {}), Outcome::kGranted);
  EXPECT_EQ(lm.Request(3, a, LockMode::kX, {}), Outcome::kWaiting);
  EXPECT_EQ(lm.Request(1, b, LockMode::kX, {}), Outcome::kGranted);
  EXPECT_EQ(lm.Request(1, b, LockMode::kS, {}), Outcome::kGranted);  // Covered.
  lm.RecordCoveredRequest(1);  // Covered, answered by the caller.
  EXPECT_EQ(lm.Request(2, c, LockMode::kS, {}), Outcome::kGranted);
  EXPECT_EQ(lm.Request(2, c, LockMode::kX, {}), Outcome::kGranted);  // Upgrade.
  RequestContext actx;
  actx.assertion = 7;
  lm.GrantUnconditional(1, d, LockMode::kAssert, actx);
  EXPECT_EQ(lm.Request(4, d, LockMode::kX, {}), Outcome::kWaiting);
  lm.RecordWaitTime(LockMode::kX, 0.25);
  // Deadlock: 2 holds c and waits for b; 1 holds b and requests c.
  EXPECT_EQ(lm.Request(2, b, LockMode::kX, {}), Outcome::kWaiting);
  EXPECT_EQ(lm.Request(1, c, LockMode::kX, {}), Outcome::kAborted);
  lm.CancelWaiter(4);
  // A merged step end: b's mark rides b's release, the table's is separate.
  LockManager::StepMarks marks;
  marks.comp = {b, ItemId::Table(1)};
  lm.ReleaseConventional(1, marks);
  lm.ReleaseAll(1);
  lm.ReleaseAll(2);
  lm.ReleaseAll(3);
  lm.ReleaseAll(4);
  return lm.StatsSnapshot();
}

bool StatsEqual(const LockManager::Stats& a, const LockManager::Stats& b) {
  return a.requests == b.requests &&
         a.immediate_grants == b.immediate_grants && a.waits == b.waits &&
         a.deadlocks == b.deadlocks &&
         a.compensation_priority_aborts == b.compensation_priority_aborts &&
         a.unconditional_grants == b.unconditional_grants &&
         a.upgrades == b.upgrades && a.release_calls == b.release_calls &&
         a.deadlock_victim_aborts == b.deadlock_victim_aborts &&
         std::memcmp(a.blocks_by_class, b.blocks_by_class,
                     sizeof(a.blocks_by_class)) == 0 &&
         std::memcmp(a.wait_seconds_by_class, b.wait_seconds_by_class,
                     sizeof(a.wait_seconds_by_class)) == 0 &&
         a.conv_conv_blocks == b.conv_conv_blocks &&
         a.write_assert_blocks == b.write_assert_blocks &&
         a.assert_write_blocks == b.assert_write_blocks &&
         a.other_blocks == b.other_blocks &&
         a.queue_depth_sum == b.queue_depth_sum &&
         a.queue_depth_max == b.queue_depth_max;
}

// The merged counters are independent of the partition count: the same
// scripted scenario yields field-identical totals on 1, 4 and 64
// partitions (the simulation-invisibility property, counter edition).
TEST(LockPartitionStatsTest, MergedStatsIdenticalAcrossPartitionCounts) {
  MatrixConflictResolver resolver;
  std::vector<LockManager::Stats> runs;
  for (size_t partitions : {size_t{1}, size_t{4}, size_t{64}}) {
    LockManagerOptions options;
    options.partitions = partitions;
    LockManager lm(&resolver, std::move(options));
    RecordingListener listener;
    runs.push_back(RunScriptedScenario(lm, &listener));
  }
  EXPECT_TRUE(StatsEqual(runs[0], runs[1]));
  EXPECT_TRUE(StatsEqual(runs[0], runs[2]));
  // Sanity: the scenario exercised the interesting counters.
  EXPECT_GT(runs[0].requests, 0u);
  EXPECT_GT(runs[0].waits, 0u);
  EXPECT_EQ(runs[0].deadlocks, 1u);
  EXPECT_EQ(runs[0].upgrades, 1u);
  EXPECT_EQ(runs[0].unconditional_grants, 3u);
  EXPECT_EQ(runs[0].release_calls, 5u);
}

// Conservation: the per-partition shards plus the wait-tier shard plus the
// directory-stripe shards sum to exactly the merged snapshot — no count is
// dropped or double-reported by the sharding.
TEST(LockPartitionStatsTest, ShardsSumToSnapshot) {
  MatrixConflictResolver resolver;
  LockManagerOptions options;
  options.partitions = 8;
  LockManager lm(&resolver, std::move(options));
  RecordingListener listener;
  LockManager::Stats merged = RunScriptedScenario(lm, &listener);

  LockManager::Stats summed;
  for (size_t p = 0; p < lm.partition_count(); ++p) {
    summed.MergeFrom(lm.PartitionStatsForTest(p));
  }
  summed.MergeFrom(lm.WaitTierStatsForTest());
  LockManager::Stats stripes;
  for (size_t s = 0; s < LockManager::stripe_count(); ++s) {
    stripes.MergeFrom(lm.StripeStatsForTest(s));
  }
  summed.MergeFrom(stripes);
  EXPECT_TRUE(StatsEqual(summed, merged));
  EXPECT_EQ(summed.requests, merged.requests);
  EXPECT_EQ(summed.immediate_grants, merged.immediate_grants);
  EXPECT_EQ(summed.release_calls, merged.release_calls);
  EXPECT_EQ(summed.unconditional_grants, merged.unconditional_grants);

  // The split is as designed: fast-path counters live in the partitions,
  // wait/deadlock accounting in the wait tier, per-transaction counts
  // (release calls, step-end marks, covered re-requests) in the stripes.
  EXPECT_EQ(stripes.release_calls, merged.release_calls);
  EXPECT_EQ(stripes.unconditional_grants, 2u);
  EXPECT_EQ(stripes.requests, 1u);
  EXPECT_EQ(stripes.immediate_grants, 1u);
  LockManager::Stats wait_tier = lm.WaitTierStatsForTest();
  EXPECT_EQ(wait_tier.requests, 0u);
  EXPECT_GT(wait_tier.waits, 0u);
  EXPECT_EQ(wait_tier.deadlocks, 1u);
  LockManager::Stats partitions_only;
  for (size_t p = 0; p < lm.partition_count(); ++p) {
    partitions_only.MergeFrom(lm.PartitionStatsForTest(p));
  }
  EXPECT_EQ(partitions_only.waits, 0u);
  EXPECT_GT(partitions_only.requests, 0u);
}

// ResetStats zeroes every shard.
TEST(LockPartitionStatsTest, ResetClearsAllShards) {
  MatrixConflictResolver resolver;
  LockManagerOptions options;
  options.partitions = 4;
  LockManager lm(&resolver, std::move(options));
  RecordingListener listener;
  RunScriptedScenario(lm, &listener);
  lm.ResetStats();
  LockManager::Stats zero;
  EXPECT_TRUE(StatsEqual(lm.StatsSnapshot(), zero));
}

}  // namespace
}  // namespace accdb::lock
