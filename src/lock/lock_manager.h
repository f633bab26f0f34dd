// The lock manager.
//
// Non-blocking core: Request() returns kGranted, kWaiting or kAborted and
// never blocks the calling thread. Blocking behaviour (simulated or real) is
// layered on top through the Listener interface: when a release or
// cancellation grants queued requests, the listener is invoked for each
// newly granted transaction; when a deadlock resolution aborts a waiting
// transaction, the listener is told as well.
//
// Queueing discipline is first-in first-out per item: a new request that
// conflicts with any current holder *or any earlier queued waiter* waits
// (this prevents starvation of writers behind a stream of readers). Mode
// upgrades (e.g. S -> X by the same transaction) jump to the front of the
// queue, ahead of non-upgrade waiters.
//
// Deadlocks are detected eagerly on every new wait by DFS over the
// waits-for relation. The victim is the requester ("the step that completes
// the deadlock cycle"), with one exception from Section 3.4 of the paper:
// a compensating step is never the victim — instead every other transaction
// in the cycle has its pending request aborted, guaranteeing that
// compensation always makes progress (no unrecoverable deadlock).
//
// A transaction can wait for at most one lock at a time (transactions
// execute sequentially), which the manager asserts.
//
// Thread safety — two-tier latching. The item table is hash-partitioned
// over ItemId: each partition owns its items (holder vectors + FIFO
// queues) and a stats shard, all guarded by one per-partition latch.
// Grants, releases and conversions that find no conflict touch only the
// partition latch of the item involved (plus the requesting transaction's
// directory stripe) — the hot path is embarrassingly parallel across
// partitions. Waiting is the slow
// path: a request that must queue additionally takes the global wait-tier
// latch, which owns the waits-for relation. The waits-for edges are
// *materialized* — every holder/queue mutation republishes the affected
// item's waiter->blockers edges into the wait tier while both latches are
// held — so the eager DFS deadlock detection runs under the wait-tier latch
// alone, never needing to latch other partitions (latch order: partition
// before wait tier, never reversed; see DESIGN.md §10). The per-transaction
// holder index lives in a striped transaction directory. Besides the
// per-item summary it keeps two lists: the items holding a conventional
// lock, and, per assertion instance, the items that instance covers. The
// step-end releases walk those lists, so each visits exactly the
// partitions of the items it changes, each once; ReleaseAll walks the
// per-item summary. The partition count is
// sized for the item table, not for the host: ACC takes and drops many
// short step locks per transaction, so the default of 1024 partitions
// keeps them from meeting on a latch at any thread count, and the layout
// is the same on every machine.
//
// Listener callbacks are invoked while the partition latch of the item that
// produced them is held (happens-before for the grant hand-off); they must
// not reenter the lock manager (both execution environments only flag a
// wait cell and wake its owner). Each callback hands back the opaque tag the
// waiter passed to Request, so a listener can route the notification
// without a lookup table of its own. The cooperative simulation is
// single-threaded, so partitioning is invisible there: grant order, queue
// order and every counter are identical for any partition count.

#ifndef ACCDB_LOCK_LOCK_MANAGER_H_
#define ACCDB_LOCK_LOCK_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lock/conflict.h"
#include "lock/types.h"

namespace accdb::lock {

struct LockManagerOptions {
  // Number of lock-table partitions. 0 = the default, 1024. Values are
  // rounded up to a power of two and clamped to [1, 1024]. One partition
  // reproduces the single-latch manager.
  size_t partitions = 0;

  // Test-only override of the ItemId -> partition mapping (e.g. to pin a
  // deadlock cycle's items onto distinct partitions). The returned index is
  // reduced modulo the partition count.
  std::function<size_t(const ItemId&)> partition_fn;
};

class LockManager {
 public:
  // Notifications about queued requests. Called synchronously from within
  // Release*/Cancel/Request calls of *other* transactions.
  class Listener {
   public:
    virtual ~Listener() = default;
    // The transaction's pending request has been granted. `tag` is the
    // value the request was queued with.
    virtual void OnGranted(TxnId txn, void* tag) = 0;
    // The transaction's pending request was aborted because a compensating
    // step needed the cycle broken. The transaction must roll back its
    // current step.
    virtual void OnWaiterAborted(TxnId txn, void* tag) = 0;
  };

  struct Stats {
    uint64_t requests = 0;
    uint64_t immediate_grants = 0;
    uint64_t waits = 0;
    uint64_t deadlocks = 0;
    uint64_t compensation_priority_aborts = 0;
    uint64_t unconditional_grants = 0;
    uint64_t upgrades = 0;
    uint64_t release_calls = 0;

    // --- Tail-latency attribution ---

    // Waiting transactions aborted to break deadlock cycles: requesters
    // refused with kAborted plus waiters killed by OnWaiterAborted. Counts
    // aborted *requests*, each exactly once — a victim that the executor
    // then both step-retries and txn-restarts still contributes one.
    uint64_t deadlock_victim_aborts = 0;

    // Block events and blocked wall-clock seconds per requested-mode class
    // (indexed by WaitClass). Times arrive via RecordWaitTime: the manager
    // has no clock, so the execution environment reports each resolved
    // wait's duration.
    uint64_t blocks_by_class[kNumWaitClasses] = {};
    double wait_seconds_by_class[kNumWaitClasses] = {};

    // Block events by conflict kind, classified at enqueue time from the
    // first conflicting holder/earlier-waiter: conventional request blocked
    // by conventional holder; conventional write blocked by an assertional
    // lock; assertional request blocked by a conventional holder; anything
    // involving a kComp lock or assert-vs-assert.
    uint64_t conv_conv_blocks = 0;
    uint64_t write_assert_blocks = 0;
    uint64_t assert_write_blocks = 0;
    uint64_t other_blocks = 0;

    // Queue depth observed at each enqueue (depth includes the new waiter),
    // for mean/max contention diagnostics.
    uint64_t queue_depth_sum = 0;
    uint64_t queue_depth_max = 0;

    void Reset() { *this = Stats{}; }

    // Accumulates another shard into this one (sums; max for
    // queue_depth_max). Shard totals are conserved: summing every
    // partition shard, the wait-tier shard and every directory-stripe shard
    // reproduces the single-latch counters exactly.
    void MergeFrom(const Stats& other);
  };

  explicit LockManager(const ConflictResolver* resolver,
                       LockManagerOptions options = {});

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  void set_listener(Listener* listener) { listener_ = listener; }

  // The partition count `requested` resolves to (0 = the default, 1024).
  static size_t ResolvePartitionCount(size_t requested);

  size_t partition_count() const { return partitions_.size(); }
  // The partition the item maps to (honours the test-only override).
  size_t PartitionIndex(const ItemId& item) const;

  // Requests a lock. kGranted: the lock is held on return. kWaiting: the
  // request is queued; a later OnGranted/OnWaiterAborted callback, carrying
  // `tag`, resolves it. kAborted: the request closed a deadlock cycle and
  // was refused; the caller must roll back its current step and release its
  // step locks.
  Outcome Request(TxnId txn, ItemId item, LockMode mode, RequestContext ctx,
                  void* tag = nullptr);

  // Counts a conventional re-request that the caller answered itself
  // because `txn` already holds a covering mode on the item: one request
  // and one immediate grant, exactly what Request would have counted. Goes
  // to the transaction's directory-stripe shard; no partition is touched.
  void RecordCoveredRequest(TxnId txn);

  // Installs a lock without any conflict check. Used for the step-start
  // grant of A(pre(S_{i,j+1})) — sound per the proof obligation (3) — and
  // for kComp marker locks.
  void GrantUnconditional(TxnId txn, ItemId item, LockMode mode,
                          RequestContext ctx);

  // The unconditional grants an ACC step leaves behind at its end: kComp
  // marks (under comp_ctx) and kAssert marks (under assert_ctx). Items may
  // repeat; each entry counts as one unconditional grant, and an item's
  // marks are installed once.
  struct StepMarks {
    std::vector<ItemId> comp;
    RequestContext comp_ctx;
    std::vector<ItemId> asserts;
    RequestContext assert_ctx;
  };

  // Releases all conventional (IS/IX/S/SIX/X) locks of `txn` (end of an
  // ACC step), installing `marks` as it goes: an item's marks go in during
  // the same partition visit that drops its conventional lock, before its
  // queue is processed. Marks on items without a conventional lock are
  // installed afterwards, like GrantUnconditional.
  void ReleaseConventional(TxnId txn, const StepMarks& marks = {});

  // Releases all kAssert locks of `txn` protecting instance
  // `assertion_instance` of `assertion` (the assertion was consumed by the
  // step that just ended). Visits only the items the instance covers.
  void ReleaseAssertion(TxnId txn, AssertionId assertion,
                        uint32_t assertion_instance);

  // Releases everything `txn` holds and cancels any pending request
  // (commit or final abort). Strictly index-driven: only the partitions
  // named by the per-txn holder index (plus the waited-on item's, if any)
  // are latched.
  void ReleaseAll(TxnId txn);

  // Removes `txn`'s pending request from its queue (the transaction was
  // aborted while waiting). Holders are unaffected.
  void CancelWaiter(TxnId txn);

  // --- Introspection (tests, benches, assertions) ---

  bool Holds(TxnId txn, ItemId item, LockMode mode) const;
  bool HoldsAssertion(TxnId txn, ItemId item, AssertionId assertion) const;
  // Transactions `txn` is directly blocked by (empty when not waiting).
  std::vector<TxnId> BlockedBy(TxnId txn) const;
  bool IsWaiting(TxnId txn) const;
  size_t HolderCount(ItemId item) const;
  size_t QueueLength(ItemId item) const;
  // Number of items on which `txn` holds at least one lock.
  size_t HeldItemCount(TxnId txn) const;

  // Merged copy of the per-partition and wait-tier counter shards, safe to
  // call while workers are running (latches each shard in turn; the merge
  // is not a single atomic snapshot across shards).
  Stats StatsSnapshot() const;
  Stats stats() const { return StatsSnapshot(); }

  // Zeroes all counter shards. Engines are normally built fresh per run;
  // this supports reusing one manager across repetitions (or re-baselining
  // after a real-thread warmup) without accumulation.
  void ResetStats();

  // Reports the duration of a resolved wait (granted or aborted) for the
  // given requested mode. Called by the execution environment, which owns
  // the clock; the manager only aggregates. Waits are the slow path, so
  // this accounts into the wait-tier shard (keeping the floating-point
  // accumulation single-site and deterministic under the simulation).
  void RecordWaitTime(LockMode mode, double seconds);

  // Human-readable dump of every waiting transaction, the item it waits on
  // and its current blockers (diagnostics).
  std::string DumpWaiters() const;

  // Full cross-check of every partition plus the wait tier: the per-txn
  // holder index against the item holder tables (both directions), every
  // queue entry against its wait-tier record (both directions), and each
  // record's materialized blocker edges against a fresh recomputation.
  // O(total locks); meant for tests and debug assertions. The release-path
  // self-checks compile in only under the ACCDB_EXPENSIVE_CHECKS CMake
  // option. Returns false and fills *violation (if non-null) on the first
  // inconsistency.
  bool CheckIndexConsistency(std::string* violation = nullptr) const;

  // --- Test hooks ---

  // Latched copy of one partition's stats shard / the wait-tier shard / one
  // directory stripe's shard (conservation tests: the shards must sum to
  // StatsSnapshot()).
  Stats PartitionStatsForTest(size_t partition) const;
  Stats WaitTierStatsForTest() const;
  Stats StripeStatsForTest(size_t stripe) const;
  static constexpr size_t stripe_count() { return kTxnStripes; }
  // Number of release-path visits (latch acquisitions) this partition has
  // seen, for asserting that releases never touch foreign partitions.
  uint64_t PartitionReleaseVisitsForTest(size_t partition) const;
  // Number of items in the item table, over all partitions (a fully
  // released item must leave nothing behind).
  size_t ItemCountForTest() const;

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
    RequestContext ctx;
  };

  struct Waiter {
    TxnId txn;
    LockMode mode;
    RequestContext ctx;
    bool is_upgrade;
    void* tag;  // Handed back to the listener.
  };

  struct ItemState {
    std::vector<Holder> holders;
    std::vector<Waiter> queue;
  };

  // Per-(transaction, item) summary of what the transaction holds there.
  // Conventional entries merge into a single holder slot and kComp is
  // installed at most once, so those two are 0/1 flags; a transaction can
  // hold several assertional locks (distinct assertion instances) on one
  // item. The release paths use these counts to skip items — and whole
  // holder-vector scans — that cannot contain a matching entry.
  struct HeldEntry {
    uint32_t conventional = 0;  // 0 or 1.
    uint32_t comp = 0;          // 0 or 1.
    uint32_t asserts = 0;
    bool empty() const {
      return conventional == 0 && comp == 0 && asserts == 0;
    }
  };

  // The items one assertion instance of a transaction holds kAssert locks
  // on, each once, in grant order.
  struct InstanceItems {
    AssertionId assertion;
    uint32_t instance;
    std::vector<ItemId> items;
  };

  // Everything one transaction holds. Kept per transaction (in a striped
  // directory, not split per partition), so the release schedule — which
  // items are visited and in what order, which feeds queue processing and
  // listener callbacks — is independent of the partition count
  // (sim_identity_test pins this byte-for-byte).
  //   held_items   — per-item summary; ReleaseAll walks it in map order.
  //   conventional — items holding a conventional lock, in grant order;
  //                  ReleaseConventional walks it.
  //   instances    — per assertion instance, the items it covers;
  //                  ReleaseAssertion walks the consumed instance's list.
  struct TxnState {
    std::unordered_map<ItemId, HeldEntry, ItemIdHash> held_items;
    std::vector<ItemId> conventional;
    std::vector<InstanceItems> instances;
  };

  // One stripe of the item table: items and a stats shard, both owned by
  // `mu`. Cache-line aligned so neighbouring latches do not share a line.
  struct alignas(64) Partition {
    mutable std::mutex mu;
    std::unordered_map<ItemId, ItemState, ItemIdHash> items;
    Stats stats;
    // Test-only: release-path visits (ReleaseConventional/ReleaseAssertion/
    // ReleaseAll latching this partition to drop holders).
    uint64_t release_visits = 0;
  };

  // One stripe of the per-transaction holder-index directory, with the
  // stats shard for counts that belong to a transaction rather than an item
  // (release calls, step-end marks, covered re-requests). Cache-line
  // aligned: the stripes sit side by side in one array.
  struct alignas(64) TxnStripe {
    mutable std::mutex mu;
    std::unordered_map<TxnId, TxnState> txns;
    Stats stats;
  };

  // A waiting transaction's wait-tier record. `blockers` is the
  // materialized waits-for adjacency, republished under partition latch +
  // wait-tier latch at every mutation of the item's holders or queue, in
  // the exact order the lazy computation used (holders first, then earlier
  // waiters) so the DFS traversal is unchanged.
  struct WaitRecord {
    ItemId item;
    LockMode mode = LockMode::kX;
    bool for_compensation = false;
    std::vector<TxnId> blockers;
  };

  Partition& PartitionOf(const ItemId& item) const {
    return *partitions_[PartitionIndex(item)];
  }
  TxnStripe& StripeOf(TxnId txn) const {
    return stripes_[static_cast<size_t>(txn) & (kTxnStripes - 1)];
  }

  // True if the request conflicts with any holder entry of another txn.
  bool ConflictsWithHolders(const ItemState& state,
                            const RequestView& request) const;

  // Single holder-vs-request conflict decision: bitmask fast path for
  // conventional-vs-conventional pairs, resolver dispatch otherwise.
  bool HolderConflicts(TxnId holder_txn, LockMode holder_mode,
                       const RequestContext& holder_ctx,
                       const RequestView& request) const;

  // True if `txn` holds a kComp lock on the item.
  static bool HoldsComp(const ItemState& state, TxnId txn);

  // Bumps the per-class and per-conflict-kind block counters (in `shard`)
  // for a request that is about to be enqueued; the conflict kind is read
  // off the first conflicting holder (or, when `check_waiters`, the first
  // conflicting earlier waiter among queue positions [0, upto)).
  void RecordBlock(Stats& shard, const ItemState& state,
                   const RequestView& request, bool check_waiters,
                   size_t upto) const;
  // True if the request conflicts with an earlier queued waiter (FIFO
  // fairness). `upto` bounds the scan (queue positions [0, upto)).
  bool ConflictsWithWaiters(const ItemState& state, const RequestView& request,
                            size_t upto) const;

  // Installs a granted lock into the holder list (merging with existing
  // entries of the same transaction where appropriate) and updates the
  // transaction's index. Requires the item's partition latch and the
  // transaction's stripe latch.
  static void InstallHolderLocked(ItemState& state, ItemId item,
                                  TxnState& txn_state, TxnId txn,
                                  LockMode mode, RequestContext ctx);
  // The same, taking the stripe latch itself. Requires the partition latch.
  void InstallHolder(ItemState& state, ItemId item, TxnId txn, LockMode mode,
                     RequestContext ctx);

  // Erases a fully released item from the table. No-op while anything is
  // still held or queued. Requires the partition latch.
  void MaybeEraseItem(Partition& part, ItemId item);

  // Direct blockers of the waiter at queue position `pos`: conflicting
  // holders in holder order, then (for non-upgrades) conflicting earlier
  // waiters in queue order. Requires the partition latch.
  std::vector<TxnId> BlockersForWaiter(const ItemState& state,
                                       const Waiter& waiter, size_t pos) const;

  // Rewrites the materialized blocker edges of every waiter queued on the
  // item. Requires the partition latch AND the wait-tier latch.
  void RepublishItemWaitersLocked(const ItemState& state, ItemId item);

  // Grants every queue entry that has become compatible (taking the
  // wait-tier latch for the grant scan + edge republish), then notifies
  // the listener. Requires the partition latch; the wait-tier latch must
  // NOT be held.
  void ProcessQueueLocked(Partition& part, ItemId item);

  // Detects and resolves deadlocks among ALL currently waiting
  // transactions. Needed beyond the request-time check because new
  // wait-for edges can appear without any new request: an unconditional
  // assertional grant, or a queued assertional lock being granted ahead of
  // other waiters, adds a holder that existing waiters are now blocked by.
  // Victim choice follows Section 3.4: never a compensating step — if a
  // cycle contains one, the other members' pending requests are aborted.
  // Runs the DFS under the wait-tier latch alone; no latch may be held on
  // entry.
  void ResolveDeadlocks();

  // Aborts `victim`'s pending request for deadlock resolution: removes its
  // queue entry and wait record, processes the item's queue, then fires
  // OnWaiterAborted with the entry's tag. Re-validates under the latches
  // (the victim may have been granted or aborted by a concurrent resolution
  // meanwhile — then no-op). No latch may be held on entry.
  void AbortWaiterForDeadlock(TxnId victim);

  // Removes `txn`'s queue entry + wait record without processing the
  // queue (ReleaseAll's cancellation; the caller decides what to process).
  // Returns true if a wait was removed. No latch may be held on entry.
  bool RemoveWaiterForRelease(TxnId txn);

  // Drops the directory entry of `txn` if it holds nothing.
  void MaybeDropTxnState(TxnId txn);

  // Full-audit body; requires every partition latch, the wait-tier latch
  // and every stripe latch (in that order).
  bool CheckIndexConsistencyLocked(std::string* violation) const;

  static constexpr size_t kTxnStripes = 64;

  const ConflictResolver* resolver_;
  // Conventional-vs-conventional decisions may bypass the resolver
  // (resolver_->UsesConventionalMatrix(), cached).
  const bool conventional_fast_path_;
  Listener* listener_ = nullptr;

  // Item-table partitions (fixed at construction; count is a power of two).
  std::vector<std::unique_ptr<Partition>> partitions_;
  const size_t partition_mask_;
  const std::function<size_t(const ItemId&)> partition_fn_;

  // Striped per-transaction holder-index directory (and stats shards).
  mutable std::array<TxnStripe, kTxnStripes> stripes_;

  // --- Wait tier ---
  // Owns the waits-for relation: one record per waiting transaction, with
  // materialized blocker edges. Latch order: any partition latch may be
  // held when acquiring wait_mu_; never the reverse.
  mutable std::mutex wait_mu_;
  std::unordered_map<TxnId, WaitRecord> waiting_;
  // Mirror of waiting_.size() for the latch-free fast-out in
  // ResolveDeadlocks (the common case: nobody waits).
  std::atomic<size_t> waiting_count_{0};
  // Wait/deadlock counters (incl. the wait_seconds doubles, whose
  // accumulation order stays single-site and deterministic).
  Stats wait_stats_;
};

}  // namespace accdb::lock

#endif  // ACCDB_LOCK_LOCK_MANAGER_H_
