#include "lock/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <tuple>

#include "common/string_util.h"
#include "lock/wait_for_graph.h"

// Release-path index self-checks are O(total locks) per release — far too
// expensive for measured runs, and invisible in RelWithDebInfo anyway (NDEBUG
// compiled the old asserts out). They are now an explicit opt-in: configure
// with -DACCDB_EXPENSIVE_CHECKS=ON to run them in ANY build type, including
// Release. Failures abort with the violation, sanitizer-friendly.
#ifdef ACCDB_EXPENSIVE_CHECKS
#define ACCDB_CHECK_LOCK_INDEX()                                        \
  do {                                                                  \
    std::string accdb_check_violation;                                  \
    if (!CheckIndexConsistency(&accdb_check_violation)) {               \
      std::fprintf(stderr, "lock index inconsistency: %s\n",            \
                   accdb_check_violation.c_str());                      \
      std::abort();                                                     \
    }                                                                   \
  } while (0)
#else
#define ACCDB_CHECK_LOCK_INDEX() ((void)0)
#endif

namespace accdb::lock {

namespace {

bool IsConventional(LockMode mode) {
  return mode != LockMode::kAssert && mode != LockMode::kComp;
}

// Partitions when none are requested, and the most ever used: sized for the
// item table, not the host (see the header comment).
constexpr size_t kMaxPartitions = 1024;

}  // namespace

void LockManager::Stats::MergeFrom(const Stats& other) {
  requests += other.requests;
  immediate_grants += other.immediate_grants;
  waits += other.waits;
  deadlocks += other.deadlocks;
  compensation_priority_aborts += other.compensation_priority_aborts;
  unconditional_grants += other.unconditional_grants;
  upgrades += other.upgrades;
  release_calls += other.release_calls;
  deadlock_victim_aborts += other.deadlock_victim_aborts;
  for (int i = 0; i < kNumWaitClasses; ++i) {
    blocks_by_class[i] += other.blocks_by_class[i];
    wait_seconds_by_class[i] += other.wait_seconds_by_class[i];
  }
  conv_conv_blocks += other.conv_conv_blocks;
  write_assert_blocks += other.write_assert_blocks;
  assert_write_blocks += other.assert_write_blocks;
  other_blocks += other.other_blocks;
  queue_depth_sum += other.queue_depth_sum;
  queue_depth_max = std::max(queue_depth_max, other.queue_depth_max);
}

size_t LockManager::ResolvePartitionCount(size_t requested) {
  const size_t n =
      requested == 0 ? kMaxPartitions : std::min(requested, kMaxPartitions);
  size_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

LockManager::LockManager(const ConflictResolver* resolver,
                         LockManagerOptions options)
    : resolver_(resolver),
      conventional_fast_path_(resolver->UsesConventionalMatrix()),
      partition_mask_(ResolvePartitionCount(options.partitions) - 1),
      partition_fn_(std::move(options.partition_fn)) {
  const size_t count = partition_mask_ + 1;
  partitions_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
}

size_t LockManager::PartitionIndex(const ItemId& item) const {
  if (partition_fn_) return partition_fn_(item) % partitions_.size();
  return ItemPartitionHash{}(item) & partition_mask_;
}

bool LockManager::HoldsComp(const ItemState& state, TxnId txn) {
  for (const Holder& h : state.holders) {
    if (h.txn == txn && h.mode == LockMode::kComp) return true;
  }
  return false;
}

bool LockManager::HolderConflicts(TxnId holder_txn, LockMode holder_mode,
                                  const RequestContext& holder_ctx,
                                  const RequestView& request) const {
  // Fast path: conventional-vs-conventional compatibility is a pure mode
  // property (one shift+AND); the resolver is only consulted when an
  // assertional or compensation lock is involved, i.e. when interference
  // tables / key refinement can change the answer.
  if (conventional_fast_path_ && IsConventional(holder_mode) &&
      IsConventional(request.mode)) {
    return ConventionalModesConflict(holder_mode, request.mode);
  }
  return resolver_->Conflicts(HolderView{holder_txn, holder_mode, &holder_ctx},
                              request);
}

bool LockManager::ConflictsWithHolders(const ItemState& state,
                                       const RequestView& request) const {
  for (const Holder& h : state.holders) {
    if (h.txn == request.txn) continue;
    if (HolderConflicts(h.txn, h.mode, h.ctx, request)) return true;
  }
  return false;
}

void LockManager::RecordBlock(Stats& shard, const ItemState& state,
                              const RequestView& request, bool check_waiters,
                              size_t upto) const {
  ++shard.blocks_by_class[static_cast<int>(WaitClassOf(request.mode))];

  // The conflict kind is read off whichever entry the blocking decision saw
  // first: holders, then (for non-upgrades) earlier waiters.
  LockMode blocker_mode = request.mode;
  bool found = false;
  for (const Holder& h : state.holders) {
    if (h.txn == request.txn) continue;
    if (HolderConflicts(h.txn, h.mode, h.ctx, request)) {
      blocker_mode = h.mode;
      found = true;
      break;
    }
  }
  if (!found && check_waiters) {
    for (size_t i = 0; i < upto && i < state.queue.size(); ++i) {
      const Waiter& w = state.queue[i];
      if (w.txn == request.txn) continue;
      if (HolderConflicts(w.txn, w.mode, w.ctx, request)) {
        blocker_mode = w.mode;
        found = true;
        break;
      }
    }
  }
  if (!found) {
    ++shard.other_blocks;
    return;
  }
  const bool requester_conventional = IsConventional(request.mode);
  const bool blocker_conventional = IsConventional(blocker_mode);
  if (requester_conventional && blocker_conventional) {
    ++shard.conv_conv_blocks;
  } else if (requester_conventional && blocker_mode == LockMode::kAssert) {
    ++shard.write_assert_blocks;
  } else if (request.mode == LockMode::kAssert && blocker_conventional) {
    ++shard.assert_write_blocks;
  } else {
    ++shard.other_blocks;
  }
}

bool LockManager::ConflictsWithWaiters(const ItemState& state,
                                       const RequestView& request,
                                       size_t upto) const {
  for (size_t i = 0; i < upto && i < state.queue.size(); ++i) {
    const Waiter& w = state.queue[i];
    if (w.txn == request.txn) continue;
    // Treat the earlier waiter as a prospective holder for fairness.
    if (HolderConflicts(w.txn, w.mode, w.ctx, request)) return true;
  }
  return false;
}

void LockManager::MaybeEraseItem(Partition& part, ItemId item) {
  auto it = part.items.find(item);
  if (it == part.items.end()) return;
  if (!it->second.holders.empty() || !it->second.queue.empty()) return;
  part.items.erase(it);
}

void LockManager::InstallHolder(ItemState& state, ItemId item, TxnId txn,
                                LockMode mode, RequestContext ctx) {
  TxnStripe& stripe = StripeOf(txn);
  std::lock_guard<std::mutex> stripe_guard(stripe.mu);
  InstallHolderLocked(state, item, stripe.txns[txn], txn, mode,
                      std::move(ctx));
}

void LockManager::InstallHolderLocked(ItemState& state, ItemId item,
                                      TxnState& txn_state, TxnId txn,
                                      LockMode mode, RequestContext ctx) {
  HeldEntry& held = txn_state.held_items[item];
  if (IsConventional(mode)) {
    for (Holder& h : state.holders) {
      if (h.txn == txn && IsConventional(h.mode)) {
        if (ModeCovers(h.mode, mode)) return;
        h.mode = ModeCombine(h.mode, mode);
        h.ctx = std::move(ctx);
        return;
      }
    }
    held.conventional = 1;
    txn_state.conventional.push_back(item);
  } else if (mode == LockMode::kAssert) {
    bool instance_covers_item = false;
    for (const Holder& h : state.holders) {
      if (h.txn == txn && h.mode == LockMode::kAssert &&
          h.ctx.assertion == ctx.assertion &&
          h.ctx.assertion_instance == ctx.assertion_instance) {
        if (h.ctx.keys == ctx.keys) {
          return;  // Already protecting this assertion instance.
        }
        instance_covers_item = true;
      }
    }
    ++held.asserts;
    if (!instance_covers_item) {
      auto list = std::find_if(
          txn_state.instances.begin(), txn_state.instances.end(),
          [&](const InstanceItems& entry) {
            return entry.assertion == ctx.assertion &&
                   entry.instance == ctx.assertion_instance;
          });
      if (list == txn_state.instances.end()) {
        txn_state.instances.push_back(
            InstanceItems{ctx.assertion, ctx.assertion_instance, {}});
        list = txn_state.instances.end() - 1;
      }
      list->items.push_back(item);
    }
  } else {  // kComp: held to commit, installed at most once per item.
    if (held.comp != 0) return;
    held.comp = 1;
  }
  if (state.holders.capacity() == 0) state.holders.reserve(4);
  state.holders.push_back(Holder{txn, mode, std::move(ctx)});
}

std::vector<TxnId> LockManager::BlockersForWaiter(const ItemState& state,
                                                  const Waiter& waiter,
                                                  size_t pos) const {
  RequestView request{waiter.txn, waiter.mode, &waiter.ctx,
                      HoldsComp(state, waiter.txn)};
  std::vector<TxnId> blockers;
  for (const Holder& h : state.holders) {
    if (h.txn == waiter.txn) continue;
    if (HolderConflicts(h.txn, h.mode, h.ctx, request)) {
      blockers.push_back(h.txn);
    }
  }
  if (!waiter.is_upgrade) {
    for (size_t i = 0; i < pos; ++i) {
      const Waiter& earlier = state.queue[i];
      if (earlier.txn == waiter.txn) continue;
      if (HolderConflicts(earlier.txn, earlier.mode, earlier.ctx, request)) {
        blockers.push_back(earlier.txn);
      }
    }
  }
  return blockers;
}

void LockManager::RepublishItemWaitersLocked(const ItemState& state,
                                             ItemId item) {
  for (size_t i = 0; i < state.queue.size(); ++i) {
    const Waiter& w = state.queue[i];
    auto it = waiting_.find(w.txn);
    assert(it != waiting_.end() && "queued waiter has no wait record");
    if (it == waiting_.end()) continue;
    it->second.blockers = BlockersForWaiter(state, w, i);
  }
  (void)item;
}

Outcome LockManager::Request(TxnId txn, ItemId item, LockMode mode,
                             RequestContext ctx, void* tag) {
#ifndef NDEBUG
  {
    std::lock_guard<std::mutex> wait_guard(wait_mu_);
    assert(waiting_.find(txn) == waiting_.end() &&
           "transaction already waiting for a lock");
  }
#endif
  Partition& part = PartitionOf(item);
  std::unique_lock<std::mutex> part_guard(part.mu);
  ++part.stats.requests;
  ItemState& state = part.items[item];

  // Compensation marker locks never conflict and never wait.
  if (mode == LockMode::kComp) {
    InstallHolder(state, item, txn, mode, std::move(ctx));
    ++part.stats.immediate_grants;
    if (!state.queue.empty()) {
      // A kComp holder can block later requests: refresh the edges.
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      RepublishItemWaitersLocked(state, item);
    }
    return Outcome::kGranted;
  }

  // Re-request covered by an already-held conventional mode?
  bool is_upgrade = false;
  if (IsConventional(mode)) {
    for (const Holder& h : state.holders) {
      if (h.txn == txn && IsConventional(h.mode)) {
        if (ModeCovers(h.mode, mode)) {
          ++part.stats.immediate_grants;
          return Outcome::kGranted;
        }
        is_upgrade = true;
        break;
      }
    }
  } else {  // kAssert re-request of the same assertion instance.
    for (const Holder& h : state.holders) {
      if (h.txn == txn && h.mode == LockMode::kAssert &&
          h.ctx.assertion == ctx.assertion &&
          h.ctx.assertion_instance == ctx.assertion_instance &&
          h.ctx.keys == ctx.keys) {
        ++part.stats.immediate_grants;
        return Outcome::kGranted;
      }
    }
  }

  LockMode effective = mode;
  if (is_upgrade) {
    for (const Holder& h : state.holders) {
      if (h.txn == txn && IsConventional(h.mode)) {
        effective = ModeCombine(h.mode, mode);
        break;
      }
    }
  }

  RequestView request{txn, effective, &ctx, HoldsComp(state, txn)};
  bool blocked = ConflictsWithHolders(state, request);
  if (!blocked && !is_upgrade) {
    blocked = ConflictsWithWaiters(state, request, state.queue.size());
  }

  if (!blocked) {
    InstallHolder(state, item, txn, effective, std::move(ctx));
    ++part.stats.immediate_grants;
    if (is_upgrade) ++part.stats.upgrades;
    if (!state.queue.empty()) {
      // The grant may block existing waiters (upgrades skip the waiter
      // scan; assert conflicts need not be symmetric): refresh their
      // materialized edges.
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      RepublishItemWaitersLocked(state, item);
    }
    return Outcome::kGranted;
  }

  // Attribute the block while `ctx` is still intact (the RequestView
  // points into it; it is about to be moved into the queue entry).
  RecordBlock(part.stats, state, request, /*check_waiters=*/!is_upgrade,
              state.queue.size());
  part.stats.queue_depth_sum += state.queue.size() + 1;
  part.stats.queue_depth_max =
      std::max<uint64_t>(part.stats.queue_depth_max, state.queue.size() + 1);

  // Enqueue: upgrades ahead of non-upgrade waiters.
  const bool requester_compensating = ctx.for_compensation;
  Waiter waiter{txn, effective, std::move(ctx), is_upgrade, tag};
  if (is_upgrade) {
    auto pos = state.queue.begin();
    while (pos != state.queue.end() && pos->is_upgrade) ++pos;
    state.queue.insert(pos, std::move(waiter));
    ++part.stats.upgrades;
  } else {
    state.queue.push_back(std::move(waiter));
  }

  // Slow path: publish the wait and run the eager deadlock detection under
  // the wait tier (partition latch still held — the latch order).
  std::vector<TxnId> victims;
  {
    std::lock_guard<std::mutex> wait_guard(wait_mu_);
    WaitRecord& record = waiting_[txn];
    record.item = item;
    record.mode = effective;
    record.for_compensation = requester_compensating;
    waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
    // Our enqueue may have shifted positions (upgrade front-insert), and
    // our own edges are new: republish the whole queue.
    RepublishItemWaitersLocked(state, item);

    CycleDetector detector([this](TxnId t) {
      auto it = waiting_.find(t);
      return it == waiting_.end() ? std::vector<TxnId>{} : it->second.blockers;
    });
    std::vector<TxnId> cycle = detector.FindCycle(txn);
    if (cycle.empty()) {
      ++wait_stats_.waits;
      return Outcome::kWaiting;
    }

    ++wait_stats_.deadlocks;
    if (!requester_compensating) {
      // The requester completes the cycle; it is the victim.
      ++wait_stats_.deadlock_victim_aborts;
      waiting_.erase(txn);
      waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
      for (auto qit = state.queue.begin(); qit != state.queue.end(); ++qit) {
        if (qit->txn == txn) {
          state.queue.erase(qit);
          break;
        }
      }
    } else {
      // A compensating step must not be the victim: abort every other
      // waiting transaction in the cycle instead (Section 3.4).
      ++wait_stats_.compensation_priority_aborts;
      for (TxnId member : cycle) {
        if (member != txn) victims.push_back(member);
      }
    }
  }

  if (!requester_compensating) {
    // Our departure may unblock waiters that queued behind us.
    ProcessQueueLocked(part, item);
    return Outcome::kAborted;
  }

  part_guard.unlock();
  for (TxnId victim : victims) AbortWaiterForDeadlock(victim);
  // We may have been granted while processing queues; report current state.
  std::lock_guard<std::mutex> wait_guard(wait_mu_);
  if (waiting_.find(txn) == waiting_.end()) return Outcome::kGranted;
  ++wait_stats_.waits;
  return Outcome::kWaiting;
}

void LockManager::GrantUnconditional(TxnId txn, ItemId item, LockMode mode,
                                     RequestContext ctx) {
  Partition& part = PartitionOf(item);
  bool check_deadlocks = false;
  {
    std::lock_guard<std::mutex> part_guard(part.mu);
    ++part.stats.unconditional_grants;
    ItemState& state = part.items[item];
    InstallHolder(state, item, txn, mode, std::move(ctx));
    if (!state.queue.empty()) {
      // The new holder may block existing waiters of this item, creating
      // wait-for edges that close a cycle no request-time check saw.
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      RepublishItemWaitersLocked(state, item);
      check_deadlocks = true;
    }
  }
  if (check_deadlocks) ResolveDeadlocks();
}

void LockManager::ResolveDeadlocks() {
  for (;;) {
    if (waiting_count_.load(std::memory_order_relaxed) == 0) return;
    std::vector<TxnId> victims;
    {
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      if (waiting_.empty()) return;
      // Snapshot the waiting transactions, sorted for determinism.
      std::vector<TxnId> waiting;
      waiting.reserve(waiting_.size());
      for (const auto& [txn, record] : waiting_) waiting.push_back(txn);
      std::sort(waiting.begin(), waiting.end());

      CycleDetector detector([this](TxnId t) {
        auto it = waiting_.find(t);
        return it == waiting_.end() ? std::vector<TxnId>{}
                                    : it->second.blockers;
      });
      std::vector<TxnId> cycle;
      for (TxnId start : waiting) {
        cycle = detector.FindCycle(start);
        if (!cycle.empty()) break;
      }
      if (cycle.empty()) return;

      ++wait_stats_.deadlocks;
      // Victim: a non-compensating cycle member. If a compensating step is
      // in the cycle, every other member is aborted (Section 3.4).
      auto is_compensating = [this](TxnId member) {
        auto it = waiting_.find(member);
        return it != waiting_.end() && it->second.for_compensation;
      };
      bool has_compensating = false;
      for (TxnId member : cycle) has_compensating |= is_compensating(member);
      if (has_compensating) {
        ++wait_stats_.compensation_priority_aborts;
        for (TxnId member : cycle) {
          if (!is_compensating(member)) victims.push_back(member);
        }
      } else {
        victims.push_back(cycle.front());
      }
    }
    for (TxnId victim : victims) AbortWaiterForDeadlock(victim);
    // Re-snapshot: the graph changed.
  }
}

void LockManager::AbortWaiterForDeadlock(TxnId victim) {
  for (;;) {
    ItemId item;
    {
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      auto it = waiting_.find(victim);
      if (it == waiting_.end()) return;  // Resolved concurrently.
      item = it->second.item;
    }
    Partition& part = PartitionOf(item);
    std::lock_guard<std::mutex> part_guard(part.mu);
    void* tag = nullptr;
    {
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      auto it = waiting_.find(victim);
      if (it == waiting_.end()) return;
      if (!(it->second.item == item)) continue;  // Moved on; retry.
      ++wait_stats_.deadlock_victim_aborts;
      waiting_.erase(it);
      waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
      auto item_it = part.items.find(item);
      assert(item_it != part.items.end());
      std::vector<Waiter>& queue = item_it->second.queue;
      for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
        if (qit->txn == victim) {
          tag = qit->tag;
          queue.erase(qit);
          break;
        }
      }
    }
    ProcessQueueLocked(part, item);
    if (listener_ != nullptr) listener_->OnWaiterAborted(victim, tag);
    return;
  }
}

bool LockManager::RemoveWaiterForRelease(TxnId txn) {
  for (;;) {
    ItemId item;
    {
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      auto it = waiting_.find(txn);
      if (it == waiting_.end()) return false;
      item = it->second.item;
    }
    Partition& part = PartitionOf(item);
    std::lock_guard<std::mutex> part_guard(part.mu);
    std::lock_guard<std::mutex> wait_guard(wait_mu_);
    auto it = waiting_.find(txn);
    if (it == waiting_.end()) return false;
    if (!(it->second.item == item)) continue;  // Moved on; retry.
    waiting_.erase(it);
    waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
    auto item_it = part.items.find(item);
    assert(item_it != part.items.end());
    ItemState& state = item_it->second;
    for (auto qit = state.queue.begin(); qit != state.queue.end(); ++qit) {
      if (qit->txn == txn) {
        state.queue.erase(qit);
        break;
      }
    }
    // Keep the materialized edges exact; grants are NOT processed here
    // (ReleaseAll processes the items the holder index names — if the
    // waited-on item is among them it gets its queue pass there, matching
    // the single-latch manager's behaviour).
    RepublishItemWaitersLocked(state, item);
    return true;
  }
}

void LockManager::ProcessQueueLocked(Partition& part, ItemId item) {
  auto item_it = part.items.find(item);
  if (item_it == part.items.end()) return;
  ItemState& state = item_it->second;

  std::vector<std::pair<TxnId, void*>> granted;
  if (!state.queue.empty()) {
    std::lock_guard<std::mutex> wait_guard(wait_mu_);
    size_t pos = 0;
    while (pos < state.queue.size()) {
      Waiter& w = state.queue[pos];
      RequestView request{w.txn, w.mode, &w.ctx, HoldsComp(state, w.txn)};
      bool blocked = ConflictsWithHolders(state, request);
      if (!blocked && !w.is_upgrade) {
        blocked = ConflictsWithWaiters(state, request, pos);
      }
      if (blocked) {
        ++pos;
        continue;
      }
      InstallHolder(state, item, w.txn, w.mode, std::move(w.ctx));
      waiting_.erase(w.txn);
      granted.emplace_back(w.txn, w.tag);
      state.queue.erase(state.queue.begin() + pos);
      // Do not advance pos: the next waiter shifted into this slot.
    }
    waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
    // Holder set and queue positions changed: refresh the edges of
    // everyone still waiting here.
    RepublishItemWaitersLocked(state, item);
  }

  // Erase fully released items before the listener runs (it may reenter).
  MaybeEraseItem(part, item);

  if (listener_ != nullptr) {
    for (const auto& [txn, tag] : granted) listener_->OnGranted(txn, tag);
  }
}

void LockManager::RecordCoveredRequest(TxnId txn) {
  TxnStripe& stripe = StripeOf(txn);
  std::lock_guard<std::mutex> stripe_guard(stripe.mu);
  ++stripe.stats.requests;
  ++stripe.stats.immediate_grants;
}

void LockManager::ReleaseConventional(TxnId txn, const StepMarks& marks) {
  TxnStripe& stripe = StripeOf(txn);
  std::vector<ItemId> touched;
  {
    std::lock_guard<std::mutex> stripe_guard(stripe.mu);
    ++stripe.stats.release_calls;
    stripe.stats.unconditional_grants +=
        marks.comp.size() + marks.asserts.size();
    auto it = stripe.txns.find(txn);
    if (it != stripe.txns.end()) touched = it->second.conventional;
  }
  // Installs the marks `marks` names for `item`. Requires the item's
  // partition latch and the stripe latch.
  auto install_marks = [&](ItemState& state, ItemId item, TxnState& ts) {
    for (const ItemId& mark : marks.comp) {
      if (mark == item) {
        InstallHolderLocked(state, item, ts, txn, LockMode::kComp,
                            marks.comp_ctx);
      }
    }
    for (const ItemId& mark : marks.asserts) {
      if (mark == item) {
        InstallHolderLocked(state, item, ts, txn, LockMode::kAssert,
                            marks.assert_ctx);
      }
    }
  };
  // The conventional list, in grant order: one visit per item drops the
  // lock, installs the item's marks and processes its queue.
  for (const ItemId& item : touched) {
    Partition& part = PartitionOf(item);
    std::lock_guard<std::mutex> part_guard(part.mu);
    ++part.release_visits;
    auto item_it = part.items.find(item);
    assert(item_it != part.items.end());
    ItemState& state = item_it->second;
    // Conventional entries merge, so there is exactly one to remove.
    for (auto hit = state.holders.begin(); hit != state.holders.end();
         ++hit) {
      if (hit->txn == txn && IsConventional(hit->mode)) {
        state.holders.erase(hit);
        break;
      }
    }
    {
      // Keep the index in step under the same partition hold (the audit
      // may run between items, never mid-item).
      std::lock_guard<std::mutex> stripe_guard(stripe.mu);
      auto it = stripe.txns.find(txn);
      assert(it != stripe.txns.end());
      TxnState& ts = it->second;
      auto held_it = ts.held_items.find(item);
      assert(held_it != ts.held_items.end());
      held_it->second.conventional = 0;
      ts.conventional.erase(
          std::find(ts.conventional.begin(), ts.conventional.end(), item));
      install_marks(state, item, ts);
      if (held_it->second.empty()) ts.held_items.erase(held_it);
    }
    ProcessQueueLocked(part, item);
  }
  // Marks on items the step held no conventional lock on: installed like
  // GrantUnconditional, one visit per distinct item.
  std::vector<ItemId> leftover;
  auto note_leftover = [&](const ItemId& item) {
    if (std::find(touched.begin(), touched.end(), item) == touched.end() &&
        std::find(leftover.begin(), leftover.end(), item) == leftover.end()) {
      leftover.push_back(item);
    }
  };
  for (const ItemId& item : marks.comp) note_leftover(item);
  for (const ItemId& item : marks.asserts) note_leftover(item);
  for (const ItemId& item : leftover) {
    Partition& part = PartitionOf(item);
    std::lock_guard<std::mutex> part_guard(part.mu);
    ItemState& state = part.items[item];
    {
      std::lock_guard<std::mutex> stripe_guard(stripe.mu);
      install_marks(state, item, stripe.txns[txn]);
    }
    if (!state.queue.empty()) {
      // The new holders may block existing waiters; the deadlock pass
      // below sees the refreshed edges.
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      RepublishItemWaitersLocked(state, item);
    }
  }
  MaybeDropTxnState(txn);
  ResolveDeadlocks();
  ACCDB_CHECK_LOCK_INDEX();
}

void LockManager::ReleaseAssertion(TxnId txn, AssertionId assertion,
                                   uint32_t assertion_instance) {
  TxnStripe& stripe = StripeOf(txn);
  auto same_instance = [&](const InstanceItems& entry) {
    return entry.assertion == assertion &&
           entry.instance == assertion_instance;
  };
  std::vector<ItemId> covered;
  {
    std::lock_guard<std::mutex> stripe_guard(stripe.mu);
    ++stripe.stats.release_calls;
    auto it = stripe.txns.find(txn);
    if (it == stripe.txns.end()) return;
    const std::vector<InstanceItems>& instances = it->second.instances;
    auto list = std::find_if(instances.begin(), instances.end(),
                             same_instance);
    if (list == instances.end()) return;
    covered = list->items;
  }
  for (const ItemId& item : covered) {
    Partition& part = PartitionOf(item);
    std::lock_guard<std::mutex> part_guard(part.mu);
    ++part.release_visits;
    auto item_it = part.items.find(item);
    assert(item_it != part.items.end());
    std::vector<Holder>& holders = item_it->second.holders;
    auto removed = std::remove_if(
        holders.begin(), holders.end(), [&](const Holder& h) {
          return h.txn == txn && h.mode == LockMode::kAssert &&
                 h.ctx.assertion == assertion &&
                 h.ctx.assertion_instance == assertion_instance;
        });
    assert(removed != holders.end() && "instance list names a bare item");
    const uint32_t dropped = static_cast<uint32_t>(holders.end() - removed);
    holders.erase(removed, holders.end());
    {
      std::lock_guard<std::mutex> stripe_guard(stripe.mu);
      auto it = stripe.txns.find(txn);
      assert(it != stripe.txns.end());
      TxnState& ts = it->second;
      auto held_it = ts.held_items.find(item);
      assert(held_it != ts.held_items.end());
      held_it->second.asserts -= dropped;
      if (held_it->second.empty()) ts.held_items.erase(held_it);
      auto list =
          std::find_if(ts.instances.begin(), ts.instances.end(), same_instance);
      assert(list != ts.instances.end());
      list->items.erase(
          std::find(list->items.begin(), list->items.end(), item));
      if (list->items.empty()) ts.instances.erase(list);
    }
    ProcessQueueLocked(part, item);
  }
  MaybeDropTxnState(txn);
  ResolveDeadlocks();
  ACCDB_CHECK_LOCK_INDEX();
}

void LockManager::ReleaseAll(TxnId txn) {
  // Cancel any pending request first (matching the single-latch order:
  // waiter removal, then holder drops, then queue passes).
  const bool was_waiting = RemoveWaiterForRelease(txn);

  TxnStripe& stripe = StripeOf(txn);
  std::vector<ItemId> touched;
  bool held_anything = false;
  {
    std::lock_guard<std::mutex> stripe_guard(stripe.mu);
    ++stripe.stats.release_calls;
    auto it = stripe.txns.find(txn);
    if (it != stripe.txns.end()) {
      held_anything = true;
      touched.reserve(it->second.held_items.size());
      for (const auto& [item, held] : it->second.held_items) {
        touched.push_back(item);
      }
    }
  }
  if (!held_anything) {
    if (was_waiting) ResolveDeadlocks();
    return;
  }
  for (const ItemId& item : touched) {
    Partition& part = PartitionOf(item);
    std::lock_guard<std::mutex> part_guard(part.mu);
    ++part.release_visits;
    auto item_it = part.items.find(item);
    assert(item_it != part.items.end());
    std::vector<Holder>& holders = item_it->second.holders;
    holders.erase(
        std::remove_if(holders.begin(), holders.end(),
                       [&](const Holder& h) { return h.txn == txn; }),
        holders.end());
    {
      std::lock_guard<std::mutex> stripe_guard(stripe.mu);
      auto it = stripe.txns.find(txn);
      assert(it != stripe.txns.end());
      TxnState& ts = it->second;
      auto held_it = ts.held_items.find(item);
      assert(held_it != ts.held_items.end());
      if (held_it->second.conventional != 0) {
        ts.conventional.erase(
            std::find(ts.conventional.begin(), ts.conventional.end(), item));
      }
      if (held_it->second.asserts != 0) {
        for (InstanceItems& list : ts.instances) {
          auto pos = std::find(list.items.begin(), list.items.end(), item);
          if (pos != list.items.end()) list.items.erase(pos);
        }
        std::erase_if(ts.instances, [](const InstanceItems& list) {
          return list.items.empty();
        });
      }
      ts.held_items.erase(held_it);
    }
    ProcessQueueLocked(part, item);
  }
  MaybeDropTxnState(txn);
  ResolveDeadlocks();
  ACCDB_CHECK_LOCK_INDEX();
}

void LockManager::CancelWaiter(TxnId txn) {
  bool removed = false;
  for (;;) {
    ItemId item;
    {
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      auto it = waiting_.find(txn);
      if (it == waiting_.end()) break;
      item = it->second.item;
    }
    Partition& part = PartitionOf(item);
    std::lock_guard<std::mutex> part_guard(part.mu);
    {
      std::lock_guard<std::mutex> wait_guard(wait_mu_);
      auto it = waiting_.find(txn);
      if (it == waiting_.end()) break;
      if (!(it->second.item == item)) continue;  // Moved on; retry.
      waiting_.erase(it);
      waiting_count_.store(waiting_.size(), std::memory_order_relaxed);
      auto item_it = part.items.find(item);
      assert(item_it != part.items.end());
      std::vector<Waiter>& queue = item_it->second.queue;
      for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
        if (qit->txn == txn) {
          queue.erase(qit);
          break;
        }
      }
    }
    ProcessQueueLocked(part, item);
    removed = true;
    break;
  }
  if (removed) ResolveDeadlocks();
}

void LockManager::MaybeDropTxnState(TxnId txn) {
  TxnStripe& stripe = StripeOf(txn);
  std::lock_guard<std::mutex> stripe_guard(stripe.mu);
  auto it = stripe.txns.find(txn);
  if (it != stripe.txns.end() && it->second.held_items.empty()) {
    stripe.txns.erase(it);
  }
}

bool LockManager::Holds(TxnId txn, ItemId item, LockMode mode) const {
  Partition& part = PartitionOf(item);
  std::lock_guard<std::mutex> guard(part.mu);
  auto it = part.items.find(item);
  if (it == part.items.end()) return false;
  for (const Holder& h : it->second.holders) {
    if (h.txn != txn) continue;
    if (h.mode == mode) return true;
    if (IsConventional(mode) && IsConventional(h.mode) &&
        ModeCovers(h.mode, mode)) {
      return true;
    }
  }
  return false;
}

bool LockManager::HoldsAssertion(TxnId txn, ItemId item,
                                 AssertionId assertion) const {
  Partition& part = PartitionOf(item);
  std::lock_guard<std::mutex> guard(part.mu);
  auto it = part.items.find(item);
  if (it == part.items.end()) return false;
  for (const Holder& h : it->second.holders) {
    if (h.txn == txn && h.mode == LockMode::kAssert &&
        h.ctx.assertion == assertion) {
      return true;
    }
  }
  return false;
}

std::vector<TxnId> LockManager::BlockedBy(TxnId txn) const {
  std::lock_guard<std::mutex> guard(wait_mu_);
  auto it = waiting_.find(txn);
  return it == waiting_.end() ? std::vector<TxnId>{} : it->second.blockers;
}

bool LockManager::IsWaiting(TxnId txn) const {
  std::lock_guard<std::mutex> guard(wait_mu_);
  return waiting_.find(txn) != waiting_.end();
}

size_t LockManager::HolderCount(ItemId item) const {
  Partition& part = PartitionOf(item);
  std::lock_guard<std::mutex> guard(part.mu);
  auto it = part.items.find(item);
  return it == part.items.end() ? 0 : it->second.holders.size();
}

size_t LockManager::QueueLength(ItemId item) const {
  Partition& part = PartitionOf(item);
  std::lock_guard<std::mutex> guard(part.mu);
  auto it = part.items.find(item);
  return it == part.items.end() ? 0 : it->second.queue.size();
}

size_t LockManager::HeldItemCount(TxnId txn) const {
  TxnStripe& stripe = StripeOf(txn);
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.txns.find(txn);
  return it == stripe.txns.end() ? 0 : it->second.held_items.size();
}

LockManager::Stats LockManager::StatsSnapshot() const {
  Stats merged;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> guard(part->mu);
    merged.MergeFrom(part->stats);
  }
  {
    std::lock_guard<std::mutex> guard(wait_mu_);
    merged.MergeFrom(wait_stats_);
  }
  for (const TxnStripe& stripe : stripes_) {
    std::lock_guard<std::mutex> guard(stripe.mu);
    merged.MergeFrom(stripe.stats);
  }
  return merged;
}

void LockManager::ResetStats() {
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> guard(part->mu);
    part->stats.Reset();
  }
  {
    std::lock_guard<std::mutex> guard(wait_mu_);
    wait_stats_.Reset();
  }
  for (TxnStripe& stripe : stripes_) {
    std::lock_guard<std::mutex> guard(stripe.mu);
    stripe.stats.Reset();
  }
}

void LockManager::RecordWaitTime(LockMode mode, double seconds) {
  std::lock_guard<std::mutex> guard(wait_mu_);
  wait_stats_.wait_seconds_by_class[static_cast<int>(WaitClassOf(mode))] +=
      seconds;
}

LockManager::Stats LockManager::PartitionStatsForTest(size_t partition) const {
  const Partition& part = *partitions_.at(partition);
  std::lock_guard<std::mutex> guard(part.mu);
  return part.stats;
}

LockManager::Stats LockManager::WaitTierStatsForTest() const {
  std::lock_guard<std::mutex> guard(wait_mu_);
  return wait_stats_;
}

LockManager::Stats LockManager::StripeStatsForTest(size_t stripe) const {
  const TxnStripe& s = stripes_.at(stripe);
  std::lock_guard<std::mutex> guard(s.mu);
  return s.stats;
}

uint64_t LockManager::PartitionReleaseVisitsForTest(size_t partition) const {
  const Partition& part = *partitions_.at(partition);
  std::lock_guard<std::mutex> guard(part.mu);
  return part.release_visits;
}

size_t LockManager::ItemCountForTest() const {
  size_t count = 0;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> guard(part->mu);
    count += part->items.size();
  }
  return count;
}

std::string LockManager::DumpWaiters() const {
  std::lock_guard<std::mutex> guard(wait_mu_);
  std::string out;
  for (const auto& [txn, record] : waiting_) {
    out += StrFormat("txn %llu waits on %s, mode ",
                     static_cast<unsigned long long>(txn),
                     record.item.ToString().c_str());
    out += LockModeName(record.mode);
    out += ", blocked by:";
    for (TxnId blocker : record.blockers) {
      out += StrFormat(" %llu", static_cast<unsigned long long>(blocker));
    }
    out += "\n";
  }
  return out;
}

bool LockManager::CheckIndexConsistency(std::string* violation) const {
  // Latch the world, in the global order: partitions (ascending), wait
  // tier, stripes (ascending). Any in-flight multi-partition operation
  // holds at least one of these latches at every point where its structures
  // are transiently inconsistent, so the audit only observes quiescent
  // cross-partition states.
  std::vector<std::unique_lock<std::mutex>> part_guards;
  part_guards.reserve(partitions_.size());
  for (const auto& part : partitions_) {
    part_guards.emplace_back(part->mu);
  }
  std::unique_lock<std::mutex> wait_guard(wait_mu_);
  std::vector<std::unique_lock<std::mutex>> stripe_guards;
  stripe_guards.reserve(kTxnStripes);
  for (const TxnStripe& stripe : stripes_) {
    stripe_guards.emplace_back(stripe.mu);
  }
  return CheckIndexConsistencyLocked(violation);
}

bool LockManager::CheckIndexConsistencyLocked(std::string* violation) const {
  auto fail = [violation](std::string message) {
    if (violation != nullptr) *violation = std::move(message);
    return false;
  };

  // Recount every holder entry from the item tables of every partition,
  // and audit each queue entry against its wait-tier record.
  std::unordered_map<TxnId, std::unordered_map<ItemId, HeldEntry, ItemIdHash>>
      expected;
  // (txn, assertion, instance) -> the items holding that instance.
  std::map<std::tuple<TxnId, AssertionId, uint32_t>, std::vector<ItemId>>
      expected_instances;
  size_t queued_waiters = 0;
  for (size_t pi = 0; pi < partitions_.size(); ++pi) {
    const Partition& part = *partitions_[pi];
    for (const auto& [item, state] : part.items) {
      if (PartitionIndex(item) != pi) {
        return fail(StrFormat("item %s lives in partition %zu, hashes to %zu",
                              item.ToString().c_str(), pi,
                              PartitionIndex(item)));
      }
      for (const Holder& h : state.holders) {
        HeldEntry& held = expected[h.txn][item];
        if (IsConventional(h.mode)) {
          if (++held.conventional > 1) {
            return fail(StrFormat(
                "txn %llu has multiple conventional holder entries on %s",
                static_cast<unsigned long long>(h.txn),
                item.ToString().c_str()));
          }
        } else if (h.mode == LockMode::kAssert) {
          ++held.asserts;
          std::vector<ItemId>& items = expected_instances[{
              h.txn, h.ctx.assertion, h.ctx.assertion_instance}];
          if (std::find(items.begin(), items.end(), item) == items.end()) {
            items.push_back(item);
          }
        } else {
          if (++held.comp > 1) {
            return fail(StrFormat(
                "txn %llu has multiple kComp holder entries on %s",
                static_cast<unsigned long long>(h.txn),
                item.ToString().c_str()));
          }
        }
      }
      for (size_t qi = 0; qi < state.queue.size(); ++qi) {
        const Waiter& w = state.queue[qi];
        ++queued_waiters;
        auto record_it = waiting_.find(w.txn);
        if (record_it == waiting_.end()) {
          return fail(StrFormat(
              "queued waiter txn %llu on %s has no wait-tier record",
              static_cast<unsigned long long>(w.txn),
              item.ToString().c_str()));
        }
        const WaitRecord& record = record_it->second;
        if (!(record.item == item)) {
          return fail(StrFormat(
              "txn %llu queued on %s but its wait record names %s",
              static_cast<unsigned long long>(w.txn), item.ToString().c_str(),
              record.item.ToString().c_str()));
        }
        if (record.mode != w.mode ||
            record.for_compensation != w.ctx.for_compensation) {
          return fail(StrFormat(
              "txn %llu wait record disagrees with its queue entry on %s",
              static_cast<unsigned long long>(w.txn),
              item.ToString().c_str()));
        }
        // The materialized waits-for edges must match a fresh computation.
        if (record.blockers != BlockersForWaiter(state, w, qi)) {
          return fail(StrFormat(
              "txn %llu has stale materialized blockers on %s",
              static_cast<unsigned long long>(w.txn),
              item.ToString().c_str()));
        }
      }
    }
  }

  // Every wait-tier record must correspond to exactly one queue entry.
  if (queued_waiters != waiting_.size()) {
    return fail(StrFormat(
        "wait tier tracks %zu records but item queues hold %zu waiters",
        waiting_.size(), queued_waiters));
  }
  if (waiting_count_.load(std::memory_order_relaxed) != waiting_.size()) {
    return fail(StrFormat("waiting_count_ is %zu but %zu records exist",
                          waiting_count_.load(std::memory_order_relaxed),
                          waiting_.size()));
  }

  // Compare the recount against the per-transaction index.
  for (const TxnStripe& stripe : stripes_) {
    for (const auto& [txn, state] : stripe.txns) {
      auto expected_it = expected.find(txn);
      size_t expected_items =
          expected_it == expected.end() ? 0 : expected_it->second.size();
      if (state.held_items.size() != expected_items) {
        return fail(StrFormat(
            "txn %llu index tracks %zu items but holder tables show %zu",
            static_cast<unsigned long long>(txn), state.held_items.size(),
            expected_items));
      }
      for (const auto& [item, held] : state.held_items) {
        const HeldEntry* want = nullptr;
        if (expected_it != expected.end()) {
          auto want_it = expected_it->second.find(item);
          if (want_it != expected_it->second.end()) want = &want_it->second;
        }
        if (want == nullptr || want->conventional != held.conventional ||
            want->comp != held.comp || want->asserts != held.asserts) {
          return fail(StrFormat(
              "txn %llu index for %s is {conv=%u comp=%u asserts=%u}, holder "
              "tables show {conv=%u comp=%u asserts=%u}",
              static_cast<unsigned long long>(txn), item.ToString().c_str(),
              held.conventional, held.comp, held.asserts,
              want == nullptr ? 0u : want->conventional,
              want == nullptr ? 0u : want->comp,
              want == nullptr ? 0u : want->asserts));
        }
      }
    }
  }

  // The conventional and per-instance lists against the holder tables, in
  // both directions: each list entry names an item the transaction holds
  // that way, exactly once, and each such holder is listed.
  size_t listed_instance_items = 0;
  for (const TxnStripe& stripe : stripes_) {
    for (const auto& [txn, state] : stripe.txns) {
      auto expected_it = expected.find(txn);
      size_t conventional_items = 0;
      if (expected_it != expected.end()) {
        for (const auto& [item, held] : expected_it->second) {
          conventional_items += held.conventional;
        }
      }
      if (state.conventional.size() != conventional_items) {
        return fail(StrFormat(
            "txn %llu conventional list has %zu items but holder tables show "
            "%zu",
            static_cast<unsigned long long>(txn), state.conventional.size(),
            conventional_items));
      }
      for (const ItemId& item : state.conventional) {
        const bool held =
            expected_it != expected.end() &&
            expected_it->second.count(item) != 0 &&
            expected_it->second.at(item).conventional != 0;
        if (!held || std::count(state.conventional.begin(),
                                state.conventional.end(), item) != 1) {
          return fail(StrFormat(
              "txn %llu conventional list names %s, which it holds no "
              "conventional lock on or lists twice",
              static_cast<unsigned long long>(txn), item.ToString().c_str()));
        }
      }
      for (size_t i = 0; i < state.instances.size(); ++i) {
        const InstanceItems& list = state.instances[i];
        for (size_t j = 0; j < i; ++j) {
          if (state.instances[j].assertion == list.assertion &&
              state.instances[j].instance == list.instance) {
            return fail(StrFormat(
                "txn %llu lists assertion %u instance %u twice",
                static_cast<unsigned long long>(txn), list.assertion,
                list.instance));
          }
        }
        auto want_it =
            expected_instances.find({txn, list.assertion, list.instance});
        const std::vector<ItemId> none;
        const std::vector<ItemId>& want =
            want_it == expected_instances.end() ? none : want_it->second;
        if (list.items.empty() || list.items.size() != want.size()) {
          return fail(StrFormat(
              "txn %llu assertion %u instance %u lists %zu items but holder "
              "tables show %zu",
              static_cast<unsigned long long>(txn), list.assertion,
              list.instance, list.items.size(), want.size()));
        }
        for (const ItemId& item : list.items) {
          if (std::find(want.begin(), want.end(), item) == want.end() ||
              std::count(list.items.begin(), list.items.end(), item) != 1) {
            return fail(StrFormat(
                "txn %llu assertion %u instance %u lists %s, which holds no "
                "such lock or is listed twice",
                static_cast<unsigned long long>(txn), list.assertion,
                list.instance, item.ToString().c_str()));
          }
        }
        listed_instance_items += list.items.size();
      }
    }
  }
  size_t held_instance_items = 0;
  for (const auto& entry : expected_instances) {
    held_instance_items += entry.second.size();
  }
  if (listed_instance_items != held_instance_items) {
    return fail(StrFormat(
        "instance lists name %zu (item, instance) pairs but holder tables "
        "show %zu",
        listed_instance_items, held_instance_items));
  }

  // Every transaction seen in a holder table must be indexed.
  for (const auto& entry : expected) {
    const TxnStripe& stripe = StripeOf(entry.first);
    if (stripe.txns.find(entry.first) == stripe.txns.end()) {
      return fail(StrFormat("txn %llu holds locks but has no TxnState",
                            static_cast<unsigned long long>(entry.first)));
    }
  }
  return true;
}

}  // namespace accdb::lock
