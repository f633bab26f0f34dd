// Core vocabulary of the lock manager: lockable items, lock modes, and the
// per-request context used by conflict resolution.
//
// Lock modes (Section 3.2 of the paper):
//   * IS/IX/S/SIX/X — conventional hierarchical modes. In an ACC executor
//     they are held for the duration of a *step* (strict two-phase within the
//     step); in the serializable baseline, for the duration of the
//     transaction.
//   * kAssert — an assertional lock A(pre(S_{i,j})), attached to a database
//     item referenced by an interstep assertion. It conflicts with a write
//     request only if the writing step *interferes* with the assertion; the
//     decision is a design-time table lookup, optionally refined by run-time
//     key equality (the one-level ACC's false-conflict elimination).
//   * kComp — compensation/exposure lock on items modified by the forward
//     steps of a multi-step transaction, held to commit. It (a) reserves the
//     items a compensating step may need, guaranteeing recoverable deadlocks,
//     and (b) isolates legacy/ad-hoc (non-analyzed) transactions from
//     uncommitted intermediate results: a non-analyzed request conflicts
//     with another transaction's kComp lock, an analyzed step's does not.

#ifndef ACCDB_LOCK_TYPES_H_
#define ACCDB_LOCK_TYPES_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "storage/table.h"

namespace accdb::lock {

using TxnId = uint64_t;

inline constexpr TxnId kInvalidTxn = 0;

// A lockable database item: a row of a table, or the table itself
// (row == kTableItem) for intention locks and scans.
struct ItemId {
  storage::TableId table = 0;
  storage::RowId row = 0;

  static constexpr storage::RowId kTableItem = 0;

  static ItemId Table(storage::TableId t) { return ItemId{t, kTableItem}; }
  static ItemId Row(storage::TableId t, storage::RowId r) {
    return ItemId{t, r};
  }

  bool is_table() const { return row == kTableItem; }

  friend bool operator==(const ItemId& a, const ItemId& b) {
    return a.table == b.table && a.row == b.row;
  }

  std::string ToString() const;
};

// Bucket hash for the unordered_maps keyed by ItemId. Iteration order of
// those maps (notably a transaction's held-item index) feeds the lock
// manager's release schedule, which sim_identity_test pins byte-for-byte —
// so this function must not change. Its weakness — table and row are folded
// together at bit 48 before mixing, so ids that collide there hash equal —
// only costs bucket collisions here; partition selection uses the stronger
// ItemPartitionHash below.
struct ItemIdHash {
  size_t operator()(const ItemId& item) const {
    uint64_t h = (static_cast<uint64_t>(item.table) << 48) ^ item.row;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

// Partition-selection hash: mixes table and row independently so that rows
// whose high bits carry a storage-shard id (storage::MakeRowId) still spread
// uniformly across lock-table partitions, and distinct tables never alias.
// Safe to evolve: partition assignment does not affect the grant schedule
// (the per-txn holder index above is one map across partitions).
struct ItemPartitionHash {
  size_t operator()(const ItemId& item) const {
    uint64_t h = item.row;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h += static_cast<uint64_t>(item.table) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }
};

enum class LockMode : uint8_t {
  kIS = 0,
  kIX,
  kS,
  kSIX,
  kX,
  kAssert,
  kComp,
};

inline constexpr int kNumLockModes = 7;

std::string_view LockModeName(LockMode mode);

// True if the conventional mode `held` already grants every privilege of
// `requested` (e.g. X covers S; SIX covers S and IX). Only meaningful for
// the five conventional modes.
bool ModeCovers(LockMode held, LockMode requested);

// Least conventional mode granting the privileges of both (e.g. S+IX = SIX,
// S+X = X). Only meaningful for the five conventional modes.
LockMode ModeCombine(LockMode a, LockMode b);

// Actor identities used by interference lookups. An actor is either a step
// type (for conventional write requests, "which step wants to write") or a
// transaction prefix (for assertional requests, "which steps has the holder
// of this assertional lock already executed"). The two id spaces are
// disjoint by convention of the registering layer (src/acc).
using ActorId = uint32_t;
using AssertionId = uint32_t;

inline constexpr ActorId kNoActor = 0;
inline constexpr AssertionId kNoAssertion = 0;

// Run-time discriminator keys of a request or holder, stored inline: every
// statement builds a request and every conflict check compares keys, so
// they must not live on the heap. kCapacity bounds the key arity of every
// workload (the widest today has 3 keys). Building a longer list aborts
// instead of truncating: a dropped key would change which assertion
// instance or step target the lock names.
class KeyList {
 public:
  static constexpr size_t kCapacity = 4;

  KeyList() = default;
  KeyList(std::initializer_list<int64_t> keys) {
    Assign(keys.begin(), keys.size());
  }
  // Implicit: key vectors (assertion instances, program keys) convert
  // wherever a request is built from them.
  KeyList(const std::vector<int64_t>& keys) {  // NOLINT(runtime/explicit)
    Assign(keys.data(), keys.size());
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int64_t operator[](size_t i) const { return keys_[i]; }
  const int64_t* begin() const { return keys_.data(); }
  const int64_t* end() const { return keys_.data() + size_; }

  friend bool operator==(const KeyList& a, const KeyList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // Aborts (with a message on stderr) when n > kCapacity.
  void Assign(const int64_t* keys, size_t n);

  std::array<int64_t, kCapacity> keys_{};
  uint8_t size_ = 0;
};

// Per-request (and, once granted, per-holder) metadata consulted by the
// conflict resolver.
struct RequestContext {
  // For conventional requests: the requesting step's type.
  // For kAssert requests: the requesting transaction's executed prefix.
  ActorId actor = kNoActor;

  // For kAssert requests/holders: which assertion the lock protects.
  AssertionId assertion = kNoAssertion;

  // Distinguishes successive instances of the same assertion declaration
  // held by one transaction (a loop step's invariant is re-instantiated per
  // iteration; releasing the consumed instance must not drop the freshly
  // granted one). Ignored by interference lookups.
  uint32_t assertion_instance = 0;

  // Run-time discriminator values (e.g. {warehouse_id, district_id} or
  // {order_id}) used by kIfSameKey interference refinement. For conventional
  // requests these describe the writing step's target; for kAssert they
  // describe the assertion instance.
  KeyList keys;

  // True for requests issued by a compensating step. Compensating steps win
  // deadlocks: if such a request closes a cycle, the other cycle members are
  // aborted instead (Section 3.4).
  bool for_compensation = false;

  // False for legacy/ad-hoc transactions that have not been analyzed and
  // decomposed. Non-analyzed requests conflict with foreign kComp locks so
  // that they never observe intermediate results of multi-step transactions.
  bool analyzed = true;
};

enum class Outcome : uint8_t {
  kGranted,
  kWaiting,
  kAborted,  // The request closed a deadlock cycle and the requester lost.
};

std::string_view OutcomeName(Outcome outcome);

// Coarse lock-mode classes used to attribute blocked time in
// LockManager::Stats: read-only conventional modes (IS/S), write-intent
// conventional modes (IX/SIX/X), assertional locks, compensation locks.
enum class WaitClass : uint8_t {
  kShared = 0,
  kExclusive,
  kAssert,
  kComp,
};

inline constexpr int kNumWaitClasses = 4;

WaitClass WaitClassOf(LockMode mode);
std::string_view WaitClassName(WaitClass wait_class);

}  // namespace accdb::lock

#endif  // ACCDB_LOCK_TYPES_H_
