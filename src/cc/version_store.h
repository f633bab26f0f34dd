// Multi-version read path (ExecMode::kMultiVersion).
//
// MV2PL split: *writers* run exactly like the strict-2PL baseline (X row
// locks to commit, in-place table mutation, physical undo on abort) but
// additionally register a before-image version entry for every row they
// touch, *before* the in-place mutation; *read-only* transactions take no
// locks at all — they pin a snapshot timestamp at start and reconstruct
// every row as of that snapshot from the live table plus the version
// chains. Readers never block writers, writers never block or abort
// readers.
//
// Chain layout: per-item vector of entries in modification order. An entry
// is `pending` (ts == 0, its writer still runs) or committed at ts. Because
// writers hold the X row lock across modify..commit, the modification order
// of one row IS its commit-timestamp order, so the vector is ts-sorted with
// pendings at the tail. A snapshot S reconstructs a row by scanning its
// chain for the first entry that is pending or has ts > S:
//   * found, kind kCreate  -> the row did not exist at S (invisible);
//   * found, kUpdate/kDelete -> the entry's before-image is the value at S;
//   * none -> the live table row is the value at S (copy via GetCopy).
// The row copy is taken BEFORE the chain is consulted: if a writer slips in
// between, its entry (pending or ts > S, since commits after snapshot
// acquisition stamp past S) is found by the scan and its before-image —
// equal to the copy the reader would have wanted — is used instead.
//
// Commit stamps ts = ++clock under the store mutex while the writer still
// holds its locks; abort drops pending entries after physical undo restored
// the rows (between undo and drop, entry image == live image, so readers
// are indifferent). Snapshot acquisition (S = clock) is safe because every
// commit <= S finished stamping before it released the mutex.
//
// GC: a committed entry with ts <= watermark — the oldest active snapshot,
// or the current clock when none is active — can never be selected by any
// present or future snapshot (future snapshots only grow), so it is pruned.
// Opportunistic pruning runs every few commits; Gc() forces a pass.
//
// Known scope limit: a *keyed* lookup of a row that a committed-after-S
// transaction deleted cannot be served (the pk binding is gone, and this
// store indexes by RowId, not key). TPC-C's only deleted table (new_order)
// is never read by the read-only transactions, so the limitation is
// unreachable here; a general system would shadow the pk index too.
//
// Like src/cc/occ.h, this layer depends only on storage/common/lock
// vocabulary, never on src/acc.

#ifndef ACCDB_CC_VERSION_STORE_H_
#define ACCDB_CC_VERSION_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/lock_free_access.h"
#include "common/status.h"
#include "lock/types.h"
#include "storage/table.h"

namespace accdb::cc {

class VersionStore {
 public:
  enum class Kind : uint8_t { kUpdate, kDelete, kCreate };

  // Outcome of resolving (item, snapshot).
  enum class Resolution : uint8_t {
    kUseLive,    // No entry past the snapshot: live table row is current.
    kUseImage,   // *image = the row's value as of the snapshot.
    kInvisible,  // The row did not exist at the snapshot.
  };

  // Registers a pending entry for `item` before its writer mutates the row
  // in place. `before` is the pre-modification image (ignored for kCreate).
  // Re-registration by the same transaction is a no-op: the first entry's
  // image is the as-of-snapshot value, and intermediate self-states are
  // invisible to every other transaction anyway.
  void RegisterPending(lock::TxnId txn, const lock::ItemId& item, Kind kind,
                       storage::Row before);

  // Stamps every pending entry of `txn` with a fresh commit timestamp.
  // Must run before the transaction's locks release. No-op for transactions
  // that registered nothing.
  void CommitTxn(lock::TxnId txn);

  // Drops every pending entry of `txn`. Must run after physical undo has
  // restored the rows (so the entries' images match the live rows at the
  // moment they disappear).
  void AbortTxn(lock::TxnId txn);

  // Snapshot lifecycle for read-only transactions.
  uint64_t AcquireSnapshot();
  void ReleaseSnapshot(uint64_t snapshot);

  Resolution Resolve(const lock::ItemId& item, uint64_t snapshot,
                     storage::Row* image) const;

  // Oldest active snapshot, or the current clock when none is active:
  // committed entries at or below it are unreachable and reclaimable.
  uint64_t GcWatermark() const;

  // Prunes every reclaimable entry; returns how many were dropped.
  size_t Gc();

  uint64_t clock() const;
  size_t entry_count() const;  // Chain entries currently held (tests/stats).
  size_t active_snapshots() const;

 private:
  struct Entry {
    uint64_t ts = 0;  // 0 = pending.
    lock::TxnId txn = lock::kInvalidTxn;
    Kind kind = Kind::kUpdate;
    storage::Row before;
  };

  size_t GcLocked();

  mutable std::mutex mu_;
  uint64_t clock_ = 0;
  std::unordered_map<lock::ItemId, std::vector<Entry>, lock::ItemIdHash>
      chains_;
  // Items with a pending entry, per transaction (commit/abort walk these).
  std::unordered_map<lock::TxnId, std::vector<lock::ItemId>> pending_;
  // Active snapshot ts -> refcount (multiset semantics, ordered for the
  // watermark).
  std::map<uint64_t, int> snapshots_;
  uint64_t commits_since_gc_ = 0;
};

// Read methods for one pinned snapshot: GetCopy the live row first, then
// overlay VersionStore::Resolve. The reader pins a fresh snapshot when it is
// constructed and releases it when destroyed. The writes are
// LockFreeAccess's refusals: a snapshot transaction is read-only.
class SnapshotReader : public LockFreeAccess {
 public:
  explicit SnapshotReader(VersionStore* store)
      : store_(store), snapshot_(store->AcquireSnapshot()) {}
  ~SnapshotReader() override { store_->ReleaseSnapshot(snapshot_); }

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  uint64_t snapshot() const { return snapshot_; }

  Result<storage::Row> ReadById(const storage::Table& table,
                                storage::RowId id) override;
  Result<storage::Row> ReadByKey(const storage::Table& table,
                                 const storage::CompositeKey& key,
                                 storage::RowId* bound_id) override;
  Result<std::vector<RowPair>> ScanPkPrefix(
      const storage::Table& table,
      const storage::CompositeKey& prefix) override;
  Result<std::optional<RowPair>> MinPkPrefix(
      const storage::Table& table,
      const storage::CompositeKey& prefix) override;
  Result<std::vector<RowPair>> ScanIndexPrefix(
      const storage::Table& table, storage::IndexId index,
      const storage::CompositeKey& prefix) override;

 private:
  // nullopt = the row is invisible at this snapshot.
  std::optional<storage::Row> Reconstruct(const storage::Table& table,
                                          storage::RowId id) const;

  VersionStore* store_;
  uint64_t snapshot_;
};

}  // namespace accdb::cc

#endif  // ACCDB_CC_VERSION_STORE_H_
